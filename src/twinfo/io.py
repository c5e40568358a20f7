"""State/observable file format and deterministic JSON output.

Files are JSON objects with a ``kind`` of ``density``, ``pure`` or
``observable``; complex entries are ``[re, im]`` pairs in row-major order.
Output floats carry 17 significant digits (lossless for float64); positive
infinity serializes as the string ``"inf"``.
"""

from __future__ import annotations

import json
import math

import numpy as np

VALID_KINDS = ("density", "pure", "observable")


class StateFileError(ValueError):
    """A state file is malformed (bad JSON, missing or ill-shaped fields)."""


def _as_complex(entry, field: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        raise StateFileError(f"{field}: expected an [re, im] pair, got {entry!r}")
    return complex(entry[0], entry[1])


def parse_state_payload(data: dict, source: str = "<state file>"):
    """Parse a decoded JSON object into ``(kind, array, dims)``.

    ``dims`` is the raw dimension list from the file ([d1, d2] for bipartite
    objects, [d] for observables).
    """
    if not isinstance(data, dict):
        raise StateFileError(f"{source}: top level must be a JSON object")
    kind = data.get("kind")
    if kind not in VALID_KINDS:
        raise StateFileError(f"{source}: field 'kind' must be one of {VALID_KINDS}, got {kind!r}")
    dims = data.get("dims")
    want = 1 if kind == "observable" else 2
    if (
        not isinstance(dims, list)
        or len(dims) != want
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise StateFileError(
            f"{source}: field 'dims' must be a list of {want} positive integer(s), got {dims!r}"
        )
    total = int(np.prod(dims))

    if kind == "pure":
        vec = data.get("vector")
        if not isinstance(vec, list) or len(vec) != total:
            raise StateFileError(
                f"{source}: field 'vector' must be a list of {total} [re, im] pairs"
            )
        out = np.array([_as_complex(entry, f"vector[{i}]") for i, entry in enumerate(vec)])
        return kind, out, dims

    mat = data.get("matrix")
    if not isinstance(mat, list) or len(mat) != total:
        raise StateFileError(f"{source}: field 'matrix' must be a list of {total} rows")
    rows = []
    for i, row in enumerate(mat):
        if not isinstance(row, list) or len(row) != total:
            raise StateFileError(f"{source}: matrix[{i}] must be a list of {total} [re, im] pairs")
        rows.append([_as_complex(entry, f"matrix[{i}][{j}]") for j, entry in enumerate(row)])
    return kind, np.array(rows), dims


def load_state_file(path: str):
    """Read and parse a state file; raises StateFileError with a diagnostic."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_state_payload(data, source=path)


def complex_payload(array: np.ndarray):
    """Nested [re, im] pairs for a complex vector or matrix."""
    array = np.asarray(array)
    if array.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in array]
    return [[[float(z.real), float(z.imag)] for z in row] for row in array]


def state_file_dict(kind: str, array: np.ndarray, dims) -> dict:
    payload_key = "vector" if kind == "pure" else "matrix"
    return {"kind": kind, "dims": list(dims), payload_key: complex_payload(array)}


def write_state_file(path: str, kind: str, array: np.ndarray, dims) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_json(state_file_dict(kind, array, dims)))
        fh.write("\n")


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        if x > 0:
            return '"inf"'
        raise ValueError("cannot serialize -inf")
    return format(x, ".17g")


def _write_json(obj, pieces: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            pieces.append(f'{pad}  {json.dumps(str(key))}: ')
            _write_json(value, pieces, indent + 1)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            pieces.append("[]")
            return
        flat = all(
            isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
            for x in seq
        )
        if flat:
            pieces.append("[" + ", ".join(_scalar(x) for x in seq) + "]")
            return
        pieces.append("[\n")
        for k, value in enumerate(seq):
            pieces.append(pad + "  ")
            _write_json(value, pieces, indent + 1)
            pieces.append(",\n" if k < len(seq) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _scalar(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _format_float(float(x))


def format_json(obj) -> str:
    """Serialize with insertion-ordered keys and 17-significant-digit floats."""
    pieces = []
    _write_json(obj, pieces, 0)
    return "".join(pieces)
