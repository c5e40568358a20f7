"""State/observable file format and deterministic JSON output.

Files are JSON objects with a ``kind`` of ``density``, ``pure`` or
``observable``; complex entries are ``[re, im]`` pairs in row-major order.
Output floats carry 17 significant digits (lossless for float64); positive
infinity serializes as the string ``"inf"``.  The numbers of a flat list share
one line; every other container puts one item per line, two spaces deeper per level.
"""

from __future__ import annotations

import json
import math
import sys

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
    try:
        return complex(entry[0], entry[1])
    except OverflowError:
        # An integer beyond the float range: name the field, as its repr can itself raise.
        raise StateFileError(f"{field}: entry is beyond the float range") from None


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
    total = math.prod(dims)
    if total > sys.maxsize:  # no list is that long, and its digits may be too many to print
        raise StateFileError(f"{source}: field 'dims' asks for more entries than a list can hold")

    if kind == "pure":
        vec = data.get("vector")
        if not isinstance(vec, list) or len(vec) != total:
            raise StateFileError(
                f"{source}: field 'vector' must be a list of {total} [re, im] pairs"
            )
        out = np.array([_as_complex(x, f"{source}: vector[{i}]") for i, x in enumerate(vec)])
        return kind, out, dims

    mat = data.get("matrix")
    if not isinstance(mat, list) or len(mat) != total:
        raise StateFileError(f"{source}: field 'matrix' must be a list of {total} rows")
    rows = []
    for i, row in enumerate(mat):
        if not isinstance(row, list) or len(row) != total:
            raise StateFileError(f"{source}: matrix[{i}] must be a list of {total} [re, im] pairs")
        rows.append([_as_complex(x, f"{source}: matrix[{i}][{j}]") for j, x in enumerate(row)])
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
    except (RecursionError, ValueError) as exc:
        # Not UTF-8, arrays nested too deeply, or an integer literal over 4300 digits.
        raise StateFileError(f"{path}: {exc}") from None
    return parse_state_payload(data, source=path)


def complex_payload(array: np.ndarray):
    """Nested [re, im] pairs for a complex vector or matrix."""
    a = np.asarray(array, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def write_state_file(path: str, kind: str, array: np.ndarray, dims) -> None:
    payload_key = "vector" if kind == "pure" else "matrix"
    data = {"kind": kind, "dims": list(dims), payload_key: complex_payload(array)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_json(data))
        fh.write("\n")


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _scalar(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        if x > 0:
            return '"inf"'
        raise ValueError("cannot serialize -inf")
    return format(x, ".17g")


def _json(obj, pad: str) -> str:
    """The text for ``obj``, its continuation lines indented from ``pad``."""
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if _is_number(obj):
        return _scalar(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{json.dumps(str(key))}: {_json(value, inner)}" for key, value in obj.items()]
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if len(obj) and all(map(_is_number, obj)):
            return "[" + ", ".join(map(_scalar, obj)) + "]"
        brackets = "[]"
        items = [_json(value, inner) for value in obj]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def format_json(obj) -> str:
    """Serialize with insertion-ordered keys and 17-significant-digit floats."""
    return _json(obj, "")
