"""The input-file contract of the CLI, over generated files.

For any state or observable file, ``report``, ``schmidt``, ``discord`` and
``twins`` exit 0, 1, 2 or 4.  On exit 1 or 2 stdout is empty and stderr is
exactly one ``twinfo: `` line.  Nothing is raised, and no numpy warning is
issued: ``cli.main`` runs in-process with warnings as errors.

Files are drawn deterministically (``derandomize=True``) at 1 to 3 dimensions
per side.  Most start as a valid state and its Schmidt twins, or a random
state and observables, and some of those get entries replaced by extreme or
uniform values; others are all extreme entries, or malformed on purpose.

The library's argument guards that a public caller can reach each raise their
type with twinfo's own message (``test_library_guards_raise_twinfo_messages``).
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinfo as T
from twinfo.cli import main
from twinfo.io import complex_payload

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=400)
EXTREMES = (0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e154, 1e308, -1e308, math.nan, math.inf,
            2.0**53, 1e20)
COMMANDS = {"report": [], "schmidt": [], "discord": ["--restarts", "2"], "twins": []}
MANGLES = ("truncate", "bad_bytes", "bool_dims", "unknown_kind", "kind_swap")

entry_st = st.one_of(st.sampled_from(EXTREMES), st.floats(-1.0, 1.0))


def _payload(kind: str, dims: list, array: np.ndarray) -> dict:
    return {"kind": kind, "dims": dims, "vector" if kind == "pure" else "matrix": complex_payload(array)}


@st.composite
def _array(draw, valid: np.ndarray):
    """``valid``, or it with up to three entries replaced, or a fresh array of
    extreme and uniform entries, sometimes Hermitian."""
    how = draw(st.sampled_from(["valid", "valid", "perturbed", "perturbed", "raw"]))
    a = valid.astype(complex)
    if how == "raw":
        flat = [complex(draw(entry_st), draw(entry_st)) for _ in range(a.size)]
        a = np.array(flat).reshape(a.shape)
        if a.ndim == 2 and draw(st.booleans()):
            with np.errstate(all="ignore"):
                a = (a + a.conj().T) / 2
    elif how == "perturbed":
        parts = a.reshape(-1).view(float)  # real and imaginary parts, in place
        for _ in range(draw(st.integers(1, 3))):
            parts[draw(st.integers(0, parts.size - 1))] = draw(entry_st)
    return a


@st.composite
def _file(draw, kind: str, dims: list, valid: np.ndarray, intact: bool) -> bytes:
    """One input file: ``valid`` if ``intact``, else perturbed as ``_array`` does,
    or malformed."""
    payload = _payload(kind, dims, valid)
    if intact:
        return json.dumps(payload).encode()
    payload = _payload(kind, dims, draw(_array(valid)))
    mangle = draw(st.one_of(st.none(), st.none(), st.none(), st.sampled_from(MANGLES)))
    if mangle == "bool_dims":
        payload["dims"] = [True, *dims[1:]]
    elif mangle == "unknown_kind":
        payload["kind"] = "wavefunction"
    elif mangle == "kind_swap":  # a state passed as an observable, or the reverse
        n = valid.shape[0]
        payload["kind"], payload["dims"] = (
            ("density", [n, 1]) if kind == "observable" else ("observable", [n]))
    text = json.dumps(payload).encode()
    if mangle == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif mangle == "bad_bytes":
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + b"\xff" + text[i + 1:]
    return text


@st.composite
def cases(draw):
    """An argv's command and its input files, as ``(command, [bytes, ...])``."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dims = T.Dims(d1, d2)
    seed = draw(st.integers(0, 2**16))
    phi = T.sample_random_pure(dims, seed)
    source = draw(st.sampled_from(["pure", "projector", "dephased", "random"]))
    if source == "pure":
        kind, valid = "pure", phi
    else:
        kind = "density"
        valid = {
            "projector": lambda: np.outer(phi, phi.conj()),
            "dephased": lambda: T.dephase_in_schmidt_basis(phi, dims).rho12.matrix,
            "random": lambda: T.sample_random_density(dims, draw(st.integers(1, d1 * d2)), seed, 1),
        }[source]()
    # A third of the cases keep every file valid, so that twin verdicts are reached.
    intact = draw(st.integers(0, 2)) == 0
    files = [draw(_file(kind, [d1, d2], valid, intact))]
    if command == "twins":
        if draw(st.booleans()):
            observables = [s.observable.matrix() for s in T.construct_pure_twins(phi, dims)]
        else:
            observables = [T.sample_random_observable(d, seed, stream, draw(st.booleans())).matrix()
                           for d, stream in ((d1, 2), (d2, 3))]
        for m in observables:
            d = draw(st.sampled_from([m.shape[0]] * 5 + [m.shape[0] % 3 + 1]))  # sometimes wrong
            files.append(draw(_file("observable", [d], m if d == m.shape[0] else np.eye(d), intact)))
    return command, files


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_input_file_ends_in_a_contract_outcome(tmp_path):
    seen = set()

    @CONTRACT
    @given(case=cases())
    def check(case):
        command, files = case
        paths = []
        for n, content in enumerate(files):
            path = tmp_path / f"input{n}.json"
            path.write_bytes(content)
            paths.append(str(path))
        code, out, err = _run([command, *paths, *COMMANDS[command]])
        assert code in (0, 1, 2, 4), (code, err)
        if code in (1, 2):
            assert out == ""
            assert err.startswith("twinfo: ") and err.count("\n") == 1 and err.endswith("\n"), err
        else:
            assert isinstance(json.loads(out), dict)
        seen.add((command, code))

    check()
    # The draws reach every outcome, true twin verdicts included.
    assert {code for _, code in seen} == {0, 1, 2, 4}
    assert ("twins", 0) in seen


def _table_observable(*diagonals) -> T.Observable:
    """A hand-built side observable whose "projectors" are the given diagonals, unchecked."""
    projectors = np.array([np.diag(d) for d in diagonals], dtype=complex)
    return T.Observable(np.arange(1.0, len(diagonals) + 1), projectors, np.ones(len(diagonals), int))


def _joint(state_matrix, *diagonals):
    state = T.make_bipartite(state_matrix, T.Dims(2, 2))
    z2 = T.SubsystemObservable(T.observable_from_basis(np.eye(2)), 2)
    return lambda: T.joint_distribution(state, T.SubsystemObservable(_table_observable(*diagonals), 1), z2)


def _bell() -> T.BipartiteState:
    return T.bipartite_from_pure(np.array([1, 0, 0, 1]) / math.sqrt(2), T.Dims(2, 2))


def _swapped(call):
    z = T.observable_from_basis(np.eye(2))
    return lambda: call(_bell(), T.SubsystemObservable(z, 2), T.SubsystemObservable(z, 1))


def _twins_tol(tol):
    z = T.observable_from_basis(np.eye(2))
    return lambda: T.verify_twins(_bell(), T.SubsystemObservable(z, 1), T.SubsystemObservable(z, 2), tol)


def _side(side, restarts=None):
    if restarts is None:
        return lambda: T.grid_information_gain_qubit(_bell(), side)
    return lambda: T.sup_information_gain(_bell(), side, T.OptimizationConfig(restarts=restarts))


# A side that is no integer, a bool included, on both optimiser entries; with 4 restarts the
# gain also draws Haar starts.
_SIDES = [(name, side, restarts) for name, side in (("float", 1.0), ("np-float64", np.float64(2.0)), ("bool", True))
          for restarts in (2, 4, None)]


@pytest.mark.parametrize("call, error, match", [
    (lambda: T.Dims(0, 2), ValueError, r"^subsystem dimensions must be >= 1, got 0x2$"),
    (lambda: T.partial_trace(np.eye(4) / 4, T.Dims(2, 2), keep=3), ValueError,
     r"^keep must be 1 or 2, got 3$"),
    (lambda: T.validate_density(np.ones(4)), T.StateValidationError,
     r"^expected a square matrix, got shape \(4,\)$"),
    (lambda: T.bipartite_from_pure(np.ones(3) / math.sqrt(3), T.Dims(2, 2)), T.StateValidationError,
     r"^vector length 3 does not match dims 2x2$"),
    (lambda: T.shannon_entropy([]), T.StateValidationError, r"^empty probability list$"),
    (lambda: T.SubsystemObservable(T.observable_from_basis(np.eye(2)), 3), ValueError,
     r"^subsystem must be 1 or 2, got 3$"),
    (lambda: T.observable_from_basis(np.zeros((2, 3))), ValueError,
     r"^basis must be square, got shape \(2, 3\)$"),
    (_swapped(T.joint_distribution), ValueError,
     r"^joint_distribution expects a side-1 and a side-2 observable$"),
    (_swapped(T.verify_twins), ValueError, r"^verify_twins expects a side-1 and a side-2 observable$"),
    # Outcome weights 1.5 and -0.5 on |00>, then one outcome that misses half of 1/4.
    (_joint(np.diag([1.0, 0, 0, 0]), [1.5, 0], [-0.5, 1]), ValueError,
     r"^joint probability -5\.000e-01 below clamp threshold$"),
    (_joint(np.eye(4) / 4, [1, 0]), ValueError, r"^joint probabilities sum to 0\.5$"),
    (lambda: T.coherence_decomposition(T.observable_from_basis(np.eye(2)), T.validate_density(np.eye(3) / 3)),
     ValueError, r"^dimension mismatch: observable 2, state 3$"),
    (_twins_tol("0.5"), TypeError, r"^tol must be a number, got '0\.5'$"),
    (_twins_tol(None), TypeError, r"^tol must be a number, got None$"),
    # Any truthy value would draw a complete observable.
    (lambda: T.sample_random_observable(3, 1, 0, complete="no"), TypeError,
     r"^complete must be a bool, got 'no'$"),
    *((_side(side, restarts), TypeError, rf"^side must be an integer, got {re.escape(repr(side))}$")
      for _, side, restarts in _SIDES),
], ids=["dims-below-1", "partial-trace-keep", "density-1d", "pure-length", "empty-distribution",
        "subsystem-3", "basis-not-square", "joint-sides-swapped", "twins-sides-swapped",
        "joint-below-clamp", "joint-sum", "coherence-dims", "twins-str-tol", "twins-none-tol",
        "observable-str-complete",
        *(f"{'grid' if r is None else f'gain-restarts-{r}'}-{name}-side" for name, _, r in _SIDES)])
def test_library_guards_raise_twinfo_messages(call, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match) as raised:
            call()
    assert type(raised.value) is error
