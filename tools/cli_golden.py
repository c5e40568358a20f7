"""Byte-for-byte comparison of the twinfo CLI between two source trees.

    python3 tools/cli_golden.py OLD_TREE NEW_TREE

Each tree is a checkout whose library lives in ``src/``.  The script writes
the input files itself, from numpy generators with fixed seeds (never through
either tree), then runs every argv of the golden set as
``python -m twinfo.cli ...`` under each tree, each run in a fresh working
directory that holds a copy of the inputs.  It compares stdout, stderr, the
exit code and every file a run leaves behind (violation dumps), prints one
line per difference and exits 1 if there is any, 0 otherwise.

The golden set of 157 argvs: ``sweep --samples 8`` at 2x2, 2x3, 3x3, 4x4 and 8x8
with seeds 0-9, at 1x3, 4x1, 8x2 and 5x7 (one outcome, a one-dimensional
opposite side, unequal sides), and seven other sweeps, three of them across
sample-chunk boundaries; two 2x2 sweeps with seeds 2**32 and 2**130 (two and
five 32-bit words); eight ``sweep`` runs with rejected options (NaN and
-inf ``--tol``, zero samples, a negative seed, dims too large, zero or not of
the form AxB) or an ``--out`` that names a file; ``report``, ``schmidt`` and ``discord`` (both
directions, with and without ``--grid-refine``) on a Werner state, a Bell pair,
random 2x3 and 3x3 mixed states, a random 3x3 pure state, a random 2x3 pure
state given as a density matrix (its Schmidt columns come from the eigensolver),
and states with one-dimensional sides (the 1x1 state, a random 2x1 mixed state
and a random 1x2 pure state); five more ``discord`` runs: rejected options on the Werner
state (zero restarts, a negative seed, both) and on a missing file (zero
restarts), and one restart with ``--grid-refine``; twelve ``twins``
runs (complete and rank-k Schmidt twins on pure and Schmidt-dephased states,
complete twins at ``--tol 1e-2``, a pair with unequal detectable spectra,
random two-outcome observables, and two observables whose label gaps lie far
inside and far outside the eigenvalue-grouping tolerance); and malformed inputs (NaN density, NaN
pure state, boolean dims, NaN observable, and an Infinity density under
``report``, where arithmetic before the finite check would print a warning),
with seven more ``twins`` runs on bad observables: one not Hermitian, three
whose finite entries overflow (diagonal, symmetric, skew), one of the wrong
dimension, and the two kind mismatches (an observable as the state, a density
as an observable).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

TIMEOUT_S = 300
STATES = ("werner.json", "bell.json", "mixed2x3.json", "mixed3x3.json", "pure3x3.json",
          "puredensity2x3.json", "one1x1.json", "mixed2x1.json", "pure1x2.json")


def _entries(array: np.ndarray) -> list:
    """Complex entries as ``[re, im]`` pairs, nested like the array."""
    a = np.asarray(array, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _pure(rng: np.random.Generator, d: int) -> np.ndarray:
    phi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return phi / np.linalg.norm(phi)


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _spectral(basis: np.ndarray, labels) -> np.ndarray:
    """The observable with eigenvalue ``labels[k]`` on column ``k`` of ``basis``."""
    return (basis * np.asarray(labels, dtype=float)) @ basis.conj().T


def write_inputs(directory: str) -> None:
    """Write the golden-set input files into ``directory``."""
    files = {}

    def put(name, kind, dims, key, array):
        files[name] = {"kind": kind, "dims": dims, key: _entries(array)}

    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    put("werner.json", "density", [2, 2], "matrix",
        0.5 * np.outer(singlet, singlet) + 0.5 * np.eye(4) / 4)
    put("bell.json", "pure", [2, 2], "vector", np.array([1, 0, 0, 1]) / np.sqrt(2))
    put("mixed2x3.json", "density", [2, 3], "matrix", _density(np.random.default_rng(23), 6))
    put("mixed3x3.json", "density", [3, 3], "matrix", _density(np.random.default_rng(33), 9))
    phi = _pure(np.random.default_rng(34), 9)
    put("pure3x3.json", "pure", [3, 3], "vector", phi)
    # A pure state as a density file: report and schmidt take its vector from the eigensolver.
    pure = _pure(np.random.default_rng(26), 6)
    put("puredensity2x3.json", "density", [2, 3], "matrix", np.outer(pure, pure.conj()))
    # One-dimensional sides: the ascent at d = 1 and the grid against a trivial opposite side.
    put("one1x1.json", "density", [1, 1], "matrix", np.eye(1))
    put("mixed2x1.json", "density", [2, 1], "matrix", _density(np.random.default_rng(21), 2))
    put("pure1x2.json", "pure", [1, 2], "vector", _pure(np.random.default_rng(12), 2))
    # Schmidt twins of the 3x3 pure state: phi = sum_k s_k u_k (x) w_k, u_k the
    # columns of u and w_k the rows of vh.
    u, _, vh = np.linalg.svd(phi.reshape(3, 3))
    labels = np.diag([1.0, 2.0, 3.0])
    put("twin_a.json", "observable", [3], "matrix", u @ labels @ u.conj().T)
    put("twin_b.json", "observable", [3], "matrix", vh.T @ labels @ vh.conj())
    # Rank-2 + rank-1 twins of the same state: its first two Schmidt pairs share a label.
    put("coarse_a.json", "observable", [3], "matrix", _spectral(u, [1, 1, 2]))
    put("coarse_b.json", "observable", [3], "matrix", _spectral(vh.T, [1, 1, 2]))
    # Label gaps far inside and far outside EIG_GROUP_TOL (1e-8 at unit scale): the
    # first two Schmidt vectors group into one eigenspace, or stay apart.
    put("near_a.json", "observable", [3], "matrix", _spectral(u, [1, 1 + 1e-11, 2]))
    put("split_a.json", "observable", [3], "matrix", _spectral(u, [1, 1 + 1e-5, 2]))
    # A 2x3 pure state dephased in its Schmidt bases, with rank-k twins: side 2
    # puts its second Schmidt vector and the kernel direction in one eigenspace.
    u, s, vh = np.linalg.svd(_pure(np.random.default_rng(35), 6).reshape(2, 3))
    dephased = sum(s[k] ** 2 * np.kron(np.outer(u[:, k], u[:, k].conj()),
                                       np.outer(vh[k], vh[k].conj())) for k in range(2))
    put("dephased2x3.json", "density", [2, 3], "matrix", dephased)
    put("rank2_a.json", "observable", [2], "matrix", _spectral(u, [1, 2]))
    put("rank2_b.json", "observable", [3], "matrix", _spectral(vh.T, [1, 2, 2]))
    # Random two-outcome observables: rank 1 + 1 on the qubit, rank 1 + 2 on the qutrit.
    put("two_a.json", "observable", [2], "matrix",
        _spectral(_unitary(np.random.default_rng(36), 2), [1, 2]))
    put("two_b.json", "observable", [3], "matrix",
        _spectral(_unitary(np.random.default_rng(37), 3), [1, 2, 2]))
    put("z.json", "observable", [2], "matrix", np.diag([1.0, -1.0]))
    put("x.json", "observable", [2], "matrix", np.array([[0.0, 1.0], [1.0, 0.0]]))
    put("nonherm.json", "observable", [2], "matrix", np.array([[0.0, 1.0], [0.0, 0.0]]))
    put("huge_diag.json", "observable", [2], "matrix", np.diag([1e308, -1e308]))
    put("huge_sym.json", "observable", [2], "matrix", np.array([[0.5, 1e308], [1e308, 0.5]]))
    put("huge_skew.json", "observable", [2], "matrix", np.array([[0.5, 1e308], [-1e308, 0.5]]))
    for name, payload in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(payload, fh)
    malformed = {
        "nan_density.json": '{"kind": "density", "dims": [2, 1], '
                            '"matrix": [[[0.5, 0], [NaN, 0]], [[0, 0], [0.5, 0]]]}',
        "inf_density.json": '{"kind": "density", "dims": [2, 1], '
                            '"matrix": [[[0.5, 0], [Infinity, 0]], [[Infinity, 0], [0.5, 0]]]}',
        "nan_pure.json": '{"kind": "pure", "dims": [2, 1], "vector": [[1, 0], [NaN, 0]]}',
        "bool_dims.json": '{"kind": "density", "dims": [true, 2], '
                          '"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        "nan_obs.json": '{"kind": "observable", "dims": [2], '
                        '"matrix": [[[1, 0], [NaN, 0]], [[NaN, 0], [-1, 0]]]}',
    }
    for name, text in malformed.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def golden_argvs() -> list[tuple[str, ...]]:
    argvs = []
    for dims in ("2x2", "2x3", "3x3", "4x4", "8x8"):
        for seed in range(10):
            argvs.append(("sweep", "--dims", dims, "--samples", "8", "--seed", str(seed)))
    for dims in ("1x3", "4x1", "8x2", "5x7"):
        argvs.append(("sweep", "--dims", dims, "--samples", "8"))
    argvs += [
        ("sweep", "--dims", "2x3", "--samples", "200"),
        ("sweep", "--dims", "3x2", "--samples", "50"),
        ("sweep", "--samples", "3", "--seed", "2", "--tol", "-1"),
        ("sweep", "--dims", "2x2", "--samples", "8", "--seed", "4041"),
        ("sweep", "--dims", "5x5", "--samples", "13"),
        ("sweep", "--dims", "6x6", "--samples", "7", "--seed", "3"),
        ("sweep", "--dims", "3x4", "--samples", "40"),
        # Seeds of two and of five 32-bit words: the streams' keys against SeedSequence's.
        ("sweep", "--dims", "2x2", "--samples", "3", "--seed", "4294967296"),
        ("sweep", "--dims", "2x2", "--samples", "3", "--seed", str(2**130)),
    ]
    # Rejected sweep options, and an --out that names an input file (the first dump fails).
    argvs += [
        ("sweep", "--tol", "nan"),
        ("sweep", "--tol=-inf"),
        ("sweep", "--samples", "0"),
        ("sweep", "--seed", "-1"),
        ("sweep", "--dims", "9x2"),
        ("sweep", "--dims", "2x0"),
        ("sweep", "--dims", "2by2"),
        ("sweep", "--samples", "3", "--seed", "2", "--tol", "-1", "--out", "werner.json"),
    ]
    for state in STATES:
        argvs += [("report", state), ("schmidt", state)]
        for direction in ("1to2", "2to1"):
            argvs.append(("discord", state, "--direction", direction))
            argvs.append(("discord", state, "--direction", direction, "--grid-refine"))
    argvs += [
        ("twins", "bell.json", "z.json", "z.json"),
        ("twins", "bell.json", "z.json", "x.json"),
        ("twins", "pure3x3.json", "twin_a.json", "twin_b.json"),
        ("twins", "pure3x3.json", "twin_a.json", "twin_b.json", "--tol", "1e-2"),
        ("twins", "pure3x3.json", "twin_a.json", "coarse_b.json"),
        ("twins", "bell.json", "twin_a.json", "twin_b.json"),
        ("twins", "pure3x3.json", "coarse_a.json", "coarse_b.json"),
        ("twins", "pure3x3.json", "near_a.json", "coarse_b.json"),
        ("twins", "pure3x3.json", "split_a.json", "twin_b.json"),
        ("twins", "dephased2x3.json", "rank2_a.json", "rank2_b.json"),
        ("twins", "dephased2x3.json", "two_a.json", "two_b.json"),
        ("twins", "mixed2x3.json", "two_a.json", "two_b.json"),
    ]
    # Rejected discord options (the first check wins, before any file is read), and
    # the grid as a second candidate beside one restart.
    argvs += [
        ("discord", "werner.json", "--restarts", "0"),
        ("discord", "werner.json", "--seed", "-1"),
        ("discord", "werner.json", "--restarts", "0", "--seed", "-1"),
        ("discord", "missing.json", "--restarts", "0"),
        ("discord", "werner.json", "--restarts", "1", "--grid-refine"),
    ]
    for bad in ("nan_density.json", "nan_pure.json", "bool_dims.json"):
        argvs += [("report", bad), ("discord", bad)]
    argvs.append(("report", "inf_density.json"))
    argvs.append(("twins", "bell.json", "nan_obs.json", "z.json"))
    for bad in ("nonherm.json", "huge_diag.json", "huge_sym.json", "huge_skew.json"):
        argvs.append(("twins", "bell.json", bad, "z.json"))
    argvs += [
        ("twins", "bell.json", "z.json", "twin_b.json"),  # a qutrit observable on side 2
        ("twins", "z.json", "z.json", "z.json"),  # an observable as the state
        ("twins", "bell.json", "werner.json", "z.json"),  # a density as an observable
    ]
    return argvs


def _left_behind(directory: str, inputs: set) -> dict:
    """Every file under ``directory`` except the inputs, by relative path, as bytes."""
    found = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            if rel not in inputs:
                with open(path, "rb") as fh:
                    found[rel] = fh.read()
    return found


def run_tree(tree: str, argvs, inputs_dir: str, work_dir: str) -> list[dict]:
    """Run each argv under ``tree``'s ``src/`` in its own copy of ``inputs_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    inputs = set(os.listdir(inputs_dir))
    outcomes = []
    for n, argv in enumerate(argvs):
        cwd = os.path.join(work_dir, str(n))
        shutil.copytree(inputs_dir, cwd)
        res = subprocess.run([sys.executable, "-m", "twinfo.cli", *argv], cwd=cwd, env=env,
                             capture_output=True, timeout=TIMEOUT_S)
        outcomes.append({"stdout": res.stdout, "stderr": res.stderr, "exit": res.returncode,
                         "files": _left_behind(cwd, inputs)})
    return outcomes


def differences(argvs, old: list[dict], new: list[dict]) -> list[str]:
    """One line per field, or dumped file, that differs between two runs of ``argvs``."""
    lines = []
    for argv, a, b in zip(argvs, old, new):
        label = " ".join(argv)
        for key in ("exit", "stdout", "stderr"):
            if a[key] != b[key]:
                lines.append(f"{label}: {key} differs")
        for name in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(name) != b["files"].get(name):
                lines.append(f"{label}: file {name} differs")
    return lines


def compare(old_tree: str, new_tree: str, argvs) -> tuple[list[str], int]:
    """Run ``argvs`` under both trees; returns the differences and the number of dumped files."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs_dir = os.path.join(tmp, "inputs")
        os.mkdir(inputs_dir)
        write_inputs(inputs_dir)
        old = run_tree(old_tree, argvs, inputs_dir, os.path.join(tmp, "old"))
        new = run_tree(new_tree, argvs, inputs_dir, os.path.join(tmp, "new"))
    return differences(argvs, old, new), sum(len(o["files"]) for o in old)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/cli_golden.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    argvs = golden_argvs()
    lines, dumped = compare(args[0], args[1], argvs)
    for line in lines:
        print(line)
    print(f"{len(argvs)} argvs, {dumped} dumped files, {len(lines)} differences", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
