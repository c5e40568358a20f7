"""The four benchmark workloads, built from a seed.

Each workload is a list of operations run in order, cycling, by one client
that waits for each to finish (a closed loop).  An operation is a ``run``
callable, the only part that is timed, and a ``check`` callable that raises
``CheckFailed`` when the output is wrong.  ``check`` returns the fraction of
optimiser restarts that agreed with the best one, for operations that
compute a supremum, and None otherwise.

Why these four:

* ``suprema`` -- the optimiser: thousands of kernel objective calls per
  supremum, and the Bloch-sphere grid on the qubit operations.
* ``sweep`` -- kernels, entropy, measurement and states in ``cli sweep``,
  with no optimiser; 2x2 to 3x3 operations are bound by Python overhead,
  8x8 ones by ``eigvalsh`` on 64x64 matrices.
* ``twins`` -- twin verification on a labelled corpus: ``twins``,
  ``measurement`` and ``linalg``, with almost no kernel or optimiser work.
* ``cli`` -- one fresh ``python -m twinfo.cli`` process per operation:
  interpreter start, ``import twinfo``, file parsing and JSON output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import twinfo as T
import twinfo.cli
import twinfo.io
import twinfo.optimize

from oracles import bell_diagonal_discord, correlations_from_weights

WERNER_DISCORD = 0.26248318376373436
QUBIT_TOL = 1e-4
PURE_TOL = 1e-6
BOUND_SLACK = 1e-9
STRONG_TOL = 1e-10


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]


@dataclass(frozen=True)
class Workload:
    ops: list  # measured operations, run in order and cycled
    cycle: int  # operations per cycle; restarts_agree_frac averages the first cycle
    trace_rate: float  # nominal operations per second of a traced pass
    trace_ops: list = None  # in-process equivalents for the traced run, if they differ
    children: bool = False  # peak RSS is that of child processes


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------- suprema

SUPREMA_CYCLES = 6
BELL_VECTORS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
) / np.sqrt(2)


def _bell_diagonal(seed: int, cycle: int, slot: int):
    """A locally rotated Bell-diagonal state and its correlation vector.

    Slot 0 of every cycle is the Werner state with p = 0.5, unrotated.
    """
    dims = T.Dims(2, 2)
    if slot == 0:
        weights = np.array([0.625, 0.125, 0.125, 0.125])
        local = np.eye(4)
    else:
        weights = _rng(seed, 1, cycle, slot).dirichlet(np.ones(4))
        stream = 100 * cycle + 10 * slot
        local = np.kron(T.sample_random_unitary(2, seed, stream),
                        T.sample_random_unitary(2, seed, stream + 1))
    rho = sum(w * np.outer(b, b.conj()) for w, b in zip(weights, BELL_VECTORS))
    return T.make_bipartite(local @ rho @ local.conj().T, dims), correlations_from_weights(weights)


def _entropies(state):
    return (T.mutual_information(state), T.von_neumann_entropy(state.rho1),
            T.von_neumann_entropy(state.rho2))


def _check_bounds(value: float, limit: float, label: str) -> None:
    _require(-BOUND_SLACK <= value <= limit + BOUND_SLACK,
             f"{label}: supremum {value!r} outside [0, {limit!r}]")


def _discord_op(state, c, cfg, label):
    mi, _, s2 = _entropies(state)
    expected = bell_diagonal_discord(c)
    candidates = cfg.restarts + 1  # Nelder-Mead restarts plus the grid

    def run():
        # quantum_discord returns only the number; keep the supremum it computed.
        seen = []
        inner = twinfo.optimize.sup_information_gain

        def keep(*args, **kwargs):
            seen.append(inner(*args, **kwargs))
            return seen[-1]

        twinfo.optimize.sup_information_gain = keep
        try:
            return T.quantum_discord(state, "1to2", cfg), seen[-1]
        finally:
            twinfo.optimize.sup_information_gain = inner

    def check(out):
        discord, sup = out
        _require(abs(discord - expected) < QUBIT_TOL,
                 f"{label}: discord {discord!r}, closed form {expected!r}")
        _check_bounds(sup.value, min(mi, s2), label)
        return sup.restarts_agreeing / candidates

    return Op(label, run, check)


def _gain_op(state, side, cfg, label, exact=None):
    mi, s1, s2 = _entropies(state)
    limit = min(mi, s2 if side == 1 else s1)

    def check(sup):
        if exact is not None:
            _require(abs(sup.value - exact) < PURE_TOL, f"{label}: {sup.value!r} != S(1) {exact!r}")
        _check_bounds(sup.value, limit, label)
        return sup.restarts_agreeing / cfg.restarts

    return Op(label, lambda: T.sup_information_gain(state, side, cfg), check)


def _joint_op(state, cfg, label, exact):
    mi, s1, s2 = _entropies(state)

    def check(sup):
        _require(abs(sup.value - exact) < PURE_TOL, f"{label}: {sup.value!r} != S(1) {exact!r}")
        _check_bounds(sup.value, min(mi, s1, s2), label)
        return sup.restarts_agreeing / cfg.restarts

    return Op(label, lambda: T.sup_joint_mutual_information(state, cfg), check)


def suprema(seed: int, work_dir: str) -> Workload:
    """Fourteen suprema per cycle, each cycle on new states.

    Per cycle: six discords of Bell-diagonal states (Werner first), one pure
    state at 2x3 and one at 3x3 (gain and joint suprema each), and one
    full-rank mixed state at 3x3 and one at 4x4 (gain on both sides).  The
    four pure-state suprema are the fast ones and the two 4x4 gains the slow
    ones, so the median falls in the middle of the qubit and 3x3 operations.
    Heavy operations are spread through the cycle.
    """
    qubit_cfg = T.OptimizationConfig(restarts=4, seed=seed, grid_refine=True)
    gain_cfg = T.OptimizationConfig(restarts=2, seed=seed)
    joint_cfg = T.OptimizationConfig(restarts=1, seed=seed)
    mixed_cfg = T.OptimizationConfig(restarts=4, seed=seed)
    ops = []
    for cycle in range(SUPREMA_CYCLES):
        qubit = []
        for slot in range(6):
            state, c = _bell_diagonal(seed, cycle, slot)
            qubit.append(_discord_op(state, c, qubit_cfg, f"qubit[{cycle}.{slot}]"))
        pure, mixed = {}, {}
        for d1, d2 in ((2, 3), (3, 3)):
            dims = T.Dims(d1, d2)
            phi = T.sample_random_pure(dims, seed, stream=2000 + 10 * cycle + d1)
            state = T.bipartite_from_pure(phi, dims)
            s1 = T.entanglement_entropy(phi, dims)
            pure[d1] = (_gain_op(state, 1, gain_cfg, f"pure{d1}x{d2}.gain[{cycle}]", s1),
                        _joint_op(state, joint_cfg, f"pure{d1}x{d2}.joint[{cycle}]", s1))
        for d in (3, 4):
            dims = T.Dims(d, d)
            rho = T.sample_random_density(dims, dims.total, seed, stream=1000 + 10 * cycle + d)
            state = T.make_bipartite(rho, dims)
            mixed[d] = tuple(_gain_op(state, side, mixed_cfg, f"mixed{d}x{d}.side{side}[{cycle}]")
                             for side in (1, 2))
        ops += [qubit[0], pure[2][0], mixed[3][0], qubit[1], mixed[4][0], qubit[2], pure[2][1],
                qubit[3], mixed[3][1], pure[3][0], qubit[4], mixed[4][1], qubit[5], pure[3][1]]
    return Workload(ops=ops, cycle=len(ops) // SUPREMA_CYCLES, trace_rate=1.4)


# ---------------------------------------------------------------- sweep

SWEEP_DIMS = ("2x2", "2x3", "3x3", "4x4", "8x8")
SWEEP_SAMPLES = 8
SWEEP_SEEDS = 10


def _in_process_cli(argv):
    """``twinfo.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = twinfo.cli.main(list(argv))
    return code, out.getvalue()


def _cli_check(argv, label, first_stdout, expect=None):
    """Exit 0, JSON stdout identical to this argv's first run, then ``expect``."""

    def check(out):
        code, stdout = out
        _require(code == 0, f"{label}: exit code {code}")
        reference = first_stdout.setdefault(tuple(argv), stdout)
        _require(stdout == reference, f"{label}: stdout differs from the first run of {argv}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{label}: stdout is not JSON ({exc})") from None
        return expect(report) if expect else None

    return check


def _no_violations(report):
    _require(report["total_violations"] == 0, f"sweep: {report['total_violations']} violations")


def sweep(seed: int, work_dir: str) -> Workload:
    """Every dimension pair under ``SWEEP_SEEDS`` sweep seeds derived from ``seed``.

    The sweep's cost depends on its seed (random observables have 1 to d-1
    eigenspaces), so one cycle averages over several.
    """
    first_stdout = {}
    ops = []
    for k in range(SWEEP_SEEDS):
        for dims in SWEEP_DIMS:
            argv = ("sweep", "--dims", dims, "--samples", str(SWEEP_SAMPLES),
                    "--seed", str(seed * SWEEP_SEEDS + k),
                    "--out", os.path.join(work_dir, "violations"))
            label = f"sweep[{dims}.{k}]"
            ops.append(Op(label, lambda a=argv: _in_process_cli(a),
                          _cli_check(argv, label, first_stdout, _no_violations)))
    return Workload(ops=ops, cycle=len(ops), trace_rate=10.0)


# ---------------------------------------------------------------- twins

TWIN_DIMS = ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
TWIN_VARIANTS = 2


def _schmidt_observables(phi, dims, groups):
    """Side-1 and side-2 observables constant on groups of Schmidt vectors.

    Group ``g`` carries the label ``g + 1`` on both sides; directions outside
    the Schmidt span get the label 0.  Groups of more than one vector make
    rank-k (incomplete) observables.
    """
    form = T.schmidt_decompose(phi, dims)
    a = np.zeros((dims.d1, dims.d1), dtype=complex)
    b = np.zeros((dims.d2, dims.d2), dtype=complex)
    for label, group in enumerate(groups, start=1):
        for i in group:
            a += label * np.outer(form.basis1[:, i], form.basis1[:, i].conj())
            b += label * np.outer(form.basis2[:, i], form.basis2[:, i].conj())
    return (T.SubsystemObservable(T.observable_from_matrix(a), 1),
            T.SubsystemObservable(T.observable_from_matrix(b), 2))


def _rotated(sobs, angle, rng):
    d = sobs.observable.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    w, v = np.linalg.eigh(angle * h / np.linalg.norm(h))
    u = (v * np.exp(1j * w)) @ v.conj().T
    rotated = T.observable_from_matrix(u @ sobs.observable.matrix() @ u.conj().T)
    return T.SubsystemObservable(rotated, sobs.subsystem)


def _random_two_outcome(d: int, seed: int, stream: int):
    """Haar-random eigenbasis split into two eigenspaces (rank-k for d > 2)."""
    u = T.sample_random_unitary(d, seed, stream)
    cut = int(_rng(seed, 4, stream).integers(1, d))
    labels = np.where(np.arange(d) < cut, 1.0, 2.0)
    return T.observable_from_matrix((u * labels) @ u.conj().T)


def _twin_instance(seed: int, index: int, family: int, dims):
    """(state, a1, b2, is_twin) for one corpus entry; families 0-2 are twins."""
    rng = _rng(seed, 3, index)
    phi = T.sample_random_pure(dims, seed, stream=3000 + index)
    k = min(dims.d1, dims.d2)
    singles = [[i] for i in range(k)]
    coarse = [list(range(k - 1)), [k - 1]] if k > 2 else [[0, 1]]
    if family == 0:  # pure state, complete Schmidt twins
        return (T.bipartite_from_pure(phi, dims), *_schmidt_observables(phi, dims, singles), True)
    if family == 1:  # Schmidt-dephased state, rank-k twins
        return (T.dephase_in_schmidt_basis(phi, dims), *_schmidt_observables(phi, dims, coarse),
                True)
    if family == 2:  # pure state, rank-k twins
        return (T.bipartite_from_pure(phi, dims), *_schmidt_observables(phi, dims, coarse), True)
    if family == 3:  # complete Schmidt twins with side 1 rotated away
        a1, b2 = _schmidt_observables(phi, dims, singles)
        return T.bipartite_from_pure(phi, dims), _rotated(a1, 0.3, rng), b2, False
    if family == 4:  # full-rank random state, random rank-k observables
        rho = T.sample_random_density(dims, dims.total, seed, stream=4000 + index)
        a1 = T.SubsystemObservable(_random_two_outcome(dims.d1, seed, 5000 + index), 1)
        b2 = T.SubsystemObservable(_random_two_outcome(dims.d2, seed, 6000 + index), 2)
        return T.make_bipartite(rho, dims), a1, b2, False
    # maximally entangled state, standard basis against Fourier basis
    j = np.arange(dims.d2)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / dims.d2) / np.sqrt(dims.d2)
    entangled = np.zeros(dims.total, dtype=complex)
    entangled[[i * dims.d2 + i for i in range(k)]] = 1.0
    entangled /= np.linalg.norm(entangled)
    return (T.bipartite_from_pure(entangled, dims),
            T.SubsystemObservable(T.observable_from_basis(np.eye(dims.d1, dtype=complex)), 1),
            T.SubsystemObservable(T.observable_from_basis(fourier), 2), False)


def _twins_op(state, a1, b2, is_twin, label):
    mi = T.mutual_information(state)
    s2 = T.von_neumann_entropy(state.rho2)

    def run():
        return (T.verify_twins(state, a1, b2), T.joint_distribution(state, a1, b2),
                T.information_gain(state, a1))

    def check(out):
        report, joint, gain = out
        _require(report.verdict == is_twin, f"{label}: verdict {report.verdict}, label {is_twin}")
        if is_twin:
            residual = report.strong_algebraic_residual
            _require(residual is not None and residual < STRONG_TOL,
                     f"{label}: strong algebraic residual {residual!r}")
        _require(abs(float(joint.p.sum()) - 1.0) < 1e-8, f"{label}: joint table does not sum to 1")
        _check_bounds(gain, min(mi, s2), label)
        return None

    return Op(label, run, check)


def twins(seed: int, work_dir: str) -> Workload:
    ops = []
    index = 0
    for variant in range(TWIN_VARIANTS):
        for family in (0, 3, 1, 4, 2, 5):  # alternate twin and non-twin entries
            for d1, d2 in TWIN_DIMS:
                state, a1, b2, is_twin = _twin_instance(seed, index, family, T.Dims(d1, d2))
                label = f"twins[{d1}x{d2}.family{family}.{variant}]"
                ops.append(_twins_op(state, a1, b2, is_twin, label))
                index += 1
    return Workload(ops=ops, cycle=len(ops), trace_rate=500.0)


# ---------------------------------------------------------------- cli


def _write_cli_inputs(seed: int, work_dir: str) -> dict:
    paths = {name: os.path.join(work_dir, f"{name}.json")
             for name in ("mixed", "pure", "bell", "z", "werner")}
    mixed_dims = T.Dims(2, 3)
    pure_dims = T.Dims(3, 3)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    werner = 0.5 * np.outer(bell, bell.conj()) + 0.5 * np.eye(4) / 4
    twinfo.io.write_state_file(paths["mixed"], "density",
                               T.sample_random_density(mixed_dims, 3, seed, stream=7000), [2, 3])
    twinfo.io.write_state_file(paths["pure"], "pure",
                               T.sample_random_pure(pure_dims, seed, stream=7001), [3, 3])
    twinfo.io.write_state_file(paths["bell"], "pure", bell, [2, 2])
    twinfo.io.write_state_file(paths["z"], "observable", np.diag([1.0, -1.0]), [2])
    twinfo.io.write_state_file(paths["werner"], "density", werner, [2, 2])
    return paths


def _werner_discord(report):
    value = report["optimization"]["quantum_discord"]
    _require(abs(value - WERNER_DISCORD) < QUBIT_TOL, f"discord: {value!r} != {WERNER_DISCORD!r}")
    return report["optimization"]["restarts_agreeing"] / report["config"]["restarts"]


def _twin_verdict(report):
    _require(report["report"]["verdict"] is True, "twins: the Bell pair is not reported as twins")


def _subprocess_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "twinfo.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def cli(seed: int, work_dir: str) -> Workload:
    paths = _write_cli_inputs(seed, work_dir)
    commands = (
        (("report", paths["mixed"]), None),
        (("schmidt", paths["pure"]), None),
        (("twins", paths["bell"], paths["z"], paths["z"]), _twin_verdict),
        (("discord", paths["werner"], "--restarts", "4", "--seed", str(seed)), _werner_discord),
        (("sweep", "--samples", "20", "--seed", str(seed),
          "--out", os.path.join(work_dir, "violations")), _no_violations),
    )
    first_subprocess, first_in_process = {}, {}
    ops, trace_ops = [], []
    for argv, expect in commands:
        label = f"cli[{argv[0]}]"
        ops.append(Op(label, lambda a=argv: _subprocess_cli(a),
                      _cli_check(argv, label, first_subprocess, expect)))
        trace_ops.append(Op(label, lambda a=argv: _in_process_cli(a),
                            _cli_check(argv, label, first_in_process, expect)))
    return Workload(ops=ops, cycle=len(ops), trace_rate=8.0, trace_ops=trace_ops, children=True)


WORKLOADS = {"suprema": suprema, "sweep": sweep, "twins": twins, "cli": cli}
