"""Command-line interface.

Structured JSON goes to stdout, a short human summary to stderr.  Every
command is a deterministic function of its input files, flags and seed.

Exit codes: 0 ok, 1 usage or parse error, 2 state validation failure,
3 sweep violation, 4 twin verdict false, 5 internal consistency error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .entropy import (
    mutual_information,
    mutual_information_via_relative,
    relative_entropy,
    von_neumann_entropy,
)
from .io import StateFileError, complex_payload, format_json, load_state_file, write_state_file
from .kernels import BACKEND, info_gain_side1, joint_mutual_info, swap_sides
from .linalg import Dims, frobenius, is_hermitian, partial_trace
from .measurement import (
    SubsystemObservable,
    luders_apply_subsystem,
    observable_from_matrix,
)
from .optimize import OptimizationConfig, sup_information_gain
from .sampling import (
    sample_random_density,
    sample_random_observable,
    sample_random_unitary,
)
from .states import (
    BipartiteState,
    StateValidationError,
    bipartite_from_pure,
    make_bipartite,
    purity_class,
    schmidt_decompose,
    schmidt_reconstruct,
)
from .twins import ConditionMismatchError, verify_twins

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SWEEP = 3
EXIT_TWINS = 4
EXIT_INTERNAL = 5

MAX_SWEEP_DIM = 8


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_dims(text: str) -> Dims:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise StateFileError(f"--dims expects the form AxB, got {text!r}")
    try:
        d1, d2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise StateFileError(f"--dims expects integers, got {text!r}") from None
    if d1 < 1 or d2 < 1:
        raise StateFileError(f"--dims sides must be >= 1, got {text!r}")
    return Dims(d1, d2)


def _check_tol(tol: float) -> None:
    # A NaN tolerance would pass every margin check and fail JSON output.
    if math.isnan(tol):
        raise StateFileError("--tol must be a number, got nan")


def _load_bipartite(path: str):
    """Load a density or pure state file; returns (state, kind, phi_or_None)."""
    kind, array, dims_list = load_state_file(path)
    if kind == "observable":
        raise StateValidationError("kind", f"{path}: expected a state file, got an observable")
    dims = Dims(*dims_list)
    if kind == "pure":
        state = bipartite_from_pure(array, dims)
        return state, kind, array
    return make_bipartite(array, dims), kind, None


def _load_observable(path: str, expected_dim: int, subsystem: int) -> SubsystemObservable:
    kind, array, dims_list = load_state_file(path)
    if kind != "observable":
        raise StateValidationError("kind", f"{path}: expected an observable file, got {kind}")
    if dims_list[0] != expected_dim:
        raise StateValidationError(
            "shape",
            f"{path}: observable dimension {dims_list[0]} does not match "
            f"subsystem {subsystem} dimension {expected_dim}",
        )
    if not is_hermitian(array):
        raise StateValidationError("hermitian", f"{path}: observable matrix is not Hermitian")
    return SubsystemObservable(observable=observable_from_matrix(array), subsystem=subsystem)


def _pure_vector(state: BipartiteState) -> np.ndarray:
    w, v = np.linalg.eigh(state.rho12.matrix)
    return np.ascontiguousarray(v[:, -1])


def _state_block(state: BipartiteState, phi) -> dict:
    s1 = von_neumann_entropy(state.rho1)
    s2 = von_neumann_entropy(state.rho2)
    s12 = von_neumann_entropy(state.rho12)
    mi = mutual_information(state)
    mi_rel = mutual_information_via_relative(state)
    purity = purity_class(state.rho12)
    coeffs = None
    if purity == "pure":
        vec = phi if phi is not None else _pure_vector(state)
        coeffs = schmidt_decompose(vec, state.dims).coefficients
    return {
        "dims": [state.dims.d1, state.dims.d2],
        "purity": purity,
        "entropy_1": s1,
        "entropy_2": s2,
        "entropy_12": s12,
        "mutual_information": mi,
        "mutual_information_relative_entropy": mi_rel,
        "lieb_slack": 2.0 * min(s1, s2) - mi,
        "schmidt_coefficients": coeffs,
    }


def _report_skeleton(command: str, seed, config: dict) -> dict:
    return {
        "tool": "twinfo",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": {"backend": BACKEND, **config},
    }


def _emit(report: dict, summary_lines) -> None:
    print(format_json(report))
    for line in summary_lines:
        print(line, file=sys.stderr)


def cmd_report(args) -> int:
    state, kind, phi = _load_bipartite(args.state)
    report = _report_skeleton("report", None, {})
    block = _state_block(state, phi)
    report.update(
        {"input": {"path": args.state, "kind": kind}, "state": block,
         "optimization": None, "twins": None}
    )
    _emit(
        report,
        [
            f"{args.state}: {block['purity']} state on {state.dims.d1}x{state.dims.d2}",
            f"S(1)={block['entropy_1']:.6g}  S(2)={block['entropy_2']:.6g}  "
            f"S(12)={block['entropy_12']:.6g}  I(1:2)={block['mutual_information']:.6g}",
        ],
    )
    return EXIT_OK


def cmd_discord(args) -> int:
    if args.restarts < 1:
        raise StateFileError(f"--restarts must be >= 1, got {args.restarts}")
    if args.seed < 0:
        raise StateFileError(f"--seed must be >= 0, got {args.seed}")
    state, kind, phi = _load_bipartite(args.state)
    cfg = OptimizationConfig(
        restarts=args.restarts, seed=args.seed, grid_refine=args.grid_refine
    )
    side = 1 if args.direction == "1to2" else 2
    sup = sup_information_gain(state, side, cfg)
    # The qubit grid oracle is one more candidate beside the restarts.
    measured = state.dims.d1 if side == 1 else state.dims.d2
    candidates = args.restarts + int(args.grid_refine and measured == 2)
    mi = mutual_information(state)
    discord = mi - sup.value
    report = _report_skeleton(
        "discord",
        args.seed,
        {"direction": args.direction, "restarts": args.restarts, "grid_refine": args.grid_refine},
    )
    report.update(
        {
            "input": {"path": args.state, "kind": kind},
            "state": _state_block(state, phi),
            "optimization": {
                "direction": args.direction,
                "mutual_information": mi,
                "sup_information_gain": sup.value,
                "quantum_discord": discord,
                "restarts_agreeing": sup.restarts_agreeing,
                "converged": sup.converged,
                "grad_norm": sup.grad_norm,
                "evaluations": sup.evaluations,
            },
            "twins": None,
        }
    )
    _emit(
        report,
        [
            f"{args.state}: I(1:2)={mi:.6g}  sup gain={sup.value:.6g}  "
            f"discord({args.direction})={discord:.6g}  "
            f"[{sup.restarts_agreeing}/{candidates} restarts agree]"
        ],
    )
    return EXIT_OK


def cmd_twins(args) -> int:
    _check_tol(args.tol)
    state, kind, _ = _load_bipartite(args.state)
    a1 = _load_observable(args.obs_a, state.dims.d1, subsystem=1)
    b2 = _load_observable(args.obs_b, state.dims.d2, subsystem=2)
    twin_report = verify_twins(state, a1, b2, tol=args.tol)
    report = _report_skeleton("twins", None, {"tol": args.tol})
    report.update(
        {
            "input": {"state": args.state, "observable_1": args.obs_a, "observable_2": args.obs_b},
            "report": {
                "verdict": twin_report.verdict,
                "complete": twin_report.complete,
                "spectra_match": twin_report.spectra_match,
                "commutator_residuals": list(twin_report.commutator_residuals),
                "pairing": None
                if twin_report.pairing is None
                else [list(p) for p in twin_report.pairing.pairs],
                "residual_a": twin_report.residual_a,
                "residual_b": twin_report.residual_b,
                "residual_c": twin_report.residual_c,
                "residual_d": twin_report.residual_d,
                "strong_algebraic_residual": twin_report.strong_algebraic_residual,
            },
        }
    )
    lines = [
        f"verdict: {'twins' if twin_report.verdict else 'not twins'}"
        f" (complete: {twin_report.complete})"
    ]
    if not twin_report.verdict:
        lines.append(
            f"residuals: a={twin_report.residual_a:.3e} b={twin_report.residual_b:.3e} "
            f"c={twin_report.residual_c:.3e} d={twin_report.residual_d:.3e}"
        )
    _emit(report, lines)
    return EXIT_OK if twin_report.verdict else EXIT_TWINS


def cmd_schmidt(args) -> int:
    state, kind, phi = _load_bipartite(args.state)
    if purity_class(state.rho12) != "pure":
        purity = float(np.trace(state.rho12.matrix @ state.rho12.matrix).real)
        raise StateValidationError(
            "purity", f"{args.state}: state is mixed (purity {purity:.6g}); need a pure state"
        )
    vec = phi if phi is not None else _pure_vector(state)
    form = schmidt_decompose(vec, state.dims)
    residual = frobenius(schmidt_reconstruct(form) - vec)
    report = _report_skeleton("schmidt", None, {})
    report.update(
        {
            "input": {"path": args.state, "kind": kind},
            "coefficients": form.coefficients,
            "basis_1_columns": complex_payload(form.basis1.T),
            "basis_2_columns": complex_payload(form.basis2.T),
            "reconstruction_residual": residual,
        }
    )
    _emit(report, [f"{len(form)} Schmidt coefficient(s), reconstruction residual {residual:.3e}"])
    return EXIT_OK


class _Check:
    def __init__(self, name):
        self.name = name
        self.evaluations = 0
        self.violations = 0
        self.worst = 0.0

    def record(self, margin: float, tol: float) -> bool:
        """Record one check; ``margin`` > ``tol`` is a violation."""
        self.evaluations += 1
        self.worst = max(self.worst, margin)
        if margin > tol:
            self.violations += 1
            return True
        return False


def _relative_entropy_rounding(reference: np.ndarray) -> float:
    """First-order rounding allowance, in bits, of a relative entropy against ``reference``.

    Rounding in ``log2 reference`` is amplified by ``1 / lambda_min``: about
    ``n eps / (lambda_min ln 2)`` for an ``n x n`` reference.  A Lüders channel
    is unital, so it never lowers ``lambda_min``; the bound holds for the
    measured references too.  A singular reference gets no bound (infinity).
    """
    lam_min = float(np.linalg.eigvalsh(reference)[0])
    if lam_min <= 0:
        return math.inf
    return reference.shape[0] * np.finfo(float).eps / (lam_min * math.log(2))


def cmd_sweep(args) -> int:
    dims = _parse_dims(args.dims)
    if args.seed < 0:
        raise StateFileError(f"--seed must be >= 0, got {args.seed}")
    if dims.d1 > MAX_SWEEP_DIM or dims.d2 > MAX_SWEEP_DIM:
        raise StateFileError(f"--dims sides must be <= {MAX_SWEEP_DIM}, got {args.dims}")
    if args.samples < 1:
        raise StateFileError(f"--samples must be >= 1, got {args.samples}")
    _check_tol(args.tol)
    tol = args.tol
    total = dims.total
    checks = {
        name: _Check(name)
        for name in ("chain", "relative_entropy_identity", "partial_trace_identities", "lindblad", "lieb")
    }
    dumped = []

    def dump(sample: int, check: str, matrix: np.ndarray) -> None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"sample{sample:04d}_{check}.json")
        write_state_file(path, "density", matrix, [dims.d1, dims.d2])
        dumped.append(path)

    for i in range(args.samples):
        rank = (i % total) + 1
        rho_m = sample_random_density(dims, rank, args.seed, stream=10 * i)
        state = make_bipartite(rho_m, dims)
        rho = np.ascontiguousarray(state.rho12.matrix)
        swapped = swap_sides(rho, dims.d1, dims.d2)
        s1 = von_neumann_entropy(state.rho1)
        s2 = von_neumann_entropy(state.rho2)
        mi = mutual_information(state)

        if checks["lieb"].record(mi - 2.0 * min(s1, s2), tol):
            dump(i, "lieb", rho_m)
        if checks["relative_entropy_identity"].record(
            abs(mi - mutual_information_via_relative(state)), tol
        ):
            dump(i, "relative_entropy_identity", rho_m)

        for k in range(2):
            u1 = np.ascontiguousarray(sample_random_unitary(dims.d1, args.seed, stream=10 * i + 1 + k))
            u2 = np.ascontiguousarray(sample_random_unitary(dims.d2, args.seed, stream=10 * i + 3 + k))
            jmi = float(joint_mutual_info(rho, u1, u2))
            g1 = float(info_gain_side1(rho, u1, dims.d2))
            g2 = float(info_gain_side1(swapped, u2, dims.d1))
            margin = max(
                -jmi, jmi - g1, jmi - g2, g1 - min(mi, s2), g2 - min(mi, s1)
            )
            if checks["chain"].record(margin, tol):
                dump(i, "chain", rho_m)

        obs_a = SubsystemObservable(
            sample_random_observable(dims.d1, args.seed, stream=10 * i + 5, complete=False), 1
        )
        obs_b = SubsystemObservable(
            sample_random_observable(dims.d2, args.seed, stream=10 * i + 6, complete=False), 2
        )
        # Each channel output is computed once and reused by both checks.
        after_a = luders_apply_subsystem(obs_a, state)
        after_b = luders_apply_subsystem(obs_b, state)
        t_ab = luders_apply_subsystem(obs_a, after_b)
        res_1 = frobenius(
            partial_trace(t_ab.rho12.matrix, dims, keep=1) - after_a.rho1.matrix
        )
        res_2 = frobenius(
            partial_trace(t_ab.rho12.matrix, dims, keep=2) - after_b.rho2.matrix
        )
        if checks["partial_trace_identities"].record(max(res_1, res_2), 1e-10):
            dump(i, "partial_trace_identities", rho_m)

        ref_m = sample_random_density(dims, total, args.seed, stream=10 * i + 7)
        ref = make_bipartite(ref_m, dims)
        ref_a = luders_apply_subsystem(obs_a, ref)
        before = relative_entropy(state.rho12, ref.rho12)
        after_one = relative_entropy(after_a.rho12, ref_a.rho12)
        after_two = relative_entropy(
            luders_apply_subsystem(obs_b, after_a).rho12,
            luders_apply_subsystem(obs_b, ref_a).rho12,
        )
        margin = max(after_one - before, after_two - after_one)
        # Only a margin that would count pays for the reference's spectrum.
        allowance = _relative_entropy_rounding(ref.rho12.matrix) if margin > tol else 0.0
        if checks["lindblad"].record(margin, tol + allowance):
            dump(i, "lindblad", rho_m)
            dump(i, "lindblad_ref", ref_m)

    total_violations = sum(c.violations for c in checks.values())
    report = _report_skeleton(
        "sweep",
        args.seed,
        {"dims": [dims.d1, dims.d2], "samples": args.samples, "tol": tol, "out": args.out},
    )
    report.update(
        {
            "checks": {
                name: {
                    "evaluations": c.evaluations,
                    "violations": c.violations,
                    "worst_margin": c.worst,
                }
                for name, c in checks.items()
            },
            "total_violations": total_violations,
            "violation_files": dumped,
        }
    )
    lines = [
        f"{name}: {c.evaluations} evaluations, {c.violations} violations"
        for name, c in checks.items()
    ]
    lines.append(f"{total_violations} violations")
    _emit(report, lines)
    return EXIT_SWEEP if total_violations else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="twinfo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"twinfo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="entropies and correlation measures of one state")
    p.add_argument("state", help="state file (density or pure)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="randomized verification of the inequality chains")
    p.add_argument("--dims", default="2x2", help="subsystem dimensions, e.g. 2x3")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default="./violations", help="directory for violation dumps")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("discord", help="optimize one-sided information gain and report discord")
    p.add_argument("state")
    p.add_argument("--direction", choices=("1to2", "2to1"), default="1to2")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-refine", action="store_true", help="qubit grid prepass")
    p.set_defaults(func=cmd_discord)

    p = sub.add_parser("twins", help="verify a candidate twin-observable pair")
    p.add_argument("state")
    p.add_argument("obs_a", help="side-1 observable file")
    p.add_argument("obs_b", help="side-2 observable file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_twins)

    p = sub.add_parser("schmidt", help="Schmidt decomposition of a pure state")
    p.add_argument("state")
    p.set_defaults(func=cmd_schmidt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateFileError as exc:
        print(f"twinfo: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StateValidationError as exc:
        print(f"twinfo: validation failed ({exc.invariant}): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConditionMismatchError as exc:
        print(f"twinfo: internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
