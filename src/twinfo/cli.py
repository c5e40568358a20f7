"""Command-line interface.

Structured JSON goes to stdout, a short human summary to stderr.  Every
command is a deterministic function of its input files, flags and seed.

Exit codes: 0 ok, 1 usage or parse error, 2 state validation failure,
3 sweep violation, 4 twin verdict false, 5 internal consistency error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

import numpy as np

from . import __version__
from .entropy import (
    clamp_nonnegative, mutual_information, mutual_information_via_relative, von_neumann_entropy,
)
from .io import StateFileError, complex_payload, format_json, load_state_file, write_state_file
from .kernels import BACKEND, eigh, frobenius
from .states import (
    BipartiteState, Dims, StateValidationError, bipartite_from_pure, make_bipartite, purity_class,
    schmidt_decompose, schmidt_reconstruct,
)

# Modules that only some commands run (chains, measurement, optimize, sampling,
# twins) are imported by those commands, to keep the start-up of the others short.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SWEEP = 3
EXIT_TWINS = 4
EXIT_INTERNAL = 5


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


def _load_observable(path: str, expected_dim: int, subsystem: int):
    from .measurement import SubsystemObservable, observable_from_matrix

    kind, array, dims_list = load_state_file(path)
    if kind != "observable":
        raise StateValidationError("kind", f"{path}: expected an observable file, got {kind}")
    if dims_list[0] != expected_dim:
        raise StateValidationError(
            "shape",
            f"{path}: observable dimension {dims_list[0]} does not match "
            f"subsystem {subsystem} dimension {expected_dim}",
        )
    try:
        observable = observable_from_matrix(array)
    except StateValidationError as exc:
        raise StateValidationError(exc.invariant, f"{path}: {exc}") from None
    return SubsystemObservable(observable=observable, subsystem=subsystem)


def _pure_vector(state: BipartiteState) -> np.ndarray:
    w, v = eigh(state.rho12.matrix)
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


def _emit(command: str, seed, config: dict, body: dict, summary_lines) -> None:
    report = {
        "tool": "twinfo",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": {"backend": BACKEND, **config},
        **body,
    }
    try:
        print(format_json(report), flush=True)
    except OSError as exc:  # a closed pipe, say: point stdout at devnull so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise StateFileError(f"cannot write to stdout: {exc}") from None
    for line in summary_lines:
        print(line, file=sys.stderr)


def cmd_report(args) -> int:
    state, kind, phi = _load_bipartite(args.state)
    block = _state_block(state, phi)
    _emit(
        "report", None, {},
        {"input": {"path": args.state, "kind": kind}, "state": block,
         "optimization": None, "twins": None},
        [
            f"{args.state}: {block['purity']} state on {state.dims.d1}x{state.dims.d2}",
            f"S(1)={block['entropy_1']:.6g}  S(2)={block['entropy_2']:.6g}  "
            f"S(12)={block['entropy_12']:.6g}  I(1:2)={block['mutual_information']:.6g}",
        ],
    )
    return EXIT_OK


def cmd_discord(args) -> int:
    from .optimize import OptimizationConfig, _direction_side, sup_information_gain

    try:
        cfg = OptimizationConfig(restarts=args.restarts, seed=args.seed, grid_refine=args.grid_refine)
    except ValueError as exc:  # the option names are the config's field names
        raise StateFileError(f"--{exc}") from None
    state, kind, phi = _load_bipartite(args.state)
    sup = sup_information_gain(state, _direction_side(args.direction), cfg)
    block = _state_block(state, phi)
    mi = block["mutual_information"]
    discord = clamp_nonnegative(mi - sup.value)
    _emit(
        "discord", args.seed,
        {"direction": args.direction, "restarts": args.restarts, "grid_refine": args.grid_refine},
        {
            "input": {"path": args.state, "kind": kind},
            "state": block,
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
        },
        [
            f"{args.state}: I(1:2)={mi:.6g}  sup gain={sup.value:.6g}  "
            f"discord({args.direction})={discord:.6g}  "
            f"[{sup.restarts_agreeing}/{len(sup.restart_values)} restarts agree]"
        ],
    )
    return EXIT_OK


def cmd_twins(args) -> int:
    from .twins import TWIN_TOL, ConditionMismatchError, _check_tol, verify_twins

    tol = TWIN_TOL if args.tol is None else args.tol
    try:
        _check_tol(tol)
    except ValueError as exc:
        raise StateFileError(f"--{exc}") from None
    state, kind, _ = _load_bipartite(args.state)
    a1 = _load_observable(args.obs_a, state.dims.d1, subsystem=1)
    b2 = _load_observable(args.obs_b, state.dims.d2, subsystem=2)
    try:
        twin_report = verify_twins(state, a1, b2, tol=tol)
    except ConditionMismatchError as exc:
        print(f"twinfo: internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    body = {
        "input": {"state": args.state, "observable_1": args.obs_a, "observable_2": args.obs_b},
        "report": vars(twin_report),
    }
    lines = [
        f"verdict: {'twins' if twin_report.verdict else 'not twins'}"
        f" (complete: {twin_report.complete})"
    ]
    if not twin_report.verdict:
        lines.append(
            f"residuals: a={twin_report.residual_a:.3e} b={twin_report.residual_b:.3e} "
            f"c={twin_report.residual_c:.3e} d={twin_report.residual_d:.3e}"
        )
    _emit("twins", None, {"tol": tol}, body, lines)
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
    body = {
        "input": {"path": args.state, "kind": kind},
        "coefficients": form.coefficients,
        "basis_1_columns": complex_payload(form.basis1.T),
        "basis_2_columns": complex_payload(form.basis2.T),
        "reconstruction_residual": residual,
    }
    _emit("schmidt", None, {}, body,
          [f"{len(form)} Schmidt coefficient(s), reconstruction residual {residual:.3e}"])
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .chains import CHECKS, Tally, sweep_records

    dims = _parse_dims(args.dims)
    try:
        sweep = sweep_records(dims, args.seed, args.samples, args.tol)
    except ValueError as exc:  # the option names are the library's argument names
        raise StateFileError(f"--{exc}") from None
    checks = {name: Tally() for name in CHECKS}
    dumped = []

    def dump(sample: int, check: str, matrix: np.ndarray) -> None:
        path = os.path.join(args.out, f"sample{sample:04d}_{check}.json")
        try:
            os.makedirs(args.out, exist_ok=True)
            write_state_file(path, "density", matrix, [dims.d1, dims.d2])
        except OSError as exc:
            raise StateFileError(f"--out: cannot write a violation dump: {exc}") from None
        dumped.append(path)

    for i, rho_m, ref_m, records in sweep:
        for name, margin, bound in records:
            if checks[name].record(margin, bound):
                dump(i, name, rho_m)
                if name == "lindblad":
                    dump(i, "lindblad_ref", ref_m)

    total_violations = sum(c.violations for c in checks.values())
    lines = [
        f"{name}: {c.evaluations} evaluations, {c.violations} violations"
        for name, c in checks.items()
    ]
    lines.append(f"{total_violations} violations")
    _emit(
        "sweep", args.seed,
        {"dims": [dims.d1, dims.d2], "samples": args.samples, "tol": args.tol, "out": args.out},
        {
            "checks": {name: vars(c) for name, c in checks.items()},
            "total_violations": total_violations,
            "violation_files": dumped,
        },
        lines,
    )
    return EXIT_SWEEP if total_violations else EXIT_OK


@cache  # one parser per process: ``main`` may run many times in one interpreter
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
    p.add_argument("--tol", type=float)  # default: twins.TWIN_TOL, read by cmd_twins
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


if __name__ == "__main__":
    sys.exit(main())
