"""Twin-observable verification and construction.

A pair of opposite-subsystem observables are twins for a bipartite state when
they commute with their reductions, their detectable spectra have equal size,
and a one-to-one correspondence between the detectable eigenvalues satisfies
four equivalent conditions (perfect outcome correlation, equal
post-measurement states, mutual state-dependent implication, and the
operator identity ``P1_i rho = P2_i rho``).  The report always evaluates all
four condition residuals so their equivalence is itself checked on every
call.

Outcome probabilities, the outcome table and residuals (b) and (d) are
batched over projector stacks with the per-slice Kronecker arithmetic of one
projector at a time, not ``kernels.conditional_states``: the CLI prints them
to 17 digits, and another contraction order moves their last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Dims, frobenius, range_projector, tensor_product
from .measurement import (
    DETECT_EPS,
    Observable,
    SubsystemObservable,
    coincidence_table,
    embed,
    observable_from_matrix,
)
from .states import BipartiteState, make_bipartite, schmidt_decompose

TWIN_TOL = 1e-8
# Rounding allowance of an outcome probability: on exact twins up to 8x8 the outcome
# table and the reduced trace differ by up to about 6 eps.
_ROUNDING = 16 * np.finfo(float).eps


class ConditionMismatchError(RuntimeError):
    """The four twin conditions disagreed beyond tolerance.

    They are mathematically equivalent, so this indicates a numerical or
    implementation problem, not a property of the input.
    """


@dataclass(frozen=True)
class DetectableSpectrum(Observable):
    """A subsystem observable restricted to its eigenvalues of positive
    probability, with those probabilities and the support projector of the
    reduced state."""

    probabilities: np.ndarray
    range_projector: np.ndarray


@dataclass(frozen=True)
class TwinReport:
    """Residuals and verdicts for a candidate twin pair.

    ``pairing`` holds the one-to-one map between the two detectable spectra as
    ``(i, j)`` index pairs, or None when there is none.
    """

    commutator_residuals: tuple
    spectra_match: bool
    pairing: tuple | None
    residual_a: float
    residual_b: float
    residual_c: float
    residual_d: float
    verdict: bool
    complete: bool
    strong_algebraic_residual: float | None


def detectable_spectrum(state: BipartiteState, sobs: SubsystemObservable) -> DetectableSpectrum:
    """Restrict an observable's spectrum to eigenvalues with probability above ``DETECT_EPS``."""
    sobs.check_dims(state.dims)
    reduced = state.rho1 if sobs.subsystem == 1 else state.rho2
    obs = sobs.observable
    probabilities = np.trace(reduced.matrix @ obs.projectors, axis1=1, axis2=2).real
    kept = np.nonzero(probabilities > DETECT_EPS)[0]
    return DetectableSpectrum(
        eigenvalues=obs.eigenvalues[kept],
        projectors=obs.projectors[kept],
        multiplicities=obs.multiplicities[kept],
        probabilities=probabilities[kept],
        range_projector=range_projector(reduced.matrix),
    )


def _pair_rows(table: np.ndarray, probabilities: np.ndarray, tol: float) -> tuple | None:
    """One-to-one outcome correspondence: row ``i`` pairs with the single column
    ``j`` that carries its full weight, ``table[i, j] > (1 - tol) * p_i``.
    Returns None when a row lacks a partner or the map is not a bijection."""
    pairs = []
    used = set()
    for i, p_i in enumerate(probabilities):
        partners = np.nonzero(table[i] > (1.0 - tol) * p_i)[0]
        if len(partners) != 1:
            return None
        j = int(partners[0])
        if j in used:
            return None
        used.add(j)
        pairs.append((i, j))
    return tuple(pairs)


def verify_twins(
    state: BipartiteState,
    a1: SubsystemObservable,
    b2: SubsystemObservable,
    tol: float = TWIN_TOL,
) -> TwinReport:
    """Evaluate the twin properties and all four condition residuals.

    Frobenius residuals are scaled by the norm of the state; commutator
    residuals by the spectral radius of the observable, so eigenvalue labels
    do not affect verdicts.  When no outcome pairing exists, residuals are
    reported under the eigenvalue-sorted alignment of the detectable spectra
    (they then quantify how badly the conditions fail).
    """
    if a1.subsystem != 1 or b2.subsystem != 2:
        raise ValueError("verify_twins expects a side-1 and a side-2 observable")
    spec_a = detectable_spectrum(state, a1)
    spec_b = detectable_spectrum(state, b2)
    rho = state.rho12.matrix
    rho_norm = frobenius(rho)

    comm = []
    for sobs, reduced in ((a1, state.rho1), (b2, state.rho2)):
        m = sobs.observable.matrix()
        scale = max(1.0, float(np.max(np.abs(sobs.observable.eigenvalues))))
        comm.append(frobenius(m @ reduced.matrix - reduced.matrix @ m) / scale)

    spectra_match = len(spec_a.eigenvalues) == len(spec_b.eigenvalues)
    table = coincidence_table(state, spec_a.projectors, spec_b.projectors)
    pairing = _pair_rows(table, spec_a.probabilities, tol) if spectra_match else None
    # Rows 0..n-1 pair in order; ``order`` lists side 2's aligned outcomes, then the rest.
    n = min(len(spec_a.eigenvalues), len(spec_b.eigenvalues))
    align = pairing if pairing is not None else tuple((i, i) for i in range(n))
    order = np.array([j for _, j in align] + list(range(n, len(spec_b))))
    rows, cols = np.arange(n), order[:n]
    weight = spec_a.probabilities[:n]
    paired = table[rows, cols]

    # (a) lossless/noiseless outcome channel
    deviation = table.copy()
    deviation[rows, cols] = abs(paired - weight)
    row_dev = deviation.max(axis=1)
    res_a = max(0.0, row_dev.max())

    # P1 rho and P2 rho once per outcome serve both (b) and (d); the first n
    # slices of each stack are the aligned pairs, the rest are unpaired.
    e1 = embed(spec_a.projectors, 1, state.dims)
    e2 = embed(spec_b.projectors[order], 2, state.dims)
    x1 = e1 @ rho
    x2 = e2 @ rho
    b = np.array([frobenius(m) for m in x1[:n] @ e1[:n] - x2[:n] @ e2[:n]]) / rho_norm
    c = abs(1.0 - paired / weight)
    d = np.array([frobenius(m) for m in x1[:n] - x2[:n]]) / rho_norm
    res_b, res_c, res_d = (max(0.0, float(r.max())) for r in (b, c, d))
    if not spectra_match:
        # A detectable outcome left without a partner fails (b)-(d) outright:
        # its projected state must vanish and its partner has probability 0.
        for proj_rho, proj in zip([*x1[n:], *x2[n:]], [*e1[n:], *e2[n:]]):
            res_b = max(res_b, frobenius(proj_rho @ proj) / rho_norm)
            res_c = 1.0
            res_d = max(res_d, frobenius(proj_rho) / rho_norm)

    residuals = (res_a, res_b, res_c, res_d)
    # (c) is relative to the outcome weight p_i; (a), (b) and (d) shrink with it.
    # Near twins move (a) and (c) by delta^2 and (b) and (d) by delta, so b/p_i and
    # d/p_i are met below tol, sqrt(a/p_i) and sqrt(c) below tol or, as tol^2 is at
    # machine epsilon, their rounding floor sqrt(_ROUNDING / p_i).  A met condition
    # raises only on a raw residual 10 times past its own threshold.
    if spectra_match:
        floor = np.maximum(tol, np.sqrt(_ROUNDING / weight))
        linear = any((r < tol).all() for r in (b / weight, d / weight))
        quadratic = any((np.sqrt(r) < floor).all() for r in (row_dev / weight, c))
        if (linear or quadratic) and max(residuals) > 10.0 * (tol if linear else floor.max()):
            raise ConditionMismatchError(
                "twin conditions disagree: residuals "
                f"a={res_a:.3e} b={res_b:.3e} c={res_c:.3e} d={res_d:.3e} at tol {tol:.0e}"
            )

    verdict = comm[0] < tol and comm[1] < tol and pairing is not None and max(residuals) < tol

    complete = all(
        (abs(np.trace(s.projectors @ s.range_projector, axis1=1, axis2=2).real - 1.0) < tol).all()
        for s in (spec_a, spec_b)
    )

    strong = _strong_algebraic(state, spec_a, spec_b, pairing, tol) if verdict else None
    return TwinReport(
        commutator_residuals=(comm[0], comm[1]), spectra_match=spectra_match, pairing=pairing,
        residual_a=res_a, residual_b=res_b, residual_c=res_c, residual_d=res_d,
        verdict=verdict, complete=complete, strong_algebraic_residual=strong,
    )


def _strong_algebraic(
    state: BipartiteState,
    spec_a: DetectableSpectrum,
    spec_b: DetectableSpectrum,
    pairing: tuple,
    tol: float,
) -> float | None:
    """Residual of ``A1 rho = B2 rho`` on the detectable parts; None when the
    paired eigenvalue labels differ, where the identity does not apply."""
    for i, j in pairing:
        if abs(spec_a.eigenvalues[i] - spec_b.eigenvalues[j]) > tol:
            return None
    rho = state.rho12.matrix
    a_det = embed(spec_a.matrix(), 1, state.dims)
    b_det = embed(spec_b.matrix(), 2, state.dims)
    return frobenius(a_det @ rho - b_det @ rho)


def construct_pure_twins(phi: np.ndarray, dims: Dims):
    """Twin observables of a pure bipartite vector, built in its Schmidt bases.

    Both observables carry the labels 1, 2, 3, ... on matching Schmidt
    vectors (so the strong algebraic identity applies); any subsystem
    directions outside the Schmidt span fall into the eigenvalue-0 kernel.
    """
    form = schmidt_decompose(phi, dims)
    a = np.zeros((dims.d1, dims.d1), dtype=np.complex128)
    b = np.zeros((dims.d2, dims.d2), dtype=np.complex128)
    for i in range(len(form)):
        label = float(i + 1)
        a += label * np.outer(form.basis1[:, i], form.basis1[:, i].conj())
        b += label * np.outer(form.basis2[:, i], form.basis2[:, i].conj())
    return (
        SubsystemObservable(observable=observable_from_matrix(a), subsystem=1),
        SubsystemObservable(observable=observable_from_matrix(b), subsystem=2),
    )


def dephase_in_schmidt_basis(phi: np.ndarray, dims: Dims) -> BipartiteState:
    """The mixed state sum_i r_i |i><i| (x) |i><i| in the Schmidt bases of ``phi``.

    Equals the output of the nonselective measurement of either Schmidt twin
    on the pure state.
    """
    form = schmidt_decompose(phi, dims)
    out = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for i in range(len(form)):
        p1 = np.outer(form.basis1[:, i], form.basis1[:, i].conj())
        p2 = np.outer(form.basis2[:, i], form.basis2[:, i].conj())
        out += form.coefficients[i] ** 2 * tensor_product(p1, p2)
    return make_bipartite(out, dims)
