"""Twin-observable verification and construction.

A pair of opposite-subsystem observables are twins for a bipartite state when
they commute with their reductions, their detectable spectra have equal size,
and a one-to-one correspondence between the detectable eigenvalues satisfies
four equivalent conditions (perfect outcome correlation, equal
post-measurement states, mutual state-dependent implication, and the
operator identity ``P1_i rho = P2_i rho``).  The report always evaluates all
four condition residuals, and every call checks that they obey the exact
inequalities that relate them (see ``verify_twins``).

Outcome probabilities, the outcome table and residuals (b) and (d) are
batched over projector stacks with the per-slice Kronecker arithmetic of one
projector at a time, not ``kernels.conditional_states``: the CLI prints them
to 17 digits, and another contraction order moves their last bits.  Side 1's
projectors are lifted once per call, for the table and for (b) and (d), and
each residual stack is normed in one ``kernels.frobenius_rows`` call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .kernels import eigvalsh, frobenius, frobenius_rows, range_projector
from .measurement import (
    DETECT_EPS,
    Observable,
    SubsystemObservable,
    coincidence_table,
    embed,
    observable_from_matrix,
)
from .states import BipartiteState, Dims, _bipartite_unchecked, _schmidt_products, schmidt_decompose

TWIN_TOL = 1e-8
_ROUNDING = 64 * np.finfo(float).eps  # per unit of total dimension, in the inequality check


class ConditionMismatchError(RuntimeError):
    """The twin-condition residuals broke a proven inequality between them.

    The inequalities hold for every state, so this indicates a numerical or
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
    ``(i, j)`` index pairs, or None when there is none.  The fields are in the
    order ``twinfo twins`` prints them.
    """

    verdict: bool
    complete: bool
    spectra_match: bool
    commutator_residuals: tuple
    pairing: tuple | None
    residual_a: float
    residual_b: float
    residual_c: float
    residual_d: float
    strong_algebraic_residual: float | None


def detectable_spectrum(state: BipartiteState, sobs: SubsystemObservable) -> DetectableSpectrum:
    """Restrict an observable's spectrum to eigenvalues with probability above ``DETECT_EPS``."""
    sobs.check_dims(state.dims)
    reduced = state.rho1 if sobs.subsystem == 1 else state.rho2
    obs = sobs.observable
    probabilities = (reduced.matrix @ obs.projectors).trace(axis1=1, axis2=2).real
    kept = np.nonzero(probabilities > DETECT_EPS)[0]
    return DetectableSpectrum(
        eigenvalues=obs.eigenvalues[kept],
        projectors=obs.projectors[kept],
        multiplicities=obs.multiplicities[kept],
        probabilities=probabilities[kept],
        range_projector=range_projector(reduced.matrix),
    )


def _check_tol(tol: float) -> None:
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
        raise TypeError(f"tol must be a number, got {tol!r}")
    if not 0.0 < tol < 1.0:  # at 1 or above every column pairs, at 0 or below no residual passes
        raise ValueError(f"tol must lie in (0, 1), got {tol}")


def _pair_rows(table: np.ndarray, probabilities: np.ndarray, tol: float) -> tuple | None:
    """One-to-one outcome correspondence: row ``i`` pairs with the single column
    ``j`` that carries its full weight, ``table[i, j] > (1 - tol) * p_i``.
    Returns None when a row lacks a partner or the map is not a bijection."""
    hits = table > (1.0 - tol) * probabilities[:, None]
    pairs = []
    used = set()
    for i, row in enumerate(hits):
        partners = np.flatnonzero(row)
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
    (they then quantify how badly the conditions fail).  ``tol`` sets only the
    verdict and the pairing; ConditionMismatchError does not depend on it.
    """
    if a1.subsystem != 1 or b2.subsystem != 2:
        raise ValueError("verify_twins expects a side-1 and a side-2 observable")
    _check_tol(tol)
    spec_a = detectable_spectrum(state, a1)
    spec_b = detectable_spectrum(state, b2)
    rho = state.rho12.matrix
    rho_norm = frobenius(rho)

    comm = []
    for sobs, reduced in ((a1, state.rho1), (b2, state.rho2)):
        m = sobs.observable.matrix()
        scale = max(1.0, float(np.abs(sobs.observable.eigenvalues).max()))
        comm.append(frobenius(m @ reduced.matrix - reduced.matrix @ m) / scale)

    spectra_match = len(spec_a.eigenvalues) == len(spec_b.eigenvalues)
    e1 = embed(spec_a.projectors, 1, state.dims)
    table = coincidence_table(state, e1, spec_b.projectors)
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
    res_a = max(0.0, float(deviation.max()))

    # P1 rho and P2 rho once per outcome serve both (b) and (d); the first n
    # slices of each stack are the aligned pairs, the rest are unpaired.
    e2 = embed(spec_b.projectors[order], 2, state.dims)
    x1 = e1 @ rho
    x2 = e2 @ rho
    s = frobenius_rows(x1[:n] @ e1[:n] - x2[:n] @ e2[:n])
    c = abs(1.0 - paired / weight)
    x = frobenius_rows(x1[:n] - x2[:n])
    res_b, res_c, res_d = (max(0.0, float(r.max())) for r in (s / rho_norm, c, x / rho_norm))
    # A detectable outcome left without a partner (only when the spectra differ) fails
    # (b)-(d) outright: its projected state must vanish and its partner has probability 0.
    for proj_rho, proj in zip([*x1[n:], *x2[n:]], [*e1[n:], *e2[n:]]):
        res_b = max(res_b, frobenius(proj_rho @ proj) / rho_norm)
        res_c = 1.0
        res_d = max(res_d, frobenius(proj_rho) / rho_norm)

    residuals = (res_a, res_b, res_c, res_d)
    # Per aligned pair, with X = P_i (x) 1 - 1 (x) Q_j, t = tr(X^2 rho) = p_i + q_j - 2 p_ij,
    # x = ||X rho||, s = ||P rho P - Q rho Q|| = ||P rho X + X rho Q|| and neg = tr(rho-), which
    # validation lets reach D STATE_TOL: t <= sqrt(D) x, t <= sqrt(D) s (t = tr(X X rho) =
    # tr((P rho P - Q rho Q) X)), s <= 2x and x^2 <= ||rho|| t + (||rho|| + neg) neg.
    t = weight + spec_b.probabilities[cols] - 2.0 * paired
    total = state.dims.total
    broken = np.array([x * x - rho_norm * t, t - math.sqrt(total) * x, s - 2.0 * x, t - math.sqrt(total) * s])
    if broken[0].max() > _ROUNDING * total:  # rare; neg costs an eigvalsh
        neg = -np.minimum(eigvalsh(rho), 0.0).sum()
        broken[0] = broken[0] - (rho_norm + neg) * neg
    if broken.max() > _ROUNDING * total:
        raise ConditionMismatchError(
            "twin conditions disagree: residuals "
            f"a={res_a:.3e} b={res_b:.3e} c={res_c:.3e} d={res_d:.3e} at tol {tol:.0e}"
        )

    verdict = comm[0] < tol and comm[1] < tol and pairing is not None and max(residuals) < tol

    complete = all(
        (abs((s.projectors @ s.range_projector).trace(axis1=1, axis2=2).real - 1.0) < tol).all()
        for s in (spec_a, spec_b)
    )

    strong = _strong_algebraic(state, spec_a, spec_b, pairing, tol) if verdict else None
    return TwinReport(
        verdict=verdict, complete=complete, spectra_match=spectra_match,
        commutator_residuals=(comm[0], comm[1]), pairing=pairing,
        residual_a=res_a, residual_b=res_b, residual_c=res_c, residual_d=res_d,
        strong_algebraic_residual=strong,
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
    labels = np.arange(1.0, len(form) + 1)
    return tuple(
        SubsystemObservable(observable_from_matrix((b * labels) @ b.conj().T), side)
        for side, b in ((1, form.basis1), (2, form.basis2))
    )


def dephase_in_schmidt_basis(phi: np.ndarray, dims: Dims) -> BipartiteState:
    """The mixed state sum_i r_i |i><i| (x) |i><i| in the Schmidt bases of ``phi``,
    formed as V diag(r) V^dagger with the product vectors |i>_1 |i>_2 as columns of V.

    Equals the output of the nonselective measurement of either Schmidt twin
    on the pure state.
    """
    form = schmidt_decompose(phi, dims)
    v = _schmidt_products(form).T
    return _bipartite_unchecked((v * form.coefficients**2) @ v.conj().T, dims)
