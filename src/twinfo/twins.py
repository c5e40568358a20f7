"""Twin-observable verification and construction.

A pair of opposite-subsystem observables are twins for a bipartite state when
they commute with their reductions, their detectable spectra have equal size,
and a one-to-one correspondence between the detectable eigenvalues satisfies
four equivalent conditions (perfect outcome correlation, equal
post-measurement states, mutual state-dependent implication, and the
operator identity ``P1_i rho = P2_i rho``).  The report always evaluates all
four condition residuals so their equivalence is itself checked on every
call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Dims, frobenius, range_projector, tensor_product
from .measurement import DETECT_EPS, SubsystemObservable, coincidence_table, observable_from_matrix
from .states import BipartiteState, make_bipartite, schmidt_decompose

TWIN_TOL = 1e-8


class ConditionMismatchError(RuntimeError):
    """The four twin conditions disagreed beyond tolerance.

    They are mathematically equivalent, so this indicates a numerical or
    implementation problem, not a property of the input.
    """


@dataclass(frozen=True)
class DetectableSpectrum:
    """Eigenvalues of a subsystem observable with positive probability."""

    eigenvalues: np.ndarray
    projectors: tuple
    probabilities: np.ndarray
    range_projector: np.ndarray


@dataclass(frozen=True)
class SpectralPairing:
    """One-to-one map between two detectable spectra, as index pairs."""

    pairs: tuple


@dataclass(frozen=True)
class TwinReport:
    """Residuals and verdicts for a candidate twin pair."""

    commutator_residuals: tuple
    spectra_match: bool
    pairing: SpectralPairing | None
    residual_a: float
    residual_b: float
    residual_c: float
    residual_d: float
    verdict: bool
    complete: bool
    strong_algebraic_residual: float | None


def detectable_spectrum(state: BipartiteState, sobs: SubsystemObservable) -> DetectableSpectrum:
    """Restrict an observable's spectrum to eigenvalues with probability above ``DETECT_EPS``."""
    reduced = state.rho1 if sobs.subsystem == 1 else state.rho2
    spectral = sobs.observable.spectral
    if sobs.observable.dim != reduced.dim:
        raise ValueError(
            f"observable dimension {sobs.observable.dim} does not match "
            f"subsystem {sobs.subsystem} dimension {reduced.dim}"
        )
    eigenvalues = []
    projectors = []
    probabilities = []
    for a, p in zip(spectral.eigenvalues, spectral.projectors):
        prob = float(np.trace(reduced.matrix @ p).real)
        if prob > DETECT_EPS:
            eigenvalues.append(float(a))
            projectors.append(p)
            probabilities.append(prob)
    return DetectableSpectrum(
        eigenvalues=np.array(eigenvalues),
        projectors=tuple(projectors),
        probabilities=np.array(probabilities),
        range_projector=range_projector(reduced.matrix),
    )


def _pair_rows(table: np.ndarray, probabilities: np.ndarray, tol: float) -> SpectralPairing | None:
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
    return SpectralPairing(pairs=tuple(pairs))


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
        scale = max(1.0, float(np.max(np.abs(sobs.observable.spectral.eigenvalues))))
        comm.append(frobenius(m @ reduced.matrix - reduced.matrix @ m) / scale)

    spectra_match = len(spec_a.eigenvalues) == len(spec_b.eigenvalues)
    table = coincidence_table(state, spec_a.projectors, spec_b.projectors)
    pairing = _pair_rows(table, spec_a.probabilities, tol) if spectra_match else None
    if pairing is not None:
        align = pairing.pairs
    else:
        n = min(len(spec_a.eigenvalues), len(spec_b.eigenvalues))
        align = tuple((i, i) for i in range(n))

    paired_cols = {i: j for i, j in align}

    # (a) lossless/noiseless outcome channel
    res_a = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if paired_cols.get(i) == j:
                res_a = max(res_a, abs(table[i, j] - spec_a.probabilities[i]))
            else:
                res_a = max(res_a, table[i, j])

    res_b = 0.0
    res_c = 0.0
    res_d = 0.0
    eye1 = np.eye(state.dims.d1, dtype=np.complex128)
    eye2 = np.eye(state.dims.d2, dtype=np.complex128)
    for i, j in align:
        p1 = tensor_product(spec_a.projectors[i], eye2)
        p2 = tensor_product(eye1, spec_b.projectors[j])
        res_b = max(res_b, frobenius(p1 @ rho @ p1 - p2 @ rho @ p2) / rho_norm)
        res_c = max(res_c, float(abs(1.0 - table[i, j] / spec_a.probabilities[i])))
        res_d = max(res_d, frobenius(p1 @ rho - p2 @ rho) / rho_norm)
    if not spectra_match:
        # A detectable outcome left without a partner fails (b)-(d) outright:
        # its projected state must vanish and its partner has probability 0.
        unpaired = [tensor_product(p, eye2) for p in spec_a.projectors[len(align):]]
        unpaired += [tensor_product(eye1, q) for q in spec_b.projectors[len(align):]]
        for proj in unpaired:
            res_b = max(res_b, frobenius(proj @ rho @ proj) / rho_norm)
            res_c = 1.0
            res_d = max(res_d, frobenius(proj @ rho) / rho_norm)

    residuals = (res_a, res_b, res_c, res_d)
    # Unequal spectra already fail; an unpaired outcome of tiny weight then
    # leaves (a), (b) and (d) small while (c) is 1, which is no disagreement.
    if spectra_match and min(residuals) < tol and max(residuals) > 10.0 * tol:
        raise ConditionMismatchError(
            "twin conditions disagree: residuals "
            f"a={res_a:.3e} b={res_b:.3e} c={res_c:.3e} d={res_d:.3e} at tol {tol:.0e}"
        )

    verdict = (
        comm[0] < tol
        and comm[1] < tol
        and spectra_match
        and pairing is not None
        and max(residuals) < tol
    )

    complete = True
    for spec in (spec_a, spec_b):
        for p in spec.projectors:
            if abs(np.trace(p @ spec.range_projector).real - 1.0) >= tol:
                complete = False

    strong = None
    if verdict and pairing is not None:
        strong = _strong_algebraic(state, spec_a, spec_b, pairing, tol)

    return TwinReport(
        commutator_residuals=(comm[0], comm[1]),
        spectra_match=spectra_match,
        pairing=pairing,
        residual_a=res_a,
        residual_b=res_b,
        residual_c=res_c,
        residual_d=res_d,
        verdict=verdict,
        complete=complete,
        strong_algebraic_residual=strong,
    )


def _strong_algebraic(
    state: BipartiteState,
    spec_a: DetectableSpectrum,
    spec_b: DetectableSpectrum,
    pairing: SpectralPairing,
    tol: float,
) -> float | None:
    """Residual of ``A1 rho = B2 rho`` on the detectable parts; None when the
    paired eigenvalue labels differ, where the identity does not apply."""
    for i, j in pairing.pairs:
        if abs(spec_a.eigenvalues[i] - spec_b.eigenvalues[j]) > tol:
            return None
    a_det = np.zeros((state.dims.d1, state.dims.d1), dtype=np.complex128)
    for a, p in zip(spec_a.eigenvalues, spec_a.projectors):
        a_det += a * p
    b_det = np.zeros((state.dims.d2, state.dims.d2), dtype=np.complex128)
    for b, q in zip(spec_b.eigenvalues, spec_b.projectors):
        b_det += b * q
    eye1 = np.eye(state.dims.d1, dtype=np.complex128)
    eye2 = np.eye(state.dims.d2, dtype=np.complex128)
    rho = state.rho12.matrix
    return frobenius(tensor_product(a_det, eye2) @ rho - tensor_product(eye1, b_det) @ rho)


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
