"""Projective observables, nonselective measurement channels and the
classical statistics they induce on bipartite states.

Observables are spectral decompositions with distinct eigenvalue labels; the
labels never enter any information quantity, only the projectors do.
Subsystem measurements embed their projectors explicitly (``P (x) 1`` or
``1 (x) P``) before applying the channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import _clamp
from .kernels import entropy_bits, vn_entropy
from .linalg import (
    EIG_GROUP_TOL,
    KERNEL_CLIP,
    Dims,
    SpectralDecomposition,
    dagger,
    hermitian_eig,
    partial_trace,
    tensor_product,
)
from .states import BipartiteState, DensityOperator, _bipartite_unchecked, _wrap_density

DETECT_EPS = 1e-10


@dataclass(frozen=True)
class Observable:
    """A Hermitian operator in grouped spectral form."""

    spectral: SpectralDecomposition
    dim: int

    @property
    def complete(self) -> bool:
        """True iff every spectral projector has rank 1."""
        return bool(np.all(self.spectral.multiplicities == 1))

    def matrix(self) -> np.ndarray:
        return self.spectral.matrix()


@dataclass(frozen=True)
class SubsystemObservable:
    """An observable acting on one side (1 or 2) of a bipartite system."""

    observable: Observable
    subsystem: int

    def __post_init__(self):
        if self.subsystem not in (1, 2):
            raise ValueError(f"subsystem must be 1 or 2, got {self.subsystem}")


@dataclass(frozen=True)
class JointDistribution:
    """Classical outcome table from simultaneous subsystem measurements."""

    p: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    row_labels: np.ndarray
    col_labels: np.ndarray


@dataclass(frozen=True)
class DistantDecomposition:
    """Opposite-subsystem state decomposition induced by a local measurement.

    ``outcomes`` holds ``(probability, conditional_state, eigenvalue)`` for
    every detectable eigenvalue; eigenvalues with probability at or below the
    detection threshold are listed in ``undetectable``.
    """

    outcomes: tuple
    undetectable: tuple


@dataclass(frozen=True)
class CoherenceDecomposition:
    """Mixing-entropy split of the coherence entropy.

    ``conditionals[i]`` is None when ``weights[i]`` is below the kernel clip.
    """

    h_observable: float
    deficit: float
    weights: np.ndarray
    conditionals: tuple


def observable_from_matrix(m: np.ndarray, group_tol: float = EIG_GROUP_TOL) -> Observable:
    """Build an observable from a Hermitian matrix."""
    spectral = hermitian_eig(np.asarray(m, dtype=np.complex128), group_tol)
    return Observable(spectral=spectral, dim=m.shape[0])


def observable_from_basis(u: np.ndarray, eigenvalues=None, tol: float = 1e-10) -> Observable:
    """Complete observable with the columns of ``u`` as eigenvectors.

    Default eigenvalue labels are 1, 2, ..., d; custom labels must be
    distinct.
    """
    u = np.ascontiguousarray(u, dtype=np.complex128)
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError(f"basis must be square, got shape {u.shape}")
    gram = dagger(u) @ u
    if np.linalg.norm(gram - np.eye(d)) > tol * d:
        raise ValueError("basis columns are not orthonormal")
    if eigenvalues is None:
        eigenvalues = np.arange(1, d + 1, dtype=float)
    else:
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        if eigenvalues.shape != (d,):
            raise ValueError(f"expected {d} eigenvalues, got {eigenvalues.shape}")
        if d > 1 and np.min(np.diff(np.sort(eigenvalues))) < tol:
            raise ValueError("eigenvalue labels must be distinct")
    order = np.argsort(eigenvalues)
    projectors = tuple(np.outer(u[:, i], u[:, i].conj()) for i in order)
    spectral = SpectralDecomposition(
        eigenvalues=eigenvalues[order],
        projectors=projectors,
        multiplicities=np.ones(d, dtype=int),
    )
    return Observable(spectral=spectral, dim=d)


def embedded_projectors(sobs: SubsystemObservable, dims: Dims) -> list:
    """Spectral projectors tensored with identity on the untouched side."""
    side_dim = dims.d1 if sobs.subsystem == 1 else dims.d2
    if sobs.observable.dim != side_dim:
        raise ValueError(
            f"observable dimension {sobs.observable.dim} does not match "
            f"subsystem {sobs.subsystem} dimension {side_dim}"
        )
    if sobs.subsystem == 1:
        eye = np.eye(dims.d2, dtype=np.complex128)
        return [tensor_product(p, eye) for p in sobs.observable.spectral.projectors]
    eye = np.eye(dims.d1, dtype=np.complex128)
    return [tensor_product(eye, p) for p in sobs.observable.spectral.projectors]


def luders_apply(obs: Observable, rho: DensityOperator) -> DensityOperator:
    """Nonselective ideal measurement: rho -> sum_i P_i rho P_i."""
    if obs.dim != rho.dim:
        raise ValueError(f"dimension mismatch: observable {obs.dim}, state {rho.dim}")
    out = np.zeros_like(rho.matrix)
    for p in obs.spectral.projectors:
        out += p @ rho.matrix @ p
    return _wrap_density(out)


def luders_apply_subsystem(sobs: SubsystemObservable, state: BipartiteState) -> BipartiteState:
    """Nonselective measurement of one subsystem observable on a bipartite state."""
    out = np.zeros_like(state.rho12.matrix)
    for p in embedded_projectors(sobs, state.dims):
        out += p @ state.rho12.matrix @ p
    return _bipartite_unchecked(out, state.dims)


def distant_decomposition(
    state: BipartiteState, sobs: SubsystemObservable, epsilon: float = DETECT_EPS
) -> DistantDecomposition:
    """Decompose the opposite-subsystem reduction by the outcomes of ``sobs``.

    For each eigenvalue with probability above ``epsilon`` returns the
    probability and the conditional state of the other side; the rest are
    reported as undetectable.
    """
    keep = 2 if sobs.subsystem == 1 else 1
    outcomes = []
    undetectable = []
    for a, p_full in zip(
        sobs.observable.spectral.eigenvalues, embedded_projectors(sobs, state.dims)
    ):
        sand = p_full @ state.rho12.matrix @ p_full
        prob = float(np.trace(sand).real)
        if prob <= epsilon:
            undetectable.append(float(a))
            continue
        cond = partial_trace(sand, state.dims, keep=keep) / prob
        outcomes.append((prob, _wrap_density(cond), float(a)))
    return DistantDecomposition(outcomes=tuple(outcomes), undetectable=tuple(undetectable))


def coincidence_table(state: BipartiteState, projs1, projs2) -> np.ndarray:
    """p[i, j] = Tr[rho (P_i (x) Q_j)] for side-1 projectors ``projs1`` and side-2 ``projs2``."""
    eye2 = np.eye(state.dims.d2, dtype=np.complex128)
    table = np.zeros((len(projs1), len(projs2)))
    for i, pa in enumerate(projs1):
        cond = partial_trace(state.rho12.matrix @ tensor_product(pa, eye2), state.dims, keep=2)
        for j, qb in enumerate(projs2):
            table[i, j] = np.trace(cond @ qb).real
    return table


def joint_distribution(
    state: BipartiteState, a1: SubsystemObservable, b2: SubsystemObservable
) -> JointDistribution:
    """Outcome table p_ij = Tr[rho (P_i (x) Q_j)] over spectral projector pairs."""
    if a1.subsystem != 1 or b2.subsystem != 2:
        raise ValueError("joint_distribution expects a side-1 and a side-2 observable")
    projs_a = a1.observable.spectral.projectors
    projs_b = b2.observable.spectral.projectors
    p = coincidence_table(state, projs_a, projs_b)
    if float(p.min()) < -1e-12:
        raise ValueError(f"joint probability {p.min():.3e} below clamp threshold")
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"joint probabilities sum to {total:.12g}")
    return JointDistribution(
        p=p,
        row_marginals=p.sum(axis=1),
        col_marginals=p.sum(axis=0),
        row_labels=np.array(a1.observable.spectral.eigenvalues),
        col_labels=np.array(b2.observable.spectral.eigenvalues),
    )


def joint_mutual_information(jd: JointDistribution, clip: float = KERNEL_CLIP) -> float:
    """H(A) + H(B) - H(A,B) of an outcome table, in bits."""
    ha = float(entropy_bits(jd.row_marginals, clip))
    hb = float(entropy_bits(jd.col_marginals, clip))
    hab = float(entropy_bits(np.ascontiguousarray(jd.p.ravel()), clip))
    return _clamp(ha + hb - hab)


def information_gain(state: BipartiteState, sobs: SubsystemObservable) -> float:
    """Entropy reduction about the opposite subsystem from measuring ``sobs``.

    S(opposite) - sum_i p_i S(conditional_i); nonnegative by concavity.
    """
    opposite = state.rho2 if sobs.subsystem == 1 else state.rho1
    gain = float(vn_entropy(opposite.matrix, KERNEL_CLIP))
    for prob, cond, _ in distant_decomposition(state, sobs).outcomes:
        gain -= prob * float(vn_entropy(cond.matrix, KERNEL_CLIP))
    return _clamp(gain)


def entropy_of_coherence(obs: Observable, rho: DensityOperator) -> float:
    """Entropy increase S(T_A rho) - S(rho) under nonselective measurement.

    Zero iff the observable commutes with the state.
    """
    after = luders_apply(obs, rho)
    return _clamp(float(vn_entropy(after.matrix, KERNEL_CLIP)) - float(vn_entropy(rho.matrix, KERNEL_CLIP)))


def coherence_decomposition(
    obs: Observable, rho: DensityOperator, clip: float = KERNEL_CLIP
) -> CoherenceDecomposition:
    """Split the coherence entropy as H(A) minus the mixing deficit.

    Returns the observable entropy H(A) of the outcome weights and the
    deficit S(rho) - sum_i w_i S(rho_i), where rho_i is the normalized
    post-selection state of projector i.  The coherence entropy equals
    H(A) - deficit.
    """
    if obs.dim != rho.dim:
        raise ValueError(f"dimension mismatch: observable {obs.dim}, state {rho.dim}")
    weights = []
    conditionals = []
    avg_entropy = 0.0
    for p in obs.spectral.projectors:
        sand = p @ rho.matrix @ p
        w = float(np.trace(sand).real)
        w = max(w, 0.0)
        weights.append(w)
        if w > clip:
            cond = _wrap_density(sand / w)
            conditionals.append(cond)
            avg_entropy += w * float(vn_entropy(cond.matrix, clip))
        else:
            conditionals.append(None)
    weights = np.array(weights)
    h_obs = float(entropy_bits(weights, clip))
    deficit = float(vn_entropy(rho.matrix, clip)) - avg_entropy
    return CoherenceDecomposition(
        h_observable=h_obs,
        deficit=deficit,
        weights=weights,
        conditionals=tuple(conditionals),
    )
