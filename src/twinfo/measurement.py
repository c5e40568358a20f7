"""Projective observables, nonselective measurement channels and the
classical statistics they induce on bipartite states.

An ``Observable`` is its grouped spectral form: distinct eigenvalue labels
with orthogonal projectors, held as one ``(k, d, d)`` stack, built from column
blocks of an eigenbasis (``_eigenspace_observable``, for the samplers too) or
from a basis' columns.  The labels never enter any information quantity, only
the projectors do.  A
``SubsystemObservable`` acts on one side of a bipartite system; ``embed``
lifts an operator, or a stack of them, on that side to ``P (x) 1`` or
``1 (x) P`` before a channel or a trace is applied.

``distant_decomposition`` and ``information_gain`` use the projector-stack
primitive ``kernels.conditional_states``; the gain and the coherence deficit
are ``kernels.gain_from_conditionals``.  ``coincidence_table`` keeps its
Kronecker arithmetic, batched, and traces side 1 out with ``kernels.ptrace_keep2``:
twin residuals printed to 17 digits come from it, on side 1's projectors lifted
by the caller once.  ``luders_apply`` sums the stacked sandwich ``P_i rho P_i``
that ``coherence_decomposition`` also forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .entropy import PROB_NEGATIVE_TOL, PROB_SUM_TOL, clamp_nonnegative
from .kernels import (
    KERNEL_CLIP, conditional_states, dagger, eigh, entropy_bits, frobenius, gain_from_conditionals,
    kron, measured_first, ptrace_keep2, table_mutual_info, vn_entropy,
)
from .states import (
    BipartiteState, DensityOperator, Dims, StateValidationError, _bipartite_unchecked,
    _wrap_density,
)

DETECT_EPS = 1e-10
EIG_GROUP_TOL = 1e-8
HERMITIAN_TOL = 1e-10
_BASIS_TOL = 1e-10


@dataclass(frozen=True)
class Observable:
    """A Hermitian operator in grouped spectral form.

    ``eigenvalues`` are strictly increasing; ``projectors`` is a ``(k, d, d)``
    stack of orthogonal projectors and ``multiplicities[i]`` is the rank of
    ``projectors[i]``.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    multiplicities: np.ndarray

    def __len__(self):
        return len(self.eigenvalues)

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    @property
    def complete(self) -> bool:
        """True iff every spectral projector has rank 1."""
        return bool(np.all(self.multiplicities == 1))

    def matrix(self) -> np.ndarray:
        """Reconstruct the operator from its spectral form."""
        return (self.eigenvalues[:, None, None] * self.projectors).sum(axis=0)


@dataclass(frozen=True)
class SubsystemObservable:
    """An observable acting on one side (1 or 2) of a bipartite system."""

    observable: Observable
    subsystem: int

    def __post_init__(self):
        if self.subsystem not in (1, 2):
            raise ValueError(f"subsystem must be 1 or 2, got {self.subsystem}")

    def check_dims(self, dims: Dims) -> None:
        """Raise ValueError unless the observable fits its side of ``dims``."""
        side_dim = dims.d1 if self.subsystem == 1 else dims.d2
        if self.observable.dim != side_dim:
            raise ValueError(
                f"observable dimension {self.observable.dim} does not match "
                f"subsystem {self.subsystem} dimension {side_dim}"
            )


@dataclass(frozen=True)
class JointDistribution:
    """Classical outcome table from simultaneous subsystem measurements."""

    p: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray


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


def observable_from_matrix(m: np.ndarray) -> Observable:
    """Observable of a Hermitian matrix, grouping near-degenerate eigenvalues.

    Consecutive eigenvalues closer than ``EIG_GROUP_TOL * (1 + |lambda|)`` are
    merged into one projector, so near-degenerate spectra yield stable
    projectors instead of arbitrarily mixed eigenvectors.

    Raises ``StateValidationError`` at the first failed check, in order: a square
    matrix (``shape``), finite entries (``finite``), Hermitian within
    ``HERMITIAN_TOL`` (``hermitian``) and a finite spectrum (``finite``).
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError("shape", f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise StateValidationError("finite", "observable matrix has a non-finite entry")
    # Sums of huge finite entries overflow: an infinite difference from the
    # adjoint is not Hermitian, and an overflowing Hermitian part has a nan spectrum.
    with np.errstate(over="ignore", invalid="ignore"):
        diff = frobenius(m, dagger(m))
        if not (np.isfinite(diff) and diff <= HERMITIAN_TOL * (1.0 + frobenius(m))):
            raise StateValidationError("hermitian", "observable matrix is not Hermitian")
        w, v = eigh((m + dagger(m)) / 2.0)
    if not np.all(np.isfinite(w)):
        raise StateValidationError("finite", "observable spectrum is not finite")

    gaps = np.diff(w) >= EIG_GROUP_TOL * (1.0 + np.maximum(np.abs(w[1:]), np.abs(w[:-1])))
    cuts = [0, *(np.flatnonzero(gaps) + 1).tolist(), len(w)]
    obs = _eigenspace_observable(v, cuts, [np.mean(w[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])])
    return replace(obs, projectors=(obs.projectors + dagger(obs.projectors)) / 2.0)


def observable_from_basis(u: np.ndarray) -> Observable:
    """Complete observable with the columns of ``u`` as eigenvectors, labelled 1, 2, ..., d.

    A non-finite entry of ``u`` raises ``StateValidationError`` (``finite``).
    """
    u = np.ascontiguousarray(u, dtype=np.complex128)
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError(f"basis must be square, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise StateValidationError("finite", "basis has a non-finite entry")
    # Huge finite entries overflow the Gram matrix; its inf or nan deviation fails the check.
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = frobenius(dagger(u) @ u - np.eye(d))
    if not deviation <= _BASIS_TOL * d:
        raise ValueError("basis columns are not orthonormal")
    cols = u.T
    return Observable(
        eigenvalues=np.arange(1, d + 1, dtype=float),
        projectors=cols[:, :, None] * cols.conj()[:, None, :],
        multiplicities=np.ones(d, dtype=int),
    )


def _eigenspace_observable(v: np.ndarray, cuts, eigenvalues) -> Observable:
    """Observable with label ``eigenvalues[k]`` on the span of the orthonormal columns
    ``v[:, cuts[k]:cuts[k + 1]]``: its projector is that block times its adjoint."""
    blocks = [v[:, lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    return Observable(
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        projectors=np.array([b @ b.conj().T for b in blocks]),
        multiplicities=np.diff(cuts),
    )


@cache
def _identity(d: int) -> np.ndarray:
    """Read-only complex identity of side ``d``, shared by every ``embed`` call."""
    eye = np.eye(d, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def embed(op: np.ndarray, side: int, dims: Dims) -> np.ndarray:
    """``op (x) 1`` for ``side`` 1, ``1 (x) op`` for side 2 of a ``dims`` split;
    a stack ``(n, d, d)`` lifts slice by slice."""
    if side == 1:
        return kron(op, _identity(dims.d2))
    return kron(_identity(dims.d1), op)


def luders_apply(obs: Observable, rho: DensityOperator) -> DensityOperator:
    """Nonselective ideal measurement: rho -> sum_i P_i rho P_i."""
    if obs.dim != rho.dim:
        raise ValueError(f"dimension mismatch: observable {obs.dim}, state {rho.dim}")
    return _wrap_density(np.sum(obs.projectors @ rho.matrix @ obs.projectors, axis=0))


def luders_apply_subsystem(sobs: SubsystemObservable, state: BipartiteState) -> BipartiteState:
    """Nonselective measurement of one subsystem observable on a bipartite state."""
    sobs.check_dims(state.dims)
    m = luders_sum_rows([sobs.observable], sobs.subsystem, state.dims, state.rho12.matrix[None])
    return _bipartite_unchecked(m[0], state.dims)


def luders_sum_rows(observables, side: int, dims: Dims, m: np.ndarray) -> np.ndarray:
    """``sum_i P_i m_j P_i`` for each row ``m_j`` of a stack, with ``P_i`` the spectral
    projectors of ``observables[j]`` lifted to ``side`` of ``dims`` (counts may
    differ).  Accumulated projector by projector on the rows that have one, so
    each row keeps the bits it has alone, as in ``luders_apply_subsystem``."""
    counts = np.array([len(o) for o in observables])
    out = np.zeros_like(m)
    for i in range(counts.max()):
        rows = np.flatnonzero(counts > i)
        p = embed(np.array([observables[j].projectors[i] for j in rows]), side, dims)
        if len(rows) == len(m):
            out += p @ m @ p
        else:
            out[rows] += p @ m[rows] @ p
    return out


def _conditionals(state: BipartiteState, sobs: SubsystemObservable):
    """``kernels.conditional_states`` of the spectral projectors of ``sobs``."""
    sobs.check_dims(state.dims)
    rt = measured_first(state.rho12.matrix, state.dims.d1, state.dims.d2, sobs.subsystem)
    return conditional_states(rt, sobs.observable.projectors)


def distant_decomposition(state: BipartiteState, sobs: SubsystemObservable) -> DistantDecomposition:
    """Decompose the opposite-subsystem reduction by the outcomes of ``sobs``.

    For each eigenvalue with probability above ``DETECT_EPS`` returns the
    probability and the conditional state of the other side; the rest are
    reported as undetectable.
    """
    probs, conds = _conditionals(state, sobs)
    outcomes = []
    undetectable = []
    for a, prob, cond in zip(sobs.observable.eigenvalues, probs.tolist(), conds):
        if prob <= DETECT_EPS:
            undetectable.append(float(a))
        else:
            outcomes.append((prob, _wrap_density(cond / prob), float(a)))
    return DistantDecomposition(outcomes=tuple(outcomes), undetectable=tuple(undetectable))


def coincidence_table(state: BipartiteState, lifted1, projs2) -> np.ndarray:
    """p[i, j] = Tr[rho (P_i (x) Q_j)] for ``lifted1 = embed(projs1, 1, state.dims)`` and
    side-2 ``projs2``, bitwise as ``Tr[Tr_1[rho (P_i (x) 1)] Q_j]`` one pair at a time."""
    cond = ptrace_keep2(state.rho12.matrix @ lifted1, state.dims.d1, state.dims.d2)
    return (cond[:, None] @ projs2[None]).trace(axis1=2, axis2=3).real


def joint_distribution(
    state: BipartiteState, a1: SubsystemObservable, b2: SubsystemObservable
) -> JointDistribution:
    """Outcome table p_ij = Tr[rho (P_i (x) Q_j)] over spectral projector pairs."""
    if a1.subsystem != 1 or b2.subsystem != 2:
        raise ValueError("joint_distribution expects a side-1 and a side-2 observable")
    a1.check_dims(state.dims)
    b2.check_dims(state.dims)
    lifted1 = embed(a1.observable.projectors, 1, state.dims)
    p = coincidence_table(state, lifted1, b2.observable.projectors)
    if float(p.min()) < -PROB_NEGATIVE_TOL:
        raise ValueError(f"joint probability {p.min():.3e} below clamp threshold")
    p = np.maximum(p, 0.0)
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"joint probabilities sum to {total:.12g}")
    return JointDistribution(p=p, row_marginals=p.sum(axis=1), col_marginals=p.sum(axis=0))


def joint_mutual_information(jd: JointDistribution) -> float:
    """H(A) + H(B) - H(A,B) of an outcome table, in bits."""
    return clamp_nonnegative(float(table_mutual_info(jd.p)))


def information_gain(state: BipartiteState, sobs: SubsystemObservable) -> float:
    """Entropy reduction about the opposite subsystem from measuring ``sobs``.

    S(opposite) - sum_i p_i S(conditional_i) over outcomes of weight above
    ``KERNEL_CLIP``; nonnegative by concavity.
    """
    probs, conds = _conditionals(state, sobs)
    s_opp = vn_entropy((state.rho2 if sobs.subsystem == 1 else state.rho1).matrix)
    return clamp_nonnegative(float(gain_from_conditionals(s_opp, probs, conds)))


def entropy_of_coherence(obs: Observable, rho: DensityOperator) -> float:
    """Entropy increase S(T_A rho) - S(rho) under nonselective measurement.

    Zero iff the observable commutes with the state.
    """
    after = luders_apply(obs, rho)
    return clamp_nonnegative(float(vn_entropy(after.matrix)) - float(vn_entropy(rho.matrix)))


def coherence_decomposition(obs: Observable, rho: DensityOperator) -> CoherenceDecomposition:
    """Split the coherence entropy as H(A) minus the mixing deficit.

    Returns the observable entropy H(A) of the outcome weights and the
    deficit S(rho) - sum_i w_i S(rho_i), where rho_i is the normalized
    post-selection state of projector i.  The coherence entropy equals
    H(A) - deficit.
    """
    if obs.dim != rho.dim:
        raise ValueError(f"dimension mismatch: observable {obs.dim}, state {rho.dim}")
    sand = obs.projectors @ rho.matrix @ obs.projectors
    weights = np.maximum(np.trace(sand, axis1=1, axis2=2).real, 0.0)
    return CoherenceDecomposition(
        h_observable=float(entropy_bits(weights)),
        deficit=float(gain_from_conditionals(vn_entropy(rho.matrix), weights, sand)),
        weights=weights,
        conditionals=tuple(_wrap_density(c / w) if w > KERNEL_CLIP else None
                           for c, w in zip(sand, weights)),
    )
