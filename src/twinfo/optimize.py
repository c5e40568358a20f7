"""Suprema of measurement informations over complete bases, and quantum discord.

The suprema are approximated by multi-start Riemannian ascent on the
unitary group U(d) (Abrudan, Eriksson & Koivunen, IEEE TSP 56(3), 2008;
Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 1998).  The measured
basis is the column set of a unitary ``U``; each step moves it along a
geodesic, ``U <- exp(tD) U``.  The gradient ``A`` is the skew-Hermitian part
of the closed-form Euclidean gradient, and the direction ``D`` is ``A``
preconditioned by limited-memory BFGS in the Lie algebra (Huang, Gallivan &
Absil, SIAM J. Optim. 25(3), 2015), with Armijo backtracking.  Reported
values are lower bounds on the true suprema by construction; ``converged``
means the gradient vanished (``|A| <= GRAD_TOL``) at the argmax.

Restart 0 starts from the eigenbasis of the measured reduction (which
attains the supremum for pure states and for Schmidt-dephased states),
restart 1 from the standard basis, and the rest from seeded Haar-random
bases.  For qubit subsystems a deterministic grid over the Bloch sphere
provides an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import mutual_information
from .kernels import KERNEL_CLIP, measured_first
from .sampling import sample_random_unitary
from .states import BipartiteState

AGREE_TOL = 1e-6
GRAD_TOL = 1e-6
_ARMIJO = 1e-4
_MEMORY = 5
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_EPS = np.finfo(float).eps
_GRID_RESOLUTION = 1e-3
# Caps the ascent iterations of each restart, which otherwise stops on stationarity.
_MAX_ITERATIONS = 2000
# Stream offsets keep restart seeds for the four optimized bases disjoint.
_STREAM_GAIN_1 = 1_000
_STREAM_GAIN_2 = 2_000
_STREAM_JOINT_1 = 3_000
_STREAM_JOINT_2 = 4_000


@dataclass(frozen=True)
class OptimizationConfig:
    """Multi-start settings."""

    restarts: int = 32
    seed: int = 0
    grid_refine: bool = False

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class SupremumResult:
    """Best value found over all restarts, with the attaining basis (or pair).

    ``grad_norm`` is the Frobenius norm of the ascent direction at the
    argmax; ``evaluations`` counts objective evaluations over all restarts,
    each grid point counting as one.
    """

    value: float
    argmax_basis: object
    restarts_agreeing: int
    converged: bool
    grad_norm: float
    evaluations: int


def _eigbasis(matrix: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.linalg.eigh(matrix)[1])


def _anchor(index: int, d: int, eigbasis: np.ndarray, seed: int, stream_base: int) -> np.ndarray:
    if index == 0:
        return eigbasis
    if index == 1:
        return np.eye(d, dtype=np.complex128)
    return np.ascontiguousarray(sample_random_unitary(d, seed, stream=stream_base + index))


def _log2_support(x: np.ndarray, clip: float = KERNEL_CLIP) -> np.ndarray:
    """Elementwise ``log2 x`` on entries above ``clip``, 0 elsewhere."""
    return np.log2(x, out=np.zeros(x.shape), where=x > clip)


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """Elementwise ``x log2 x`` with the ``0 log 0 = 0`` convention at ``KERNEL_CLIP``."""
    return x * _log2_support(x)


def _conditionals(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Unnormalized opposite-side states ``C_i = <u_i| rho |u_i>``.

    ``r`` is rho reshaped to ``(d1, d2, d1, d2)`` with the measured side
    first; ``u`` holds the basis vectors as columns and may carry leading
    batch axes.  Returns shape ``(..., d1, d2, d2)``.
    """
    return np.einsum("...ai,abjk,...ji->...ibk", u.conj(), r, u)


def _opposite_entropy(r: np.ndarray) -> float:
    return float(-_xlog2x(np.linalg.eigvalsh(np.einsum("abak->bk", r))).sum())


def _gain_terms(r: np.ndarray, s_opp: float, u: np.ndarray):
    """Information gain of measuring ``u`` on side 1, with the parts its gradient needs.

    Uses sum_i p_i S(C_i / p_i) = H(eig of all C_i) - H(p).
    """
    c = _conditionals(r, u)
    p = np.einsum("...ibb->...i", c).real
    w, v = np.linalg.eigh(c)
    log_w, log_p = _log2_support(w), _log2_support(p)
    value = s_opp + (w * log_w).sum(axis=(-2, -1)) - (p * log_p).sum(axis=-1)
    return value, (w, v, log_w, log_p)


def _gain_direction(r: np.ndarray, u: np.ndarray, parts) -> np.ndarray:
    """Ascent direction ``A = K - K^dagger`` of the gain at ``u``.

    With ``L_i = log2 C_i - log2 p_i`` on the support of ``C_i``, the
    derivative along ``dU`` is ``2 Re sum_i u_i^dagger M_i du_i`` where
    ``M_i = Tr_2[rho (1 (x) L_i)]``; hence ``K = sum_i M_i u_i u_i^dagger``.
    """
    w, v, log_w, log_p = parts
    logs = np.where(w > KERNEL_CLIP, log_w - log_p[:, None], 0.0)
    ell = (v * logs[:, None, :]) @ v.conj().transpose(0, 2, 1)
    m = np.einsum("abjk,ikb->iaj", r, ell)
    k = np.einsum("iaj,ji,bi->ab", m, u, u.conj())
    return k - k.conj().T


def _joint_terms(r: np.ndarray, us):
    """Mutual information of the simultaneous-measurement table, with its parts.

    Every positive entry counts: dropping entries below ``KERNEL_CLIP`` would
    let the value of a pure state exceed S(1).
    """
    u1, u2 = us
    c = _conditionals(r, u1)
    p = np.einsum("ibe,bj,ej->ij", c, u2.conj(), u2).real
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    logs = [_log2_support(x, 0.0) for x in (p, pa, pb)]
    value = (p * logs[0]).sum() - (pa * logs[1]).sum() - (pb * logs[2]).sum()
    return value, (c, p, *logs)


def _joint_directions(r: np.ndarray, us, parts):
    """Ascent directions on U(d1) x U(d2) of the joint mutual information.

    The derivative along ``dp_ij`` is ``w_ij = log2 p_ij - log2 pA_i -
    log2 pB_j``; each side's ``K`` weighs the conditionals of the other
    side's outcomes by ``w``.
    """
    u1, u2 = us
    c, p, log_p, log_pa, log_pb = parts
    weights = np.where(p > 0.0, log_p - log_pa[:, None] - log_pb[None, :], 0.0)
    d = np.einsum("bj,abce,ej->jac", u2.conj(), r, u2)
    k1 = np.einsum("ij,jac,ci,di->ad", weights, d, u1, u1.conj())
    k2 = np.einsum("ij,ibe,ej,fj->bf", weights, c, u2, u2.conj())
    return k1 - k1.conj().T, k2 - k2.conj().T


def _flat(a) -> np.ndarray:
    """A tangent tuple as one real vector; ``Re vdot`` becomes a dot product."""
    if len(a) == 1:
        return a[0].ravel().view(float)
    return np.concatenate([x.ravel() for x in a]).view(float)


def _lbfgs_direction(g: np.ndarray, memory) -> np.ndarray:
    """Two-loop recursion: the inverse-Hessian estimate applied to the gradient ``g``.

    ``memory`` holds pairs ``(s, y, 1 / s.y, s.y / y.y)`` for the minimization
    of the negated objective, oldest first.
    """
    q = g.copy()
    alphas = []
    for s, y, inv_sy, _ in reversed(memory):
        alpha = inv_sy * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    q *= memory[-1][3]
    for (s, y, inv_sy, _), alpha in zip(memory, reversed(alphas)):
        q += (alpha - inv_sy * (y @ q)) * s
    return q


def _ascend(evaluate, direction, start):
    """Riemannian L-BFGS ascent on a product of unitary groups.

    ``evaluate(us) -> (value, parts)`` and ``direction(us, parts) -> As``
    act on a tuple of unitaries.  Tangent vectors live in the Lie algebra
    (``U <- exp(D) U``), so curvature pairs from earlier iterates apply
    without transport (Huang, Gallivan & Absil, SIAM J. Optim. 25(3), 2015).
    The search direction comes from the two-loop recursion over the last
    ``_MEMORY`` pairs with ``s.y > 0``; the first step, and any step whose
    direction is not an ascent direction, uses ``A / max(1, |A|)`` with the
    memory dropped.  Armijo backtracking halves the step from 1.  Returns
    ``(value, us, grad_norm, evaluations)``.
    """
    us = start
    cuts = np.cumsum([u.size for u in us])[:-1]
    value, parts = evaluate(us)
    evaluations = 1
    g = _flat(direction(us, parts))
    memory = []
    for _ in range(_MAX_ITERATIONS):
        norm2 = g @ g
        if norm2 <= GRAD_TOL * GRAD_TOL:
            break
        if memory:
            q = _lbfgs_direction(g, memory)
            slope = g @ q
        if not memory or slope <= 0:
            memory.clear()
            q = g / max(1.0, np.sqrt(norm2))
            slope = g @ q
        blocks = np.split(q.view(complex), cuts) if cuts.size else (q.view(complex),)
        eigs = [np.linalg.eigh(1j * x.reshape(u.shape)) for x, u in zip(blocks, us)]
        rotations = [(w, v, v.conj().T) for w, v in eigs]
        floor = _EPS * max(1.0, abs(value))
        step = 1.0
        while True:
            trial = tuple(
                (v * np.exp(-1j * step * w)) @ vh @ u
                for (w, v, vh), u in zip(rotations, us)
            )
            trial_value, trial_parts = evaluate(trial)
            evaluations += 1
            if trial_value >= value + _ARMIJO * step * slope:
                break
            step *= 0.5
            if step * slope <= floor:
                # No representable increase along this direction.
                return value, us, float(np.sqrt(norm2)), evaluations
        us, value, parts = trial, trial_value, trial_parts
        g_new = _flat(direction(us, parts))
        # s and y for the negated objective, whose gradient is -g.
        s, y = step * q, g - g_new
        sy = s @ y
        if sy > 0:
            memory.append((s, y, 1.0 / sy, sy / (y @ y)))
            del memory[:-_MEMORY]
        g = g_new
    return value, us, float(np.sqrt(g @ g)), evaluations


def _bloch_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Bloch vectors of ``_bloch_basis`` for every (theta, phi) pair, theta-major, as ``(n, 3)``."""
    sin_t = np.sin(thetas)[:, None]
    cos_t = np.broadcast_to(np.cos(thetas)[:, None], (thetas.size, phis.size))
    return np.stack([sin_t * np.cos(phis), sin_t * np.sin(phis), cos_t], axis=-1).reshape(-1, 3)


def _bloch_basis(theta: float, phi: float) -> np.ndarray:
    """Qubit basis whose first column has Bloch angles ``(theta, phi)``."""
    c, s, e = np.cos(theta / 2.0), np.sin(theta / 2.0), np.exp(1j * phi)
    return np.array([[c, -s / e], [s * e, c]])


def grid_information_gain_qubit(state: BipartiteState, side: int):
    """Deterministic Bloch-sphere grid maximization of the information gain.

    Scans (theta, phi), then zooms into the best cell until the grid step
    falls below ``_GRID_RESOLUTION`` radians; each grid is one batched
    evaluation.  Only valid when the measured side is a qubit.  Returns
    ``(value, basis)``.
    """
    value, basis, _ = _grid_search(state, side)
    return value, basis


def _grid_search(state: BipartiteState, side: int):
    """The grid maximization of ``grid_information_gain_qubit``, also returning
    the number of points it evaluated.

    A qubit basis with Bloch vector ``n`` leaves the opposite side in
    ``C+- = (rho_opp +- sum_k n_k T_k) / 2`` with ``T_k = Tr_1[(sigma_k (x) 1) rho]``,
    so each level is one matmul; qubit ``C+-`` have closed-form eigenvalues.
    """
    d_meas = state.dims.d1 if side == 1 else state.dims.d2
    if d_meas != 2:
        raise ValueError(f"grid oracle requires a qubit on side {side}, got dimension {d_meas}")
    r = _measured_first(state, side)
    d = r.shape[1]
    s_opp = _opposite_entropy(r)
    rho_opp = np.einsum("abak->bk", r).ravel()
    t = np.einsum("kji,ibjc->kbc", _PAULI, r).reshape(3, d * d)

    t_lo, t_hi = 0.0, np.pi
    p_lo, p_hi = 0.0, 2.0 * np.pi
    n = 41
    best = (-np.inf, 0.0, 0.0)
    points = 0
    while True:
        thetas = np.linspace(t_lo, t_hi, n)
        phis = np.linspace(p_lo, p_hi, n)
        m = _bloch_vectors(thetas, phis) @ t
        c = 0.5 * (rho_opp + np.stack([m, -m], axis=1))
        p = c[..., :: d + 1].sum(axis=-1).real
        if d == 2:
            half_gap = np.hypot(0.5 * (c[..., 0].real - c[..., 3].real), np.abs(c[..., 1]))
            w = 0.5 * p[..., None] + np.stack([half_gap, -half_gap], axis=-1)
        else:
            w = np.linalg.eigvalsh(c.reshape(-1, 2, d, d))
        values = s_opp + _xlog2x(w).sum(axis=(-2, -1)) - _xlog2x(p).sum(-1)
        points += n * n
        # argmax takes the first maximum in theta-major order; earlier levels win ties.
        idx = int(np.argmax(values))
        if values[idx] > best[0]:
            best = (float(values[idx]), thetas[idx // n], phis[idx % n])
        step_t = (t_hi - t_lo) / (n - 1)
        if step_t <= _GRID_RESOLUTION:
            break
        _, t_c, p_c = best
        t_lo, t_hi = max(0.0, t_c - 2 * step_t), min(np.pi, t_c + 2 * step_t)
        step_p = (p_hi - p_lo) / (n - 1)
        p_lo, p_hi = p_c - 2 * step_p, p_c + 2 * step_p
        n = 17
    return best[0], _bloch_basis(best[1], best[2]), points


def _measured_first(state: BipartiteState, side: int) -> np.ndarray:
    """State tensor ``(d_meas, d_opp, d_meas, d_opp)`` with the measured side first."""
    return measured_first(state.rho12.matrix, state.dims.d1, state.dims.d2, side)


def sup_information_gain(
    state: BipartiteState, side: int, cfg: OptimizationConfig = OptimizationConfig()
) -> SupremumResult:
    """Maximize the information gain over complete bases on ``side``."""
    r = _measured_first(state, side)
    d = r.shape[0]
    reduced = state.rho1 if side == 1 else state.rho2
    eigbasis = _eigbasis(reduced.matrix)
    stream = _STREAM_GAIN_1 if side == 1 else _STREAM_GAIN_2
    s_opp = _opposite_entropy(r)

    def evaluate(us):
        return _gain_terms(r, s_opp, us[0])

    def direction(us, parts):
        return (_gain_direction(r, us[0], parts),)

    candidates = []
    for i in range(cfg.restarts):
        anchor = _anchor(i, d, eigbasis, cfg.seed, stream)
        value, us, norm, evals = _ascend(evaluate, direction, (anchor,))
        candidates.append((float(value), np.ascontiguousarray(us[0]), norm, evals))
    if cfg.grid_refine and d == 2:
        value, basis, points = _grid_search(state, side)
        _, parts = evaluate((basis,))
        norm = float(np.linalg.norm(_gain_direction(r, basis, parts)))
        candidates.append((value, basis, norm, points + 1))
    return _reduce_candidates(candidates)


def _reduce_candidates(candidates) -> SupremumResult:
    # Max over restart values; the lowest index wins exact ties.
    value, basis, grad_norm, _ = max(candidates, key=lambda cand: cand[0])
    agreeing = sum(1 for cand in candidates if cand[0] >= value - AGREE_TOL)
    return SupremumResult(
        value=max(value, 0.0),
        argmax_basis=basis,
        restarts_agreeing=agreeing,
        converged=grad_norm <= GRAD_TOL,
        grad_norm=grad_norm,
        evaluations=sum(cand[3] for cand in candidates),
    )


def sup_joint_mutual_information(
    state: BipartiteState, cfg: OptimizationConfig = OptimizationConfig()
) -> SupremumResult:
    """Maximize the simultaneous-measurement mutual information over basis pairs.

    Ascends on U(d1) x U(d2) jointly; the argmax is the pair ``(u1, u2)``.
    """
    d1, d2 = state.dims.d1, state.dims.d2
    r = _measured_first(state, 1)
    eig1 = _eigbasis(state.rho1.matrix)
    eig2 = _eigbasis(state.rho2.matrix)

    def evaluate(us):
        return _joint_terms(r, us)

    def direction(us, parts):
        return _joint_directions(r, us, parts)

    candidates = []
    for i in range(cfg.restarts):
        start = (
            _anchor(i, d1, eig1, cfg.seed, _STREAM_JOINT_1),
            _anchor(i, d2, eig2, cfg.seed, _STREAM_JOINT_2),
        )
        value, us, norm, evals = _ascend(evaluate, direction, start)
        pair = tuple(np.ascontiguousarray(u) for u in us)
        candidates.append((float(value), pair, norm, evals))
    return _reduce_candidates(candidates)


def quantum_discord(
    state: BipartiteState, direction: str = "1to2", cfg: OptimizationConfig = OptimizationConfig()
) -> float:
    """Total correlations minus the best one-sided information gain.

    ``direction`` names the measured side: ``"1to2"`` measures subsystem 1
    (gaining about 2), ``"2to1"`` the reverse.
    """
    side = _direction_side(direction)
    total = mutual_information(state)
    gain = sup_information_gain(state, side, cfg).value
    return total - gain


def _direction_side(direction: str) -> int:
    if direction == "1to2":
        return 1
    if direction == "2to1":
        return 2
    raise ValueError(f"direction must be '1to2' or '2to1', got {direction!r}")
