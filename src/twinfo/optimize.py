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
restart 1 from the standard basis, and restart ``i >= 2`` from a Haar-random
basis drawn from stream ``base + i`` of the seed, where ``base`` is
``1000 * side`` for a gain on ``side`` and ``1000 * (side + 2)`` for the joint
supremum's basis on ``side``.  The seeded starts are derived once per config
and process and kept read-only in a cache bounded at 64 configs.  The restarts
ascend in lockstep, batched over a leading axis, and each takes exactly the
steps it would take alone.  For qubit subsystems a deterministic grid over the
Bloch sphere provides an independent cross-check.  The ascent and the grid keep
the unnormalized gain form, not the kernel ``gain_from_conditionals``: the
gradient needs each ``C_i``'s eigenvectors and logs, and ``discord`` prints
this form's bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .entropy import clamp_nonnegative, mutual_information
from .kernels import KERNEL_CLIP, eigh, eigvalsh, einsum, measured_first
from .sampling import sample_random_unitaries
from .states import BipartiteState, as_integer

AGREE_TOL = 1e-6
GRAD_TOL = 1e-6
_ARMIJO = 1e-4
_MEMORY = 5
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_SIGNS = np.array([[1.0], [-1.0]])
_EPS = np.finfo(float).eps
_GRID_RESOLUTION = 1e-3
# Caps the ascent iterations of each restart, which otherwise stops on stationarity.
_MAX_ITERATIONS = 2000


@dataclass(frozen=True)
class OptimizationConfig:
    """Multi-start settings."""

    restarts: int = 32
    seed: int = 0
    grid_refine: bool = False

    def __post_init__(self):
        for name in ("restarts", "seed"):
            as_integer(getattr(self, name), f"{name} must be an integer")
        if not isinstance(self.grid_refine, (bool, np.bool_)):
            raise TypeError(f"grid_refine must be a bool, got {self.grid_refine!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SupremumResult:
    """Best value found over all restarts, with the attaining basis (or pair).

    ``restart_values`` holds each candidate's value in start order, the grid
    last when it ran; ``grad_norm`` is the Frobenius norm of the ascent
    direction at the argmax; ``evaluations`` counts objective evaluations over
    all restarts, each grid point counting as one.
    """

    value: float
    argmax_basis: object
    restart_values: tuple[float, ...]
    converged: bool
    grad_norm: float
    evaluations: int

    @property
    def restarts_agreeing(self) -> int:
        """Candidates within ``AGREE_TOL`` of the best one."""
        best = max(self.restart_values)
        return sum(1 for v in self.restart_values if v >= best - AGREE_TOL)


def _anchors(state: BipartiteState, side: int, cfg: OptimizationConfig, base: int) -> np.ndarray:
    """``side``'s starts, stacked and cut to ``cfg.restarts``: its reduction's eigenbasis,
    the identity, then restart ``i >= 2`` from stream ``base + i`` of ``cfg.seed``.

    ``base`` is ``1000 * side`` for a gain and ``1000 * (side + 2)`` for the joint
    supremum, so the four optimized bases draw from disjoint streams.
    """
    reduced = (state.rho1 if side == 1 else state.rho2).matrix
    d = reduced.shape[0]
    randoms = _haar_starts(cfg.restarts, d, cfg.seed, base) if cfg.restarts > 2 else []
    return np.stack([eigh(reduced)[1], np.eye(d, dtype=np.complex128), *randoms][: cfg.restarts])


@functools.lru_cache(maxsize=64)
def _haar_starts(restarts: int, d: int, seed: int, base: int) -> np.ndarray:
    """The seeded starts of restarts ``2 .. restarts - 1``, derived once per config, read-only."""
    starts = sample_random_unitaries(d, seed, range(base + 2, base + restarts))
    starts.flags.writeable = False
    return starts


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
    return einsum("...ai,abjk,...ji->...ibk", u.conj(), r, u)


def _opposite_entropy(r: np.ndarray) -> float:
    return float(-_xlog2x(eigvalsh(einsum("abak->bk", r))).sum())


def _gain_terms(r: np.ndarray, s_opp: float, u: np.ndarray):
    """Information gain of measuring ``u`` on side 1, with the parts its gradient needs.

    Uses sum_i p_i S(C_i / p_i) = H(eig of all C_i) - H(p).  ``u`` may carry
    a leading restart axis; each row then equals the call on that row alone.
    """
    c = _conditionals(r, u)
    p = einsum("...ibb->...i", c).real
    w, v = eigh(c)
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
    logs = np.where(w > KERNEL_CLIP, log_w - log_p[..., None], 0.0)
    ell = (v * logs[..., None, :]) @ v.conj().swapaxes(-1, -2)
    m = einsum("abjk,...ikb->...iaj", r, ell)
    k = einsum("...iaj,...ji,...bi->...ab", m, u, u.conj())
    return k - k.conj().swapaxes(-1, -2)


def _joint_terms(r: np.ndarray, us):
    """Mutual information of the simultaneous-measurement table, with its parts.

    Every positive entry counts: dropping entries below ``KERNEL_CLIP`` would
    let the value of a pure state exceed S(1).  Both unitaries may carry a
    leading restart axis.
    """
    u1, u2 = us
    c = _conditionals(r, u1)
    p = einsum("...ibe,...bj,...ej->...ij", c, u2.conj(), u2).real
    pa = p.sum(axis=-1)
    pb = p.sum(axis=-2)
    logs = [_log2_support(x, 0.0) for x in (p, pa, pb)]
    value = (p * logs[0]).sum(axis=(-2, -1)) - (pa * logs[1]).sum(-1) - (pb * logs[2]).sum(-1)
    return value, (c, p, *logs)


def _joint_directions(r: np.ndarray, us, parts):
    """Ascent directions on U(d1) x U(d2) of the joint mutual information.

    The derivative along ``dp_ij`` is ``w_ij = log2 p_ij - log2 pA_i -
    log2 pB_j``; each side's ``K`` weighs the conditionals of the other
    side's outcomes by ``w``.
    """
    u1, u2 = us
    c, p, log_p, log_pa, log_pb = parts
    weights = np.where(p > 0.0, log_p - log_pa[..., :, None] - log_pb[..., None, :], 0.0)
    d = einsum("...bj,abce,...ej->...jac", u2.conj(), r, u2)
    k1 = einsum("...ij,...jac,...ci,...di->...ad", weights, d, u1, u1.conj())
    k2 = einsum("...ij,...ibe,...ej,...fj->...bf", weights, c, u2, u2.conj())
    return k1 - k1.conj().swapaxes(-1, -2), k2 - k2.conj().swapaxes(-1, -2)


def _gain_problem(r: np.ndarray, s_opp: float):
    """``_lockstep_ascent``'s ``(evaluate, direction)``: the gain of measuring ``r``'s side 1."""
    return (lambda us: _gain_terms(r, s_opp, us[0]),
            lambda us, parts: (_gain_direction(r, us[0], parts),))


def _joint_problem(r: np.ndarray):
    """``_lockstep_ascent``'s ``(evaluate, direction)``: the joint mutual information on ``r``."""
    return functools.partial(_joint_terms, r), functools.partial(_joint_directions, r)


def _flat(a) -> np.ndarray:
    """Stacked tangent tuples as one real vector per row; ``Re vdot`` becomes a dot product."""
    if len(a) == 1:
        return a[0].reshape(len(a[0]), -1).view(float)
    return np.concatenate([x.reshape(len(x), -1) for x in a], axis=1).view(float)


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


def _lockstep_ascent(evaluate, direction, starts):
    """Riemannian L-BFGS ascent on a product of unitary groups, every start in lockstep.

    ``starts`` holds one stack ``(n, d, d)`` per unitary factor, a row per start.
    ``evaluate(us) -> (values, parts)`` and ``direction(us, parts) -> As`` act
    row by row on such stacks, so the starts still iterating share one call per
    stage, and each start takes exactly the steps it would take alone.  Tangent
    vectors live in the Lie algebra (``U <- exp(D) U``), so curvature pairs from
    earlier iterates apply without transport (Huang, Gallivan & Absil, SIAM J.
    Optim. 25(3), 2015).  A start's direction comes from the two-loop recursion
    over its last ``_MEMORY`` pairs with ``s.y > 0``; the first step, and any
    step whose direction is not an ascent direction, uses ``A / max(1, |A|)``
    with the memory dropped.  Armijo backtracking halves the step from 1.
    Returns one ``(value, us, grad_norm, evaluations)`` per start, in order.
    """
    us = [np.array(u) for u in starts]
    values, parts = evaluate(tuple(us))
    g = _flat(direction(tuple(us), parts))
    n = len(g)
    values, evaluations, norms2 = list(values), [1] * n, [0.0] * n
    memories = [[] for _ in range(n)]
    running = list(range(n))
    for _ in range(_MAX_ITERATIONS):
        q = np.empty((len(running), g.shape[1]))
        active, slopes = [], []
        for i in running:
            gi, memory = g[i], memories[i]
            norm2 = norms2[i] = gi @ gi
            if norm2 <= GRAD_TOL * GRAD_TOL:
                continue
            if memory:
                qi = _lbfgs_direction(gi, memory)
                slope = gi @ qi
            if not memory or slope <= 0:
                memory.clear()
                qi = gi / max(1.0, np.sqrt(norm2))
                slope = gi @ qi
            q[len(active)] = qi
            active.append(i)
            slopes.append(slope)
        running = list(active)
        if not active:
            break
        q = q[: len(active)]
        blocks = q.view(complex)
        rotations = []
        for u in us:
            d = u.shape[-1]
            w, v = eigh(1j * blocks[:, : d * d].reshape(-1, d, d))
            rotations.append((w, v, v.conj().swapaxes(-1, -2)))
            blocks = blocks[:, d * d :]
        current = us if len(active) == n else [u[active] for u in us]
        floors = [_EPS * max(1.0, abs(values[i])) for i in active]
        steps = [1.0] * len(active)
        rows = list(range(len(active)))  # the starts still backtracking, as indices into ``active``
        while rows:
            pick = slice(None) if len(rows) == len(active) else rows
            step = np.array([steps[j] for j in rows])
            trial = tuple(
                (v[pick] * np.exp(-1j * step[:, None] * w[pick])[:, None, :]) @ vh[pick] @ u[pick]
                for (w, v, vh), u in zip(rotations, current)
            )
            trial_values, trial_parts = evaluate(trial)
            accepted, retry = [], []
            for k, j in enumerate(rows):
                i = active[j]
                evaluations[i] += 1
                if trial_values[k] >= values[i] + _ARMIJO * steps[j] * slopes[j]:
                    accepted.append(k)
                    continue
                steps[j] *= 0.5
                if steps[j] * slopes[j] <= floors[j]:
                    # No representable increase along this direction.
                    running.remove(i)
                else:
                    retry.append(j)
            if accepted:
                if len(accepted) < len(rows):
                    trial = tuple(t[accepted] for t in trial)
                    trial_parts = tuple(x[accepted] for x in trial_parts)
                g_new = _flat(direction(trial, trial_parts))
                for m, k in enumerate(accepted):
                    j, i = rows[k], active[rows[k]]
                    # s and y for the negated objective, whose gradient is -g.
                    s, y = steps[j] * q[j], g[i] - g_new[m]
                    sy = s @ y
                    if sy > 0:
                        memories[i].append((s, y, 1.0 / sy, sy / (y @ y)))
                        del memories[i][:-_MEMORY]
                    g[i] = g_new[m]
                    values[i] = trial_values[k]
                    for u, t in zip(us, trial):
                        u[i] = t[m]
            rows = retry
    for i in running:
        norms2[i] = g[i] @ g[i]
    return [
        (float(values[i]), tuple(u[i].copy() for u in us), float(np.sqrt(norms2[i])),
         evaluations[i])
        for i in range(n)
    ]


def _bloch_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Bloch vectors of ``_bloch_basis`` for every (theta, phi) pair, theta-major, as ``(n, 3)``."""
    sin_t = np.sin(thetas)[:, None]
    cos_t = np.broadcast_to(np.cos(thetas)[:, None], (thetas.size, phis.size))
    return np.stack([sin_t * np.cos(phis), sin_t * np.sin(phis), cos_t], axis=-1).reshape(-1, 3)


# The grid's first level is the same for every state: 41 x 41 angles over the whole sphere.
_GRID_ANGLES = np.linspace(0.0, np.pi, 41), np.linspace(0.0, 2.0 * np.pi, 41)
_GRID_FIRST_LEVEL = (*_GRID_ANGLES, _bloch_vectors(*_GRID_ANGLES))


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
    r = _measured_first(state, side)
    if r.shape[0] != 2:
        raise ValueError(f"grid oracle requires a qubit on side {side}, got dimension {r.shape[0]}")
    value, basis, _ = _grid_search(r, _opposite_entropy(r))
    return value, basis


def _grid_search(r: np.ndarray, s_opp: float):
    """``grid_information_gain_qubit`` on the measured-first tensor ``r``, whose
    opposite side has entropy ``s_opp``, also returning the points evaluated.

    A qubit basis with Bloch vector ``n`` leaves the opposite side in
    ``C+- = (rho_opp +- sum_k n_k T_k) / 2`` with ``T_k = Tr_1[(sigma_k (x) 1) rho]``,
    so each level is one matmul.  When the opposite side is a qubit too, the
    closed-form eigenvalues of ``C+-`` read only its diagonal and (0, 1) entries,
    so only those are built; larger ``C+-`` go through a batched ``eigvalsh``.
    """
    d = r.shape[1]
    rho_opp = einsum("abak->bk", r).ravel()
    t = einsum("kji,ibjc->kbc", _PAULI, r).reshape(3, d * d)

    t_lo, t_hi = 0.0, np.pi
    p_lo, p_hi = 0.0, 2.0 * np.pi
    n = 41
    thetas, phis, bloch = _GRID_FIRST_LEVEL
    best = (-np.inf, 0.0, 0.0)
    points = 0
    while True:
        m = bloch @ t
        if d == 2:
            # The (+, -) rows of C+-'s entries 00, 11 and 01, with the full stack's bits.
            c00 = 0.5 * (rho_opp[0].real + m.T[:1].real * _SIGNS)
            c11 = 0.5 * (rho_opp[3].real + m.T[3:].real * _SIGNS)
            c01 = 0.5 * (rho_opp[1] + m.T[1:2] * _SIGNS)
            p = c00 + c11
            half_gap = np.hypot(0.5 * (c00 - c11), np.abs(c01))
            x = _xlog2x(np.concatenate([0.5 * p + half_gap, 0.5 * p - half_gap, p]))
            # The full stack's sum order over its (sign, eigenvalue) block.
            values = s_opp + (((x[0] + x[2]) + x[1]) + x[3]) - (x[4] + x[5])
        else:
            c = 0.5 * (rho_opp + np.stack([m, -m], axis=1))
            p = c[..., :: d + 1].sum(axis=-1).real
            w = eigvalsh(c.reshape(-1, 2, d, d))
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
        thetas, phis = np.linspace(t_lo, t_hi, n), np.linspace(p_lo, p_hi, n)
        bloch = _bloch_vectors(thetas, phis)
    return best[0], _bloch_basis(best[1], best[2]), points


def _measured_first(state: BipartiteState, side: int) -> np.ndarray:
    """State tensor ``(d_meas, d_opp, d_meas, d_opp)`` with the measured side first."""
    side = as_integer(side, "side must be an integer")
    return measured_first(state.rho12.matrix, state.dims.d1, state.dims.d2, side)


def sup_information_gain(
    state: BipartiteState, side: int, cfg: OptimizationConfig = OptimizationConfig()
) -> SupremumResult:
    """Maximize the information gain over complete bases on ``side``."""
    _check_config(cfg)
    r = _measured_first(state, side)
    s_opp = _opposite_entropy(r)
    starts = _anchors(state, side, cfg, 1000 * side)
    ascents = _lockstep_ascent(*_gain_problem(r, s_opp), (starts,))
    candidates = [(value, us[0], norm, evals) for value, us, norm, evals in ascents]
    if cfg.grid_refine and r.shape[0] == 2:
        value, basis, points = _grid_search(r, s_opp)
        _, parts = _gain_terms(r, s_opp, basis)
        norm = float(np.linalg.norm(_gain_direction(r, basis, parts)))
        candidates.append((value, basis, norm, points + 1))
    return _reduce_candidates(candidates)


def _check_config(cfg) -> None:
    if not isinstance(cfg, OptimizationConfig):
        raise TypeError(f"cfg must be an OptimizationConfig, got {cfg!r}")


def _reduce_candidates(candidates) -> SupremumResult:
    # Max over restart values; the lowest index wins exact ties.
    value, basis, grad_norm, _ = max(candidates, key=lambda cand: cand[0])
    return SupremumResult(
        value=max(value, 0.0),
        argmax_basis=basis,
        restart_values=tuple(cand[0] for cand in candidates),
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
    _check_config(cfg)
    starts = tuple(_anchors(state, side, cfg, 1000 * (side + 2)) for side in (1, 2))
    return _reduce_candidates(_lockstep_ascent(*_joint_problem(_measured_first(state, 1)), starts))


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
    return clamp_nonnegative(total - gain)


def _direction_side(direction: str) -> int:
    if direction == "1to2":
        return 1
    if direction == "2to1":
        return 2
    raise ValueError(f"direction must be '1to2' or '2to1', got {direction!r}")
