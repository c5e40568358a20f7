"""Entropies and entropy-derived correlation quantities.

Everything is measured in bits (log base 2).  Functions return plain floats;
``math.inf`` is the sentinel for infinite relative entropy.  Tiny negative
results from round-off (above ``-1e-9``) are clamped to zero; anything more
negative signals invalid input and raises.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import KERNEL_CLIP, eigh, entropy_bits, kron, vn_entropy
from .states import (
    BipartiteState,
    DensityOperator,
    Dims,
    StateValidationError,
    _check_unit_vector,
    _wrap_density,
)

NEGATIVE_CLAMP = 1e-9
# A probability table may dip below 0 or miss a unit total by round-off only.
PROB_NEGATIVE_TOL = 1e-12
PROB_SUM_TOL = 1e-8
SUPPORT_TOL = 1e-10


def clamp_nonnegative(value: float) -> float:
    """``value`` with round-off below zero (down to ``-NEGATIVE_CLAMP``) set to 0; raises below."""
    if value < -NEGATIVE_CLAMP:
        raise ValueError(
            f"information quantity is {value:.3e} < -{NEGATIVE_CLAMP:.0e}; inputs are invalid"
        )
    return max(value, 0.0) + 0.0  # + 0.0 turns -0.0 into 0.0


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr rho log2 rho, evaluated on eigenvalues above ``KERNEL_CLIP``."""
    return clamp_nonnegative(float(vn_entropy(rho.matrix)))


def shannon_entropy(p) -> float:
    """-sum p_i log2 p_i with the 0 log 0 = 0 convention.

    Rejects inputs that are not a probability distribution (a non-finite entry,
    entries below ``-PROB_NEGATIVE_TOL`` or total off 1 by more than ``PROB_SUM_TOL``).
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0:
        raise StateValidationError("distribution", "empty probability list")
    if not np.all(np.isfinite(p)):
        raise StateValidationError("distribution", "non-finite (nan or inf) probability")
    if float(p.min()) < -PROB_NEGATIVE_TOL:
        raise StateValidationError("distribution", f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise StateValidationError("distribution", f"probabilities sum to {total:.12g}, expected 1")
    return clamp_nonnegative(float(entropy_bits(p)))


def relative_entropy(sigma: DensityOperator, rho: DensityOperator) -> float:
    """S(sigma|rho) = Tr sigma log2 sigma - Tr sigma log2 rho.

    Returns ``math.inf`` when sigma has weight outside the range of rho.
    Otherwise both terms are evaluated on the range of rho, which avoids
    logarithms of zero eigenvalues while honoring the support condition.
    """
    if sigma.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {sigma.dim} vs {rho.dim}")
    s = sigma.matrix[None]
    return relative_entropies(s, rho.matrix[None], vn_entropy(s))[0]


def relative_entropies(sigma: np.ndarray, rho: np.ndarray, s_sigma: np.ndarray) -> list:
    """``relative_entropy`` of each row of the stacks ``sigma`` and ``rho`` of density
    matrices, given S(sigma) per row.

    ``eigh`` sorts eigenvalues ascending, so the ``k`` of rho above ``KERNEL_CLIP``
    are its last ``k``; rows that keep ``k`` run as one stack.  A trace-one rho
    keeps at least one, so ``k >= 1``.
    """
    w, v = eigh(rho)
    kept = np.count_nonzero(w > KERNEL_CLIP, axis=-1)
    out = np.empty(len(w))
    for k in set(kept.tolist()):
        rows = kept == k
        wk, vk = w[rows, -k:], v[rows][..., -k:]
        # <v_k|sigma|v_k> on the range of rho; its total is sigma's weight there
        proj = (vk.conj() * (sigma[rows] @ vk)).real
        overlap = np.sum(proj.reshape(len(proj), -1), axis=-1)
        term_rho = (np.sum(proj, axis=-2)[:, None, :] @ np.log2(wk)[:, :, None])[:, 0, 0]
        value = np.where(1.0 - overlap > SUPPORT_TOL, math.inf, -s_sigma[rows] - term_rho)
        out[rows] = [clamp_nonnegative(x) for x in value.tolist()]
    return out.tolist()


def mutual_information(state: BipartiteState) -> float:
    """I(1:2) = S(1) + S(2) - S(12)."""
    s1 = float(vn_entropy(state.rho1.matrix))
    s2 = float(vn_entropy(state.rho2.matrix))
    s12 = float(vn_entropy(state.rho12.matrix))
    return clamp_nonnegative(s1 + s2 - s12)


def mutual_information_via_relative(state: BipartiteState) -> float:
    """I(1:2) as the relative entropy of the state w.r.t. the product of its reductions."""
    product = _wrap_density(kron(state.rho1.matrix, state.rho2.matrix))
    return relative_entropy(state.rho12, product)


def entanglement_entropy(phi: np.ndarray, dims: Dims) -> float:
    """Entropy of either reduction of a pure bipartite vector."""
    phi = _check_unit_vector(phi, dims)
    s = np.linalg.svd(phi.reshape(dims.d1, dims.d2), compute_uv=False)
    return clamp_nonnegative(float(entropy_bits(s * s)))
