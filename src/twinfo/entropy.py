"""Entropies and entropy-derived correlation quantities.

Everything is measured in bits (log base 2).  Functions return plain floats;
``math.inf`` is the sentinel for infinite relative entropy.  Tiny negative
results from round-off (above ``-1e-9``) are clamped to zero; anything more
negative signals invalid input and raises.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import KERNEL_CLIP, entropy_bits, vn_entropy
from .linalg import tensor_product
from .states import (
    BipartiteState,
    DensityOperator,
    Dims,
    StateValidationError,
    _check_unit_vector,
    _wrap_density,
)

NEGATIVE_CLAMP = 1e-9
SUPPORT_TOL = 1e-10


def _clamp(value: float) -> float:
    if value < -NEGATIVE_CLAMP:
        raise ValueError(
            f"information quantity is {value:.3e} < -{NEGATIVE_CLAMP:.0e}; inputs are invalid"
        )
    return max(value, 0.0)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr rho log2 rho, evaluated on eigenvalues above ``KERNEL_CLIP``."""
    return _clamp(float(vn_entropy(rho.matrix)))


def shannon_entropy(p) -> float:
    """-sum p_i log2 p_i with the 0 log 0 = 0 convention.

    Rejects inputs that are not a probability distribution (entries below
    -1e-12 or total off 1 by more than 1e-8).
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0:
        raise StateValidationError("distribution", "empty probability list")
    if float(p.min()) < -1e-12:
        raise StateValidationError("distribution", f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-8:
        raise StateValidationError("distribution", f"probabilities sum to {total:.12g}, expected 1")
    return _clamp(float(entropy_bits(p)))


def relative_entropy(sigma: DensityOperator, rho: DensityOperator) -> float:
    """S(sigma|rho) = Tr sigma log2 sigma - Tr sigma log2 rho.

    Returns ``math.inf`` when sigma has weight outside the range of rho.
    Otherwise both terms are evaluated on the range of rho, which avoids
    logarithms of zero eigenvalues while honoring the support condition.
    """
    if sigma.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {sigma.dim} vs {rho.dim}")
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > KERNEL_CLIP
    vk = v[:, keep]
    # <v_k|sigma|v_k> on the range of rho; its total is sigma's weight there
    proj = (vk.conj() * (sigma.matrix @ vk)).real
    overlap = float(np.sum(proj))
    if 1.0 - overlap > SUPPORT_TOL:
        return math.inf
    term_sigma = -float(vn_entropy(sigma.matrix))
    diag = np.sum(proj, axis=0)
    term_rho = float(np.dot(diag, np.log2(w[keep])))
    return _clamp(term_sigma - term_rho)


def mutual_information(state: BipartiteState) -> float:
    """I(1:2) = S(1) + S(2) - S(12)."""
    s1 = float(vn_entropy(state.rho1.matrix))
    s2 = float(vn_entropy(state.rho2.matrix))
    s12 = float(vn_entropy(state.rho12.matrix))
    return _clamp(s1 + s2 - s12)


def mutual_information_via_relative(state: BipartiteState) -> float:
    """I(1:2) as the relative entropy of the state w.r.t. the product of its reductions."""
    product = _wrap_density(tensor_product(state.rho1.matrix, state.rho2.matrix))
    return relative_entropy(state.rho12, product)


def entanglement_entropy(phi: np.ndarray, dims: Dims) -> float:
    """Entropy of either reduction of a pure bipartite vector."""
    phi = _check_unit_vector(phi, dims)
    s = np.linalg.svd(phi.reshape(dims.d1, dims.d2), compute_uv=False)
    return _clamp(float(entropy_bits(s * s)))
