"""Dense complex linear algebra for small bipartite systems.

Matrices are plain complex128 ndarrays.  This module holds the bipartite
split ``Dims``, the Frobenius norm, the Kronecker product, the partial trace
and the support projector of a positive matrix; spectral decompositions of
observables, and their checks, live in ``measurement``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KERNEL_CLIP, kron, ptrace_keep1, ptrace_keep2


@dataclass(frozen=True)
class Dims:
    """Subsystem dimensions of a bipartite split."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.d1}x{self.d2}")

    @property
    def total(self) -> int:
        return self.d1 * self.d2


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each in a stack."""
    return m.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray, b=None) -> float:
    """Frobenius norm of ``a`` (or of ``a - b``)."""
    return float(np.linalg.norm(a if b is None else a - b))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply."""
    return kron(a, b)


def partial_trace(m: np.ndarray, dims: Dims, keep: int) -> np.ndarray:
    """Trace out one subsystem, keeping subsystem ``keep`` (1 or 2)."""
    n = dims.total
    if m.shape != (n, n):
        raise ValueError(f"matrix side {m.shape} does not match dims {dims.d1}x{dims.d2}")
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if keep == 1:
        return ptrace_keep1(m, dims.d1, dims.d2)
    if keep == 2:
        return ptrace_keep2(m, dims.d1, dims.d2)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def range_projector(m: np.ndarray) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue above ``KERNEL_CLIP``."""
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    block = v[:, w > KERNEL_CLIP]
    return block @ block.conj().T
