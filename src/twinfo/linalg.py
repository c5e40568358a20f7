"""Dense complex linear algebra for small bipartite systems.

Matrices are plain complex128 ndarrays.  Spectral decompositions group
near-degenerate eigenvalues before building projectors, which keeps the
projectors stable when the spectrum is nearly degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import kron, ptrace_keep1, ptrace_keep2

EIG_GROUP_TOL = 1e-8
KERNEL_CLIP = 1e-12
HERMITIAN_TOL = 1e-10


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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues with orthogonal projectors summing to identity.

    ``eigenvalues`` are strictly increasing; ``multiplicities[i]`` is the rank
    of ``projectors[i]``.
    """

    eigenvalues: np.ndarray
    projectors: tuple
    multiplicities: np.ndarray

    def __len__(self):
        return len(self.eigenvalues)

    def matrix(self) -> np.ndarray:
        """Reconstruct the operator from its spectral form."""
        out = np.zeros_like(self.projectors[0])
        for a, p in zip(self.eigenvalues, self.projectors):
            out += a * p
        return out


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius(a: np.ndarray, b=None) -> float:
    """Frobenius norm of ``a`` (or of ``a - b``)."""
    return float(np.linalg.norm(a if b is None else a - b))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return frobenius(m, dagger(m)) <= tol * (1.0 + frobenius(m))


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


def hermitian_eig(m: np.ndarray, group_tol: float = EIG_GROUP_TOL) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalue grouping.

    Consecutive eigenvalues closer than ``group_tol * (1 + |lambda|)`` are
    merged into one projector, so near-degenerate spectra yield stable
    projectors instead of arbitrarily mixed eigenvectors.
    """
    if not is_hermitian(m):
        raise ValueError("hermitian_eig requires a Hermitian matrix")
    h = (m + dagger(m)) / 2.0
    w, v = np.linalg.eigh(h)

    edges = [0]
    for i in range(1, len(w)):
        scale = 1.0 + max(abs(w[i]), abs(w[i - 1]))
        if w[i] - w[i - 1] >= group_tol * scale:
            edges.append(i)
    edges.append(len(w))

    eigenvalues = []
    projectors = []
    multiplicities = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = v[:, lo:hi]
        p = block @ block.conj().T
        projectors.append((p + dagger(p)) / 2.0)
        eigenvalues.append(float(np.mean(w[lo:hi])))
        multiplicities.append(hi - lo)
    return SpectralDecomposition(
        eigenvalues=np.array(eigenvalues),
        projectors=tuple(projectors),
        multiplicities=np.array(multiplicities, dtype=int),
    )


def matrix_fn_on_support(m: np.ndarray, f, clip: float = KERNEL_CLIP) -> np.ndarray:
    """Apply ``f`` to the eigenvalues of ``m`` above ``clip``; the kernel maps to 0."""
    if not is_hermitian(m):
        raise ValueError("matrix_fn_on_support requires a Hermitian matrix")
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    fw = np.zeros_like(w)
    mask = w > clip
    if np.any(mask):
        fw[mask] = f(w[mask])
    return (v * fw) @ v.conj().T


def range_projector(m: np.ndarray, clip: float = KERNEL_CLIP) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue above ``clip``."""
    w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    block = v[:, w > clip]
    return block @ block.conj().T
