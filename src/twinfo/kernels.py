"""Hot numeric kernels on raw complex128 arrays, in plain numpy.

Callers are responsible for passing C-contiguous complex128 arrays.  ``clip``
arguments implement the ``0 * log 0 = 0`` convention: eigenvalues/probabilities
at or below the clip are treated as exact zeros.
"""

import numpy as np

__all__ = [
    "BACKEND",
    "entropy_bits",
    "vn_entropy",
    "ptrace_keep1",
    "ptrace_keep2",
    "measured_first",
    "swap_sides",
    "kron",
    "info_gain_side1",
    "joint_mutual_info",
]

BACKEND = "numpy"


def entropy_bits(p, clip):
    """Shannon entropy (base 2) of the entries of ``p`` above ``clip``."""
    q = p[p > clip]
    return -np.sum(q * np.log2(q))


def vn_entropy(m, clip):
    """von Neumann entropy in bits of a Hermitian PSD matrix."""
    w = np.linalg.eigvalsh(m)
    q = w[w > clip]
    return -np.sum(q * np.log2(q))


def ptrace_keep1(rho, d1, d2):
    """Trace out subsystem 2 of a (d1*d2) x (d1*d2) matrix."""
    return np.einsum("abcb->ac", rho.reshape(d1, d2, d1, d2))


def ptrace_keep2(rho, d1, d2):
    """Trace out subsystem 1 of a (d1*d2) x (d1*d2) matrix."""
    return np.einsum("abak->bk", rho.reshape(d1, d2, d1, d2))


def measured_first(rho, d1, d2, side):
    """Contiguous state tensor ``(d_meas, d_opp, d_meas, d_opp)`` with ``side`` first."""
    r = rho.reshape(d1, d2, d1, d2)
    if side == 1:
        return np.ascontiguousarray(r)
    if side == 2:
        return np.ascontiguousarray(r.transpose(1, 0, 3, 2))
    raise ValueError(f"side must be 1 or 2, got {side}")


def swap_sides(rho, d1, d2):
    """Reorder a bipartite matrix so subsystem 2 comes first."""
    return measured_first(rho, d1, d2, 2).reshape(d1 * d2, d1 * d2)


def kron(a, b):
    """Kronecker product of two matrices, bitwise equal to ``np.kron``.

    Each entry is the same single product ``a[i, j] * b[k, l]``; one
    broadcast multiply skips ``np.kron``'s per-call Python overhead.
    """
    m, n = a.shape
    p, q = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def info_gain_side1(rho, basis, d2, clip):
    """Entropy reduction about side 2 from measuring ``basis`` on side 1.

    ``basis`` holds the measured orthonormal vectors as columns; diagonal
    block ``i`` of ``w rho w^dagger`` is the unnormalized side-2 state given
    outcome ``i``.
    """
    d1, n = basis.shape
    w = kron(basis.conj().T, np.eye(d2, dtype=np.complex128))
    m = w @ rho @ w.conj().T
    gain = vn_entropy(ptrace_keep2(rho, d1, d2), clip)
    for i in range(n):
        blk = m[i * d2 : (i + 1) * d2, i * d2 : (i + 1) * d2]
        p = np.trace(blk).real
        if p > clip:
            gain -= p * vn_entropy(np.ascontiguousarray(blk) / p, clip)
    return gain


def joint_mutual_info(rho, basis1, basis2, clip):
    """Classical mutual information of the simultaneous-measurement table."""
    w = kron(basis1, basis2)
    p = np.sum((w.conj() * (rho @ w)).real, axis=0).reshape(basis1.shape[1], basis2.shape[1])
    ha = entropy_bits(np.sum(p, axis=1), clip)
    hb = entropy_bits(np.sum(p, axis=0), clip)
    hab = entropy_bits(p.ravel(), clip)
    return ha + hb - hab
