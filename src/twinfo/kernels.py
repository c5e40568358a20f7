"""Hot numeric kernels on raw complex128 arrays, in plain numpy.

Callers are responsible for passing C-contiguous complex128 arrays.
``KERNEL_CLIP`` implements the ``0 * log 0 = 0`` convention: eigenvalues and
probabilities at or below it are treated as exact zeros.

``conditional_states`` is the projector-stack primitive for rank-k
measurements.  Values the CLI prints to 17 digits keep the arithmetic of
``kron``, batched over stack axes, as other contraction orders move last bits.

``gain_from_conditionals`` is the library's one ``S - sum_i p_i S(C_i/p_i)``, for
the information gain and the coherence deficit, with the bits ``sweep`` prints.
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
    "conditional_states",
    "gain_from_conditionals",
    "info_gain_side1",
    "table_mutual_info",
    "joint_mutual_info",
]

BACKEND = "numpy"
KERNEL_CLIP = 1e-12


def entropy_bits(p):
    """Shannon entropy (base 2) of the entries of ``p`` above ``KERNEL_CLIP``."""
    q = p[p > KERNEL_CLIP]
    return -np.sum(q * np.log2(q))


def vn_entropy(m):
    """von Neumann entropy in bits of a Hermitian PSD matrix."""
    return entropy_bits(np.linalg.eigvalsh(m))


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
    """Kronecker product over the last two axes (leading stack axes broadcast),
    bitwise equal to ``np.kron`` on every slice.

    Each entry is the same single product ``a[..., i, j] * b[..., k, l]``; one
    broadcast multiply skips ``np.kron``'s per-call Python overhead.
    """
    m, n = a.shape[-2:]
    p, q = b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * p, n * q))


def conditional_states(rt, projs):
    """Conditionals ``C_i = Tr_side[(P_i (x) 1) rho]`` and weights ``tr C_i`` for a stack
    ``projs`` of projectors of any rank, on the measured-first tensor ``rt``."""
    dm, do = rt.shape[:2]
    c = projs.reshape(len(projs), dm * dm) @ rt.transpose(2, 0, 1, 3).reshape(dm * dm, do * do)
    c = c.reshape(len(projs), do, do)
    return np.trace(c, axis1=1, axis2=2).real, c


def gain_from_conditionals(s, probs, conds):
    """``s - sum_i p_i S(C_i / p_i)`` in bits over a stack ``conds`` of unnormalized
    ``C_i`` with weights ``probs`` above ``KERNEL_CLIP``.  Each row of one batched
    ``eigvalsh`` sums only its kept eigenvalues, as ``vn_entropy`` does: a
    zero-padded sum regroups them."""
    kept = probs > KERNEL_CLIP
    p = probs[kept]
    for p_i, w in zip(p, np.linalg.eigvalsh(conds[kept] / p[:, None, None])):
        s -= p_i * entropy_bits(w)
    return s


def info_gain_side1(rho, basis, d2):
    """Entropy reduction about side 2 from measuring ``basis`` on side 1.

    ``basis`` holds the measured orthonormal vectors as columns; diagonal
    block ``i`` of ``w rho w^dagger`` is the unnormalized side-2 state given
    outcome ``i``.
    """
    d1, n = basis.shape
    w = kron(basis.conj().T, np.eye(d2, dtype=np.complex128))
    blocks = np.einsum("ibic->ibc", (w @ rho @ w.conj().T).reshape(n, d2, n, d2))
    probs = np.trace(blocks, axis1=1, axis2=2).real
    return gain_from_conditionals(vn_entropy(ptrace_keep2(rho, d1, d2)), probs, blocks)


def table_mutual_info(p):
    """H(rows) + H(columns) - H(table) of a 2-d probability table, in bits."""
    return entropy_bits(p.sum(axis=1)) + entropy_bits(p.sum(axis=0)) - entropy_bits(p.ravel())


def joint_mutual_info(rho, basis1, basis2):
    """Classical mutual information of the simultaneous-measurement table."""
    w = kron(basis1, basis2)
    p = np.sum((w.conj() * (rho @ w)).real, axis=0).reshape(basis1.shape[1], basis2.shape[1])
    return table_mutual_info(p)
