"""Hot numeric kernels on raw complex128 arrays, in plain numpy, and the small
array helpers the library shares: ``dagger``, ``frobenius``, ``range_projector``
and ``tensor_product``, the public name of ``kron``.

``eigh``, ``eigvalsh`` and ``einsum`` are the library's one entry to LAPACK's
Hermitian eigensolvers and to einsum: numpy's own compiled calls, without the
wrapper checks of ``np.linalg`` (about 2 us of a 12 us ``eigh`` of a
``(4, 2, 2, 2)`` stack) and the ``__array_function__`` dispatch of ``np.einsum``
(about 0.6 us of a 6 us three-operand call), on calls an optimisation makes
thousands of times.  Each result equals numpy's public function bit for bit:
the same compiled call on the same bytes.

Callers are responsible for passing C-contiguous complex128 arrays.
``KERNEL_CLIP`` implements the ``0 * log 0 = 0`` convention: eigenvalues and
probabilities at or below it are treated as exact zeros.

``conditional_states`` is the projector-stack primitive for rank-k
measurements.  Values the CLI prints to 17 digits keep the arithmetic of
``kron``, batched over stack axes, as other contraction orders move last bits.

``gain_from_conditionals`` is the library's one ``S - sum_i p_i S(C_i/p_i)``, for
the information gain and the coherence deficit, with the bits ``sweep`` prints.

The entropy, partial-trace and information kernels also take ``sweep``'s stacks
with a leading sample axis, each row bitwise the unbatched call: stacked ``@``,
``eigvalsh``, ``trace`` and sums over a last axis are equal slice by slice.  A
zero-padded sum regroups terms, so rows with an entry at or below ``KERNEL_CLIP``
sum only their kept entries, gathered with the rows that keep as many.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

BACKEND = "numpy"
KERNEL_CLIP = 1e-12

einsum = np.einsum._implementation


def _not_converged(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


# The error state that np.linalg's eigensolvers run their gufuncs under.
_LAPACK_ERRSTATE = dict(call=_not_converged, invalid="call", over="ignore", divide="ignore", under="ignore")


def eigh(a):
    """``np.linalg.eigh(a)`` of a float64 or complex128 stack, as a plain ``(w, v)`` tuple."""
    with np.errstate(**_LAPACK_ERRSTATE):
        return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def eigvalsh(a):
    """``np.linalg.eigvalsh(a)`` of a float64 or complex128 stack."""
    with np.errstate(**_LAPACK_ERRSTATE):
        return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def dagger(m):
    """Conjugate transpose of a matrix, or of each in a stack."""
    return m.conj().swapaxes(-1, -2)


def frobenius(a, b=None) -> float:
    """Frobenius norm of ``a`` (or of ``a - b``)."""
    return float(np.linalg.norm(a if b is None else a - b))


def entropy_bits(p):
    """Shannon entropy (base 2) of the entries of ``p`` above ``KERNEL_CLIP``; of
    each row (last axis) of a stack.  Rows that keep ``k`` entries sum as one
    ``(m, k)`` array, the 1-D call's pairwise sum row by row."""
    if p.ndim == 1:
        q = p[p > KERNEL_CLIP]
        return -np.sum(q * np.log2(q))
    keep = p > KERNEL_CLIP
    kept = np.count_nonzero(keep, axis=-1)
    out = np.empty(p.shape[:-1])
    for k in set(kept.ravel().tolist()):
        rows = kept == k
        q = p[rows]
        q = q[keep[rows]].reshape(len(q), k)
        out[rows] = -np.sum(q * np.log2(q), axis=-1)
    return out


def vn_entropy(m):
    """von Neumann entropy in bits of a Hermitian PSD matrix, or of each in a stack."""
    return entropy_bits(eigvalsh(m))


def ptrace_keep1(rho, d1, d2):
    """Trace out subsystem 2 of a (d1*d2) x (d1*d2) matrix, or of each in a stack."""
    return einsum("...abcb->...ac", rho.reshape(rho.shape[:-2] + (d1, d2, d1, d2)))


def ptrace_keep2(rho, d1, d2):
    """Trace out subsystem 1 of a (d1*d2) x (d1*d2) matrix, or of each in a stack."""
    return einsum("...abak->...bk", rho.reshape(rho.shape[:-2] + (d1, d2, d1, d2)))


def measured_first(rho, d1, d2, side):
    """Contiguous state tensor ``(..., d_meas, d_opp, d_meas, d_opp)`` with ``side`` first."""
    r = rho.reshape(rho.shape[:-2] + (d1, d2, d1, d2))
    if side == 1:
        return np.ascontiguousarray(r)
    if side == 2:
        return np.ascontiguousarray(r.swapaxes(-4, -3).swapaxes(-2, -1))
    raise ValueError(f"side must be 1 or 2, got {side}")


def swap_sides(rho, d1, d2):
    """Reorder a bipartite matrix, or each in a stack, so subsystem 2 comes first."""
    return measured_first(rho, d1, d2, 2).reshape(rho.shape)


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


tensor_product = kron


def range_projector(m):
    """Projector onto the span of eigenvectors with eigenvalue above ``KERNEL_CLIP``."""
    w, v = eigh((m + dagger(m)) / 2.0)
    block = v[:, w > KERNEL_CLIP]
    return block @ block.conj().T


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
    zero-padded sum regroups them.  Stacks subtract in outcome order, vectorized, and
    a dropped outcome an exact 0, so each row keeps the 1-D call's bits.  ``s``
    broadcasts over the leading axes of ``probs``."""
    kept = probs > KERNEL_CLIP
    if probs.ndim > 1:
        # A dropped outcome's conditional is divided by 1, not by its weight, so it stays finite.
        h = vn_entropy(conds / np.where(kept, probs, 1.0)[..., None, None])
        out = np.array(np.broadcast_to(s, probs.shape[:-1]), dtype=float)
        for i in range(probs.shape[-1]):
            out -= np.where(kept[..., i], probs[..., i] * h[..., i], 0.0)
        return out
    p = probs[kept]
    for p_i, w in zip(p, eigvalsh(conds[kept] / p[:, None, None])):
        s -= p_i * entropy_bits(w)
    return s


def info_gain_side1(rho, basis, d2):
    """Entropy reduction about side 2 from measuring ``basis`` on side 1.

    ``basis`` holds the measured orthonormal vectors as columns; diagonal
    block ``i`` of ``w rho w^dagger`` is the unnormalized side-2 state given
    outcome ``i``.  ``rho`` and ``basis`` may be stacks whose leading axes broadcast.
    """
    d1, n = basis.shape[-2:]
    w = kron(basis.conj().swapaxes(-1, -2), np.eye(d2, dtype=np.complex128))
    m = w @ rho @ w.conj().swapaxes(-1, -2)
    blocks = einsum("...ibic->...ibc", m.reshape(m.shape[:-2] + (n, d2, n, d2)))
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    return gain_from_conditionals(vn_entropy(ptrace_keep2(rho, d1, d2)), probs, blocks)


def table_mutual_info(p):
    """H(rows) + H(columns) - H(table) of a 2-d probability table (or a stack), in bits."""
    flat = p.reshape(p.shape[:-2] + (-1,))
    return entropy_bits(p.sum(axis=-1)) + entropy_bits(p.sum(axis=-2)) - entropy_bits(flat)


def joint_mutual_info(rho, basis1, basis2):
    """Classical mutual information of the simultaneous-measurement table; the
    arguments may be stacks."""
    w = kron(basis1, basis2)
    p = np.sum((w.conj() * (rho @ w)).real, axis=-2)
    return table_mutual_info(p.reshape(p.shape[:-1] + (basis1.shape[-1], basis2.shape[-1])))
