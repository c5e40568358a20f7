import numpy as np
import pytest

from twinfo.kernels import KERNEL_CLIP, info_gain_side1, kron, ptrace_keep2, swap_sides, vn_entropy
from twinfo.linalg import Dims
from twinfo.measurement import embed


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("transposed", [False, True])
def test_kron_is_bitwise_np_kron(dtype, transposed):
    rng = np.random.default_rng(7)

    def draw(m, n):
        x = rng.normal(size=(n, m) if transposed else (m, n))
        if dtype is np.complex128:
            x = x + 1j * rng.normal(size=x.shape)
        return x.T if transposed else x

    for m, n, p, q in rng.integers(1, 9, size=(200, 4)):
        a, b = draw(m, n), draw(p, q)
        got, want = kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # The one-side embedding is the same Kronecker product with an identity.
    for d1, d2 in ((2, 3), (3, 2)):
        dims = Dims(d1, d2)
        a, b = draw(d1, d1), draw(d2, d2)
        for got, want in (
            (embed(a, 1, dims), np.kron(a, np.eye(d2, dtype=np.complex128))),
            (embed(b, 2, dims), np.kron(np.eye(d1, dtype=np.complex128), b)),
        ):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# ------------------------------------------------ conditional entropies, bit for bit


def _vn_entropy_masked(m):
    """``vn_entropy`` with its own masked sum; the reference for its bits."""
    w = np.linalg.eigvalsh(m)
    q = w[w > KERNEL_CLIP]
    return -np.sum(q * np.log2(q))


def _info_gain_side1_loop(rho, basis, d2):
    """``info_gain_side1`` one diagonal block and one eigendecomposition at a
    time; the reference for the bits ``sweep`` prints."""
    d1, n = basis.shape
    w = np.kron(basis.conj().T, np.eye(d2, dtype=np.complex128))
    m = w @ rho @ w.conj().T
    gain = _vn_entropy_masked(ptrace_keep2(rho, d1, d2))
    for i in range(n):
        blk = m[i * d2 : (i + 1) * d2, i * d2 : (i + 1) * d2]
        p = np.trace(blk).real
        if p > KERNEL_CLIP:
            gain -= p * _vn_entropy_masked(np.ascontiguousarray(blk) / p)
    return gain


@pytest.mark.parametrize("d1", range(1, 9))
def test_conditional_entropy_kernels_match_loops_bitwise(d1):
    # Rank 4 keeps 4 of 8 eigenvalues at d = 8, where numpy's pairwise sum
    # would regroup a zero-padded sum; ranks 1 and 2 cannot show that.
    rng = np.random.default_rng(50 + d1)
    for d2 in range(1, 9):
        total = d1 * d2
        for rank in sorted({1, min(2, total), min(4, total), total}):
            g = rng.normal(size=(total, rank)) + 1j * rng.normal(size=(total, rank))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            assert vn_entropy(rho) == _vn_entropy_masked(rho)
            for r, d_meas, d_opp in ((rho, d1, d2), (swap_sides(rho, d1, d2), d2, d1)):
                z = rng.normal(size=(d_meas, d_meas)) + 1j * rng.normal(size=(d_meas, d_meas))
                u = np.ascontiguousarray(np.linalg.qr(z)[0])
                assert info_gain_side1(r, u, d_opp) == _info_gain_side1_loop(r, u, d_opp)
