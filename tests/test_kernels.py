import numpy as np
import pytest

from twinfo.kernels import kron
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
