import numpy as np
import pytest

import twinfo as T
from twinfo.linalg import hermitian_eig

from conftest import SIGMA_X, SIGMA_Z, bell_vector


def test_tensor_product_identities():
    np.testing.assert_allclose(T.tensor_product(np.eye(2), np.eye(2)), np.eye(4))
    np.testing.assert_allclose(
        T.tensor_product(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), np.diag([1.0, 0, 0, 0])
    )


def test_tensor_product_block_structure():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    out = T.tensor_product(p0, SIGMA_X)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = SIGMA_X
    np.testing.assert_allclose(out, expected)


def test_partial_trace_product_state():
    r1 = np.diag([0.25, 0.75]).astype(complex)
    r2 = np.diag([0.1, 0.9]).astype(complex)
    np.testing.assert_allclose(
        T.partial_trace(T.tensor_product(r1, r2), T.Dims(2, 2), keep=1), r1, atol=1e-14
    )
    np.testing.assert_allclose(
        T.partial_trace(T.tensor_product(r1, r2), T.Dims(2, 2), keep=2), r2, atol=1e-14
    )


def test_partial_trace_bell():
    phi = bell_vector()
    rho = np.outer(phi, phi.conj())
    np.testing.assert_allclose(T.partial_trace(rho, T.Dims(2, 2), keep=1), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_dephased_diagonal():
    r = (0.6, 0.4)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = r[0]
    m[3, 3] = r[1]
    np.testing.assert_allclose(T.partial_trace(m, T.Dims(2, 2), keep=1), np.diag(r), atol=1e-14)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        T.partial_trace(np.eye(3), T.Dims(2, 2), keep=1)


def test_partial_trace_roundtrip_random():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(
        T.partial_trace(T.tensor_product(a, b), T.Dims(3, 2), keep=1),
        a * np.trace(b),
        atol=1e-12,
    )


def test_hermitian_eig_identity():
    dec = hermitian_eig(np.eye(2, dtype=complex))
    assert len(dec) == 1
    assert dec.eigenvalues[0] == pytest.approx(1.0)
    assert dec.multiplicities[0] == 2
    np.testing.assert_allclose(dec.projectors[0], np.eye(2), atol=1e-14)


def test_hermitian_eig_sigma_z():
    dec = hermitian_eig(SIGMA_Z)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0])
    np.testing.assert_allclose(dec.projectors[0], np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(dec.projectors[1], np.diag([1.0, 0.0]), atol=1e-14)
    assert all(m == 1 for m in dec.multiplicities)


def test_hermitian_eig_grouping():
    m = np.diag([0.5, 0.5 + 1e-14, 0.2]).astype(complex)
    dec = hermitian_eig(m)
    np.testing.assert_allclose(dec.eigenvalues, [0.2, 0.5], atol=1e-13)
    np.testing.assert_array_equal(dec.multiplicities, [1, 2])


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("seed", range(6))
def test_spectral_reconstruction_and_completeness(seed):
    rng = np.random.default_rng(seed)
    d = 4 + seed % 3
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    dec = hermitian_eig(h)
    np.testing.assert_allclose(dec.matrix(), h, atol=1e-10)
    total = sum(dec.projectors)
    np.testing.assert_allclose(total, np.eye(d), atol=1e-10)
    for i, p in enumerate(dec.projectors):
        assert dec.multiplicities[i] == round(np.trace(p).real)
        for j, q in enumerate(dec.projectors):
            expected = p if i == j else np.zeros_like(p)
            np.testing.assert_allclose(p @ q, expected, atol=1e-10)
    assert np.all(np.diff(dec.eigenvalues) > 0)


def test_unit_trace_preserved_by_partial_trace():
    for d1, d2 in [(2, 2), (2, 3), (3, 3)]:
        dims = T.Dims(d1, d2)
        rho = T.sample_random_density(dims, dims.total, seed=7)
        for keep in (1, 2):
            assert np.trace(T.partial_trace(rho, dims, keep)).real == pytest.approx(1.0, abs=1e-12)
