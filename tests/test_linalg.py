import warnings

import numpy as np
import pytest

import twinfo as T


@pytest.mark.parametrize("m, invariant", [
    ([[1e308, 0.0], [0.0, -1e308]], "finite"),  # Hermitian part overflows: nan spectrum
    ([[0.5, 1e308], [1e308, 0.5]], "finite"),
    ([[0.5, 1e308], [-1e308, 0.5]], "hermitian"),  # difference from the adjoint overflows
    ([[1.0, np.nan], [np.nan, -1.0]], "finite"),
    ([[1.0, np.inf], [np.inf, -1.0]], "finite"),
    ([[0.0, 1.0], [1.0 + 1e-9, 0.0]], "hermitian"),  # beyond HERMITIAN_TOL * (1 + |m|)
    ([[0.0, 0.0]], "shape"),  # minus its 2x1 adjoint it broadcasts to 2x2 zeros
    ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "shape"),
    ([0.0, 0.0], "shape"),
    ([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]], "shape"),  # the shape is checked first
], ids=[
    "diagonal", "symmetric", "skew", "nan", "inf", "non_hermitian", "1x2", "2x3", "1-d", "2x3-nan",
])
def test_observable_from_matrix_rejects_overflow(m, invariant):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(T.StateValidationError) as err:
            T.observable_from_matrix(np.array(m, dtype=complex))
    assert err.value.invariant == invariant


@pytest.mark.parametrize("seed", range(6))
def test_spectral_reconstruction_and_completeness(seed):
    rng = np.random.default_rng(seed)
    d = 4 + seed % 3
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    dec = T.observable_from_matrix(h)
    np.testing.assert_allclose(dec.matrix(), h, atol=1e-10)
    total = sum(dec.projectors)
    np.testing.assert_allclose(total, np.eye(d), atol=1e-10)
    for i, p in enumerate(dec.projectors):
        assert dec.multiplicities[i] == round(np.trace(p).real)
        for j, q in enumerate(dec.projectors):
            expected = p if i == j else np.zeros_like(p)
            np.testing.assert_allclose(p @ q, expected, atol=1e-10)
    assert np.all(np.diff(dec.eigenvalues) > 0)
