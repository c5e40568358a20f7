import numpy as np
import pytest

import twinfo as T
from twinfo.states import StateValidationError, validate_densities

from conftest import DIM_PAIRS, SIGMA_X, bell_vector


def test_validate_maximally_mixed():
    rho = T.validate_density(np.eye(2, dtype=complex) / 2)
    assert rho.dim == 2


def test_validate_rejects_traceless():
    with pytest.raises(StateValidationError) as err:
        T.validate_density(SIGMA_X)
    assert err.value.invariant == "trace"


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(StateValidationError) as err:
        T.validate_density(np.diag([1.2, -0.2]).astype(complex))
    assert err.value.invariant == "positivity"


def test_validate_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(StateValidationError) as err:
        T.validate_density(m)
    assert err.value.invariant == "hermitian"


def test_validate_rejects_infinite_entry():
    # The Hermitian part would compute inf - inf; the finite check comes first.
    with pytest.raises(StateValidationError) as err:
        T.validate_density(np.array([[0.5, np.inf], [-np.inf, 0.5]], dtype=complex))
    assert err.value.invariant == "finite"


# Finite entries whose sums overflow: the trace, the Hermitian part and the
# difference from the adjoint reach inf (and the spectrum nan) with no warning.
OVERFLOWING = [
    ([[1e308, 0.0], [0.0, 1e308]], "trace"),
    ([[0.5, 1e308], [1e308, 0.5]], "positivity"),
    ([[0.5, 1e308], [-1e308, 0.5]], "hermitian"),
]


@pytest.mark.parametrize("m, invariant", OVERFLOWING, ids=[inv for _, inv in OVERFLOWING])
def test_validate_rejects_overflowing_entries(m, invariant):
    with pytest.raises(StateValidationError) as err:
        T.validate_density(np.array(m, dtype=complex))
    assert err.value.invariant == invariant


@pytest.mark.parametrize(
    "bad, invariant",
    [
        (np.diag([1.5, -0.5]), "positivity"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "hermitian"),
        (SIGMA_X, "trace"),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), "finite"),
        (np.array([[0.5, np.inf], [np.inf, 0.5]]), "finite"),
    ],
)
def test_validate_densities_raises_the_first_invalid_matrix(bad, invariant):
    good = np.eye(2, dtype=complex) / 2
    h, w = validate_densities(np.array([good, good]))
    assert h.tobytes() == np.array([good, good]).tobytes()
    assert w.tobytes() == np.linalg.eigvalsh(h).tobytes()
    # A later matrix failing an earlier check does not mask the first one.
    later = np.array([[0.5, 0.1], [0.0, 0.5]]) if invariant == "positivity" else np.diag([1.5, -0.5])
    with pytest.raises(StateValidationError) as err:
        validate_densities(np.array([good, bad, later], dtype=complex))
    assert err.value.invariant == invariant


def test_bell_reductions(bell):
    np.testing.assert_allclose(bell.rho1.matrix, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(bell.rho2.matrix, np.eye(2) / 2, atol=1e-12)


def test_product_state_reductions():
    r1 = np.diag([0.25, 0.75]).astype(complex)
    r2 = np.diag([0.4, 0.35, 0.25]).astype(complex)
    state = T.make_bipartite(T.tensor_product(r1, r2), T.Dims(2, 3))
    np.testing.assert_allclose(state.rho1.matrix, r1, atol=1e-12)
    np.testing.assert_allclose(state.rho2.matrix, r2, atol=1e-12)


def test_dephased_state_reduction():
    phi = np.sqrt(0.75) * np.array([1, 0, 0, 0], dtype=complex) + np.sqrt(0.25) * np.array(
        [0, 0, 0, 1], dtype=complex
    )
    state = T.dephase_in_schmidt_basis(phi, T.Dims(2, 2))
    np.testing.assert_allclose(state.rho1.matrix, np.diag([0.75, 0.25]), atol=1e-12)


def test_make_bipartite_dimension_mismatch():
    with pytest.raises(StateValidationError):
        T.make_bipartite(np.eye(4, dtype=complex) / 4, T.Dims(2, 3))


def test_make_bipartite_rejects_non_finite():
    with pytest.raises(StateValidationError) as err:
        T.make_bipartite(np.full((4, 4), np.nan, dtype=complex), T.Dims(2, 2))
    assert err.value.invariant == "finite"
    with pytest.raises(StateValidationError) as err:
        T.bipartite_from_pure(np.array([1.0, np.inf, 0.0, 0.0]), T.Dims(2, 2))
    assert err.value.invariant == "finite"


def test_purity_class():
    assert T.purity_class(T.validate_density(np.diag([1.0, 0.0]).astype(complex))) == "pure"
    assert T.purity_class(T.validate_density(np.eye(2, dtype=complex) / 2)) == "mixed"
    nearly = T.validate_density(np.diag([1 - 1e-14, 1e-14]).astype(complex))
    assert T.purity_class(nearly) == "pure"


def test_schmidt_product_vector():
    plus_plus = np.full(4, 0.5, dtype=complex)
    form = T.schmidt_decompose(plus_plus, T.Dims(2, 2))
    assert len(form) == 1
    assert form.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_bell():
    form = T.schmidt_decompose(bell_vector(), T.Dims(2, 2))
    np.testing.assert_allclose(form.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_biorthogonal_crossed():
    phi = np.zeros(4, dtype=complex)
    phi[1] = np.sqrt(0.75)  # |0>|1>
    phi[2] = np.sqrt(0.25)  # |1>|0>
    form = T.schmidt_decompose(phi, T.Dims(2, 2))
    np.testing.assert_allclose(form.coefficients, [np.sqrt(0.75), np.sqrt(0.25)], atol=1e-12)
    np.testing.assert_allclose(np.abs(form.basis1), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(form.basis2), np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_schmidt_rejects_non_unit():
    with pytest.raises(StateValidationError):
        T.schmidt_decompose(np.array([1, 1, 0, 0], dtype=complex), T.Dims(2, 2))


@pytest.mark.parametrize("d1,d2", DIM_PAIRS)
def test_schmidt_reconstruction_and_spectra(d1, d2):
    dims = T.Dims(d1, d2)
    for k in range(1000):
        phi = T.sample_random_pure(dims, seed=k, stream=17)
        form = T.schmidt_decompose(phi, dims)
        assert np.linalg.norm(T.schmidt_reconstruct(form) - phi) < 1e-8
        assert np.sum(form.coefficients**2) == pytest.approx(1.0, abs=1e-10)
        # both bases orthonormal
        for basis in (form.basis1, form.basis2):
            gram = basis.conj().T @ basis
            np.testing.assert_allclose(gram, np.eye(len(form)), atol=1e-10)


@pytest.mark.parametrize("d1,d2", DIM_PAIRS)
def test_reduction_spectra_agree_for_pure_states(d1, d2):
    dims = T.Dims(d1, d2)
    for k in range(200):
        state = T.bipartite_from_pure(T.sample_random_pure(dims, seed=k, stream=23), dims)
        e1 = np.linalg.eigvalsh(state.rho1.matrix)
        e2 = np.linalg.eigvalsh(state.rho2.matrix)
        e1 = np.sort(e1[e1 > 1e-10])
        e2 = np.sort(e2[e2 > 1e-10])
        assert e1.shape == e2.shape
        np.testing.assert_allclose(e1, e2, atol=1e-8)


def test_pure_composite_has_zero_entropy():
    for k in range(50):
        dims = T.Dims(2, 3)
        state = T.bipartite_from_pure(T.sample_random_pure(dims, seed=k, stream=29), dims)
        assert T.purity_class(state.rho12) == "pure"
        assert T.von_neumann_entropy(state.rho12) < 1e-8
