import numpy as np
import pytest

import twinfo as T
from twinfo.states import StateValidationError, _schmidt_products

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
def test_validate_density_raises_the_failed_invariant(bad, invariant):
    good = np.eye(2, dtype=complex) / 2
    assert T.validate_density(good).matrix.tobytes() == good.tobytes()
    with pytest.raises(StateValidationError) as err:
        T.validate_density(np.array(bad, dtype=complex))
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


@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (6, 6)])
def test_unchecked_states_equal_make_bipartite_bitwise(d1, d2):
    # bipartite_from_pure and dephase_in_schmidt_basis build their states without
    # validate_density; make_bipartite of the same matrix gives the same bytes.
    dims = T.Dims(d1, d2)
    product = np.kron(T.sample_random_pure(T.Dims(d1, 1), 0), T.sample_random_pure(T.Dims(1, d2), 1))
    vectors = [product] + [T.sample_random_pure(dims, seed, stream=41) for seed in range(8)]
    for phi in vectors:
        form = T.schmidt_decompose(phi, dims)
        v = _schmidt_products(form).T
        for built, m in ((T.bipartite_from_pure(phi, dims), np.outer(phi, phi.conj())),
                         (T.dephase_in_schmidt_basis(phi, dims), (v * form.coefficients**2) @ v.conj().T)):
            checked = T.make_bipartite(m, dims)
            for ours, theirs in zip((built.rho12, built.rho1, built.rho2),
                                    (checked.rho12, checked.rho1, checked.rho2)):
                assert ours.matrix.tobytes() == theirs.matrix.tobytes()


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


def test_unit_trace_preserved_by_partial_trace():
    for d1, d2 in [(2, 2), (2, 3), (3, 3)]:
        dims = T.Dims(d1, d2)
        rho = T.sample_random_density(dims, dims.total, seed=7)
        for keep in (1, 2):
            assert np.trace(T.partial_trace(rho, dims, keep)).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "d1, d2", [(2.5, 2), (2, 2.0), ("2", 2), (None, 2), (True, 2), (2, False)],
    ids=["float", "integral-float", "str", "none", "bool", "bool-d2"],
)
def test_dims_rejects_non_integer_sides(d1, d2):
    with pytest.raises(TypeError, match="must be integers"):
        T.Dims(d1, d2)


def test_dims_accepts_numpy_integers():
    dims = T.Dims(np.int64(2), np.int32(3))
    assert dims.total == 6
