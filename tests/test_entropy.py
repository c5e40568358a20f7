import math

import numpy as np
import pytest

import twinfo as T
from twinfo.entropy import NEGATIVE_CLAMP, SUPPORT_TOL, clamp_nonnegative, relative_entropies
from twinfo.kernels import KERNEL_CLIP, vn_entropy
from twinfo.states import StateValidationError

from conftest import DIM_PAIRS, H_THREE_QUARTERS, bell_vector, product_state, random_state


def _density(diag_entries):
    return T.validate_density(np.diag(diag_entries).astype(complex))


def test_von_neumann_pure():
    assert T.von_neumann_entropy(_density([1.0, 0.0])) == 0.0


def test_von_neumann_maximally_mixed():
    assert T.von_neumann_entropy(_density([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)


def test_von_neumann_three_quarters():
    assert T.von_neumann_entropy(_density([0.75, 0.25])) == pytest.approx(
        H_THREE_QUARTERS, abs=1e-12
    )


def test_clamp_nonnegative_zeroes_round_off_and_rejects_below_it():
    assert math.copysign(1.0, clamp_nonnegative(-0.0)) == 1.0
    assert clamp_nonnegative(-NEGATIVE_CLAMP) == 0.0
    with pytest.raises(ValueError, match="inputs are invalid"):
        clamp_nonnegative(-2 * NEGATIVE_CLAMP)


def test_shannon_entropy_values():
    assert T.shannon_entropy([1.0, 0.0]) == 0.0
    assert T.shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert T.shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)


def test_shannon_entropy_rejects_bad_distributions():
    with pytest.raises(StateValidationError):
        T.shannon_entropy([0.5, 0.6])
    with pytest.raises(StateValidationError):
        T.shannon_entropy([1.5, -0.5])


@pytest.mark.parametrize("p", [[0.5, math.nan], [math.nan], [1.0, math.inf], [math.inf, -math.inf]])
def test_shannon_entropy_rejects_non_finite_entries(p):
    with pytest.raises(StateValidationError, match="non-finite") as info:
        T.shannon_entropy(p)
    assert info.value.invariant == "distribution"


def test_relative_entropy_self_is_zero():
    for seed in range(5):
        rho = T.validate_density(T.sample_random_density(T.Dims(2, 2), 4, seed))
        assert T.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_pure_vs_mixed():
    sigma = _density([1.0, 0.0])
    rho = _density([0.5, 0.5])
    assert T.relative_entropy(sigma, rho) == pytest.approx(1.0, abs=1e-12)


def test_relative_entropy_disjoint_supports():
    sigma = _density([1.0, 0.0])
    rho = _density([0.0, 1.0])
    assert T.relative_entropy(sigma, rho) == math.inf


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(ValueError):
        T.relative_entropy(_density([1.0, 0.0]), _density([0.5, 0.25, 0.25]))


def test_relative_entropy_positive_for_distinct_states():
    sigma = _density([0.6, 0.4])
    rho = _density([0.5, 0.5])
    assert T.relative_entropy(sigma, rho) > 1e-3


def test_relative_entropy_nonnegative_on_random_pairs():
    dims = T.Dims(2, 3)
    for seed in range(100):
        sigma = T.validate_density(T.sample_random_density(dims, dims.total, seed, stream=1))
        rho = T.validate_density(T.sample_random_density(dims, dims.total, seed, stream=2))
        assert T.relative_entropy(sigma, rho) >= 0.0


@pytest.mark.parametrize("d1, d2", [(1, 2), (2, 2), (2, 3), (3, 3), (4, 2)])
def test_relative_entropy_equals_relative_entropies_rows_bitwise(d1, d2):
    # The single-pair function and the stacked one keep the same bits, whether
    # the reference has full rank or not.
    dims = T.Dims(d1, d2)
    n = dims.total
    for rank_s in sorted({1, n // 2 or 1, n}):
        for rank_r in sorted({1, n // 2 or 1, n}):
            for seed in range(3):
                sigma = T.validate_density(T.sample_random_density(dims, rank_s, seed, stream=1))
                rho = T.validate_density(T.sample_random_density(dims, rank_r, seed, stream=2))
                for a, b in ((sigma, rho), (rho, sigma), (sigma, sigma)):
                    s = a.matrix[None]
                    row = relative_entropies(s, b.matrix[None], vn_entropy(s))[0]
                    assert np.float64(T.relative_entropy(a, b)).tobytes() == np.float64(row).tobytes()


def _reference_row(sigma, w, v, s_sigma):
    # One row alone, on the columns of rho's range picked by a boolean mask.
    keep = w > KERNEL_CLIP
    vk = v[:, keep]
    proj = (vk.conj() * (sigma @ vk)).real
    overlap = float(np.sum(proj))
    if 1.0 - overlap > SUPPORT_TOL:
        return math.inf
    diag = np.sum(proj, axis=0)
    term_rho = float(np.dot(diag, np.log2(w[keep])))
    return clamp_nonnegative(-float(s_sigma) - term_rho)


def _reference_relative_entropies(sigma, rho, s_sigma):
    # Rows where rho has full support batched, every other row alone.
    w, v = np.linalg.eigh(rho)
    full = np.all(w > KERNEL_CLIP, axis=-1)
    wf, vf = w[full], v[full]
    proj = (vf.conj() * (sigma[full] @ vf)).real
    overlap = np.sum(proj.reshape(-1, w.shape[-1] ** 2), axis=-1)
    term_rho = (np.sum(proj, axis=-2)[:, None, :] @ np.log2(wf)[:, :, None])[:, 0, 0]
    value = np.where(1.0 - overlap > SUPPORT_TOL, math.inf, -s_sigma[full] - term_rho)
    out = np.empty(len(w))
    out[full] = [clamp_nonnegative(x) for x in value.tolist()]
    out[~full] = [_reference_row(sigma[j], w[j], v[j], s_sigma[j]) for j in np.flatnonzero(~full)]
    return out.tolist()


@pytest.mark.parametrize("n", [1, 2, 4, 6, 9])
def test_relative_entropies_match_reference_bitwise(n):
    # Stacks that mix every rank of rho, with sigma inside rho's range (finite)
    # and, where rho drops an eigenvalue, outside it (inf).
    rng = np.random.default_rng(n)
    sigmas, rhos = [], []
    for rank in range(1, n + 1):
        for inside in (True, False):
            a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
            b = a @ (rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)))
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = a @ a.conj().T
            sigma = b @ b.conj().T if inside else c @ c.conj().T
            rhos.append(T.validate_density(rho / np.trace(rho).real).matrix)
            sigmas.append(T.validate_density(sigma / np.trace(sigma).real).matrix)
    sigma, rho = np.stack(sigmas), np.stack(rhos)
    s_sigma = vn_entropy(sigma)
    expected = _reference_relative_entropies(sigma, rho, s_sigma)
    got = relative_entropies(sigma, rho, s_sigma)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert math.isfinite(min(expected)) and (n == 1 or max(expected) == math.inf)
    for j in range(len(rho)):
        one = T.relative_entropy(T.validate_density(sigma[j]), T.validate_density(rho[j]))
        assert np.float64(one).tobytes() == np.float64(expected[j]).tobytes()
    for rows in (slice(None, None, 3), slice(1, None, 2)):
        part = relative_entropies(sigma[rows], rho[rows], s_sigma[rows])
        assert np.array(part).tobytes() == np.array(expected[rows]).tobytes()


def test_mutual_information_product_state():
    state = product_state(T.Dims(2, 3), seed=4)
    assert T.mutual_information(state) < 1e-9
    assert T.mutual_information_via_relative(state) < 1e-9


def test_mutual_information_bell(bell):
    assert T.mutual_information(bell) == pytest.approx(2.0, abs=1e-10)
    assert T.mutual_information_via_relative(bell) == pytest.approx(2.0, abs=1e-10)


def test_mutual_information_dephased_bell():
    state = T.dephase_in_schmidt_basis(bell_vector(), T.Dims(2, 2))
    assert T.mutual_information(state) == pytest.approx(1.0, abs=1e-10)


def test_mutual_information_forms_agree_on_seeded_state():
    state = random_state(T.Dims(2, 3), rank=6, seed=11)
    assert abs(T.mutual_information(state) - T.mutual_information_via_relative(state)) < 1e-9


@pytest.mark.parametrize("d1,d2", DIM_PAIRS)
def test_mutual_information_identity_randomized(d1, d2):
    dims = T.Dims(d1, d2)
    for k in range(1000):
        state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=31)
        assert abs(T.mutual_information(state) - T.mutual_information_via_relative(state)) < 1e-9


@pytest.mark.parametrize("d1,d2", DIM_PAIRS)
def test_lieb_bound(d1, d2):
    dims = T.Dims(d1, d2)
    for k in range(300):
        state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=37)
        s1 = T.von_neumann_entropy(state.rho1)
        s2 = T.von_neumann_entropy(state.rho2)
        assert T.mutual_information(state) <= 2.0 * min(s1, s2) + 1e-9


@pytest.mark.parametrize("d1,d2", DIM_PAIRS)
def test_pure_state_equalities(d1, d2):
    dims = T.Dims(d1, d2)
    for k in range(100):
        phi = T.sample_random_pure(dims, seed=k, stream=41)
        state = T.bipartite_from_pure(phi, dims)
        s1 = T.von_neumann_entropy(state.rho1)
        s2 = T.von_neumann_entropy(state.rho2)
        assert abs(s1 - s2) < 1e-8
        assert abs(T.mutual_information(state) - 2.0 * s1) < 1e-8


def test_zero_mutual_information_iff_product():
    dims = T.Dims(2, 2)
    for seed in range(50):
        state = product_state(dims, seed, stream=43)
        product = T.tensor_product(state.rho1.matrix, state.rho2.matrix)
        assert T.mutual_information(state) < 1e-9
        assert np.linalg.norm(state.rho12.matrix - product) < 1e-6
    for seed in range(50):
        phi = T.sample_random_pure(dims, seed, stream=47)
        state = T.bipartite_from_pure(phi, dims)
        product = T.tensor_product(state.rho1.matrix, state.rho2.matrix)
        if np.linalg.norm(state.rho12.matrix - product) >= 1e-6:
            assert T.mutual_information(state) >= 1e-9


def test_entanglement_entropy_values():
    dims = T.Dims(2, 2)
    assert T.entanglement_entropy(np.array([1, 0, 0, 0], dtype=complex), dims) == 0.0
    assert T.entanglement_entropy(bell_vector(), dims) == pytest.approx(1.0, abs=1e-12)
    phi = np.zeros(4, dtype=complex)
    phi[0] = np.sqrt(0.75)
    phi[3] = np.sqrt(0.25)
    assert T.entanglement_entropy(phi, dims) == pytest.approx(H_THREE_QUARTERS, abs=1e-12)


def test_entanglement_entropy_matches_both_reductions():
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=13)
    state = T.bipartite_from_pure(phi, dims)
    e = T.entanglement_entropy(phi, dims)
    assert e == pytest.approx(T.von_neumann_entropy(state.rho1), abs=1e-8)
    assert e == pytest.approx(T.von_neumann_entropy(state.rho2), abs=1e-8)


def test_entanglement_entropy_rejects_non_unit():
    with pytest.raises(StateValidationError):
        T.entanglement_entropy(np.ones(4, dtype=complex), T.Dims(2, 2))
