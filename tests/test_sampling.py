import numpy as np
import pytest

import twinfo as T


def test_pure_one_dimensional():
    v = T.sample_random_pure(T.Dims(1, 1), seed=3)
    assert v.shape == (1,)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-12)


def test_pure_normalized():
    v = T.sample_random_pure(T.Dims(2, 2), seed=7)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_pure_deterministic():
    a = T.sample_random_pure(T.Dims(2, 3), seed=42)
    b = T.sample_random_pure(T.Dims(2, 3), seed=42)
    np.testing.assert_array_equal(a, b)
    c = T.sample_random_pure(T.Dims(2, 3), seed=43)
    assert not np.allclose(a, c)


def test_pure_streams_independent():
    a = T.sample_random_pure(T.Dims(2, 2), seed=1, stream=0)
    b = T.sample_random_pure(T.Dims(2, 2), seed=1, stream=1)
    assert not np.allclose(a, b)


def test_density_rank_one_is_pure():
    rho = T.sample_random_density(T.Dims(2, 2), rank=1, seed=5)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)


def test_density_full_rank():
    rho = T.sample_random_density(T.Dims(2, 2), rank=4, seed=5)
    assert np.all(np.linalg.eigvalsh(rho) > 0)


def test_density_trace_and_requested_rank():
    for rank in (1, 2, 3):
        rho = T.sample_random_density(T.Dims(2, 2), rank=rank, seed=9)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert int(np.sum(np.linalg.eigvalsh(rho) > 1e-12)) == rank


def test_density_rank_out_of_range():
    with pytest.raises(ValueError):
        T.sample_random_density(T.Dims(2, 2), rank=5, seed=0)
    with pytest.raises(ValueError):
        T.sample_random_density(T.Dims(2, 2), rank=0, seed=0)


def test_unitary_is_unitary_and_deterministic():
    u = T.sample_random_unitary(3, seed=11)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    np.testing.assert_array_equal(u, T.sample_random_unitary(3, seed=11))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_observable_complete(d):
    obs = T.sample_random_observable(d, seed=2)
    assert obs.complete
    total = sum(obs.projectors)
    np.testing.assert_allclose(total, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_observable_incomplete(d):
    obs = T.sample_random_observable(d, seed=2, complete=False)
    assert not obs.complete
    assert int(np.sum(obs.multiplicities)) == d
    assert int(np.max(obs.multiplicities)) >= 2
    total = sum(obs.projectors)
    np.testing.assert_allclose(total, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d1", range(1, 9))
def test_density_is_its_own_hermitian_part_bitwise(d1):
    # sweep takes sampled states as they are, with no validation pass that would
    # replace each by (m + m^dagger) / 2; its bytes rest on the two being equal.
    for d2 in range(1, 9):
        dims = T.Dims(d1, d2)
        for rank in range(1, dims.total + 1):
            m = T.sample_random_density(dims, rank, seed=rank, stream=d2)
            assert m.tobytes() == ((m + m.conj().T) / 2.0).tobytes()
