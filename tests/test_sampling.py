import re

import numpy as np
import pytest

import twinfo as T
from twinfo.sampling import generator, generators, sample_random_densities, sample_random_unitaries


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


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128, 2**130 + 7]
# One, two and three 32-bit words, mixed in one call: a shorter stream skips the later words.
STREAMS = [0, 7, 2**70, 500_007, 2**32 - 1, 2**32, 2**40 + 3]


def _draws(rng):
    return rng.standard_normal(5).tobytes() + rng.integers(0, 2**63, 3).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_seed_sequence_spawn_bitwise(seed):
    want = [_draws(np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(s,)))))
            for s in STREAMS]
    assert [_draws(rng) for rng in generators(seed, STREAMS)] == want
    assert [_draws(generator(seed, s)) for s in STREAMS] == want


def test_no_streams_yield_no_generators():
    assert list(generators(3, [])) == []
    assert list(generators(2**70, range(0))) == []


@pytest.mark.parametrize("streams", [[-1], [0, 2**70, -3], [2**40, 5, -2**70]])
def test_a_negative_stream_anywhere_is_rejected(streams):
    with pytest.raises(ValueError, match=r"^expected a non-negative integer, got -\d+$"):
        list(generators(0, streams))


def test_stream_must_be_a_nonnegative_integer():
    with pytest.raises(ValueError):
        generator(0, -1)
    with pytest.raises(ValueError):
        T.sample_random_unitary(2, 0, stream=-1)
    with pytest.raises(TypeError):
        generator(0, 2.0)


def test_samplers_reject_a_negative_seed():
    for draw in (lambda: T.sample_random_density(T.Dims(2, 2), 2, seed=-1),
                 lambda: T.sample_random_pure(T.Dims(2, 2), seed=-1),
                 lambda: T.sample_random_unitary(2, seed=-1),
                 lambda: T.sample_random_observable(3, seed=-1, complete=False)):
        with pytest.raises(ValueError, match=r"^expected a non-negative integer, got -1$"):
            draw()


@pytest.mark.parametrize("d", [0, -2])
def test_unitaries_reject_a_dimension_below_one(d):
    with pytest.raises(ValueError, match=rf"^dimension must be >= 1, got {d}$"):
        T.sample_random_unitary(d, seed=1)
    with pytest.raises(ValueError, match=rf"^dimension must be >= 1, got {d}$"):
        sample_random_unitaries(d, 1, [0, 1])


def test_numpy_integer_stream_and_seed_match_python_ints():
    assert _draws(generator(np.int64(2**40), np.uint32(7))) == _draws(generator(2**40, 7))


@pytest.mark.parametrize("dims, ranks", [(T.Dims(2, 3), [1, 6, 3, 2]), (T.Dims(8, 8), [1, 64, 9, 33])])
def test_densities_equal_a_per_stream_reference_bitwise(dims, ranks):
    streams = [0, 7, 2**32, 500_007]
    rows = sample_random_densities(dims, ranks, 11, streams)
    for m, rank, stream in zip(rows, ranks, streams):
        assert m.tobytes() == T.sample_random_density(dims, rank, 11, stream).tobytes()
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11, spawn_key=(stream,))))
        g = rng.standard_normal((dims.total, rank)) + 1j * rng.standard_normal((dims.total, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert m.tobytes() == ((rho + rho.conj().T) / 2.0).tobytes()


def test_density_rank_and_stream_counts_are_checked():
    dims = T.Dims(2, 3)
    for rank in (0, 7):
        with pytest.raises(ValueError):
            sample_random_densities(dims, [1, rank], 11, [0, 1])
    with pytest.raises(ValueError):
        sample_random_densities(dims, [1, 2], 11, [0])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_unitaries_equal_a_two_call_ginibre_reference_bitwise(d):
    streams = [0, 3, 2**32 + 1]
    for u, s in zip(sample_random_unitaries(d, 5, streams), streams):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5, spawn_key=(s,))))
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        phases = np.diagonal(r).copy()
        phases /= np.abs(phases)
        assert u.tobytes() == (q * phases[None, :]).tobytes()


@pytest.mark.parametrize(
    "draw, match",
    [
        (lambda: T.sample_random_pure(T.Dims(2, 2), 1.5), r"^seed must be an integer, got 1\.5$"),
        (lambda: T.sample_random_pure(T.Dims(2, 2), True), r"^seed must be an integer, got True$"),
        (lambda: T.sample_random_unitary(2, 1.5), r"^seed must be an integer, got 1\.5$"),
        (lambda: T.sample_random_unitary(1.5, 1), r"^d must be an integer, got 1\.5$"),
        (lambda: T.sample_random_unitary(True, 1), r"^d must be an integer, got True$"),
        (lambda: T.sample_random_density(T.Dims(2, 2), 2, 1, stream=2.5),
         r"^stream must be an integer, got 2\.5$"),
        (lambda: T.sample_random_density(T.Dims(2, 2), 2, 1, stream=False),
         r"^stream must be an integer, got False$"),
        (lambda: T.sample_random_density(T.Dims(2, 2), 2.0, 1), r"^rank must be an integer, got 2\.0$"),
        (lambda: T.sample_random_density(T.Dims(2, 2), True, 1), r"^rank must be an integer, got True$"),
        (lambda: T.sample_random_observable(3, "1", complete=False), r"^seed must be an integer, got '1'$"),
        (lambda: sample_random_unitaries(2, 1, [0, 1, np.float64(2.0)]),
         rf"^stream must be an integer, got {re.escape(repr(np.float64(2.0)))}$"),
        (lambda: list(generators(1, [0, True])), r"^stream must be an integer, got True$"),
    ],
    ids=["pure-float-seed", "pure-bool-seed", "unitary-float-seed", "unitary-float-d", "unitary-bool-d",
         "density-float-stream", "density-bool-stream", "density-float-rank", "density-bool-rank",
         "observable-str-seed", "unitaries-numpy-float-stream", "generators-bool-stream"],
)
def test_samplers_name_a_bad_integer_argument(draw, match):
    with pytest.raises(TypeError, match=match):
        draw()
