"""Seeded random states, unitaries and observables.

All samplers are pure functions of ``(seed, parameters)``: each draw comes from
the Philox stream with the key ``SeedSequence(seed, spawn_key=(stream,))`` gives
it, so results never depend on call order.  The ``stream`` argument derives
independent substreams from one seed (used by sweeps and optimizer restarts).
``generators`` keys all the streams of a call in one array pass; a private sampler
body takes one generator per row from an iterator that other bodies may share.
Random observables draw their eigenspace cuts here; ``measurement`` builds them.
"""

from __future__ import annotations

import numpy as np

from .states import Dims, as_integer

# numpy's SeedSequence hash on 32-bit words; _KEY[k] is generate_state's constant before word k.
_MASK, _INIT_A, _MULT_A, _MIX_L, _MIX_R = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
_KEY = np.array([0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK for k in range(5)], np.uint32)
# A random observable on stream ``s`` draws its eigenspace cuts from stream ``s + _CUTS``.
_CUTS = 500_000


def _width(n: int) -> int:
    """How many 32-bit words SeedSequence splits the integer ``n`` into; ``n`` must not be negative."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    return max(1, -(-n.bit_length() // 32))


def generators(seed: int, streams):
    """Philox generator of each ``(seed, stream)``: one ``Generator``, re-keyed per
    stream, so an item is valid only until the next is drawn.  Each key is the one
    ``SeedSequence(seed, spawn_key=(stream,))`` gives Philox: the stream's words are
    mixed into a copy of the seed's pool, the hash constant going on from the seed's.
    All streams are keyed at once: one ``(streams, 4)`` uint32 step per word, which shorter streams skip."""
    seed = as_integer(seed, "seed must be an integer")
    start = _INIT_A * pow(_MULT_A, 4 * max(4, _width(seed)), 1 << 32)  # before SeedSequence checks it
    ns = [as_integer(n, "stream must be an integer") for n in streams]
    words = max(_width(min(ns, default=0)), _width(max(ns, default=0)))  # the min's raises if < 0
    h = np.array([start * pow(_MULT_A, j, 1 << 32) & _MASK for j in range(4 * words + 1)], np.uint32)
    mixer = (seq := np.random.SeedSequence(seed)).pool
    for k in range(words):
        word = np.array([n >> 32 * k & _MASK for n in ns], np.uint32)[:, None]
        v = (word ^ h[4 * k:4 * k + 4]) * h[4 * k + 1:4 * k + 5]
        m = _MIX_L * mixer - _MIX_R * (v ^ v >> 16)
        m ^= m >> 16
        mixer = np.where(np.array([n >> 32 * k > 0 for n in ns])[:, None], m, mixer) if k else m
    w = (mixer ^ _KEY[:4]) * _KEY[1:]
    rng = np.random.Generator(np.random.Philox(seq))
    state = dict(bit_generator="Philox", buffer=[0] * 4, buffer_pos=4, has_uint32=0, uinteger=0,
                 state={"counter": [0] * 4, "key": None})
    # Little-endian word pairs read as uint64 are Philox's two key words, low word first.
    for state["state"]["key"] in (w ^ w >> 16).astype("<u4").view("<u8").tolist():
        rng.bit_generator.state = state
        yield rng


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for ``(seed, stream)``: the first item of ``generators``."""
    return next(generators(seed, (stream,)))


def _ginibre(z: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices from normals stacked ``(..., 2, rows, cols)``: real, imaginary."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def sample_random_pure(dims: Dims, seed: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed unit vector of length ``d1 * d2``."""
    z = _ginibre(generator(seed, stream).standard_normal((2, dims.total, 1)))[:, 0]
    return z / np.linalg.norm(z)


def sample_random_density(dims: Dims, rank: int, seed: int, stream: int = 0) -> np.ndarray:
    """Random density matrix of the requested rank: ``sample_random_densities`` of one stream."""
    return sample_random_densities(dims, [rank], seed, [stream])[0]


def sample_random_densities(dims: Dims, ranks, seed: int, streams) -> np.ndarray:
    """Random density matrix of each ``(rank, stream)`` pair, stacked: the partial
    trace of a Haar-random purification with an ancilla of dimension ``rank``;
    Hermitian, PSD and unit trace by construction."""
    return _densities(dims, [r for r, _ in zip(ranks, streams, strict=True)], generators(seed, streams))


def _densities(dims: Dims, ranks, rngs) -> np.ndarray:
    """``sample_random_densities`` drawing row ``i`` from the ``i``-th generator of ``rngs``."""
    n, rho = dims.total, []
    for rank, rng in zip(ranks, rngs):
        if not 1 <= as_integer(rank, "rank must be an integer") <= n:
            raise ValueError(f"rank must be in [1, {n}], got {rank}")
        g = _ginibre(rng.standard_normal((2, n, rank)))
        rho.append(g @ g.conj().T)
    rho = np.array(rho)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return (rho + rho.conj().transpose(0, 2, 1)) / 2.0


def sample_random_unitary(d: int, seed: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed unitary: ``sample_random_unitaries`` of one stream."""
    return sample_random_unitaries(d, seed, [stream])[0]


def sample_random_unitaries(d: int, seed: int, streams) -> np.ndarray:
    """Haar-distributed unitary of each stream, stacked: one batched QR of Ginibre
    matrices, with the phases of ``r``'s diagonal moved into ``q``."""
    return _unitaries(d, len(streams), generators(seed, streams))


def _unitaries(d: int, count: int, rngs) -> np.ndarray:
    """``count`` unitaries, row ``i`` drawn from the ``i``-th generator of ``rngs``."""
    if (d := as_integer(d, "d must be an integer")) < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = np.empty((count, 2, d, d))
    for zi, rng in zip(z, rngs):
        rng.standard_normal(out=zi)
    q, r = np.linalg.qr(_ginibre(z))
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def sample_random_observable(d: int, seed: int, stream: int = 0, complete: bool = True):
    """Random observable with a Haar-random eigenbasis and labels 1, 2, ...

    With ``complete=False`` the basis vectors are merged into fewer than ``d``
    eigenspaces, so at least one projector has rank above 1.
    """
    return sample_random_observables(d, seed, [stream], complete)[0]


def sample_random_observables(d: int, seed: int, streams, complete: bool = True) -> list:
    """``sample_random_observable`` of each stream; the eigenbases come from one batched QR."""
    rngs = generators(seed, [*streams, *(s + _CUTS for s in streams)])
    return _observables(_unitaries(d, len(streams), rngs), rngs, complete)


def _observables(bases: np.ndarray, rngs, complete: bool) -> list:
    """The observable on each Haar eigenbasis in ``bases``, row ``i`` drawing its cuts from
    the ``i``-th generator of ``rngs``; a row that draws none still takes its generator."""
    # Imported on use, so that sampling states and unitaries loads no measurement module.
    from .measurement import _eigenspace_observable, observable_from_basis

    d, observables = bases.shape[-1], []
    for u, rng in zip(bases, rngs):
        if complete or d == 1:
            observables.append(observable_from_basis(u))
            continue
        groups = int(rng.integers(1, d))
        # The cut stream draws nothing after these, so one group needs no choice call.
        inner = [] if groups == 1 else rng.choice(np.arange(1, d), groups - 1, replace=False).tolist()
        observables.append(_eigenspace_observable(u, [0, *sorted(inner), d], np.arange(1.0, groups + 1)))
    return observables
