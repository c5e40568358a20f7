"""Seeded random states and unitaries.

All samplers are pure functions of ``(seed, parameters)``: each call builds a
fresh counter-based Philox generator, so results never depend on call order.
The ``stream`` argument derives independent substreams from one seed (used by
sweeps and optimizer restarts).
"""

from __future__ import annotations

import numpy as np

from .linalg import Dims


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for ``(seed, stream)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def sample_random_pure(dims: Dims, seed: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed unit vector of length ``d1 * d2``."""
    rng = generator(seed, stream)
    z = _ginibre(rng, dims.total, 1)[:, 0]
    return z / np.linalg.norm(z)


def sample_random_density(dims: Dims, rank: int, seed: int, stream: int = 0) -> np.ndarray:
    """Random density matrix of the requested rank.

    Obtained as the partial trace of a Haar-random purification with an
    ancilla of dimension ``rank``; Hermitian, PSD and unit trace by
    construction.
    """
    n = dims.total
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    rng = generator(seed, stream)
    g = _ginibre(rng, n, rank)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def sample_random_unitary(d: int, seed: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed unitary: ``sample_random_unitaries`` of one stream."""
    return sample_random_unitaries(d, seed, [stream])[0]


def sample_random_unitaries(d: int, seed: int, streams) -> np.ndarray:
    """Haar-distributed unitary of each stream, stacked: one batched QR of Ginibre
    matrices, with the phases of ``r``'s diagonal moved into ``q``."""
    q, r = np.linalg.qr(np.array([_ginibre(generator(seed, s), d, d) for s in streams]))
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
    # Imported on use, so that sampling states and unitaries loads no measurement module.
    from .measurement import Observable, observable_from_basis

    observables = []
    for u, stream in zip(sample_random_unitaries(d, seed, streams), streams):
        if complete or d == 1:
            observables.append(observable_from_basis(u))
            continue
        rng = generator(seed, stream + 500_000)
        groups = int(rng.integers(1, d))
        cuts = [0, *sorted(rng.choice(np.arange(1, d), size=groups - 1, replace=False).tolist()), d]
        blocks = [u[:, lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
        observables.append(Observable(
            eigenvalues=np.arange(1, groups + 1, dtype=float),
            projectors=np.array([b @ b.conj().T for b in blocks]),
            multiplicities=np.array([b.shape[1] for b in blocks], dtype=int),
        ))
    return observables
