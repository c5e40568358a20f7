"""Seeded random states and unitaries.

All samplers are pure functions of ``(seed, parameters)``: each call builds a
fresh counter-based Philox generator, so results never depend on call order.
The ``stream`` argument derives independent substreams from one seed (used by
sweeps and optimizer restarts).
"""

from __future__ import annotations

import numpy as np

from .linalg import Dims
from .measurement import Observable, observable_from_basis


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
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    rng = generator(seed, stream)
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def sample_random_observable(d: int, seed: int, stream: int = 0, complete: bool = True):
    """Random observable with a Haar-random eigenbasis and labels 1, 2, ...

    With ``complete=False`` the basis vectors are merged into fewer than ``d``
    eigenspaces, so at least one projector has rank above 1.
    """
    u = sample_random_unitary(d, seed, stream)
    if complete or d == 1:
        return observable_from_basis(u)
    rng = generator(seed, stream + 500_000)
    groups = int(rng.integers(1, d))
    cuts = [0, *sorted(rng.choice(np.arange(1, d), size=groups - 1, replace=False).tolist()), d]
    projectors = []
    multiplicities = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        block = u[:, lo:hi]
        projectors.append(block @ block.conj().T)
        multiplicities.append(hi - lo)
    return Observable(
        eigenvalues=np.arange(1, groups + 1, dtype=float),
        projectors=tuple(projectors),
        multiplicities=np.array(multiplicities, dtype=int),
    )
