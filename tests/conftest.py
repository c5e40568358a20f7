import numpy as np
import pytest

import twinfo as T

DIM_PAIRS = [(2, 2), (2, 3), (3, 3)]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Binary entropy of (3/4, 1/4), from the two-term scalar formula.
H_THREE_QUARTERS = 0.8112781244591328


def bell_vector() -> np.ndarray:
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


@pytest.fixture
def bell():
    return T.bipartite_from_pure(bell_vector(), T.Dims(2, 2))


def random_state(dims: T.Dims, rank: int, seed: int, stream: int = 0) -> T.BipartiteState:
    return T.make_bipartite(T.sample_random_density(dims, rank, seed, stream), dims)


def product_state(dims: T.Dims, seed: int, stream: int = 0) -> T.BipartiteState:
    r1 = T.sample_random_density(T.Dims(dims.d1, 1), dims.d1, seed, stream)
    r2 = T.sample_random_density(T.Dims(dims.d2, 1), dims.d2, seed, stream + 1)
    return T.make_bipartite(T.tensor_product(r1, r2), dims)


def werner_state(w: float) -> T.BipartiteState:
    phi = bell_vector()
    m = w * np.outer(phi, phi.conj()) + (1 - w) * np.eye(4) / 4
    return T.make_bipartite(m, T.Dims(2, 2))


def zz_observables():
    """Standard-basis observables with eigenvalues (-1, +1) on both qubits."""
    obs = T.observable_from_matrix(SIGMA_Z)
    return (
        T.SubsystemObservable(observable=obs, subsystem=1),
        T.SubsystemObservable(observable=obs, subsystem=2),
    )


def maximally_entangled(dims: T.Dims) -> np.ndarray:
    k = min(dims.d1, dims.d2)
    phi = np.zeros(dims.total, dtype=complex)
    for i in range(k):
        phi[i * dims.d2 + i] = 1.0
    return phi / np.sqrt(k)


def rotate_observable(obs: T.Observable, angle: float, seed: int) -> T.Observable:
    """Conjugate an observable by exp(i * angle * H) for a seeded random H."""
    from twinfo.sampling import generator

    rng = generator(seed)
    d = obs.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    h *= angle / max(np.linalg.norm(h), 1e-12)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)) @ v.conj().T
    return T.observable_from_matrix(u @ obs.matrix() @ u.conj().T)


def twin_corpus(n_twins: int, n_non_twins: int):
    """Deterministic corpus of (state, a1, b2, is_twin) instances."""
    instances = []

    # twins: pure-state Schmidt twins / their dephased states / mixtures of
    # dephased states sharing the Schmidt bases
    k = 0
    while len(instances) < n_twins:
        d1, d2 = DIM_PAIRS[k % len(DIM_PAIRS)]
        dims = T.Dims(d1, d2)
        phi = T.sample_random_pure(dims, seed=100 + k)
        a1, b2 = T.construct_pure_twins(phi, dims)
        family = k % 3
        if family == 0:
            state = T.bipartite_from_pure(phi, dims)
        elif family == 1:
            state = T.dephase_in_schmidt_basis(phi, dims)
        else:
            state = _dephased_mixture(phi, dims, seed=200 + k)
        instances.append((state, a1, b2, True))
        k += 1

    # non-twins: rotated observables on maximally entangled states,
    # mismatched (standard vs Fourier) bases, random states with random bases
    k = 0
    while len(instances) < n_twins + n_non_twins:
        d1, d2 = DIM_PAIRS[k % len(DIM_PAIRS)]
        dims = T.Dims(d1, d2)
        phi = maximally_entangled(dims)
        family = k % 3
        if family == 0:
            a1, b2 = T.construct_pure_twins(phi, dims)
            a1 = T.SubsystemObservable(
                observable=rotate_observable(a1.observable, 0.3, seed=300 + k), subsystem=1
            )
            state = T.bipartite_from_pure(phi, dims)
        elif family == 1:
            a1 = T.SubsystemObservable(T.observable_from_basis(np.eye(d1, dtype=complex)), 1)
            b2 = T.SubsystemObservable(T.observable_from_basis(_fourier(d2)), 2)
            state = T.bipartite_from_pure(phi, dims)
        else:
            state = random_state(dims, dims.total, seed=400 + k)
            a1 = T.SubsystemObservable(T.sample_random_observable(d1, seed=500 + k), 1)
            b2 = T.SubsystemObservable(T.sample_random_observable(d2, seed=600 + k), 2)
        instances.append((state, a1, b2, False))
        k += 1
    return instances


def _fourier(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def _dephased_mixture(phi: np.ndarray, dims: T.Dims, seed: int) -> T.BipartiteState:
    """Mixture of Schmidt-diagonal states sharing the Schmidt bases of phi."""
    from twinfo.sampling import generator

    form = T.schmidt_decompose(phi, dims)
    k = len(form)
    rng = generator(seed)
    out = np.zeros((dims.total, dims.total), dtype=complex)
    weights = rng.dirichlet(np.ones(2))
    for w in weights:
        r = rng.dirichlet(np.ones(k))
        for i in range(k):
            p1 = np.outer(form.basis1[:, i], form.basis1[:, i].conj())
            p2 = np.outer(form.basis2[:, i], form.basis2[:, i].conj())
            out += w * r[i] * T.tensor_product(p1, p2)
    return T.make_bipartite(out, dims)


def maximally_correlated_corpus(seeds=(0, 1, 2)):
    """Maximally correlated states ``rho = sum_ij a_ij |a_i b_i><a_j b_j|`` at d = 2 to 5.

    ``(a_ij)`` is a seeded random density matrix of each Gram rank 1 to d, and the
    twin bases ``|a_i>``, ``|b_i>`` are the columns of seeded Haar unitaries.  Yields
    ``(state, u1, u2, a)``; ``p = diag(a)``.
    """
    for d in range(2, 6):
        for rank in range(1, d + 1):
            for seed in seeds:
                stream = 10 * d + rank
                a = T.sample_random_density(T.Dims(d, 1), rank, seed, stream)
                u1 = T.sample_random_unitary(d, seed, stream + 1000)
                u2 = T.sample_random_unitary(d, seed, stream + 2000)
                # Column i is |a_i b_i>.
                pairs = (u1[:, None, :] * u2[None, :, :]).reshape(d * d, d)
                rho = pairs @ a @ pairs.conj().T
                yield T.make_bipartite((rho + rho.conj().T) / 2.0, T.Dims(d, d)), u1, u2, a
