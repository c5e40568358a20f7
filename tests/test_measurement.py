import numpy as np
import pytest

import twinfo as T
from twinfo.kernels import KERNEL_CLIP, frobenius, info_gain_side1, swap_sides, vn_entropy
from twinfo.measurement import DETECT_EPS, embed

from conftest import (
    DIM_PAIRS,
    SIGMA_X,
    SIGMA_Z,
    bell_vector,
    product_state,
    random_state,
    zz_observables,
)


def _plus_state():
    return T.validate_density(np.full((2, 2), 0.5, dtype=complex))


def _z_obs():
    return T.observable_from_matrix(SIGMA_Z)


def _x_obs():
    return T.observable_from_matrix(SIGMA_X)


def test_hermitian_eig_identity():
    dec = T.observable_from_matrix(np.eye(2, dtype=complex))
    assert len(dec) == 1
    assert dec.eigenvalues[0] == pytest.approx(1.0)
    assert dec.multiplicities[0] == 2
    np.testing.assert_allclose(dec.projectors[0], np.eye(2), atol=1e-14)


def test_hermitian_eig_sigma_z():
    dec = T.observable_from_matrix(SIGMA_Z)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0])
    np.testing.assert_allclose(dec.projectors[0], np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(dec.projectors[1], np.diag([1.0, 0.0]), atol=1e-14)
    assert all(m == 1 for m in dec.multiplicities)


def test_hermitian_eig_grouping():
    m = np.diag([0.5, 0.5 + 1e-14, 0.2]).astype(complex)
    dec = T.observable_from_matrix(m)
    np.testing.assert_allclose(dec.eigenvalues, [0.2, 0.5], atol=1e-13)
    np.testing.assert_array_equal(dec.multiplicities, [1, 2])


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        T.observable_from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))


def test_observable_from_basis_default_labels():
    obs = T.observable_from_basis(np.eye(3, dtype=complex))
    np.testing.assert_allclose(obs.eigenvalues, [1.0, 2.0, 3.0])
    assert obs.complete


def test_observable_from_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        T.observable_from_basis(np.ones((2, 2), dtype=complex))


@pytest.mark.parametrize(
    "basis, error, match",
    [
        (np.array([[np.nan, 0], [0, 1]]), T.StateValidationError, "non-finite"),
        (np.array([[np.inf, 0], [0, 1]]), T.StateValidationError, "non-finite"),
        # Finite, but its Gram matrix overflows.
        (np.array([[1e200, 0], [0, 1]]), ValueError, "not orthonormal"),
    ],
    ids=["nan-entry", "inf-entry", "gram-overflow"],
)
def test_observable_from_basis_rejects_non_finite_input(basis, error, match):
    with pytest.raises(error, match=match):
        T.observable_from_basis(basis.astype(complex))


def test_observable_from_basis_one_dimensional():
    obs = T.observable_from_basis(np.eye(1, dtype=complex))
    np.testing.assert_allclose(obs.eigenvalues, [1.0])
    assert obs.complete


def test_luders_kills_off_diagonals():
    out = T.luders_apply(_z_obs(), _plus_state())
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_luders_commuting_state_unchanged():
    rho = T.validate_density(np.diag([0.3, 0.7]).astype(complex))
    out = T.luders_apply(_z_obs(), rho)
    assert frobenius(out.matrix, rho.matrix) < 1e-10


def test_luders_dimension_mismatch():
    with pytest.raises(ValueError):
        T.luders_apply(_z_obs(), T.validate_density(np.eye(3, dtype=complex) / 3))


SUBSYSTEM_CALLS = {
    "luders_apply_subsystem": lambda state, a1, b2: T.luders_apply_subsystem(a1, state),
    "distant_decomposition": lambda state, a1, b2: T.distant_decomposition(state, a1),
    "information_gain": lambda state, a1, b2: T.information_gain(state, a1),
    "verify_twins": lambda state, a1, b2: T.verify_twins(state, a1, b2),
    "joint_distribution": lambda state, a1, b2: T.joint_distribution(state, a1, b2),
}


@pytest.mark.parametrize("name", sorted(SUBSYSTEM_CALLS))
def test_subsystem_dimension_mismatch(name):
    state = random_state(T.Dims(2, 2), 4, seed=11)
    a1 = T.SubsystemObservable(T.observable_from_basis(np.eye(3, dtype=complex)), 1)
    b2 = T.SubsystemObservable(T.observable_from_basis(np.eye(2, dtype=complex)), 2)
    with pytest.raises(
        ValueError, match="observable dimension 3 does not match subsystem 1 dimension 2"
    ):
        SUBSYSTEM_CALLS[name](state, a1, b2)


def test_luders_idempotent():
    dims = T.Dims(2, 3)
    rho = T.validate_density(T.sample_random_density(dims, dims.total, seed=3))
    obs = T.sample_random_observable(6, seed=4, complete=False)
    once = T.luders_apply(obs, rho)
    twice = T.luders_apply(obs, once)
    assert frobenius(once.matrix, twice.matrix) < 1e-10


def test_luders_output_commutes_with_projectors():
    rho = T.validate_density(T.sample_random_density(T.Dims(2, 2), 4, seed=5))
    obs = T.sample_random_observable(4, seed=6, complete=False)
    out = T.luders_apply(obs, rho)
    for p in obs.projectors:
        assert frobenius(p @ out.matrix - out.matrix @ p) < 1e-10


def test_schmidt_twin_measurement_gives_dephased_state():
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=8)
    state = T.bipartite_from_pure(phi, dims)
    a1, b2 = T.construct_pure_twins(phi, dims)
    dephased = T.dephase_in_schmidt_basis(phi, dims)
    for sobs in (a1, b2):
        out = T.luders_apply_subsystem(sobs, state)
        assert frobenius(out.rho12.matrix, dephased.rho12.matrix) < 1e-10


def test_subsystem_measurement_leaves_uncorrelated_partner_alone():
    state = product_state(T.Dims(2, 2), seed=9)
    a1 = T.SubsystemObservable(T.sample_random_observable(2, seed=10), 1)
    out = T.luders_apply_subsystem(a1, state)
    assert frobenius(out.rho2.matrix, state.rho2.matrix) < 1e-12


def test_bell_twin_measurements_give_classical_mixture(bell):
    a1, b2 = T.construct_pure_twins(bell_vector(), T.Dims(2, 2))
    out = T.luders_apply_subsystem(b2, T.luders_apply_subsystem(a1, bell))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert frobenius(out.rho12.matrix, expected) < 1e-12


def test_opposite_subsystem_measurements_commute():
    state = random_state(T.Dims(2, 2), rank=4, seed=12)
    a1 = T.SubsystemObservable(T.sample_random_observable(2, seed=13), 1)
    b2 = T.SubsystemObservable(T.sample_random_observable(2, seed=14), 2)
    ab = T.luders_apply_subsystem(a1, T.luders_apply_subsystem(b2, state))
    ba = T.luders_apply_subsystem(b2, T.luders_apply_subsystem(a1, state))
    assert frobenius(ab.rho12.matrix, ba.rho12.matrix) < 1e-10


@pytest.mark.parametrize("d1,d2", DIM_PAIRS)
def test_partial_trace_identities_random(d1, d2):
    dims = T.Dims(d1, d2)
    for k in range(50):
        state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=53)
        a1 = T.SubsystemObservable(
            T.sample_random_observable(d1, seed=k, stream=54, complete=False), 1
        )
        b2 = T.SubsystemObservable(
            T.sample_random_observable(d2, seed=k, stream=55, complete=False), 2
        )
        t_ab = T.luders_apply_subsystem(a1, T.luders_apply_subsystem(b2, state))
        lhs1 = T.partial_trace(t_ab.rho12.matrix, dims, keep=1)
        rhs1 = T.luders_apply(a1.observable, state.rho1).matrix
        assert frobenius(lhs1, rhs1) < 1e-10
        lhs2 = T.partial_trace(t_ab.rho12.matrix, dims, keep=2)
        rhs2 = T.luders_apply(b2.observable, state.rho2).matrix
        assert frobenius(lhs2, rhs2) < 1e-10


def test_rank_one_conditional_factorization():
    dims = T.Dims(2, 3)
    for k in range(30):
        state = random_state(dims, rank=dims.total, seed=k, stream=59)
        basis = T.sample_random_unitary(2, seed=k, stream=60)
        a1 = T.SubsystemObservable(T.observable_from_basis(basis), 1)
        dd = T.distant_decomposition(state, a1)
        eye2 = np.eye(3, dtype=complex)
        for (prob, cond, label), proj in zip(
            dd.outcomes, a1.observable.projectors
        ):
            p_full = T.tensor_product(proj, eye2)
            sandwich = p_full @ state.rho12.matrix @ p_full
            assert frobenius(sandwich, prob * T.tensor_product(proj, cond.matrix)) < 1e-10


def test_distant_decomposition_bell(bell):
    a1 = T.SubsystemObservable(_z_obs(), 1)
    dd = T.distant_decomposition(bell, a1)
    assert dd.undetectable == ()
    # eigenvalue -1 corresponds to |1><1|, +1 to |0><0|
    by_label = {label: (p, cond) for p, cond, label in dd.outcomes}
    p_minus, cond_minus = by_label[-1.0]
    assert p_minus == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(cond_minus.matrix, np.diag([0.0, 1.0]), atol=1e-12)
    p_plus, cond_plus = by_label[1.0]
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(cond_plus.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_distant_decomposition_product_state():
    state = product_state(T.Dims(2, 3), seed=15)
    a1 = T.SubsystemObservable(T.sample_random_observable(2, seed=16), 1)
    for prob, cond, _ in T.distant_decomposition(state, a1).outcomes:
        assert frobenius(cond.matrix, state.rho2.matrix) < 1e-10


def test_distant_decomposition_reports_undetectable():
    dims = T.Dims(3, 3)
    # Schmidt rank 2: the kernel eigenvalue 0 of either twin is undetectable
    phi = np.zeros(9, dtype=complex)
    phi[0] = np.sqrt(0.75)
    phi[4] = np.sqrt(0.25)
    state = T.bipartite_from_pure(phi, dims)
    a1, _ = T.construct_pure_twins(phi, dims)
    dd = T.distant_decomposition(state, a1)
    assert dd.undetectable == (0.0,)
    total = sum(p for p, _, _ in dd.outcomes)
    assert total == pytest.approx(1.0, abs=1e-10)
    mixture = sum(p * cond.matrix for p, cond, _ in dd.outcomes)
    assert frobenius(mixture, state.rho2.matrix) < 1e-8


def test_joint_distribution_bell_zz(bell):
    a1, b2 = zz_observables()
    jd = T.joint_distribution(bell, a1, b2)
    np.testing.assert_allclose(jd.p, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
    np.testing.assert_allclose(jd.row_marginals, [0.5, 0.5], atol=1e-12)


def test_joint_distribution_bell_zx(bell):
    a1 = T.SubsystemObservable(_z_obs(), 1)
    b2 = T.SubsystemObservable(_x_obs(), 2)
    jd = T.joint_distribution(bell, a1, b2)
    np.testing.assert_allclose(jd.p, np.full((2, 2), 0.25), atol=1e-12)


def test_joint_distribution_product_factorizes():
    state = product_state(T.Dims(2, 3), seed=17)
    a1 = T.SubsystemObservable(T.sample_random_observable(2, seed=18), 1)
    b2 = T.SubsystemObservable(T.sample_random_observable(3, seed=19), 2)
    jd = T.joint_distribution(state, a1, b2)
    np.testing.assert_allclose(
        jd.p, np.outer(jd.row_marginals, jd.col_marginals), atol=1e-10
    )


def test_joint_mutual_information_values(bell):
    a1, b2 = zz_observables()
    assert T.joint_mutual_information(T.joint_distribution(bell, a1, b2)) == pytest.approx(
        1.0, abs=1e-10
    )
    b2x = T.SubsystemObservable(_x_obs(), 2)
    assert T.joint_mutual_information(T.joint_distribution(bell, a1, b2x)) == pytest.approx(
        0.0, abs=1e-10
    )


def test_joint_mutual_information_schmidt_twins_reach_entropy():
    dims = T.Dims(3, 3)
    phi = T.sample_random_pure(dims, seed=20)
    state = T.bipartite_from_pure(phi, dims)
    a1, b2 = T.construct_pure_twins(phi, dims)
    jmi = T.joint_mutual_information(T.joint_distribution(state, a1, b2))
    assert jmi == pytest.approx(T.von_neumann_entropy(state.rho1), abs=1e-8)


def test_information_gain_product_state_is_zero():
    state = product_state(T.Dims(2, 2), seed=21)
    a1 = T.SubsystemObservable(T.sample_random_observable(2, seed=22), 1)
    assert T.information_gain(state, a1) < 1e-10


def test_information_gain_bell_z(bell):
    a1 = T.SubsystemObservable(_z_obs(), 1)
    assert T.information_gain(bell, a1) == pytest.approx(1.0, abs=1e-10)


def test_information_gain_schmidt_basis_reaches_opposite_entropy():
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=23)
    state = T.bipartite_from_pure(phi, dims)
    a1, _ = T.construct_pure_twins(phi, dims)
    assert T.information_gain(state, a1) == pytest.approx(
        T.von_neumann_entropy(state.rho2), abs=1e-8
    )


def _distant_decomposition_loop(state, sobs):
    """The decomposition from one embedded sandwich P rho P per projector; the
    reference for the projector-stack primitive."""
    keep = 2 if sobs.subsystem == 1 else 1
    outcomes, undetectable = [], []
    for a, p in zip(sobs.observable.eigenvalues, sobs.observable.projectors):
        p_full = embed(p, sobs.subsystem, state.dims)
        sand = p_full @ state.rho12.matrix @ p_full
        prob = float(np.trace(sand).real)
        if prob <= DETECT_EPS:
            undetectable.append(float(a))
        else:
            outcomes.append((prob, T.partial_trace(sand, state.dims, keep=keep) / prob, float(a)))
    return outcomes, tuple(undetectable)


def _information_gain_loop(state, sobs):
    opposite = state.rho2 if sobs.subsystem == 1 else state.rho1
    gain = T.von_neumann_entropy(opposite)
    for prob, cond, _ in _distant_decomposition_loop(state, sobs)[0]:
        gain -= prob * float(vn_entropy(cond))
    return gain


def _rank_k_observable(d, seed):
    """Random eigenbasis with a rank-ceil(d/2) and a rank-floor(d/2) eigenspace."""
    u = T.sample_random_unitary(d, seed=seed, stream=131)
    labels = np.where(np.arange(d) < (d + 1) // 2, 1.0, 2.0)
    return T.observable_from_matrix((u * labels) @ u.conj().T)


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (4, 5)])
def test_information_gain_matches_basis_kernel_on_complete_observables(d1, d2):
    dims = T.Dims(d1, d2)
    for seed in range(3):
        state = random_state(dims, rank=1 + seed * (dims.total - 1) // 2, seed=seed, stream=132)
        rho = state.rho12.matrix
        for side, d_meas, r, d_opp in ((1, d1, rho, d2), (2, d2, swap_sides(rho, d1, d2), d1)):
            u = T.sample_random_unitary(d_meas, seed=seed, stream=133 + side)
            sobs = T.SubsystemObservable(T.observable_from_basis(u), side)
            assert T.information_gain(state, sobs) == pytest.approx(
                info_gain_side1(r, u, d_opp), abs=1e-12)


@pytest.mark.parametrize("d1, d2", [(3, 2), (3, 3), (4, 3), (4, 4), (5, 3)])
def test_information_gain_matches_sandwich_loop_on_rank_k_observables(d1, d2):
    dims = T.Dims(d1, d2)
    for seed in range(3):
        state = random_state(dims, rank=1 + seed * (dims.total - 1) // 2, seed=seed, stream=135)
        for side, d_meas in ((1, d1), (2, d2)):
            sobs = T.SubsystemObservable(_rank_k_observable(d_meas, seed + 10 * side), side)
            assert sobs.observable.complete == (d_meas == 2)
            assert T.information_gain(state, sobs) == pytest.approx(
                _information_gain_loop(state, sobs), abs=1e-12)


def test_information_gain_counts_outcomes_below_the_detection_threshold():
    # (1 - e)|0><0| (x) |0><0| + e |1><1| (x) 1/2: outcome 1 of Z on side 1 has
    # weight e, between KERNEL_CLIP and DETECT_EPS, and a one-bit conditional.
    e = 1e-11
    assert KERNEL_CLIP < e < DETECT_EPS
    rho = np.diag([1.0 - e, 0.0, e / 2.0, e / 2.0]).astype(complex)
    state = T.make_bipartite(rho, T.Dims(2, 2))
    a1 = T.SubsystemObservable(_z_obs(), 1)
    assert len(T.distant_decomposition(state, a1).undetectable) == 1
    x = e / 2.0
    s_opp = -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))
    assert T.information_gain(state, a1) == pytest.approx(s_opp - e, rel=0, abs=1e-14)


def test_distant_decomposition_matches_sandwich_loop():
    dims = T.Dims(3, 3)
    phi = T.sample_random_pure(T.Dims(2, 2), seed=136)
    schmidt_rank_2 = np.zeros(9, dtype=complex)
    schmidt_rank_2[[0, 1, 3, 4]] = phi
    cases = [(T.bipartite_from_pure(schmidt_rank_2, dims), *T.construct_pure_twins(schmidt_rank_2, dims))]
    for seed in range(3):
        state = random_state(dims, rank=1 + 4 * seed, seed=seed, stream=137)
        cases.append((state, T.SubsystemObservable(_rank_k_observable(3, seed), 1),
                      T.SubsystemObservable(T.sample_random_observable(3, seed=seed, stream=138), 2)))
    for state, a1, b2 in cases:
        for sobs in (a1, b2):
            dd = T.distant_decomposition(state, sobs)
            outcomes, undetectable = _distant_decomposition_loop(state, sobs)
            assert dd.undetectable == undetectable
            assert len(dd.outcomes) == len(outcomes)
            for (p, cond, a), (p_ref, cond_ref, a_ref) in zip(dd.outcomes, outcomes):
                assert a == a_ref
                assert p == pytest.approx(p_ref, abs=1e-13)
                np.testing.assert_allclose(cond.matrix, cond_ref, rtol=0, atol=1e-13)
    # The Schmidt twins of a Schmidt-rank-2 state leave their kernel eigenvalue undetectable.
    assert T.distant_decomposition(cases[0][0], cases[0][1]).undetectable == (0.0,)


def test_coherence_z_on_plus():
    assert T.entropy_of_coherence(_z_obs(), _plus_state()) == pytest.approx(1.0, abs=1e-10)


def test_coherence_commuting_is_zero():
    rho = T.validate_density(np.diag([0.3, 0.7]).astype(complex))
    assert T.entropy_of_coherence(_z_obs(), rho) == pytest.approx(0.0, abs=1e-12)


def test_coherence_of_embedded_twin_on_bell(bell):
    a1, _ = T.construct_pure_twins(bell_vector(), T.Dims(2, 2))
    embedded = T.observable_from_matrix(
        T.tensor_product(a1.observable.matrix(), np.eye(2, dtype=complex))
    )
    assert T.entropy_of_coherence(embedded, bell.rho12) == pytest.approx(1.0, abs=1e-10)


def test_coherence_decomposition_complete_observable_on_mixed_state():
    rho = T.validate_density(T.sample_random_density(T.Dims(2, 2), 4, seed=24))
    obs = T.sample_random_observable(4, seed=25)
    dec = T.coherence_decomposition(obs, rho)
    s_rho = T.von_neumann_entropy(rho)
    assert dec.deficit == pytest.approx(s_rho, abs=1e-9)
    e_c = T.entropy_of_coherence(obs, rho)
    assert e_c == pytest.approx(dec.h_observable - s_rho, abs=1e-9)


def test_coherence_decomposition_pure_state():
    dims = T.Dims(2, 2)
    phi = T.sample_random_pure(dims, seed=26)
    rho = T.validate_density(np.outer(phi, phi.conj()))
    obs = T.sample_random_observable(4, seed=27, complete=False)
    dec = T.coherence_decomposition(obs, rho)
    assert dec.deficit == pytest.approx(0.0, abs=1e-9)
    assert T.entropy_of_coherence(obs, rho) == pytest.approx(dec.h_observable, abs=1e-9)


def test_coherence_complete_observable_pure_state_amplitude_entropy():
    basis = T.sample_random_unitary(4, seed=28)
    obs = T.observable_from_basis(basis)
    phi = T.sample_random_pure(T.Dims(2, 2), seed=29)
    rho = T.validate_density(np.outer(phi, phi.conj()))
    amplitudes = np.abs(basis.conj().T @ phi) ** 2
    assert T.entropy_of_coherence(obs, rho) == pytest.approx(
        T.shannon_entropy(amplitudes), abs=1e-9
    )


def test_coherence_decomposition_identity():
    for seed in range(20):
        rho = T.validate_density(T.sample_random_density(T.Dims(2, 2), (seed % 4) + 1, seed))
        obs = T.sample_random_observable(4, seed=seed, stream=61, complete=seed % 2 == 0)
        dec = T.coherence_decomposition(obs, rho)
        e_c = T.entropy_of_coherence(obs, rho)
        assert e_c == pytest.approx(dec.h_observable - dec.deficit, abs=1e-9)
        assert dec.deficit >= -1e-9
        assert dec.deficit <= dec.h_observable + 1e-9


def test_coherence_decomposition_projector_orthogonal_to_support():
    rho = T.validate_density(np.array([[0.3, 0.2, 0], [0.2, 0.7, 0], [0, 0, 0]], dtype=complex))
    plus = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]], dtype=complex)
    minus = np.array([[0.5, -0.5, 0], [-0.5, 0.5, 0], [0, 0, 0]], dtype=complex)
    kernel = np.diag([0.0, 0.0, 1.0]).astype(complex)
    obs = T.Observable(eigenvalues=np.array([1.0, 2.0, 3.0]),
                       projectors=np.array([plus, minus, kernel]),
                       multiplicities=np.ones(3, dtype=int))
    dec = T.coherence_decomposition(obs, rho)
    assert dec.weights[2] == 0.0
    assert dec.conditionals[2] is None
    assert all(c is not None for c in dec.conditionals[:2])
    # Rank-1 conditionals leave the whole of S(rho) as the deficit.
    assert dec.deficit == pytest.approx(T.von_neumann_entropy(rho), abs=1e-12)
    e_c = T.entropy_of_coherence(obs, rho)
    assert e_c == pytest.approx(dec.h_observable - dec.deficit, abs=1e-12)


def test_luders_apply_subsystem_matches_embedded_loop_bitwise():
    dims = T.Dims(3, 2)
    state = random_state(dims, rank=4, seed=5, stream=139)
    for sobs in (T.SubsystemObservable(_rank_k_observable(3, 5), 1),
                 T.SubsystemObservable(T.sample_random_observable(2, seed=6), 2)):
        want = np.zeros_like(state.rho12.matrix)
        for p in sobs.observable.projectors:
            p_full = embed(p, sobs.subsystem, dims)
            want += p_full @ state.rho12.matrix @ p_full
        got = T.luders_apply_subsystem(sobs, state).rho12.matrix
        # The channel output is stored Hermitian-symmetrized.
        assert got.tobytes() == ((want + want.conj().T) / 2.0).tobytes()


def test_coherence_zero_iff_commuting():
    dims = T.Dims(2, 2)
    for seed in range(30):
        rho = T.validate_density(T.sample_random_density(dims, 4, seed, stream=67))
        # observable diagonal in the state's own eigenbasis: commuting
        eigbasis = np.linalg.eigh(rho.matrix)[1]
        commuting = T.observable_from_basis(eigbasis)
        comm_norm = frobenius(
            commuting.matrix() @ rho.matrix - rho.matrix @ commuting.matrix()
        )
        assert comm_norm < 1e-12
        assert T.entropy_of_coherence(commuting, rho) < 1e-9
        # a generic basis does not commute and must show coherence
        generic = T.sample_random_observable(4, seed=seed, stream=68)
        comm_norm = frobenius(
            generic.matrix() @ rho.matrix - rho.matrix @ generic.matrix()
        )
        if comm_norm > 1e-2 * frobenius(rho.matrix):
            assert T.entropy_of_coherence(generic, rho) > 1e-4


@pytest.mark.parametrize("d1,d2", DIM_PAIRS)
def test_chain_at_fixed_observables(d1, d2):
    dims = T.Dims(d1, d2)
    for k in range(50):
        state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=71)
        a1 = T.SubsystemObservable(T.sample_random_observable(d1, seed=k, stream=72), 1)
        b2 = T.SubsystemObservable(T.sample_random_observable(d2, seed=k, stream=73), 2)
        jmi = T.joint_mutual_information(T.joint_distribution(state, a1, b2))
        gain = T.information_gain(state, a1)
        mi = T.mutual_information(state)
        assert jmi >= -1e-9
        assert jmi <= gain + 1e-9
        assert gain <= mi + 1e-9


def test_lindblad_monotonicity_randomized():
    dims = T.Dims(2, 2)
    for k in range(100):
        sigma = random_state(dims, rank=4, seed=k, stream=79)
        rho = random_state(dims, rank=4, seed=k, stream=80)
        obs = T.SubsystemObservable(
            T.sample_random_observable(2, seed=k, stream=81, complete=k % 2 == 0), 1
        )
        before = T.relative_entropy(sigma.rho12, rho.rho12)
        after = T.relative_entropy(
            T.luders_apply_subsystem(obs, sigma).rho12,
            T.luders_apply_subsystem(obs, rho).rho12,
        )
        assert after <= before + 1e-9


def test_lindblad_monotonicity_full_space_observables():
    # the monotonicity is not restricted to embedded subsystem observables
    dims = T.Dims(2, 3)
    for k in range(50):
        sigma = T.validate_density(T.sample_random_density(dims, 6, seed=k, stream=85))
        rho = T.validate_density(T.sample_random_density(dims, 6, seed=k, stream=86))
        obs = T.sample_random_observable(6, seed=k, stream=87, complete=k % 2 == 0)
        before = T.relative_entropy(sigma, rho)
        after = T.relative_entropy(T.luders_apply(obs, sigma), T.luders_apply(obs, rho))
        assert after <= before + 1e-9
