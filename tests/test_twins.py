import numpy as np
import pytest

import twinfo as T
from twinfo.linalg import frobenius
from twinfo.twins import TWIN_TOL

from conftest import (
    DIM_PAIRS,
    SIGMA_X,
    SIGMA_Z,
    bell_vector,
    random_state,
    twin_corpus,
    zz_observables,
)


def _z1():
    return T.SubsystemObservable(T.observable_from_matrix(SIGMA_Z), 1)


def _x2():
    return T.SubsystemObservable(T.observable_from_matrix(SIGMA_X), 2)


def test_detectable_spectrum_bell(bell):
    spec = T.detectable_spectrum(bell, _z1())
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0])
    np.testing.assert_allclose(spec.probabilities, [0.5, 0.5], atol=1e-12)


def test_detectable_spectrum_product_ground_state():
    phi = np.array([1, 0, 0, 0], dtype=complex)  # |0>|0>
    state = T.bipartite_from_pure(phi, T.Dims(2, 2))
    spec = T.detectable_spectrum(state, _z1())
    np.testing.assert_allclose(spec.eigenvalues, [1.0])
    np.testing.assert_allclose(spec.probabilities, [1.0], atol=1e-12)


def test_detectable_spectrum_kernel_projector():
    dims = T.Dims(3, 3)
    phi = np.zeros(9, dtype=complex)
    phi[0] = np.sqrt(0.6)
    phi[4] = np.sqrt(0.4)
    state = T.bipartite_from_pure(phi, dims)
    a1, _ = T.construct_pure_twins(phi, dims)
    spec = T.detectable_spectrum(state, a1)
    assert 0.0 not in spec.eigenvalues
    assert len(spec.eigenvalues) == 2
    # range projector of the rank-2 reduction
    assert np.trace(spec.range_projector).real == pytest.approx(2.0, abs=1e-10)


def test_pair_spectra_bell_zz(bell):
    a1, b2 = zz_observables()
    pairing = T.verify_twins(bell, a1, b2).pairing
    assert pairing is not None
    assert pairing == ((0, 0), (1, 1))


def test_pair_spectra_bell_zx_has_none(bell):
    a1 = _z1()
    b2 = _x2()
    pairing = T.verify_twins(bell, a1, b2).pairing
    assert pairing is None


def test_pair_spectra_crossed():
    phi = np.zeros(4, dtype=complex)
    phi[1] = np.sqrt(0.75)  # |0>|1>
    phi[2] = np.sqrt(0.25)  # |1>|0>
    state = T.bipartite_from_pure(phi, T.Dims(2, 2))
    a1, b2 = zz_observables()
    pairing = T.verify_twins(state, a1, b2).pairing
    # eigenvalue +1 of side 1 (|0>) pairs with eigenvalue -1 of side 2 (|1>)
    assert pairing is not None
    assert pairing == ((0, 1), (1, 0))


def test_verify_twins_constructed_pure_and_dephased():
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=50)
    a1, b2 = T.construct_pure_twins(phi, dims)
    for state in (T.bipartite_from_pure(phi, dims), T.dephase_in_schmidt_basis(phi, dims)):
        report = T.verify_twins(state, a1, b2)
        assert report.verdict
        assert report.complete
        assert report.spectra_match
        assert report.pairing is not None
        assert report.strong_algebraic_residual is not None
        assert report.strong_algebraic_residual < 1e-10


def test_verify_twins_bell_zx_fails_all_conditions(bell):
    report = T.verify_twins(bell, _z1(), _x2())
    assert not report.verdict
    for residual in (
        report.residual_a,
        report.residual_b,
        report.residual_c,
        report.residual_d,
    ):
        assert 0.1 < residual < 1.5


def test_verify_twins_bell_zz_strong_residual(bell):
    a1, b2 = zz_observables()
    report = T.verify_twins(bell, a1, b2)
    assert report.verdict
    assert report.strong_algebraic_residual is not None
    assert report.strong_algebraic_residual < 1e-10


def test_strong_algebraic_absent_for_relabeled_twin(bell):
    a1, _ = zz_observables()
    relabeled = T.SubsystemObservable(
        T.observable_from_basis(np.eye(2, dtype=complex), eigenvalues=[5.0, 7.0]), 2
    )
    report = T.verify_twins(bell, a1, relabeled)
    assert report.verdict
    assert report.strong_algebraic_residual is None


def test_strong_algebraic_schmidt_aligned():
    phi = np.zeros(4, dtype=complex)
    phi[0] = np.sqrt(0.75)
    phi[3] = np.sqrt(0.25)
    state = T.bipartite_from_pure(phi, T.Dims(2, 2))
    a1, b2 = zz_observables()
    report = T.verify_twins(state, a1, b2)
    assert report.verdict
    assert report.strong_algebraic_residual < 1e-10


def test_construct_pure_twins_bell(bell):
    a1, b2 = T.construct_pure_twins(bell_vector(), T.Dims(2, 2))
    report = T.verify_twins(bell, a1, b2)
    assert report.verdict and report.complete


def test_construct_pure_twins_product_vector():
    phi = np.array([0, 1, 0, 0], dtype=complex)  # |0>|1>
    state = T.bipartite_from_pure(phi, T.Dims(2, 2))
    a1, b2 = T.construct_pure_twins(phi, T.Dims(2, 2))
    assert len(T.detectable_spectrum(state, a1).eigenvalues) == 1
    assert len(T.detectable_spectrum(state, b2).eigenvalues) == 1
    assert T.verify_twins(state, a1, b2).verdict


def test_construct_pure_twins_joint_information():
    dims = T.Dims(3, 3)
    phi = T.sample_random_pure(dims, seed=5)
    state = T.bipartite_from_pure(phi, dims)
    a1, b2 = T.construct_pure_twins(phi, dims)
    jd = T.joint_distribution(state, a1, b2)
    # outcome table is diagonal with the squared Schmidt coefficients
    weights = np.sort(T.schmidt_decompose(phi, dims).coefficients ** 2)
    np.testing.assert_allclose(np.sort(np.diag(jd.p)), weights, atol=1e-10)
    np.testing.assert_allclose(jd.p - np.diag(np.diag(jd.p)), 0.0, atol=1e-10)
    jmi = T.joint_mutual_information(jd)
    assert jmi == pytest.approx(T.von_neumann_entropy(state.rho1), abs=1e-8)


def test_dephase_bell():
    state = T.dephase_in_schmidt_basis(bell_vector(), T.Dims(2, 2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert frobenius(state.rho12.matrix, expected) < 1e-12


def test_dephase_product_vector_unchanged():
    phi = np.array([0, 0, 1, 0], dtype=complex)  # |1>|0>
    state = T.dephase_in_schmidt_basis(phi, T.Dims(2, 2))
    assert frobenius(state.rho12.matrix, np.outer(phi, phi.conj())) < 1e-12


def test_dephase_weights():
    phi = np.zeros(4, dtype=complex)
    phi[0] = np.sqrt(0.75)
    phi[3] = np.sqrt(0.25)
    state = T.dephase_in_schmidt_basis(phi, T.Dims(2, 2))
    np.testing.assert_allclose(
        np.diag(state.rho12.matrix).real, [0.75, 0.0, 0.0, 0.25], atol=1e-12
    )


@pytest.mark.parametrize("d1,d2", DIM_PAIRS)
def test_constructed_twins_verify_on_random_pure_states(d1, d2):
    dims = T.Dims(d1, d2)
    for k in range(334):
        phi = T.sample_random_pure(dims, seed=k, stream=101)
        state = T.bipartite_from_pure(phi, dims)
        a1, b2 = T.construct_pure_twins(phi, dims)
        report = T.verify_twins(state, a1, b2)
        assert report.verdict
        assert report.complete


def test_distant_measurement_identity_for_twins():
    dims = T.Dims(3, 3)
    phi = T.sample_random_pure(dims, seed=51)
    a1, b2 = T.construct_pure_twins(phi, dims)
    for state in (T.bipartite_from_pure(phi, dims), T.dephase_in_schmidt_basis(phi, dims)):
        after_a = T.luders_apply_subsystem(a1, state)
        after_b = T.luders_apply_subsystem(b2, state)
        assert frobenius(after_a.rho12.matrix, after_b.rho12.matrix) < 1e-10


def test_coincidence_factorization_holds_for_all_states():
    dims = T.Dims(2, 3)
    for k in range(30):
        state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=103)
        a1 = T.SubsystemObservable(T.sample_random_observable(2, seed=k, stream=104), 1)
        spec = T.detectable_spectrum(state, a1)
        u = T.sample_random_unitary(3, seed=k, stream=105)
        e2 = np.outer(u[:, 0], u[:, 0].conj()) + np.outer(u[:, 1], u[:, 1].conj())
        eye2 = np.eye(3, dtype=complex)
        for i, (p_i, proj) in enumerate(zip(spec.probabilities, spec.projectors)):
            joint = np.trace(
                state.rho12.matrix @ T.tensor_product(proj, e2)
            ).real
            cond = (
                T.partial_trace(
                    state.rho12.matrix @ T.tensor_product(proj, eye2), dims, keep=2
                )
                / p_i
            )
            assert abs(joint - p_i * np.trace(cond @ e2).real) < 1e-10


def test_degenerate_twin_multiplicities_coincide():
    dims = T.Dims(3, 3)
    phi = (
        np.sqrt(0.5) * _basis_vec(dims, 0, 0)
        + np.sqrt(0.3) * _basis_vec(dims, 1, 1)
        + np.sqrt(0.2) * _basis_vec(dims, 2, 2)
    )
    state = T.bipartite_from_pure(phi, dims)
    # merge the first two Schmidt directions into one degenerate eigenvalue
    diag = np.diag([1.0, 1.0, 2.0]).astype(complex)
    a1 = T.SubsystemObservable(T.observable_from_matrix(diag), 1)
    b2 = T.SubsystemObservable(T.observable_from_matrix(diag), 2)
    report = T.verify_twins(state, a1, b2)
    assert report.verdict
    assert not report.complete  # a detectable eigenvalue is degenerate
    spec_a = T.detectable_spectrum(state, a1)
    spec_b = T.detectable_spectrum(state, b2)
    for i, j in report.pairing:
        mult_a = round(np.trace(spec_a.projectors[i]).real)
        mult_b = round(np.trace(spec_b.projectors[j]).real)
        assert mult_a == mult_b
    assert report.strong_algebraic_residual < 1e-10


def test_equal_probabilities_under_pairing():
    dims = T.Dims(2, 3)
    for k in range(30):
        phi = T.sample_random_pure(dims, seed=k, stream=107)
        state = T.bipartite_from_pure(phi, dims)
        a1, b2 = T.construct_pure_twins(phi, dims)
        report = T.verify_twins(state, a1, b2)
        spec_a = T.detectable_spectrum(state, a1)
        spec_b = T.detectable_spectrum(state, b2)
        for i, j in report.pairing:
            assert abs(spec_a.probabilities[i] - spec_b.probabilities[j]) < 1e-10


def test_condition_equivalence_on_small_corpus():
    for state, a1, b2, is_twin in twin_corpus(60, 60):
        report = T.verify_twins(state, a1, b2)
        flags = [
            report.residual_a < 1e-8,
            report.residual_b < 1e-8,
            report.residual_c < 1e-8,
            report.residual_d < 1e-8,
        ]
        assert all(flags) == is_twin
        assert report.verdict == is_twin


def _basis_vec(dims, i, j):
    v = np.zeros(dims.total, dtype=complex)
    v[i * dims.d2 + j] = 1.0
    return v


@pytest.mark.parametrize("d1, d2, seed", [(2, 2, 1), (2, 2, 5), (2, 3, 2), (2, 3, 3)])
def test_verify_twins_unequal_spectra_fails_all_conditions(d1, d2, seed):
    # Side 1 measures the complete Schmidt observable; side 2 puts both
    # Schmidt vectors in one eigenspace, so only one of its outcomes is
    # detectable.  The unpaired side-1 outcome fails every condition.
    dims = T.Dims(d1, d2)
    phi = T.sample_random_pure(dims, seed=seed)
    state = T.bipartite_from_pure(phi, dims)
    a1, _ = T.construct_pure_twins(phi, dims)
    form = T.schmidt_decompose(phi, dims)
    b = 2.0 * np.eye(d2, dtype=complex)
    for i in range(len(form)):
        b -= np.outer(form.basis2[:, i], form.basis2[:, i].conj())
    b2 = T.SubsystemObservable(T.observable_from_matrix(b), 2)
    report = T.verify_twins(state, a1, b2)
    assert not report.verdict
    assert not report.spectra_match
    assert report.pairing is None
    assert min(report.residual_a, report.residual_b, report.residual_c, report.residual_d) > 1e-3
    assert report.residual_c == 1.0


def test_verify_twins_unequal_spectra_tiny_unpaired_outcome():
    # (1 - e)|Phi+><Phi+| + e|02><02| with e above the detection threshold
    # but below tol: the qutrit outcome 2 is detectable and unpaired, so (c)
    # is 1 while (a), (b) and (d) are of order e.  That is a failed twin,
    # not a disagreement between the conditions.
    e = 1e-9
    dims = T.Dims(2, 3)
    phi = (_basis_vec(dims, 0, 0) + _basis_vec(dims, 1, 1)) / np.sqrt(2.0)
    v = _basis_vec(dims, 0, 2)
    rho = (1.0 - e) * np.outer(phi, phi.conj()) + e * np.outer(v, v.conj())
    state = T.make_bipartite(rho, dims)
    a1 = T.SubsystemObservable(T.observable_from_matrix(np.diag([0.0, 1.0])), 1)
    b2 = T.SubsystemObservable(T.observable_from_matrix(np.diag([0.0, 1.0, 2.0])), 2)
    report = T.verify_twins(state, a1, b2)
    assert not report.verdict
    assert not report.spectra_match
    assert report.residual_c == 1.0
    assert max(report.residual_a, report.residual_b, report.residual_d) < TWIN_TOL
