import numpy as np
import pytest

import twinfo as T
from twinfo.kernels import frobenius, kron
from twinfo.measurement import embed
from twinfo.twins import TWIN_TOL

from conftest import (
    DIM_PAIRS,
    SIGMA_X,
    SIGMA_Z,
    bell_vector,
    maximally_entangled,
    random_state,
    rotate_observable,
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


@pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 2.0, np.inf, np.nan])
def test_verify_twins_rejects_tol_outside_unit_interval(bell, tol):
    # At tol >= 1 every column counts as a partner, at tol <= 0 no residual passes.
    a1, b2 = zz_observables()
    with pytest.raises(ValueError, match="tol must lie in"):
        T.verify_twins(bell, a1, b2, tol=tol)


def test_pair_rows_rejects_a_repeated_partner():
    # Both rows put their full weight in column 0: each has one partner, but the
    # map is not one-to-one.
    table = np.array([[0.5, 0.0], [0.5, 0.0]])
    assert T.twins._pair_rows(table, np.array([0.5, 0.5]), TWIN_TOL) is None
    assert T.twins._pair_rows(np.diag([0.5, 0.5]), np.array([0.5, 0.5]), TWIN_TOL) == ((0, 0), (1, 1))


def test_strong_algebraic_absent_for_relabeled_twin(bell):
    a1, _ = zz_observables()
    relabeled = T.SubsystemObservable(
        T.observable_from_matrix(np.diag([5.0, 7.0]).astype(complex)), 2
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


def _tiny_weight_state(pure: bool, e: float = 1e-9):
    """sqrt(1 - e)|00> + sqrt(e)|1>|+>, or the mixture of the two terms: outcome
    1 of Z on side 1 has weight e, and Z on side 2 splits it in halves."""
    v0 = _basis_vec(T.Dims(2, 2), 0, 0)
    v1 = (_basis_vec(T.Dims(2, 2), 1, 0) + _basis_vec(T.Dims(2, 2), 1, 1)) / np.sqrt(2.0)
    if pure:
        return T.bipartite_from_pure(np.sqrt(1.0 - e) * v0 + np.sqrt(e) * v1, T.Dims(2, 2))
    rho = (1.0 - e) * np.outer(v0, v0.conj()) + e * np.outer(v1, v1.conj())
    return T.make_bipartite(rho, T.Dims(2, 2))


@pytest.mark.parametrize("pure", [True, False])
def test_tiny_weight_outcome_is_not_a_condition_mismatch(pure):
    # Equal spectra, no pairing: (c) is 0.5 while (a) is of order e, below
    # tol.  That is a failed twin pair, not a disagreement of the conditions.
    a1, b2 = zz_observables()
    report = T.verify_twins(_tiny_weight_state(pure), a1, b2)
    assert report.spectra_match
    assert report.pairing is None
    assert not report.verdict
    assert report.residual_a < TWIN_TOL
    assert report.residual_c == pytest.approx(0.5)


def test_near_twin_small_weight_outcome_stays_twins():
    # sqrt(1 - w)|00> + sqrt(w)|11> + delta|01>: (a) is of order delta^2 while
    # (b) and (d) are of order delta, all below tol, and each stays within its
    # bound: twins with no mismatch, although (d) / w is above 10 tol.
    w, delta = 0.01, 2e-9
    phi = np.array([np.sqrt(1.0 - w), delta, 0.0, np.sqrt(w)], dtype=complex)
    a1, b2 = zz_observables()
    report = T.verify_twins(T.bipartite_from_pure(phi, T.Dims(2, 2)), a1, b2)
    assert report.verdict
    assert report.residual_d / w > 10.0 * TWIN_TOL


@pytest.mark.parametrize("d1, d2", [(2, 2), (3, 4)])
@pytest.mark.parametrize("delta", [3e-7, 7.7e-7])
def test_near_twin_beyond_tol_is_not_a_condition_mismatch(d1, d2, delta):
    # A pure state delta away from one with Schmidt twins: (a) and (c) move by
    # delta^2 and stay below tol, while (b) and (d) move by delta, above 10 tol.
    # Both stay within their proven bounds by the table: not twins, no mismatch.
    dims = T.Dims(d1, d2)
    phi = T.sample_random_pure(dims, seed=0)
    psi = phi + delta * T.sample_random_pure(dims, seed=0, stream=1)
    a1, b2 = T.construct_pure_twins(phi, dims)
    report = T.verify_twins(T.bipartite_from_pure(psi / np.linalg.norm(psi), dims), a1, b2)
    assert report.pairing is not None
    assert not report.verdict
    assert max(report.residual_a, report.residual_c) < TWIN_TOL
    assert min(report.residual_b, report.residual_d) > 10.0 * TWIN_TOL


def test_disagreeing_conditions_still_raise(bell, monkeypatch):
    # A corrupted outcome table fails (a) and (c) while (b) and (d) still hold.
    true_table = T.twins.coincidence_table
    monkeypatch.setattr(T.twins, "coincidence_table",
                        lambda *args: true_table(*args) + np.array([[-0.05, 0.05], [0.05, -0.05]]))
    a1, b2 = zz_observables()
    with pytest.raises(T.ConditionMismatchError, match="twin conditions disagree"):
        T.verify_twins(bell, a1, b2)


@pytest.mark.parametrize("d1, d2", [(2, 3), (3, 3), (4, 2), (5, 4)])
@pytest.mark.parametrize("corrupt", ["permuted", "shifted"])
def test_disagreeing_conditions_raise_when_a_and_c_hold(d1, d2, corrupt, monkeypatch):
    # Exact random twins, pure or Schmidt-dephased, with a corrupted side-2 stack:
    # the outcome table is exact, so (a) and (c) hold up to rounding, while (b)
    # and (d) fail and break the bound ||X rho||^2 <= ||rho|| t.  The check reads
    # no tol, so a loose one does not hide the fault.
    def corrupted_embed(op, side, dims):
        e = embed(op, side, dims)
        if side == 1:
            return e
        return np.roll(e, 1, axis=0) if corrupt == "permuted" else e + 1e-3 * np.eye(e.shape[-1])

    monkeypatch.setattr(T.twins, "embed", corrupted_embed)
    dims = T.Dims(d1, d2)
    for seed in range(5):
        phi = T.sample_random_pure(dims, seed=seed)
        a1, b2 = T.construct_pure_twins(phi, dims)
        for state in (T.bipartite_from_pure(phi, dims), T.dephase_in_schmidt_basis(phi, dims)):
            for tol in (TWIN_TOL, 1e-2):
                with pytest.raises(T.ConditionMismatchError, match="twin conditions disagree"):
                    T.verify_twins(state, a1, b2, tol=tol)


def test_slightly_negative_state_is_not_a_condition_mismatch():
    # diag(1 + e, -e, 0, 0) passes validation for e below STATE_TOL.  With Z on
    # both sides, t = -e and ||X rho|| = e, so ||X rho||^2 <= ||rho|| t fails by
    # about e; the allowance for the negative part of rho covers it.
    e = 1e-11
    a1, b2 = zz_observables()
    state = T.make_bipartite(np.diag([1.0 + e, -e, 0.0, 0.0]).astype(complex), T.Dims(2, 2))
    assert T.verify_twins(state, a1, b2).verdict is True


@pytest.mark.parametrize("d1, d2", [(2, 2), (2, 3), (3, 3), (4, 5)])
@pytest.mark.parametrize("digits", [11, 12])
def test_rounded_twin_state_is_not_a_condition_mismatch(d1, d2, digits):
    # A pure state rounded to 11 or 12 decimals has rounding eigenvalues
    # of either sign on its kernel, where X = P (x) 1 - 1 (x) Q is supported.
    dims = T.Dims(d1, d2)
    for seed in range(5):
        phi = T.sample_random_pure(dims, seed=seed, stream=11)
        a1, b2 = T.construct_pure_twins(phi, dims)
        rounded = np.round(np.outer(phi, phi.conj()), digits)
        rounded /= np.trace(rounded).real
        T.verify_twins(T.make_bipartite(rounded, dims), a1, b2)


@pytest.mark.parametrize("d1, d2", [(d1, d2) for d1 in range(2, 6) for d2 in range(2, 6)])
def test_corrupted_table_raises(d1, d2, monkeypatch):
    # Moving 1e-10 from each aligned entry (i, i) of the table of these Schmidt
    # twins to its neighbour raises t by 2e-10 while ||X rho|| stays at
    # rounding: t <= sqrt(D) ||X rho|| breaks.
    true_table = T.twins.coincidence_table

    def moved(*args):
        table = true_table(*args).copy()
        for i in range(min(table.shape)):
            table[i, i] -= 1e-10
            table[i, (i + 1) % table.shape[1]] += 1e-10
        return table

    monkeypatch.setattr(T.twins, "coincidence_table", moved)
    dims = T.Dims(d1, d2)
    for seed in range(3):
        phi = T.sample_random_pure(dims, seed=seed, stream=7)
        a1, b2 = T.construct_pure_twins(phi, dims)
        with pytest.raises(T.ConditionMismatchError, match="twin conditions disagree"):
            T.verify_twins(T.bipartite_from_pure(phi, dims), a1, b2)


# ------------------------------------------------- stacked arithmetic, bit for bit


def _coincidence_table_loop(state, projs1, projs2):
    """The outcome table one projector at a time; the reference for the bits
    of the stacked ``coincidence_table``."""
    eye2 = np.eye(state.dims.d2, dtype=complex)
    table = np.zeros((len(projs1), len(projs2)))
    for i, pa in enumerate(projs1):
        cond = T.partial_trace(state.rho12.matrix @ T.tensor_product(pa, eye2), state.dims, keep=2)
        for j, qb in enumerate(projs2):
            table[i, j] = np.trace(cond @ qb).real
    return table


def _probabilities_loop(state, sobs):
    reduced = state.rho1 if sobs.subsystem == 1 else state.rho2
    return np.array([np.trace(reduced.matrix @ p).real for p in sobs.observable.projectors])


def _verify_twins_loop(state, a1, b2, tol=TWIN_TOL):
    """``verify_twins`` with a Kronecker product, matmul and trace per
    projector, as it was computed before the projector stacks; the reference
    for the bits of every field of the report."""
    specs = []
    for sobs in (a1, b2):
        probabilities = _probabilities_loop(state, sobs)
        kept = np.nonzero(probabilities > T.twins.DETECT_EPS)[0]
        reduced = state.rho1 if sobs.subsystem == 1 else state.rho2
        specs.append(T.DetectableSpectrum(
            eigenvalues=sobs.observable.eigenvalues[kept],
            projectors=sobs.observable.projectors[kept],
            multiplicities=sobs.observable.multiplicities[kept],
            probabilities=probabilities[kept],
            range_projector=T.twins.range_projector(reduced.matrix)))
    spec_a, spec_b = specs
    rho = state.rho12.matrix
    rho_norm = frobenius(rho)
    eye1 = np.eye(state.dims.d1, dtype=complex)
    eye2 = np.eye(state.dims.d2, dtype=complex)
    comm = []
    for sobs, reduced in ((a1, state.rho1), (b2, state.rho2)):
        m = sobs.observable.matrix()
        scale = max(1.0, float(np.max(np.abs(sobs.observable.eigenvalues))))
        comm.append(frobenius(m @ reduced.matrix - reduced.matrix @ m) / scale)
    spectra_match = len(spec_a.eigenvalues) == len(spec_b.eigenvalues)
    table = _coincidence_table_loop(state, spec_a.projectors, spec_b.projectors)
    pairing = T.twins._pair_rows(table, spec_a.probabilities, tol) if spectra_match else None
    n = min(len(spec_a.eigenvalues), len(spec_b.eigenvalues))
    align = pairing if pairing is not None else tuple((i, i) for i in range(n))
    paired_cols = dict(align)
    res_a = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if paired_cols.get(i) == j:
                res_a = max(res_a, abs(table[i, j] - spec_a.probabilities[i]))
            else:
                res_a = max(res_a, table[i, j])
    res_b = res_c = res_d = 0.0
    for i, j in align:
        p1 = T.tensor_product(spec_a.projectors[i], eye2)
        p2 = T.tensor_product(eye1, spec_b.projectors[j])
        res_b = max(res_b, frobenius(p1 @ rho @ p1 - p2 @ rho @ p2) / rho_norm)
        res_c = max(res_c, float(abs(1.0 - table[i, j] / spec_a.probabilities[i])))
        res_d = max(res_d, frobenius(p1 @ rho - p2 @ rho) / rho_norm)
    if not spectra_match:
        unpaired = [T.tensor_product(p, eye2) for p in spec_a.projectors[len(align):]]
        unpaired += [T.tensor_product(eye1, q) for q in spec_b.projectors[len(align):]]
        for proj in unpaired:
            res_b = max(res_b, frobenius(proj @ rho @ proj) / rho_norm)
            res_c = 1.0
            res_d = max(res_d, frobenius(proj @ rho) / rho_norm)
    verdict = (comm[0] < tol and comm[1] < tol and spectra_match and pairing is not None
               and max(res_a, res_b, res_c, res_d) < tol)
    complete = True
    for spec in (spec_a, spec_b):
        for p in spec.projectors:
            if abs(np.trace(p @ spec.range_projector).real - 1.0) >= tol:
                complete = False
    strong = None
    if verdict:
        strong = T.twins._strong_algebraic(state, spec_a, spec_b, pairing, tol)
    return T.TwinReport(
        commutator_residuals=(comm[0], comm[1]), spectra_match=spectra_match, pairing=pairing,
        residual_a=res_a, residual_b=res_b, residual_c=res_c, residual_d=res_d,
        verdict=verdict, complete=complete, strong_algebraic_residual=strong)


def _schmidt_pair(phi, dims, groups):
    """Side-1 and side-2 observables labelled ``g + 1`` on Schmidt-vector group ``g``."""
    form = T.schmidt_decompose(phi, dims)
    a = np.zeros((dims.d1, dims.d1), dtype=complex)
    b = np.zeros((dims.d2, dims.d2), dtype=complex)
    for label, group in enumerate(groups, start=1):
        for i in group:
            a += label * np.outer(form.basis1[:, i], form.basis1[:, i].conj())
            b += label * np.outer(form.basis2[:, i], form.basis2[:, i].conj())
    return (T.SubsystemObservable(T.observable_from_matrix(a), 1),
            T.SubsystemObservable(T.observable_from_matrix(b), 2))


def _two_outcome(d, seed, stream):
    """Random eigenbasis split into a rank-``cut`` and a rank-``d - cut`` eigenspace."""
    u = T.sample_random_unitary(d, seed=seed, stream=stream)
    labels = np.where(np.arange(d) < 1 + seed % (d - 1), 1.0, 2.0)
    return T.observable_from_matrix((u * labels) @ u.conj().T)


def _family_instance(family, dims, seed):
    """(state, a1, b2): families 0-2 are twins, 3-5 are not, 6 has unequal spectra."""
    phi = T.sample_random_pure(dims, seed=seed, stream=121)
    k = min(dims.d1, dims.d2)
    singles = [[i] for i in range(k)]
    coarse = [list(range(k - 1)), [k - 1]] if k > 2 else [[0, 1]]
    pure = T.bipartite_from_pure(phi, dims)
    if family == 0:  # pure state, complete Schmidt twins
        return (pure, *_schmidt_pair(phi, dims, singles))
    if family == 1:  # Schmidt-dephased state, rank-k twins
        return (T.dephase_in_schmidt_basis(phi, dims), *_schmidt_pair(phi, dims, coarse))
    if family == 2:  # pure state, rank-k twins
        return (pure, *_schmidt_pair(phi, dims, coarse))
    if family == 3:  # complete Schmidt twins with side 1 rotated away
        a1, b2 = _schmidt_pair(phi, dims, singles)
        rotated = rotate_observable(a1.observable, 0.3, seed=seed)
        return pure, T.SubsystemObservable(rotated, 1), b2
    if family == 4:  # full-rank random state, random rank-k observables
        return (random_state(dims, dims.total, seed=seed, stream=122),
                T.SubsystemObservable(_two_outcome(dims.d1, seed, 123), 1),
                T.SubsystemObservable(_two_outcome(dims.d2, seed, 124), 2))
    if family == 5:  # maximally entangled state, standard basis against Fourier basis
        j = np.arange(dims.d2)
        fourier = np.exp(2j * np.pi * np.outer(j, j) / dims.d2) / np.sqrt(dims.d2)
        return (T.bipartite_from_pure(maximally_entangled(dims), dims),
                T.SubsystemObservable(T.observable_from_basis(np.eye(dims.d1, dtype=complex)), 1),
                T.SubsystemObservable(T.observable_from_basis(fourier), 2))
    # complete Schmidt observable on side 1, both Schmidt vectors of side 2 in one eigenspace
    a1, _ = _schmidt_pair(phi, dims, singles)
    _, b2 = _schmidt_pair(phi, dims, [list(range(k))])
    return pure, a1, b2


BIT_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4), (5, 5), (6, 6), (8, 8), (3, 10), (10, 3)]


@pytest.mark.parametrize("d1, d2", BIT_DIMS)
def test_stacked_twin_arithmetic_equals_per_projector_loop(d1, d2):
    dims = T.Dims(d1, d2)
    for family in range(7):
        for seed in (1, 2):
            state, a1, b2 = _family_instance(family, dims, seed)
            assert T.verify_twins(state, a1, b2) == _verify_twins_loop(state, a1, b2)
            joint = T.joint_distribution(state, a1, b2).p
            table = _coincidence_table_loop(state, a1.observable.projectors, b2.observable.projectors)
            assert joint.tobytes() == np.clip(table, 0.0, None).tobytes()
            for sobs in (a1, b2):
                spec = T.detectable_spectrum(state, sobs)
                expected = _probabilities_loop(state, sobs)
                assert spec.probabilities.tobytes() == expected[expected > T.twins.DETECT_EPS].tobytes()


def test_family_labels_hold():
    # The corpus above exercises twins, non-twins and the unpaired branch.
    dims = T.Dims(3, 3)
    verdicts = [T.verify_twins(*_family_instance(family, dims, 1)) for family in range(7)]
    assert [r.verdict for r in verdicts] == [True, True, True, False, False, False, False]
    assert not verdicts[6].spectra_match


def test_stacked_kron_and_embed_equal_slices():
    rng = np.random.default_rng(12)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b = cplx(4, 3, 3), cplx(4, 2, 5)
    assert kron(a, b).tobytes() == np.array([np.kron(x, y) for x, y in zip(a, b)]).tobytes()
    assert kron(a, b[1]).tobytes() == np.array([np.kron(x, b[1]) for x in a]).tobytes()
    assert kron(a[2], b).tobytes() == np.array([np.kron(a[2], y) for y in b]).tobytes()
    assert kron(a[0], b[0]).tobytes() == np.kron(a[0], b[0]).tobytes()
    dims = T.Dims(3, 5)
    for side, stack in ((1, cplx(4, 3, 3)), (2, cplx(2, 5, 5))):
        lifted = embed(stack, side, dims)
        assert lifted.shape == (len(stack), 15, 15)
        assert lifted.tobytes() == np.array([embed(op, side, dims) for op in stack]).tobytes()
