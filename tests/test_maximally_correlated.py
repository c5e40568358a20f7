"""The paper's pure-state equalities on maximally correlated states.

A state has a complete twin pair of rank-one projectors ``{|a_i><a_i|}``,
``{|b_i><b_i|}`` exactly when it is maximally correlated in those bases,
``rho = sum_ij a_ij |a_i b_i><a_j b_j|`` with ``(a_ij)`` a density matrix (Rains,
IEEE Trans. Inf. Theory 47, 2921, 2001).  With ``p = diag(a)`` every link of the
chain has a closed form: both suprema of the information gain and the supremum of
the simultaneous-measurement information are H(p), I(1:2) = 2 H(p) - S(rho), so
the discord both ways is H(p) - S(rho), and so is the entropy of coherence of
either twin.  Pure states are Gram rank 1, ``a_ij = sqrt(p_i p_j)``.
"""

import numpy as np
import pytest

import twinfo as T

from conftest import maximally_correlated_corpus

TOL = 1e-10
CFG = T.OptimizationConfig(restarts=4, seed=1)


@pytest.fixture(scope="module")
def corpus():
    return list(maximally_correlated_corpus())


def test_corpus_spans_dims_two_to_five_and_every_gram_rank(corpus):
    assert len(corpus) >= 40
    kinds = {(state.dims.d1, int(np.linalg.matrix_rank(a, tol=1e-9))) for state, _, _, a in corpus}
    assert kinds == {(d, r) for d in range(2, 6) for r in range(1, d + 1)}


def test_suprema_and_discord_take_their_closed_forms(corpus):
    for state, _, _, a in corpus:
        h_p = T.shannon_entropy(np.diag(a).real)
        deficit = h_p - T.von_neumann_entropy(state.rho12)
        assert abs(T.mutual_information(state) - (h_p + deficit)) < TOL
        for side, direction in ((1, "1to2"), (2, "2to1")):
            gain = T.sup_information_gain(state, side, CFG).value
            assert abs(gain - h_p) < TOL, (state.dims, side, gain, h_p)
            assert abs(T.quantum_discord(state, direction, CFG) - deficit) < TOL
        joint = T.sup_joint_mutual_information(state, CFG).value
        assert abs(joint - h_p) < TOL, (state.dims, joint, h_p)


def test_twin_bases_reach_the_closed_forms_and_verify(corpus):
    for state, u1, u2, a in corpus:
        p = np.diag(a).real
        h_p = T.shannon_entropy(p)
        deficit = h_p - T.von_neumann_entropy(state.rho12)
        a1 = T.SubsystemObservable(T.observable_from_basis(u1), 1)
        b2 = T.SubsystemObservable(T.observable_from_basis(u2), 2)
        assert T.verify_twins(state, a1, b2).verdict
        jd = T.joint_distribution(state, a1, b2)
        # The twin table is diagonal, with p on the diagonal.
        assert np.abs(jd.p - np.diag(p)).max() < TOL
        assert abs(T.joint_mutual_information(jd) - h_p) < TOL
        s_rho = T.von_neumann_entropy(state.rho12)
        for sobs in (a1, b2):
            assert abs(T.information_gain(state, sobs) - h_p) < TOL
            after = T.luders_apply_subsystem(sobs, state)
            assert abs(T.von_neumann_entropy(after.rho12) - s_rho - deficit) < TOL


def test_bell_diagonal_joint_supremum_is_luos_classical_correlation():
    # rho = (1 + sum_k c_k sigma_k (x) sigma_k) / 4 under local unitaries: the gain's
    # supremum, and the joint one, is 1 - h((1 + max|c_k|) / 2) (Luo, PRA 77, 042303, 2008).
    from twinfo.sampling import generator

    paulis = [np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
    cfg = T.OptimizationConfig(restarts=4, seed=1)
    for k in range(30):
        rng = generator(7, k)
        lam = rng.dirichlet(np.ones(4))
        c = lam @ np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
        rho = (np.eye(4) + sum(ck * np.kron(s, s) for ck, s in zip(c, paulis))) / 4.0
        local = np.kron(T.sample_random_unitary(2, 7, 100 + k), T.sample_random_unitary(2, 7, 200 + k))
        state = T.make_bipartite(local @ rho @ local.conj().T, T.Dims(2, 2))
        x = (1.0 + np.abs(c).max()) / 2.0
        want = 1.0 + x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x)
        got = T.sup_joint_mutual_information(state, cfg).value
        assert abs(got - want) < TOL, (k, got, want)
