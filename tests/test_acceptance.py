"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (visible even under pytest capture).
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import twinfo as T
from twinfo.kernels import frobenius, info_gain_side1, joint_mutual_info, swap_sides

from conftest import DIM_PAIRS, product_state, random_state, twin_corpus, werner_state

WERNER_DISCORD = 0.26248318376373436


def _announce(capsys, num, name, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def corpus_reports():
    instances = twin_corpus(500, 500)
    return [(inst, T.verify_twins(inst[0], inst[1], inst[2], tol=1e-8)) for inst in instances]


def test_acceptance_01_inequality_chains(capsys):
    violations = 0
    for d1, d2 in DIM_PAIRS:
        dims = T.Dims(d1, d2)
        for k in range(1000):
            state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=201)
            rho = np.ascontiguousarray(state.rho12.matrix)
            swapped = swap_sides(rho, d1, d2)
            mi = T.mutual_information(state)
            for b in range(4):
                u1 = np.ascontiguousarray(
                    T.sample_random_unitary(d1, seed=k, stream=210 + b)
                )
                u2 = np.ascontiguousarray(
                    T.sample_random_unitary(d2, seed=k, stream=220 + b)
                )
                jmi = float(joint_mutual_info(rho, u1, u2))
                g1 = float(info_gain_side1(rho, u1, d2))
                g2 = float(info_gain_side1(swapped, u2, d1))
                slacks = (jmi, g1 - jmi, g2 - jmi, mi - g1, mi - g2)
                if min(slacks) < -1e-9:
                    violations += 1
    _announce(capsys, 1, "inequality chains", violations == 0)


def test_acceptance_02_uncorrelated_equality(capsys):
    ok = True
    cfg = T.OptimizationConfig(restarts=2, seed=0)
    for k in range(200):
        dims = T.Dims(*DIM_PAIRS[k % len(DIM_PAIRS)])
        state = product_state(dims, seed=k, stream=231)
        sup = T.sup_joint_mutual_information(state, cfg)
        ok = ok and sup.value < 1e-6

    cfg1 = T.OptimizationConfig(restarts=1, seed=0)
    built = 0
    stream = 0
    while built < 200:
        dims = T.Dims(*DIM_PAIRS[built % len(DIM_PAIRS)])
        phi = T.sample_random_pure(dims, seed=built, stream=233 + stream)
        state = T.bipartite_from_pure(phi, dims)
        if built % 2 == 1:
            state = T.dephase_in_schmidt_basis(phi, dims)
        if T.mutual_information(state) <= 0.1:
            stream += 1
            continue
        sup = T.sup_joint_mutual_information(state, cfg1)
        ok = ok and sup.value > 1e-3
        built += 1
    _announce(capsys, 2, "uncorrelated equality condition", ok)


def test_acceptance_03_relative_entropy_identity(capsys):
    worst = 0.0
    for d1, d2 in DIM_PAIRS:
        dims = T.Dims(d1, d2)
        for k in range(1000):
            state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=241)
            diff = abs(T.mutual_information(state) - T.mutual_information_via_relative(state))
            worst = max(worst, diff)
    _announce(capsys, 3, "mutual information via relative entropy", worst < 1e-9)


def test_acceptance_04_partial_trace_identities(capsys):
    worst = 0.0
    for d1, d2 in DIM_PAIRS:
        dims = T.Dims(d1, d2)
        for k in range(100):
            state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=251)
            a1 = T.SubsystemObservable(
                T.sample_random_observable(d1, seed=k, stream=252, complete=False), 1
            )
            b2 = T.SubsystemObservable(
                T.sample_random_observable(d2, seed=k, stream=253, complete=False), 2
            )
            t_ab = T.luders_apply_subsystem(a1, T.luders_apply_subsystem(b2, state))
            worst = max(
                worst,
                frobenius(
                    T.partial_trace(t_ab.rho12.matrix, dims, keep=1),
                    T.luders_apply(a1.observable, state.rho1).matrix,
                ),
                frobenius(
                    T.partial_trace(t_ab.rho12.matrix, dims, keep=2),
                    T.luders_apply(b2.observable, state.rho2).matrix,
                ),
            )
    _announce(capsys, 4, "nonselective measurement partial-trace identities", worst < 1e-10)


def test_acceptance_05_lindblad_monotonicity(capsys):
    worst = -np.inf
    for k in range(500):
        dims = T.Dims(*DIM_PAIRS[k % len(DIM_PAIRS)])
        sigma = random_state(dims, rank=dims.total, seed=k, stream=261)
        rho = random_state(dims, rank=dims.total, seed=k, stream=262)
        a1 = T.SubsystemObservable(
            T.sample_random_observable(dims.d1, seed=k, stream=263, complete=k % 2 == 0), 1
        )
        b2 = T.SubsystemObservable(
            T.sample_random_observable(dims.d2, seed=k, stream=264, complete=k % 3 == 0), 2
        )
        base = T.relative_entropy(sigma.rho12, rho.rho12)
        sigma_a = T.luders_apply_subsystem(a1, sigma)
        rho_a = T.luders_apply_subsystem(a1, rho)
        one = T.relative_entropy(sigma_a.rho12, rho_a.rho12)
        two = T.relative_entropy(
            T.luders_apply_subsystem(b2, sigma_a).rho12,
            T.luders_apply_subsystem(b2, rho_a).rho12,
        )
        worst = max(worst, one - base, two - one)
    _announce(capsys, 5, "monotonicity under measurement channels", worst <= 1e-9)


def test_acceptance_06_pure_state_equalities(capsys):
    ok = True
    gain_cfg = T.OptimizationConfig(restarts=2, seed=0)
    joint_cfg = T.OptimizationConfig(restarts=1, seed=0)
    for k in range(300):
        dims = T.Dims(*DIM_PAIRS[k % len(DIM_PAIRS)])
        phi = T.sample_random_pure(dims, seed=k, stream=271)
        state = T.bipartite_from_pure(phi, dims)
        s1 = T.von_neumann_entropy(state.rho1)
        s2 = T.von_neumann_entropy(state.rho2)
        a1, b2 = T.construct_pure_twins(phi, dims)
        jd = T.joint_distribution(state, a1, b2)
        h_a = T.shannon_entropy(jd.row_marginals)
        h_b = T.shannon_entropy(jd.col_marginals)
        h_ab = T.shannon_entropy(jd.p.ravel())
        for value in (h_a, h_b, h_ab, s2):
            ok = ok and abs(value - s1) < 1e-8
        sup_gain = T.sup_information_gain(state, 1, gain_cfg)
        sup_joint = T.sup_joint_mutual_information(state, joint_cfg)
        ok = ok and abs(sup_gain.value - s1) < 1e-6
        ok = ok and abs(sup_joint.value - s1) < 1e-6
    _announce(capsys, 6, "pure-state equalities and suprema", ok)


def test_acceptance_07_discord_values(capsys):
    ok = True
    cfg = T.OptimizationConfig(restarts=2, seed=0)
    for k in range(60):
        dims = T.Dims(*DIM_PAIRS[k % len(DIM_PAIRS)])
        phi = T.sample_random_pure(dims, seed=k, stream=281)
        pure = T.bipartite_from_pure(phi, dims)
        s1 = T.von_neumann_entropy(pure.rho1)
        ok = ok and abs(T.quantum_discord(pure, "1to2", cfg) - s1) < 1e-6
        dephased = T.dephase_in_schmidt_basis(phi, dims)
        ok = ok and abs(T.quantum_discord(dephased, "1to2", cfg)) < 1e-6

    werner = werner_state(0.5)
    wcfg = T.OptimizationConfig(restarts=8, seed=1)
    sup = T.sup_information_gain(werner, 1, wcfg)
    grid_value, _ = T.grid_information_gain_qubit(werner, 1)
    mi = T.mutual_information(werner)
    discord = mi - sup.value
    ok = ok and abs(discord - (mi - grid_value)) < 1e-4
    ok = ok and abs(discord - WERNER_DISCORD) < 1e-4
    _announce(capsys, 7, "discord values", ok)


def test_acceptance_08_condition_equivalence(capsys, corpus_reports):
    ok = True
    n_twins = 0
    n_non = 0
    for (state, a1, b2, is_twin), report in corpus_reports:
        flags = [
            report.residual_a < 1e-8,
            report.residual_b < 1e-8,
            report.residual_c < 1e-8,
            report.residual_d < 1e-8,
        ]
        ok = ok and (all(flags) or not any(flags))
        ok = ok and all(flags) == is_twin
        ok = ok and report.verdict == is_twin
        if is_twin:
            n_twins += 1
        else:
            n_non += 1
    ok = ok and n_twins >= 500 and n_non >= 500
    _announce(capsys, 8, "twin-condition equivalence", ok)


def test_acceptance_09_entropy_of_coherence(capsys):
    ok = True
    for k in range(300):
        dims = T.Dims(*DIM_PAIRS[k % len(DIM_PAIRS)])
        d = dims.total
        # complete observable on a mixed state: E_C = H(A) - S(rho)
        rho = T.validate_density(
            T.sample_random_density(dims, rank=(k % (d - 1)) + 2, seed=k, stream=291)
        )
        obs = T.sample_random_observable(d, seed=k, stream=292)
        dec = T.coherence_decomposition(obs, rho)
        e_c = T.entropy_of_coherence(obs, rho)
        ok = ok and abs(e_c - (dec.h_observable - T.von_neumann_entropy(rho))) < 1e-9

        # any observable on a pure state: E_C = H(A)
        phi = T.sample_random_pure(dims, seed=k, stream=293)
        pure = T.validate_density(np.outer(phi, phi.conj()))
        obs2 = T.sample_random_observable(d, seed=k, stream=294, complete=k % 2 == 0)
        dec2 = T.coherence_decomposition(obs2, pure)
        ok = ok and abs(T.entropy_of_coherence(obs2, pure) - dec2.h_observable) < 1e-9

        # complete observable on a pure state: E_C is the amplitude entropy
        basis = T.sample_random_unitary(d, seed=k, stream=295)
        obs3 = T.observable_from_basis(basis)
        amplitudes = np.abs(basis.conj().T @ phi) ** 2
        ok = ok and abs(
            T.entropy_of_coherence(obs3, pure) - T.shannon_entropy(amplitudes)
        ) < 1e-9

        # zero exactly for commuting pairs
        eigbasis = np.linalg.eigh(rho.matrix)[1]
        commuting = T.observable_from_basis(eigbasis)
        m = commuting.matrix()
        ok = ok and frobenius(m @ rho.matrix - rho.matrix @ m) < 1e-12
        ok = ok and T.entropy_of_coherence(commuting, rho) < 1e-9
        m3 = obs3.matrix()
        if frobenius(m3 @ rho.matrix - rho.matrix @ m3) >= 1e-12:
            ok = ok and T.entropy_of_coherence(obs3, rho) >= 1e-9
    _announce(capsys, 9, "entropy of coherence special cases", ok)


def test_acceptance_10_strong_algebraic_relation(capsys, corpus_reports):
    ok = True
    checked = 0
    for (state, a1, b2, is_twin), report in corpus_reports:
        if not is_twin:
            continue
        ok = ok and report.strong_algebraic_residual is not None
        ok = ok and report.strong_algebraic_residual < 1e-10
        checked += 1
    ok = ok and checked >= 500
    _announce(capsys, 10, "strong algebraic relation", ok)


def test_acceptance_11_lieb_bound(capsys):
    worst = -np.inf
    for d1, d2 in DIM_PAIRS:
        dims = T.Dims(d1, d2)
        for k in range(1000):
            state = random_state(dims, rank=(k % dims.total) + 1, seed=k, stream=301)
            s1 = T.von_neumann_entropy(state.rho1)
            s2 = T.von_neumann_entropy(state.rho2)
            worst = max(worst, T.mutual_information(state) - 2.0 * min(s1, s2))
    _announce(capsys, 11, "mutual information bounded by twice either entropy", worst <= 1e-9)


def test_acceptance_12_cli_determinism(capsys, tmp_path):
    args = [
        sys.executable,
        "-m",
        "twinfo.cli",
        "sweep",
        "--out",
        str(tmp_path / "violations"),
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout
    summary = json.loads(first.stdout)
    ok = ok and summary["total_violations"] == 0
    _announce(capsys, 12, "CLI sweep determinism and clean default run", ok)
