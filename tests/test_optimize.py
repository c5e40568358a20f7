import numpy as np
import pytest

import twinfo as T
import twinfo.optimize as O
from twinfo.kernels import info_gain_side1, joint_mutual_info, swap_sides
from twinfo.sampling import sample_random_unitaries

from conftest import SIGMA_X, SIGMA_Z, bell_vector, product_state, random_state, werner_state

# Closed-form values for the Werner state at w = 0.5: every measured qubit
# basis yields conditional spectrum ((1+w)/2, (1-w)/2), so the optimal gain
# is 1 - h(0.75); the composite spectrum is (0.625, 0.125 x3).
WERNER_GAIN = 0.18872187554086717
WERNER_MI = 0.45120505930460153
WERNER_DISCORD = 0.26248318376373436

FAST = T.OptimizationConfig(restarts=4, seed=0)


def test_kernel_objectives_match_module_operations():
    dims = T.Dims(2, 3)
    state = random_state(dims, rank=4, seed=31)
    rho = np.ascontiguousarray(state.rho12.matrix)
    u1 = np.ascontiguousarray(T.sample_random_unitary(2, seed=32))
    u2 = np.ascontiguousarray(T.sample_random_unitary(3, seed=33))
    a1 = T.SubsystemObservable(T.observable_from_basis(u1), 1)
    b2 = T.SubsystemObservable(T.observable_from_basis(u2), 2)
    assert float(info_gain_side1(rho, u1, 3)) == pytest.approx(
        T.information_gain(state, a1), abs=1e-11
    )
    assert float(joint_mutual_info(rho, u1, u2)) == pytest.approx(
        T.joint_mutual_information(T.joint_distribution(state, a1, b2)), abs=1e-11
    )


def test_sup_information_gain_product_state():
    state = product_state(T.Dims(2, 2), seed=34)
    result = T.sup_information_gain(state, 1, FAST)
    assert result.value < 1e-9


@pytest.mark.parametrize("side", [1, 2])
def test_sup_information_gain_pure_state_reaches_entropy(side):
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=35)
    state = T.bipartite_from_pure(phi, dims)
    s1 = T.von_neumann_entropy(state.rho1)
    result = T.sup_information_gain(state, side, FAST)
    assert result.value == pytest.approx(s1, abs=1e-6)


def test_sup_information_gain_dephased_state():
    dims = T.Dims(3, 3)
    phi = T.sample_random_pure(dims, seed=36)
    state = T.dephase_in_schmidt_basis(phi, dims)
    s1 = T.von_neumann_entropy(state.rho1)
    result = T.sup_information_gain(state, 1, FAST)
    assert result.value == pytest.approx(s1, abs=1e-6)


def _check_restart_values(result, cfg, grid_ran):
    """One value per restart, the grid's last; the value is their clamped maximum."""
    values = result.restart_values
    assert len(values) == cfg.restarts + grid_ran
    assert result.value == max(max(values), 0.0)
    best = max(values)
    assert result.restarts_agreeing == sum(1 for v in values if v >= best - O.AGREE_TOL)


def test_sup_result_bounds():
    dims = T.Dims(2, 2)
    gridded = T.OptimizationConfig(restarts=FAST.restarts, seed=FAST.seed, grid_refine=True)
    for seed in range(5):
        state = random_state(dims, rank=(seed % 4) + 1, seed=seed, stream=83)
        mi = T.mutual_information(state)
        s2 = T.von_neumann_entropy(state.rho2)
        for cfg in (FAST, gridded):
            result = T.sup_information_gain(state, 1, cfg)
            assert 0.0 <= result.value <= min(mi, s2) + 1e-6
            assert 1 <= result.restarts_agreeing <= FAST.restarts + 1
            _check_restart_values(result, cfg, grid_ran=cfg.grid_refine)


def test_sup_joint_product_state():
    state = product_state(T.Dims(2, 2), seed=37)
    result = T.sup_joint_mutual_information(state, T.OptimizationConfig(restarts=2, seed=0))
    assert result.value < 1e-9


def test_sup_joint_bell_and_pure():
    cfg = T.OptimizationConfig(restarts=2, seed=0, grid_refine=True)  # the joint ascent has no grid
    bell = T.bipartite_from_pure(bell_vector(), T.Dims(2, 2))
    result = T.sup_joint_mutual_information(bell, cfg)
    assert result.value == pytest.approx(1.0, abs=1e-6)
    _check_restart_values(result, cfg, grid_ran=False)
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=38)
    state = T.bipartite_from_pure(phi, dims)
    s1 = T.von_neumann_entropy(state.rho1)
    result = T.sup_joint_mutual_information(state, cfg)
    assert result.value == pytest.approx(s1, abs=1e-6)
    _check_restart_values(result, cfg, grid_ran=False)


def test_sup_joint_bounded_by_one_sided_gains():
    dims = T.Dims(2, 2)
    for seed in range(4):
        state = random_state(dims, rank=4, seed=seed, stream=89)
        joint = T.sup_joint_mutual_information(state, T.OptimizationConfig(restarts=2, seed=1))
        for side in (1, 2):
            gain = T.sup_information_gain(state, side, FAST)
            assert joint.value <= gain.value + 1e-6


def test_quantum_discord_dephased_is_zero():
    dims = T.Dims(2, 2)
    phi = T.sample_random_pure(dims, seed=39)
    state = T.dephase_in_schmidt_basis(phi, dims)
    assert abs(T.quantum_discord(state, "1to2", FAST)) < 1e-6


def test_quantum_discord_pure_state_is_entanglement_entropy():
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=40)
    state = T.bipartite_from_pure(phi, dims)
    s1 = T.von_neumann_entropy(state.rho1)
    assert T.quantum_discord(state, "1to2", FAST) == pytest.approx(s1, abs=1e-6)
    assert T.quantum_discord(state, "2to1", FAST) == pytest.approx(s1, abs=1e-6)


def test_quantum_discord_rejects_bad_direction():
    state = product_state(T.Dims(2, 2), seed=41)
    with pytest.raises(ValueError):
        T.quantum_discord(state, "sideways", FAST)


def test_werner_discord_against_grid_and_closed_form():
    state = werner_state(0.5)
    cfg = T.OptimizationConfig(restarts=8, seed=2)
    sup = T.sup_information_gain(state, 1, cfg)
    grid_value, _ = T.grid_information_gain_qubit(state, 1)
    assert abs(sup.value - grid_value) < 1e-4
    assert sup.value == pytest.approx(WERNER_GAIN, abs=1e-6)
    discord = T.quantum_discord(state, "1to2", cfg)
    assert abs(discord - (WERNER_MI - grid_value)) < 1e-4
    assert discord == pytest.approx(WERNER_DISCORD, abs=1e-6)
    assert T.mutual_information(state) == pytest.approx(WERNER_MI, abs=1e-10)


def _bell_diagonal(c, rotate):
    """(1 + sum_i c_i sigma_i (x) sigma_i) / 4, optionally under a seeded local unitary."""
    paulis = (SIGMA_X, np.array([[0, -1j], [1j, 0]]), SIGMA_Z)
    m = (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, paulis))) / 4
    if rotate:
        u = T.tensor_product(T.sample_random_unitary(2, 8, 0), T.sample_random_unitary(2, 8, 1))
        m = u @ m @ u.conj().T
    return T.make_bipartite(m, T.Dims(2, 2))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "c, rotate",
    [
        pytest.param((0.5, -0.5, 0.5), False, id="werner"),
        # |c_1| and |c_2| differ by 3e-5: the maximum sits on a nearly flat ridge.
        pytest.param((-0.40994, 0.40991, 0.2913), True, id="near-degenerate"),
    ],
)
def test_bell_diagonal_gain_matches_closed_form(c, rotate, seed):
    # Luo, PRA 77, 042303 (2008): the best gain is 1 - h((1 + c) / 2), c = max |c_i|.
    state = _bell_diagonal(c, rotate)
    cmax = max(abs(x) for x in c)
    exact = 0.5 * ((1 - cmax) * np.log2(1 - cmax) + (1 + cmax) * np.log2(1 + cmax))
    result = T.sup_information_gain(state, 1, T.OptimizationConfig(restarts=4, seed=seed))
    assert result.converged
    assert result.evaluations <= 400
    assert abs(result.value - exact) < 1e-10


def test_grid_oracle_requires_qubit():
    state = random_state(T.Dims(3, 3), rank=9, seed=42)
    with pytest.raises(ValueError):
        T.grid_information_gain_qubit(state, 1)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
@pytest.mark.parametrize("side", [0, 3])
def test_grid_and_sup_reject_a_side_that_does_not_exist(dims, side):
    state = random_state(T.Dims(*dims), rank=2, seed=66)
    for call in (T.grid_information_gain_qubit, T.sup_information_gain):
        with pytest.raises(ValueError, match=f"side must be 1 or 2, got {side}"):
            call(state, side)


def test_more_restarts_never_decrease_value():
    state = random_state(T.Dims(2, 2), rank=4, seed=43)
    small = T.sup_information_gain(state, 1, T.OptimizationConfig(restarts=3, seed=7))
    large = T.sup_information_gain(state, 1, T.OptimizationConfig(restarts=9, seed=7))
    assert large.value >= small.value - 1e-12


def test_grid_refine_floor():
    state = random_state(T.Dims(2, 2), rank=3, seed=44)
    cfg = T.OptimizationConfig(restarts=3, seed=3, grid_refine=True)
    result = T.sup_information_gain(state, 1, cfg)
    grid_value, _ = T.grid_information_gain_qubit(state, 1)
    assert result.value >= grid_value - 1e-6


def test_local_unitary_invariance():
    dims = T.Dims(2, 2)
    cfg = T.OptimizationConfig(restarts=3, seed=5, grid_refine=True)
    for seed in range(3):
        state = random_state(dims, rank=4, seed=seed, stream=97)
        u1 = T.sample_random_unitary(2, seed=seed, stream=98)
        u2 = T.sample_random_unitary(2, seed=seed, stream=99)
        conj = T.tensor_product(u1, u2)
        rotated = T.make_bipartite(conj @ state.rho12.matrix @ conj.conj().T, dims)
        v0 = T.sup_information_gain(state, 1, cfg).value
        v1 = T.sup_information_gain(rotated, 1, cfg).value
        assert abs(v0 - v1) < 1e-6
    # exact optimum for pure states on both sides of the conjugation
    dims = T.Dims(2, 3)
    phi = T.sample_random_pure(dims, seed=45)
    state = T.bipartite_from_pure(phi, dims)
    u1 = T.sample_random_unitary(2, seed=46)
    u2 = T.sample_random_unitary(3, seed=47)
    conj = T.tensor_product(u1, u2)
    rotated = T.make_bipartite(conj @ state.rho12.matrix @ conj.conj().T, dims)
    v0 = T.sup_information_gain(state, 1, FAST).value
    v1 = T.sup_information_gain(rotated, 1, FAST).value
    assert abs(v0 - v1) < 1e-6


def test_optimizer_is_deterministic():
    state = random_state(T.Dims(2, 2), rank=4, seed=48)
    cfg = T.OptimizationConfig(restarts=4, seed=9)
    a = T.sup_information_gain(state, 1, cfg)
    b = T.sup_information_gain(state, 1, cfg)
    assert a.value == b.value
    np.testing.assert_array_equal(a.argmax_basis, b.argmax_basis)


def test_config_validation():
    with pytest.raises(ValueError, match=r"^restarts must be >= 1, got 0$"):
        T.OptimizationConfig(restarts=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        T.OptimizationConfig(seed=-1)


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": float("nan"), "restarts": 3}, "seed must be an integer, got nan"),
    ({"seed": 1.5, "restarts": 2}, "seed must be an integer, got 1.5"),
    ({"restarts": 2.5}, "restarts must be an integer, got 2.5"),
    ({"restarts": "3"}, "restarts must be an integer, got '3'"),
    ({"restarts": True}, "restarts must be an integer, got True"),
    ({"seed": False}, "seed must be an integer, got False"),
])
def test_config_rejects_non_integers(kwargs, message):
    with pytest.raises(TypeError) as info:
        T.OptimizationConfig(**kwargs)
    assert str(info.value) == message


def test_config_takes_numpy_integers():
    cfg = T.OptimizationConfig(restarts=np.int64(3), seed=np.uint8(2))
    assert (cfg.restarts, cfg.seed) == (3, 2)


@pytest.mark.parametrize("grid_refine", ["no", 1, None])
def test_config_requires_a_bool_grid_refine(grid_refine):
    # A truthy non-bool such as "no" would otherwise turn the grid on.
    with pytest.raises(TypeError) as info:
        T.OptimizationConfig(grid_refine=grid_refine)
    assert str(info.value) == f"grid_refine must be a bool, got {grid_refine!r}"
    assert T.OptimizationConfig(grid_refine=np.bool_(True)).grid_refine


SUPREMA_CALLS = {
    "sup_information_gain": lambda state, cfg: T.sup_information_gain(state, 1, cfg),
    "sup_joint_mutual_information": lambda state, cfg: T.sup_joint_mutual_information(state, cfg),
    "quantum_discord": lambda state, cfg: T.quantum_discord(state, "1to2", cfg),
}


@pytest.mark.parametrize("name", sorted(SUPREMA_CALLS))
@pytest.mark.parametrize("cfg", [None, {"restarts": 4}], ids=["none", "dict"])
def test_suprema_reject_a_config_of_another_type(name, cfg):
    with pytest.raises(TypeError) as info:
        SUPREMA_CALLS[name](werner_state(0.5), cfg)
    assert str(info.value) == f"cfg must be an OptimizationConfig, got {cfg!r}"


# ------------------------------------------------------- gradient ascent on U(d)

GRADIENT_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]


def _rank_cases(d1, d2):
    """Full-rank, rank-deficient and pure states at d1 x d2."""
    dims = T.Dims(d1, d2)
    return [random_state(dims, rank, seed=10 * d1 + d2, stream=rank) for rank in (d1 * d2, 2, 1)]


def _rotation(a):
    """exp(a) for a skew-Hermitian ``a``."""
    w, v = np.linalg.eigh(1j * a)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _random_skew(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g - g.conj().T


@pytest.mark.parametrize("d1, d2", GRADIENT_DIMS)
def test_gain_gradient_matches_central_differences(d1, d2):
    # Along U(t) = exp(tB) U the derivative of the gain is Re <A, B>.
    rng = np.random.default_rng(d1 * 7 + d2)
    h = 1e-6
    for state in _rank_cases(d1, d2):
        r = state.rho12.matrix.reshape(d1, d2, d1, d2)
        s_opp = O._opposite_entropy(r)
        u = T.sample_random_unitary(d1, seed=d1 + d2)
        _, parts = O._gain_terms(r, s_opp, u)
        a = O._gain_direction(r, u, parts)
        b = _random_skew(d1, rng)
        plus = O._gain_terms(r, s_opp, _rotation(h * b) @ u)[0]
        minus = O._gain_terms(r, s_opp, _rotation(-h * b) @ u)[0]
        analytic = np.vdot(a, b).real
        assert (plus - minus) / (2 * h) == pytest.approx(analytic, abs=1e-6 * (1 + abs(analytic)))


@pytest.mark.parametrize("d1, d2", GRADIENT_DIMS)
def test_joint_gradient_matches_central_differences(d1, d2):
    rng = np.random.default_rng(d1 * 11 + d2)
    h = 1e-6
    for state in _rank_cases(d1, d2):
        r = state.rho12.matrix.reshape(d1, d2, d1, d2)
        us = (T.sample_random_unitary(d1, seed=d1), T.sample_random_unitary(d2, seed=d2 + 50))
        _, parts = O._joint_terms(r, us)
        a1, a2 = O._joint_directions(r, us, parts)
        b1, b2 = _random_skew(d1, rng), _random_skew(d2, rng)
        plus = O._joint_terms(r, (_rotation(h * b1) @ us[0], _rotation(h * b2) @ us[1]))[0]
        minus = O._joint_terms(r, (_rotation(-h * b1) @ us[0], _rotation(-h * b2) @ us[1]))[0]
        analytic = np.vdot(a1, b1).real + np.vdot(a2, b2).real
        assert (plus - minus) / (2 * h) == pytest.approx(analytic, abs=1e-6 * (1 + abs(analytic)))


@pytest.mark.parametrize("d1, d2", GRADIENT_DIMS)
def test_ascent_objectives_match_kernels(d1, d2):
    for state in _rank_cases(d1, d2):
        rho = np.ascontiguousarray(state.rho12.matrix)
        r = rho.reshape(d1, d2, d1, d2)
        u1 = np.ascontiguousarray(T.sample_random_unitary(d1, seed=60))
        u2 = np.ascontiguousarray(T.sample_random_unitary(d2, seed=61))
        gain = O._gain_terms(r, O._opposite_entropy(r), u1)[0]
        assert abs(gain - float(info_gain_side1(rho, u1, d2))) < 1e-12
        joint = O._joint_terms(r, (u1, u2))[0]
        assert abs(joint - float(joint_mutual_info(rho, u1, u2))) < 1e-12


def test_sup_information_gain_converges_at_5x5():
    state = random_state(T.Dims(5, 5), rank=25, seed=62)
    result = T.sup_information_gain(state, 1, T.OptimizationConfig(restarts=8, seed=0))
    assert result.converged
    assert result.grad_norm < 1e-6
    assert result.evaluations >= 8


def test_sup_joint_reports_stationarity():
    state = random_state(T.Dims(3, 3), rank=9, seed=63)
    result = T.sup_joint_mutual_information(state, T.OptimizationConfig(restarts=2, seed=0))
    assert result.converged
    assert result.grad_norm < 1e-6
    u1, u2 = result.argmax_basis
    assert result.value == pytest.approx(
        float(joint_mutual_info(np.ascontiguousarray(state.rho12.matrix), u1, u2)),
        abs=1e-12,
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sup_joint_pure_state_stationary_and_bounded(d):
    # The joint supremum of a pure state is S(1), attained in the Schmidt
    # bases.  Near-zero table entries must still count, or restarts climb
    # above S(1) to points that are not stationary.
    dims = T.Dims(d, d)
    for seed in range(3):
        phi = T.sample_random_pure(dims, seed, stream=11)
        state = T.bipartite_from_pure(phi, dims)
        result = T.sup_joint_mutual_information(state, FAST)
        assert result.converged
        assert result.value <= T.entanglement_entropy(phi, dims) + 1e-12


def test_grid_refine_counts_grid_points():
    state = random_state(T.Dims(2, 2), rank=3, seed=64)
    plain = T.sup_information_gain(state, 1, T.OptimizationConfig(restarts=2, seed=0))
    gridded = T.sup_information_gain(
        state, 1, T.OptimizationConfig(restarts=2, seed=0, grid_refine=True)
    )
    # One 41 x 41 scan and four 17 x 17 zooms, plus the gradient at the grid's argmax.
    assert gridded.evaluations == plain.evaluations + 41 * 41 + 4 * 17 * 17 + 1
    assert gridded.restart_values[:-1] == plain.restart_values
    assert gridded.evaluations == T.sup_information_gain(
        state, 1, T.OptimizationConfig(restarts=2, seed=0, grid_refine=True)
    ).evaluations


def _looped_grid(state, side, final_resolution=1e-3):
    """The grid oracle as one kernel call per point, with its point count, for reference."""
    rho = np.ascontiguousarray(state.rho12.matrix)
    d_opp = state.dims.d2 if side == 1 else state.dims.d1
    if side == 2:
        rho = np.ascontiguousarray(swap_sides(rho, state.dims.d1, state.dims.d2))

    def basis(theta, phi):
        c, s, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
        return np.ascontiguousarray(np.array([[c, -s / e], [s * e, c]], dtype=np.complex128))

    t_lo, t_hi, p_lo, p_hi, n = 0.0, np.pi, 0.0, 2 * np.pi, 41
    best = (-np.inf, 0.0, 0.0)
    points = 0
    while True:
        for t in np.linspace(t_lo, t_hi, n):
            for p in np.linspace(p_lo, p_hi, n):
                v = float(info_gain_side1(rho, basis(t, p), d_opp))
                points += 1
                if v > best[0]:
                    best = (v, t, p)
        step_t = (t_hi - t_lo) / (n - 1)
        if step_t <= final_resolution:
            return best[0], basis(best[1], best[2]), points
        _, t_c, p_c = best
        t_lo, t_hi = max(0.0, t_c - 2 * step_t), min(np.pi, t_c + 2 * step_t)
        step_p = (p_hi - p_lo) / (n - 1)
        p_lo, p_hi, n = p_c - 2 * step_p, p_c + 2 * step_p, 17


@pytest.mark.parametrize("dims, side, pole", [((2, 2), 1, False), ((3, 2), 2, False), ((2, 2), 1, True)])
def test_batched_grid_matches_looped_grid(dims, side, pole):
    # A Werner state is flat over the Bloch sphere, so the first point
    # (theta = 0) wins and every zoom window is clipped at the pole.
    state = werner_state(0.5) if pole else random_state(T.Dims(*dims), rank=3, seed=65)
    value, basis = T.grid_information_gain_qubit(state, side)
    ref_value, _, ref_points = _looped_grid(state, side)
    assert abs(value - ref_value) < 1e-12
    assert _grid_of(state, side)[2] == ref_points
    # Antipodal Bloch points are one measurement, so the two argmax points
    # may differ by rounding; the returned basis must attain the value.
    rho = np.ascontiguousarray(state.rho12.matrix)
    d_opp = dims[1] if side == 1 else dims[0]
    if side == 2:
        rho = np.ascontiguousarray(swap_sides(rho, *dims))
    assert abs(float(info_gain_side1(rho, basis, d_opp)) - value) < 1e-12


def _grid_of(state, side):
    """``_grid_search`` on ``state`` measured on ``side``, set up as its callers do."""
    r = O._measured_first(state, side)
    return O._grid_search(r, O._opposite_entropy(r))


def _full_stack_grid(state, side):
    """The grid search with each level on the full ``(N, 2, d*d)`` C+- stack, for reference."""
    r = O._measured_first(state, side)
    d = r.shape[1]
    s_opp = O._opposite_entropy(r)
    rho_opp = np.einsum("abak->bk", r).ravel()
    t = np.einsum("kji,ibjc->kbc", O._PAULI, r).reshape(3, d * d)
    t_lo, t_hi, p_lo, p_hi, n = 0.0, np.pi, 0.0, 2.0 * np.pi, 41
    best = (-np.inf, 0.0, 0.0)
    points = 0
    while True:
        thetas = np.linspace(t_lo, t_hi, n)
        phis = np.linspace(p_lo, p_hi, n)
        m = O._bloch_vectors(thetas, phis) @ t
        c = 0.5 * (rho_opp + np.stack([m, -m], axis=1))
        p = c[..., :: d + 1].sum(axis=-1).real
        if d == 2:
            half_gap = np.hypot(0.5 * (c[..., 0].real - c[..., 3].real), np.abs(c[..., 1]))
            w = 0.5 * p[..., None] + np.stack([half_gap, -half_gap], axis=-1)
        else:
            w = np.linalg.eigvalsh(c.reshape(-1, 2, d, d))
        values = s_opp + O._xlog2x(w).sum(axis=(-2, -1)) - O._xlog2x(p).sum(-1)
        points += n * n
        idx = int(np.argmax(values))
        if values[idx] > best[0]:
            best = (float(values[idx]), thetas[idx // n], phis[idx % n])
        step_t = (t_hi - t_lo) / (n - 1)
        if step_t <= O._GRID_RESOLUTION:
            return best[0], O._bloch_basis(best[1], best[2]), points
        _, t_c, p_c = best
        t_lo, t_hi = max(0.0, t_c - 2 * step_t), min(np.pi, t_c + 2 * step_t)
        step_p = (p_hi - p_lo) / (n - 1)
        p_lo, p_hi, n = p_c - 2 * step_p, p_c + 2 * step_p, 17


GRID_STATES = {
    "werner": lambda: werner_state(0.5),
    # Exact zeros in C+- and in its eigenvalues, and entries clipped at KERNEL_CLIP.
    "product": lambda: T.bipartite_from_pure(np.array([1, 0, 0, 0], dtype=complex), T.Dims(2, 2)),
    "bell": lambda: T.bipartite_from_pure(bell_vector(), T.Dims(2, 2)),
}


@pytest.mark.parametrize("dims, rank, side", [
    *[((2, 2), rank, side) for rank in range(1, 5) for side in (1, 2)],
    pytest.param((2, 2), "werner", 1, id="werner-pole"),
    ((2, 3), 6, 1),
    *[pytest.param((2, 2), name, side, id=f"{name}-{side}")
      for name in ("product", "bell") for side in (1, 2)],
])
def test_grid_search_equals_full_stack_grid_bitwise(dims, rank, side):
    if isinstance(rank, str):
        state = GRID_STATES[rank]()
    else:
        state = random_state(T.Dims(*dims), rank, seed=67)
    value, basis, points = _grid_of(state, side)
    ref_value, ref_basis, ref_points = _full_stack_grid(state, side)
    assert value == ref_value
    assert np.array_equal(basis, ref_basis)
    assert points == ref_points


def test_quantum_discord_goes_through_module_sup(monkeypatch):
    # Callers hook optimize.sup_information_gain to see the supremum behind
    # a discord value; quantum_discord must look that name up at call time.
    seen = []
    inner = O.sup_information_gain

    def keep(*args, **kwargs):
        seen.append(inner(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(O, "sup_information_gain", keep)
    state = werner_state(0.5)
    discord = T.quantum_discord(state, "1to2", FAST)
    assert len(seen) == 1
    assert discord == pytest.approx(WERNER_MI - seen[0].value, abs=1e-15)


# ---------------------------------------------------------- lockstep restarts

LOCKSTEP_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]


def _ascend_alone(evaluate, direction, start):
    """The ascent of one start on unbatched arrays, step for step as the
    lockstep ascent takes it; the reference for its bit identity."""
    us = start
    value, parts = evaluate(us)
    evaluations = 1
    g = np.concatenate([a.ravel() for a in direction(us, parts)]).view(float)
    memory = []
    for _ in range(O._MAX_ITERATIONS):
        norm2 = g @ g
        if norm2 <= O.GRAD_TOL * O.GRAD_TOL:
            break
        if memory:
            q = O._lbfgs_direction(g, memory)
            slope = g @ q
        if not memory or slope <= 0:
            memory.clear()
            q = g / max(1.0, np.sqrt(norm2))
            slope = g @ q
        blocks = np.split(q.view(complex), np.cumsum([u.size for u in us])[:-1])
        eigs = [np.linalg.eigh(1j * x.reshape(u.shape)) for x, u in zip(blocks, us)]
        floor = O._EPS * max(1.0, abs(value))
        step = 1.0
        while True:
            trial = tuple((v * np.exp(-1j * step * w)) @ v.conj().T @ u
                          for (w, v), u in zip(eigs, us))
            trial_value, trial_parts = evaluate(trial)
            evaluations += 1
            if trial_value >= value + O._ARMIJO * step * slope:
                break
            step *= 0.5
            if step * slope <= floor:
                return float(value), us, float(np.sqrt(norm2)), evaluations
        us, value, parts = trial, trial_value, trial_parts
        g_new = np.concatenate([a.ravel() for a in direction(us, parts)]).view(float)
        s, y = step * q, g - g_new
        sy = s @ y
        if sy > 0:
            memory.append((s, y, 1.0 / sy, sy / (y @ y)))
            del memory[:-O._MEMORY]
        g = g_new
    return float(value), us, float(np.sqrt(g @ g)), evaluations


def _lockstep_cases():
    """States at ``LOCKSTEP_DIMS`` of rank 1, 2 and full, as ``(d1, d2, rank, r, state)``."""
    for d1, d2 in LOCKSTEP_DIMS:
        dims = T.Dims(d1, d2)
        for rank in (1, 2, d1 * d2):
            state = random_state(dims, rank, seed=7 * d1 + d2, stream=40 + rank)
            yield d1, d2, rank, state.rho12.matrix.reshape(d1, d2, d1, d2), state


def _stack_starts(d, eigbasis, seed, count):
    # Row 0 is the reduction's eigenbasis, which is stationary for a pure state.
    return O._anchors(count, d, eigbasis, seed, 0)


def test_seeded_starts_are_derived_once_per_config():
    starts = O._haar_starts(5, 3, 7, 1_000)
    assert O._haar_starts(5, 3, 7, 1_000) is starts
    assert starts.tobytes() == sample_random_unitaries(3, 7, range(1_002, 1_005)).tobytes()
    assert not starts.flags.writeable
    with pytest.raises(ValueError):
        starts[0, 0, 0] = 0.0


def test_anchors_copy_the_cached_starts():
    eigbasis = np.eye(3, dtype=complex)
    first = O._anchors(5, 3, eigbasis, 7, 1_000)
    expected = first.tobytes()
    first[:] = 0.0
    assert O._anchors(5, 3, eigbasis, 7, 1_000).tobytes() == expected


def _result_bits(result):
    bases = result.argmax_basis
    bases = bases if isinstance(bases, tuple) else (bases,)
    floats = np.array([result.value, result.grad_norm, *result.restart_values])
    return floats.tobytes(), result.evaluations, [u.tobytes() for u in bases]


def test_a_repeated_supremum_equals_the_first_bit_for_bit():
    # The first call derives the seeded starts, the second reads them from the cache.
    state = random_state(T.Dims(3, 3), rank=9, seed=71)
    cfg = T.OptimizationConfig(restarts=4, seed=1)
    for call in (lambda: T.sup_information_gain(state, 2, cfg),
                 lambda: T.sup_joint_mutual_information(state, cfg)):
        O._haar_starts.cache_clear()
        first = call()
        assert O._haar_starts.cache_info().misses > 0
        assert _result_bits(call()) == _result_bits(first)
        assert O._haar_starts.cache_info().hits > 0


def _assert_same_ascents(lockstep, alone):
    assert len(lockstep) == len(alone)
    for (v0, us0, n0, e0), (v1, us1, n1, e1) in zip(lockstep, alone):
        assert (v0, n0, e0) == (v1, n1, e1)
        assert [u.tobytes() for u in us0] == [np.ascontiguousarray(u).tobytes() for u in us1]


def _gain_problem(r):
    s_opp = O._opposite_entropy(r)
    return (lambda us: O._gain_terms(r, s_opp, us[0]),
            lambda us, parts: (O._gain_direction(r, us[0], parts),))


def _joint_problem(r):
    return (lambda us: O._joint_terms(r, us),
            lambda us, parts: O._joint_directions(r, us, parts))


@pytest.mark.parametrize("max_iterations", [None, 3])
def test_lockstep_ascent_equals_each_start_alone(max_iterations, monkeypatch):
    if max_iterations is not None:
        monkeypatch.setattr(O, "_MAX_ITERATIONS", max_iterations)
    for d1, d2, rank, r, state in _lockstep_cases():
        evaluate, direction = _gain_problem(r)
        starts = _stack_starts(d1, O._eigbasis(state.rho1.matrix), d1 + rank, 4)
        lockstep = O._lockstep_ascent(evaluate, direction, (starts,))
        _assert_same_ascents(lockstep, [_ascend_alone(evaluate, direction, (u,)) for u in starts])
        if rank == 1:
            assert lockstep[0][3] == 1
        if max_iterations is not None and rank == d1 * d2:
            # The cap stops some start before its gradient vanishes.
            assert any(cand[2] > O.GRAD_TOL for cand in lockstep)

        evaluate, direction = _joint_problem(r)
        starts = (_stack_starts(d1, O._eigbasis(state.rho1.matrix), d2, 3),
                  _stack_starts(d2, O._eigbasis(state.rho2.matrix), d1 + 9, 3))
        lockstep = O._lockstep_ascent(evaluate, direction, starts)
        alone = [_ascend_alone(evaluate, direction, pair) for pair in zip(*starts)]
        _assert_same_ascents(lockstep, alone)
        if rank == 1:
            assert lockstep[0][3] == 1


def test_armijo_floor_exit_reports_non_convergence():
    # No trial ever raises the objective along a fixed nonzero ascent direction,
    # so every start halves its step until step * slope falls under the floor.
    skew = np.array([[0, 1], [-1, 0]], dtype=complex)
    calls = {"direction": 0}

    def evaluate(us):
        return np.zeros(len(us[0])), (np.zeros(len(us[0])),)

    def direction(us, parts):
        calls["direction"] += 1
        return (np.broadcast_to(skew, us[0].shape).copy(),)

    starts = (np.stack([np.eye(2, dtype=complex)] * 3),)
    ascents = O._lockstep_ascent(evaluate, direction, starts)
    # One evaluation at the start and 53 halvings from step 1 down to
    # step * sqrt(2) <= eps; no step is accepted, so no new direction is taken.
    assert [cand[3] for cand in ascents] == [54] * 3
    assert calls["direction"] == 1
    result = O._reduce_candidates(ascents)
    assert result.converged is False
    assert result.grad_norm == np.sqrt(2.0)
    assert result.restart_values == (0.0, 0.0, 0.0)


def _rows_equal(batched, alone):
    """Every array of ``batched`` holds the matching array of ``alone`` in its row, bit for bit."""
    flat_b, flat_a = np.asarray(batched), np.asarray(alone)
    assert flat_b.shape == flat_a.shape and flat_b.tobytes() == flat_a.tobytes()


@pytest.mark.parametrize("batch", [1, 2, 3, 4])
def test_batched_objectives_equal_unbatched_rows(batch):
    for d1, d2, rank, r, state in _lockstep_cases():
        s_opp = O._opposite_entropy(r)
        u1 = np.stack([T.sample_random_unitary(d1, seed=batch, stream=i) for i in range(batch)])
        u2 = np.stack([T.sample_random_unitary(d2, seed=batch, stream=9 + i) for i in range(batch)])
        value, parts = O._gain_terms(r, s_opp, u1)
        grad = O._gain_direction(r, u1, parts)
        for k in range(batch):
            value_k, parts_k = O._gain_terms(r, s_opp, u1[k])
            _rows_equal(value[k], value_k)
            for part, part_k in zip(parts, parts_k):
                _rows_equal(part[k], part_k)
            _rows_equal(grad[k], O._gain_direction(r, u1[k], parts_k))
        value, parts = O._joint_terms(r, (u1, u2))
        grads = O._joint_directions(r, (u1, u2), parts)
        for k in range(batch):
            value_k, parts_k = O._joint_terms(r, (u1[k], u2[k]))
            _rows_equal(value[k], value_k)
            for part, part_k in zip(parts, parts_k):
                _rows_equal(part[k], part_k)
            for grad, grad_k in zip(grads, O._joint_directions(r, (u1[k], u2[k]), parts_k)):
                _rows_equal(grad[k], grad_k)
