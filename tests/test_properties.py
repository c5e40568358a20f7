"""Property tests of the suprema and the measurement-information chain.

Examples are drawn deterministically (``derandomize=True``), so the suite
runs the same cases on every run; states, bases and observables come from
seeded twinfo samplers at d <= 3, and up to 4x4 for the local-unitary
invariances of the suprema, the mutual information and the twin checks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import twinfo as T
from twinfo.kernels import info_gain_side1, joint_mutual_info, swap_sides
from twinfo.optimize import AGREE_TOL

from conftest import random_state

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=20)
CFG = T.OptimizationConfig(restarts=4, seed=0)
CHAIN_SLACK = 1e-10

dims_st = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]).map(lambda d: T.Dims(*d))
local_dims_st = st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 4)]).map(lambda d: T.Dims(*d))
suprema_dims_st = st.sampled_from(
    [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3), (4, 4)]
).map(lambda d: T.Dims(*d))
seed_st = st.integers(0, 2**16)


@st.composite
def states(draw, dims_strategy=dims_st):
    dims = draw(dims_strategy)
    rank = draw(st.integers(1, dims.total))
    return random_state(dims, rank, draw(seed_st))


def _bases(dims: T.Dims, seed: int):
    return (
        np.ascontiguousarray(T.sample_random_unitary(dims.d1, seed, stream=1)),
        np.ascontiguousarray(T.sample_random_unitary(dims.d2, seed, stream=2)),
    )


def _rotated(state: T.BipartiteState, u1: np.ndarray, u2: np.ndarray) -> T.BipartiteState:
    local = T.tensor_product(u1, u2)
    return T.make_bipartite(local @ state.rho12.matrix @ local.conj().T, state.dims)


def _rotated_observable(sobs: T.SubsystemObservable, u: np.ndarray) -> T.SubsystemObservable:
    matrix = u @ sobs.observable.matrix() @ u.conj().T
    return T.SubsystemObservable(T.observable_from_matrix(matrix), sobs.subsystem)


@PROPERTY
@given(state=states(suprema_dims_st), seed=seed_st)
def test_suprema_invariant_under_local_unitaries(state, seed):
    rotated = _rotated(state, *_bases(state.dims, seed))
    for sup in (
        lambda s: T.sup_information_gain(s, 1, CFG),
        lambda s: T.sup_information_gain(s, 2, CFG),
        lambda s: T.sup_joint_mutual_information(s, CFG),
    ):
        assert abs(sup(rotated).value - sup(state).value) <= AGREE_TOL


@PROPERTY
@given(state=states(), seed=seed_st)
def test_joint_mutual_info_swap_symmetric(state, seed):
    dims = state.dims
    rho = np.ascontiguousarray(state.rho12.matrix)
    u1, u2 = _bases(dims, seed)
    forward = float(joint_mutual_info(rho, u1, u2))
    swapped = float(joint_mutual_info(swap_sides(rho, dims.d1, dims.d2), u2, u1))
    assert abs(forward - swapped) <= 1e-12


@PROPERTY
@given(state=states(), seed=seed_st)
def test_measured_informations_obey_the_chain(state, seed):
    dims = state.dims
    rho = np.ascontiguousarray(state.rho12.matrix)
    u1, u2 = _bases(dims, seed)
    joint = float(joint_mutual_info(rho, u1, u2))
    gain = float(info_gain_side1(rho, u1, dims.d2))
    limit = min(T.mutual_information(state), T.von_neumann_entropy(state.rho2))
    assert -CHAIN_SLACK <= joint <= gain + CHAIN_SLACK
    assert gain <= limit + CHAIN_SLACK


@PROPERTY
@given(state=states(local_dims_st), seed=seed_st)
def test_mutual_information_invariant_under_local_unitaries(state, seed):
    rotated = _rotated(state, *_bases(state.dims, seed))
    assert abs(T.mutual_information(rotated) - T.mutual_information(state)) <= 1e-10


@st.composite
def twin_instances(draw):
    """``(state, a1, b2, is_twin)``: Schmidt twins of a pure state or of its
    dephased state, or random rank-k observables on a random state
    (``is_twin`` None, since small dimensions can make those twins too)."""
    dims = draw(local_dims_st)
    seed = draw(seed_st)
    family = draw(st.sampled_from(["pure", "dephased", "random"]))
    if family == "random":
        state = draw(states(st.just(dims)))
        a1 = T.SubsystemObservable(
            T.sample_random_observable(dims.d1, seed, stream=11, complete=False), 1
        )
        b2 = T.SubsystemObservable(
            T.sample_random_observable(dims.d2, seed, stream=12, complete=False), 2
        )
        return state, a1, b2, None
    phi = T.sample_random_pure(dims, seed)
    a1, b2 = T.construct_pure_twins(phi, dims)
    if family == "pure":
        return T.bipartite_from_pure(phi, dims), a1, b2, True
    return T.dephase_in_schmidt_basis(phi, dims), a1, b2, True


@settings(PROPERTY, max_examples=40)
@given(instance=twin_instances(), seed=seed_st)
def test_twin_verdict_and_pairing_invariant_under_local_unitaries(instance, seed):
    state, a1, b2, is_twin = instance
    u1, u2 = _bases(state.dims, seed)
    report = T.verify_twins(state, a1, b2)
    rotated = T.verify_twins(
        _rotated(state, u1, u2), _rotated_observable(a1, u1), _rotated_observable(b2, u2)
    )
    if is_twin:
        assert report.verdict
    assert rotated.verdict == report.verdict
    assert rotated.pairing == report.pairing
