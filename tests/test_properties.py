"""Property tests of the suprema and the measurement-information chain.

Examples are drawn deterministically (``derandomize=True``), so the suite
runs the same cases on every run; states and bases come from seeded twinfo
samplers at d <= 3.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import twinfo as T
from twinfo.kernels import info_gain_side1, joint_mutual_info, swap_sides
from twinfo.linalg import KERNEL_CLIP
from twinfo.optimize import AGREE_TOL

from conftest import random_state

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=20)
CFG = T.OptimizationConfig(restarts=4, seed=0)
CHAIN_SLACK = 1e-10

dims_st = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]).map(lambda d: T.Dims(*d))
seed_st = st.integers(0, 2**16)


@st.composite
def states(draw):
    dims = draw(dims_st)
    rank = draw(st.integers(1, dims.total))
    return random_state(dims, rank, draw(seed_st))


def _bases(dims: T.Dims, seed: int):
    return (
        np.ascontiguousarray(T.sample_random_unitary(dims.d1, seed, stream=1)),
        np.ascontiguousarray(T.sample_random_unitary(dims.d2, seed, stream=2)),
    )


@PROPERTY
@given(state=states(), seed=seed_st)
def test_suprema_invariant_under_local_unitaries(state, seed):
    dims = state.dims
    local = T.tensor_product(*_bases(dims, seed))
    rotated = T.make_bipartite(local @ state.rho12.matrix @ local.conj().T, dims)
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
    forward = float(joint_mutual_info(rho, u1, u2, KERNEL_CLIP))
    swapped = float(joint_mutual_info(swap_sides(rho, dims.d1, dims.d2), u2, u1, KERNEL_CLIP))
    assert abs(forward - swapped) <= 1e-12


@PROPERTY
@given(state=states(), seed=seed_st)
def test_measured_informations_obey_the_chain(state, seed):
    dims = state.dims
    rho = np.ascontiguousarray(state.rho12.matrix)
    u1, u2 = _bases(dims, seed)
    joint = float(joint_mutual_info(rho, u1, u2, KERNEL_CLIP))
    gain = float(info_gain_side1(rho, u1, dims.d2, KERNEL_CLIP))
    limit = min(T.mutual_information(state), T.von_neumann_entropy(state.rho2))
    assert -CHAIN_SLACK <= joint <= gain + CHAIN_SLACK
    assert gain <= limit + CHAIN_SLACK
