"""The Bell-diagonal closed form against the Werner constant and the grid oracle."""

import pytest

import twinfo as T
from oracles import (
    bell_diagonal_classical_correlation,
    bell_diagonal_discord,
    bell_diagonal_mutual_information,
)
from workloads import WERNER_DISCORD, _bell_diagonal


def test_reproduces_werner_constant():
    assert bell_diagonal_discord((0.5, -0.5, 0.5)) == pytest.approx(WERNER_DISCORD, abs=1e-12)


@pytest.mark.parametrize("seed,slot", [(0, 0), (0, 1), (3, 2), (7, 3)])
def test_matches_grid_oracle(seed, slot):
    state, c = _bell_diagonal(seed, cycle=0, slot=slot)
    grid_value, _ = T.grid_information_gain_qubit(state, 1)
    assert bell_diagonal_classical_correlation(c) == pytest.approx(grid_value, abs=1e-4)
    assert bell_diagonal_mutual_information(c) == pytest.approx(
        T.mutual_information(state), abs=1e-9)
