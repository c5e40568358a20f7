"""Closed-form reference values for two-qubit Bell-diagonal states.

A Bell-diagonal state is rho = (1 + sum_j c_j sigma_j (x) sigma_j) / 4.  Luo,
PRA 77, 042303 (2008), gives its classical correlation (the supremum of the
one-sided information gain over complete bases) and its quantum discord in
closed form.  Both are invariant under local unitaries, so they also serve as
oracles for locally rotated Bell-diagonal states.
"""

from __future__ import annotations

import math

# Correlation vectors (c_1, c_2, c_3) of the Bell states Phi+, Phi-, Psi+, Psi-.
BELL_CORRELATIONS = ((1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0))


def correlations_from_weights(weights) -> tuple:
    """(c_1, c_2, c_3) of the mixture sum_k w_k |beta_k><beta_k| of the Bell states."""
    return tuple(
        sum(w * c[j] for w, c in zip(weights, BELL_CORRELATIONS)) for j in range(3)
    )


def _xlog2x(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def bell_diagonal_mutual_information(c) -> float:
    """I(1:2) = 2 - S(rho); both reductions are maximally mixed."""
    c1, c2, c3 = c
    eigenvalues = (
        (1 - c1 - c2 - c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 - c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
    )
    return 2.0 + sum(_xlog2x(lam) for lam in eigenvalues)


def bell_diagonal_classical_correlation(c) -> float:
    """Supremum of the information gain from measuring either qubit."""
    m = max(abs(x) for x in c)
    return (_xlog2x(1 - m) + _xlog2x(1 + m)) / 2.0


def bell_diagonal_discord(c) -> float:
    """Quantum discord of a Bell-diagonal state (Luo 2008), in bits."""
    return bell_diagonal_mutual_information(c) - bell_diagonal_classical_correlation(c)
