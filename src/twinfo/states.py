"""Validated quantum-state types, reductions and Schmidt decomposition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Dims, dagger, frobenius, partial_trace

STATE_TOL = 1e-10
PURITY_TOL = 1e-9
SCHMIDT_CLIP = 1e-10


class StateValidationError(ValueError):
    """A matrix or vector violates a state invariant.

    ``invariant`` names the failed check: ``shape``, ``finite``, ``hermitian``,
    ``trace``, ``positivity`` or ``norm``.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(message)
        self.invariant = invariant


@dataclass(frozen=True)
class DensityOperator:
    """A validated quantum state: Hermitian, PSD, unit trace."""

    matrix: np.ndarray
    dim: int


@dataclass(frozen=True)
class BipartiteState:
    """A bipartite state with cached subsystem reductions."""

    rho12: DensityOperator
    dims: Dims
    rho1: DensityOperator
    rho2: DensityOperator


@dataclass(frozen=True)
class SchmidtForm:
    """Biorthogonal expansion of a pure bipartite vector.

    ``coefficients`` are the nonnegative weights in nonincreasing order (their
    squares sum to 1); the columns of ``basis1``/``basis2`` are the matching
    orthonormal subsystem vectors.
    """

    coefficients: np.ndarray
    basis1: np.ndarray
    basis2: np.ndarray

    def __len__(self):
        return len(self.coefficients)


def validate_density(m: np.ndarray) -> DensityOperator:
    """Check the state invariants and wrap ``m`` as a DensityOperator."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError("shape", f"expected a square matrix, got shape {m.shape}")
    h, _ = validate_densities(m[None])
    return DensityOperator(matrix=h[0], dim=m.shape[0])


def validate_densities(m: np.ndarray):
    """Check the state invariants of each matrix in a stack, in order: finite,
    Hermitian, trace, positivity.  Returns the Hermitian parts (the matrices
    ``validate_density`` wraps) and their ascending spectra; a stack with an
    invalid matrix raises the first failed check of the first one."""
    m = np.asarray(m, dtype=np.complex128)
    errors = []

    def cut(passed, error):
        # Each check sees only the matrices before the first one that failed an
        # earlier check: every comparison with NaN is False, and arithmetic on inf
        # warns.  The last error recorded is then the first invalid matrix's.
        nonlocal m
        bad = np.flatnonzero(~passed)
        if len(bad):
            errors.append(error(bad[0]))
            m = m[:bad[0]]

    cut(np.all(np.isfinite(m), axis=(-2, -1)),
        lambda j: StateValidationError("finite", "matrix has a non-finite (nan or inf) entry"))
    # Sums of huge finite entries overflow to inf (or nan), which fails the next check.
    with np.errstate(over="ignore", invalid="ignore"):
        cut(np.array([frobenius(x, dagger(x)) <= STATE_TOL for x in m], dtype=bool),
            lambda j: StateValidationError("hermitian", "matrix is not Hermitian within tolerance"))
        tr = np.trace(m, axis1=-2, axis2=-1).real
        cut(abs(tr - 1.0) <= STATE_TOL,
            lambda j: StateValidationError("trace", f"trace is {tr[j]:.12g}, expected 1"))
        h = (m + dagger(m)) / 2.0
        w = np.linalg.eigvalsh(h)
    cut(w[:, 0] >= -STATE_TOL, lambda j: StateValidationError(
        "positivity", f"smallest eigenvalue {w[j, 0]:.3e} is negative"))
    if errors:
        raise errors[-1]
    return h, w


def _wrap_density(m: np.ndarray) -> DensityOperator:
    # Internal constructor for matrices that are valid states by construction.
    h = np.ascontiguousarray((m + dagger(m)) / 2.0)
    return DensityOperator(matrix=h, dim=m.shape[0])


def make_bipartite(m: np.ndarray, dims: Dims) -> BipartiteState:
    """Validate ``m`` as a state on ``dims`` and cache its reductions."""
    rho = validate_density(m)
    if rho.dim != dims.total:
        raise StateValidationError(
            "shape", f"matrix side {rho.dim} does not match dims {dims.d1}x{dims.d2}"
        )
    return _bipartite_unchecked(rho.matrix, dims)


def _bipartite_unchecked(m: np.ndarray, dims: Dims) -> BipartiteState:
    # For matrices that are valid states by construction (channel outputs).
    rho = _wrap_density(m)
    r1 = _wrap_density(partial_trace(rho.matrix, dims, keep=1))
    r2 = _wrap_density(partial_trace(rho.matrix, dims, keep=2))
    return BipartiteState(rho12=rho, dims=dims, rho1=r1, rho2=r2)


def bipartite_from_pure(phi: np.ndarray, dims: Dims) -> BipartiteState:
    """Projector onto a unit vector, as a BipartiteState."""
    phi = _check_unit_vector(phi, dims)
    return make_bipartite(np.outer(phi, phi.conj()), dims)


def purity_class(rho: DensityOperator) -> str:
    """``"pure"`` iff Tr(rho^2) > 1 - PURITY_TOL, else ``"mixed"``."""
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    return "pure" if purity > 1.0 - PURITY_TOL else "mixed"


def _check_unit_vector(phi: np.ndarray, dims: Dims) -> np.ndarray:
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    if phi.shape[0] != dims.total:
        raise StateValidationError(
            "shape", f"vector length {phi.shape[0]} does not match dims {dims.d1}x{dims.d2}"
        )
    if not np.all(np.isfinite(phi)):
        raise StateValidationError("finite", "vector has a non-finite (nan or inf) entry")
    norm = float(np.linalg.norm(phi))
    if abs(norm - 1.0) > STATE_TOL:
        raise StateValidationError("norm", f"vector norm is {norm:.12g}, expected 1")
    return phi


def schmidt_decompose(phi: np.ndarray, dims: Dims) -> SchmidtForm:
    """Schmidt decomposition of a unit vector via SVD of its coefficient matrix.

    Coefficients below ``SCHMIDT_CLIP`` are dropped.  Phases are fixed so that the
    first nonzero component of every ``basis1`` vector is real nonnegative,
    with the compensating phase absorbed into ``basis2``; the expansion then
    reconstructs ``phi`` exactly rather than only up to a phase.
    """
    phi = _check_unit_vector(phi, dims)
    c = phi.reshape(dims.d1, dims.d2)
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    keep = s > SCHMIDT_CLIP
    s = s[keep]
    basis1 = u[:, keep]
    basis2 = vh[keep, :].T.copy()
    for i in range(basis1.shape[1]):
        col = basis1[:, i]
        j = int(np.argmax(np.abs(col) > 1e-12))
        phase = col[j] / abs(col[j])
        basis1[:, i] = col * phase.conj()
        basis2[:, i] = basis2[:, i] * phase
    return SchmidtForm(coefficients=s, basis1=basis1, basis2=basis2)


def schmidt_reconstruct(form: SchmidtForm) -> np.ndarray:
    """Rebuild the vector sum_i s_i |i>_1 |i>_2 from a SchmidtForm."""
    d1, k = form.basis1.shape
    d2 = form.basis2.shape[0]
    out = np.zeros(d1 * d2, dtype=np.complex128)
    for i in range(k):
        out += form.coefficients[i] * np.kron(form.basis1[:, i], form.basis2[:, i])
    return out
