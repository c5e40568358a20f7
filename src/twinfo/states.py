"""Validated quantum-state types on a bipartite split ``Dims``, their reductions
(``partial_trace`` checks its input) and Schmidt decomposition."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .kernels import dagger, eigvalsh, frobenius, ptrace_keep1, ptrace_keep2

STATE_TOL = 1e-10
PURITY_TOL = 1e-9
SCHMIDT_CLIP = 1e-10


def as_integer(value, message: str) -> int:
    """``operator.index(value)``; a bool or a non-integer raises ``TypeError(message)``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{message}, got {value!r}")


@dataclass(frozen=True)
class Dims:
    """Subsystem dimensions of a bipartite split."""

    d1: int
    d2: int

    def __post_init__(self):
        for side in (self.d1, self.d2):
            as_integer(side, "subsystem dimensions must be integers")
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.d1}x{self.d2}")

    @property
    def total(self) -> int:
        return self.d1 * self.d2


def partial_trace(m: np.ndarray, dims: Dims, keep: int) -> np.ndarray:
    """Trace out one subsystem, keeping subsystem ``keep`` (1 or 2)."""
    n = dims.total
    if m.shape != (n, n):
        raise ValueError(f"matrix side {m.shape} does not match dims {dims.d1}x{dims.d2}")
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if keep == 1:
        return ptrace_keep1(m, dims.d1, dims.d2)
    if keep == 2:
        return ptrace_keep2(m, dims.d1, dims.d2)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


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
    """Check the state invariants, in order: shape, finite, Hermitian, trace,
    positivity; raise the first that fails, else wrap the Hermitian part of ``m``."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateValidationError("shape", f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise StateValidationError("finite", "matrix has a non-finite (nan or inf) entry")
    # Sums of huge finite entries overflow to inf or nan, which each check fails.
    with np.errstate(over="ignore", invalid="ignore"):
        if not frobenius(m, dagger(m)) <= STATE_TOL:
            raise StateValidationError("hermitian", "matrix is not Hermitian within tolerance")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= STATE_TOL:
            raise StateValidationError("trace", f"trace is {tr:.12g}, expected 1")
        h = (m + dagger(m)) / 2.0
        lam_min = eigvalsh(h)[0]
    if not lam_min >= -STATE_TOL:
        raise StateValidationError("positivity", (
            f"smallest eigenvalue {lam_min:.3e} is negative" if np.isfinite(lam_min)
            else "spectrum is not finite"))
    return DensityOperator(matrix=np.ascontiguousarray(h), dim=m.shape[0])


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
    # For matrices that are valid states by construction: channel outputs, and
    # projectors and Schmidt-dephased states of checked unit vectors.
    rho = _wrap_density(m)
    r1 = _wrap_density(ptrace_keep1(rho.matrix, dims.d1, dims.d2))
    r2 = _wrap_density(ptrace_keep2(rho.matrix, dims.d1, dims.d2))
    return BipartiteState(rho12=rho, dims=dims, rho1=r1, rho2=r2)


def bipartite_from_pure(phi: np.ndarray, dims: Dims) -> BipartiteState:
    """Projector onto a unit vector, as a BipartiteState."""
    phi = _check_unit_vector(phi, dims)
    return _bipartite_unchecked(np.outer(phi, phi.conj()), dims)


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
    with np.errstate(over="ignore"):  # a squared norm beyond the float range is inf
        norm = float(np.linalg.norm(phi))
    # The squared norm is the trace of |phi><phi|, held to the same tolerance.
    if abs(norm * norm - 1.0) > STATE_TOL:
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


def _schmidt_products(form: SchmidtForm) -> np.ndarray:
    """The product vectors |i>_1 |i>_2 of a SchmidtForm, one row each."""
    return (form.basis1.T[:, :, None] * form.basis2.T[:, None, :]).reshape(len(form), -1)


def schmidt_reconstruct(form: SchmidtForm) -> np.ndarray:
    """Rebuild the vector sum_i s_i |i>_1 |i>_2 from a SchmidtForm."""
    return np.sum(form.coefficients[:, None] * _schmidt_products(form), axis=0)
