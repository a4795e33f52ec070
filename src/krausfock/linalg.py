"""Dense complex linear algebra primitives shared across the package.

Matrices are plain ``numpy.ndarray`` objects with complex128 entries in
row-major layout.  Every routine is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "SingularMatrixError",
    "as_matrix",
    "kron",
    "orthonormal_range",
    "numerical_rank",
    "partial_trace_right",
    "partial_trace_left",
    "psd_inverse",
    "operator_norm",
    "kron_power_apply",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    rank_rel_tol
        Singular values below ``rank_rel_tol * s_max`` count as zero when
        ranks and kernels are decided.
    residual_tol
        Acceptable norm for residuals of identities that hold exactly in
        exact arithmetic.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        if self.rank_rel_tol <= 0.0 or self.residual_tol <= 0.0:
            raise ValueError("tolerances must be strictly positive")


class SingularMatrixError(ValueError):
    """A matrix required to be positive definite is numerically singular."""


def as_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a 2-d complex array and reject non-finite entries."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def kron(a, b, max_entries: int | None = None) -> np.ndarray:
    """Kronecker product with an optional size guard on the result."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max_entries is not None and rows * cols > max_entries:
        raise ValueError(
            f"kron result {rows}x{cols} exceeds the budget of {max_entries} entries"
        )
    return np.kron(a, b)


def orthonormal_range(columns, tol: Tolerances | None = None) -> np.ndarray:
    """Isometry whose columns form an orthonormal basis of ``range(columns)``.

    The column count equals the numerical rank at ``tol.rank_rel_tol``.  An
    all-zero input yields a matrix with zero columns.
    """
    tol = tol or Tolerances()
    a = as_matrix(columns)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    rank = int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))
    return u[:, :rank]


def numerical_rank(a, tol: Tolerances | None = None) -> int:
    """Number of singular values above ``rank_rel_tol`` times the largest."""
    tol = tol or Tolerances()
    s = np.linalg.svd(as_matrix(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))


def _check_product_shape(a: np.ndarray, dim_left: int, dim_right: int) -> None:
    expected = dim_left * dim_right
    if a.shape != (expected, expected):
        raise ValueError(
            f"expected a {expected}x{expected} matrix on a {dim_left}x{dim_right} "
            f"tensor product, got shape {a.shape}"
        )


def partial_trace_right(m, dim_left: int, dim_right: int) -> np.ndarray:
    """Trace out the right tensor factor of an operator on ``H_left ⊗ H_right``."""
    a = as_matrix(m)
    _check_product_shape(a, dim_left, dim_right)
    t = a.reshape(dim_left, dim_right, dim_left, dim_right)
    return np.einsum("ikjk->ij", t)


def partial_trace_left(m, dim_left: int, dim_right: int) -> np.ndarray:
    """Trace out the left tensor factor of an operator on ``H_left ⊗ H_right``."""
    a = as_matrix(m)
    _check_product_shape(a, dim_left, dim_right)
    t = a.reshape(dim_left, dim_right, dim_left, dim_right)
    return np.einsum("kikj->ij", t)


def operator_norm(a) -> float:
    """Largest singular value; zero for empty matrices."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def psd_inverse(m, tol: Tolerances | None = None, label: str = "matrix") -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix via eigendecomposition.

    Raises :class:`SingularMatrixError` when the smallest eigenvalue falls
    below ``rank_rel_tol`` times the largest, naming ``label`` in the message.
    """
    tol = tol or Tolerances()
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{label} must be square, got shape {a.shape}")
    gap = operator_norm(a - a.conj().T)
    if gap > tol.residual_tol * max(1.0, operator_norm(a)):
        raise ValueError(f"{label} is not Hermitian (asymmetry {gap:.3e})")
    h = (a + a.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    if w[-1] <= 0.0 or w[0] <= tol.rank_rel_tol * w[-1]:
        raise SingularMatrixError(
            f"singular correlation: {label} has eigenvalue {w[0]:.3e}, "
            f"below {tol.rank_rel_tol:.1e} of the largest {w[-1]:.3e}"
        )
    return (v / w) @ v.conj().T


def kron_power_apply(op, power: int, mat) -> np.ndarray:
    """Apply the ``power``-fold Kronecker power of ``op`` to columns of ``mat``.

    Equivalent to ``kron(op, ..., op) @ mat`` without forming the big matrix.
    """
    op = as_matrix(op)
    mat = as_matrix(mat)
    n = op.shape[0]
    if op.shape[1] != n:
        raise ValueError("operator must be square")
    if mat.shape[0] != n**power:
        raise ValueError(
            f"matrix has {mat.shape[0]} rows, expected {n}**{power} = {n**power}"
        )
    cols = mat.shape[1]
    t = mat.reshape((n,) * power + (cols,))
    for axis in range(power):
        t = np.tensordot(op, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    return t.reshape(n**power, cols)
