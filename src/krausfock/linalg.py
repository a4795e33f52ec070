"""Dense complex linear algebra primitives shared across the package.

Matrices are plain ``numpy.ndarray`` objects with complex128 entries in
row-major layout.  Every routine is a pure function of its arguments.

:func:`orthonormal_range` decides ranks by one rule on singular values
(:func:`_rank`); the same rule decides full levels and singular correlation
levels.  A wide input ``a`` gives its singular values and range from the
square triangular factor of ``a^T = Q R`` (the R-SVD; T. F. Chan, "An
improved algorithm for computing the singular value decomposition", ACM
TOMS 8 (1982) 72-83), so no right singular vectors are formed.
:func:`_range_unless_full` reaches the rule's decision that a set
of rows spans everything more cheaply far from the threshold: one Cholesky
factorization of the Gram matrix, shifted down by a multiple of its trace,
certifies a full row rank that the rule would also find (S. M. Rump,
"Verification of positive definiteness", BIT 46 (2006) 433-452); only a
failed certificate takes the singular values.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

__all__ = [
    "Tolerances",
    "SingularMatrixError",
    "orthonormal_range",
    "partial_trace_left",
    "operator_norm",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    rank_rel_tol
        Singular values below ``rank_rel_tol * s_max`` count as zero when
        ranks and kernels are decided; it lies in ``(0, 1)``, since at 1
        even ``s_max`` would count as zero.
    residual_tol
        Acceptable norm for residuals of identities that hold exactly in
        exact arithmetic.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        # stored as floats; a bool, a string or a number beyond float range is refused
        for name in ("rank_rel_tol", "residual_tol"):
            value = getattr(self, name)
            try:
                x = float(value) if isinstance(value, Real) and not isinstance(value, bool) else 0.0
            except OverflowError:
                x = 0.0
            if not 0.0 < x < np.inf:
                raise ValueError(f"{name} must be a positive finite real number, got {value!r}")
            object.__setattr__(self, name, x)
        if self.rank_rel_tol >= 1.0:
            raise ValueError(f"rank_rel_tol must be below 1, got {self.rank_rel_tol!r}")


class SingularMatrixError(ValueError):
    """A level correlation matrix is singular: its square-root rows fail the rank rule."""


def as_matrix(x, stacked: bool = False) -> np.ndarray:
    """Coerce ``x`` to a 2-d complex array (a stack if ``stacked``), reject non-finite entries."""
    a = np.asarray(x, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stacked):
        raise ValueError(f"expected a matrix, got an array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _rank(s: np.ndarray, tol: Tolerances) -> int:
    """The rank rule: descending singular values above ``rank_rel_tol * s[0]``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))


def orthonormal_range(columns, tol: Tolerances) -> np.ndarray:
    """Isometry whose columns form an orthonormal basis of ``range(columns)``.

    Takes the leading left singular vectors of ``columns``; their count is
    the numerical rank at ``tol.rank_rel_tol`` (see :func:`_rank`).  An
    empty or all-zero input yields a matrix with zero columns.  An input
    whose largest real or imaginary part is subnormal is first scaled up by
    an exact power of two: LAPACK's singular values of the input as given
    would err by the subnormal spacing, which can move the rank.  One whose
    largest part exceeds ``2^500`` is scaled down alike, so that no column
    norm of the factorizations below overflows.

    A wide ``rows x cols`` input ``a``, ``rows < cols``, is then replaced by
    ``R^T`` from ``a^T = Q R``, ``R`` square: ``a = R^T Q^T`` and ``Q^T`` has
    orthonormal rows, so ``R^T`` has the singular values and left singular
    vectors of ``a``.  The rank rule is read on them unchanged, and the SVD
    forms no right singular vectors of length ``cols``.  A square or tall
    input keeps the SVD of itself, whose range needs ``Q``.
    """
    a = as_matrix(columns)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    top = _largest_part(a)
    if 0.0 < top < np.finfo(float).tiny or top > 2.0**500:
        a = _scaled(a, -np.frexp(top)[1])
    if a.shape[0] < a.shape[1]:
        a = np.linalg.qr(a.T, mode="r").T
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = _rank(s, tol)
    # a copy when columns are dropped, so that the result does not hold all of u
    return u if rank == u.shape[1] else u[:, :rank].copy()


def _largest_part(a: np.ndarray) -> float:
    """The largest absolute real or imaginary part of the complex array ``a``,
    NaN or infinite when a part is; read through a float view, so that no
    copy is made, also of a strided input."""
    parts = a[..., None].view(float)
    return max(parts.max(), -parts.min())


def _scaled(a: np.ndarray, exponent: int) -> np.ndarray:
    """``2^exponent a``, exact, in the memory order of the complex array
    ``a``, which a strided view reads fastest."""
    return np.ldexp(a[..., None].view(float), exponent).view(complex)[..., 0]


def _lower_gram(a: np.ndarray, exponent: int) -> np.ndarray:
    """The lower block triangle of ``b b†``, ``b = 2^exponent a``, with zeros
    above it, formed 64 rows at a time from panels of ``b`` scaled one by one.
    A function of its own, so that the panels are freed when it returns."""
    g = np.zeros((len(a), len(a)), dtype=complex)
    for hi in range(0, len(a), 64):
        left = _scaled(a[hi : hi + 64], exponent)
        for lo in range(0, hi + 1, 64):
            right = left if lo == hi else _scaled(a[lo : lo + 64], exponent)
            g[hi : hi + 64, lo : lo + 64] = left @ right.conj().T
    return g


def _certified_full(a: np.ndarray, tol: Tolerances) -> bool:
    """Whether a Cholesky factorization proves that the ``rows x cols``
    matrix ``a``, ``0 < rows <= cols``, has ``sigma_min / sigma_max > 2 tau``
    (``tau = rank_rel_tol``).

    ``a`` is scaled by a power of two, exactly, so that its largest real or
    imaginary part lies in [0.5, 1); its Gram matrix ``g = a a†`` then neither
    overflows nor underflows.  With ``t = tr g = ||a||_F^2``, ``eps`` the unit
    roundoff and ``shift = (4 tau^2 + 8 (rows + cols + 2) eps) t``, Cholesky
    is run on ``g - shift``.  The computed ``g`` is within about
    ``(cols + 2) eps t`` of the exact Gram matrix in 2-norm, and a Cholesky
    factorization that runs to completion on a Hermitian matrix ``h`` proves
    ``lambda_min(h) > -(rows + 1) eps tr h`` to first order (Rump 2006).  So
    success gives ``sigma_min^2 > 4 tau^2 t + O((rows + cols) eps t)`` with
    ``sigma_max^2 <= t``.  The singular-value ratio then exceeds both
    ``2 tau`` and about ``sqrt(7 (rows + cols) eps)``, a margin far wider
    than the error of computed singular values, so the rank rule finds the
    rows full too.  Failure decides nothing; an input with a non-finite
    entry fails at once.

    Only the lower block triangle of ``g`` is formed, in 64-row panels:
    block ``(i, j)``, ``j <= i``, is the product of row panels ``i`` and
    ``j`` of ``a``, each scaled on its own by the same power of two, so every
    entry is an inner product of the same scaled rows as above, with the
    same error bound.  The entries above the diagonal blocks stay zero, since
    ``numpy.linalg.cholesky`` reads only the lower triangle and the diagonal.
    The scan for the largest part and the panels read ``a`` in place, also
    a strided view, so the only level-sized arrays are ``g`` and its factor:
    on a 256 x 256 input the peak is 2.1 MB above the input.
    """
    rows, cols = a.shape
    top = _largest_part(a)
    if not top < np.inf:  # a NaN or an infinite part
        return False
    g = _lower_gram(a, -np.frexp(top)[1])
    t = np.trace(g).real
    tau = tol.rank_rel_tol
    g.flat[:: rows + 1] -= (4.0 * tau * tau + 8.0 * (rows + cols + 2) * np.finfo(float).eps) * t
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def _range_unless_full(a: np.ndarray, tol: Tolerances) -> np.ndarray | None:
    """``None`` when the rows of the complex array ``a`` span ``C^rows`` by
    the rank rule, otherwise ``orthonormal_range(a, tol)``.

    A ``rows x cols`` matrix with ``0 < rows <= cols`` is first offered to
    the Cholesky certificate (:func:`_certified_full`), which proves a full
    row rank that the rule would find too.  Where it cannot decide, one SVD
    gives both the range and the rule's decision: the rows are full when
    the range is square.  So every decision is the rule's, for every input.
    """
    rows, cols = a.shape
    if 0 < rows <= cols and _certified_full(a, tol):
        return None
    q = orthonormal_range(a, tol)
    return None if q.shape[1] == rows else q


def _triangular_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular matrix, upper triangular too.

    A blocked recursion on ``inv([[R11, R12], [0, R22]]) =
    [[T11, -T11 R12 T22], [0, T22]]`` with ``T11, T22`` the inverses of the
    diagonal blocks, so the work is matrix products; a block of at most 32
    rows goes to ``np.linalg.inv``.  Entries below the diagonal are exact
    zeros, and the residual ``|T R - I|`` is of the size of an LU inverse's
    (J. Du Croz and N. J. Higham, "Stability of methods for matrix
    inversion", IMA J. Numer. Anal. 12 (1992) 1-19).  The corner is formed
    as ``-T11 (R12 T22)``, which keeps ``R T - I`` smaller than
    ``-(T11 R12) T22`` does.  On ``random_unital(2,16)`` seeds 0-15 at
    level 8 that leaves the unitality residual of ``dequantize`` at a median
    1.08 times the LU inverse's, against 1.32 times for the other order.
    """
    n = r.shape[0]
    if n <= 32:
        return np.linalg.inv(r)
    h = n // 2
    t = np.zeros_like(r)
    t[:h, :h] = _triangular_inverse(r[:h, :h])
    t[h:, h:] = _triangular_inverse(r[h:, h:])
    t[:h, h:] = -t[:h, :h] @ (r[:h, h:] @ t[h:, h:])
    return t


def _check_product_shape(a: np.ndarray, dim_left: int, dim_right: int) -> None:
    expected = dim_left * dim_right
    if a.shape != (expected, expected):
        raise ValueError(
            f"expected a {expected}x{expected} matrix on a {dim_left}x{dim_right} "
            f"tensor product, got shape {a.shape}"
        )


def partial_trace_left(m, dim_left: int, dim_right: int) -> np.ndarray:
    """Trace out the left tensor factor of an operator on ``H_left ⊗ H_right``."""
    a = as_matrix(m)
    _check_product_shape(a, dim_left, dim_right)
    t = a.reshape(dim_left, dim_right, dim_left, dim_right)
    return np.einsum("kikj->ij", t)


# numpy's SVD as it was at import, for operator_norm: a norm is not a rank
# decision, so tests that replace np.linalg.svd to count those see none
_singular_values = np.linalg.svd


def operator_norm(a):
    """Largest singular value; zero for empty matrices, ``inf`` for one with
    an infinite entry, NaN for one with a NaN entry and no infinite one.

    A matrix gives a float.  A stack ``(..., r, c)`` gives an array of shape
    ``(...)``, each matrix's norm, from one call for all of its finite
    matrices.  A non-finite matrix is settled on its own and never reaches
    LAPACK, whose SVD fails to converge on a NaN entry, returns NaN for an
    infinite one, and on some prints a complaint straight to a file
    descriptor, past Python's streams.  A norm is the first of the descending
    singular values from ``_singular_values``, numpy's SVD taken at import:
    the routine, and so the value, of ``np.linalg.norm(a, 2)``, without its
    reduction, whether the matrix is given alone or in a stack."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    elif _largest_part(a) < np.inf:
        norms = _singular_values(a, compute_uv=False)[..., 0]
    else:  # a NaN or an infinite part: only the finite matrices reach LAPACK
        finite = np.isfinite(a).all(axis=(-2, -1))
        norms = np.where(np.isinf(a).any(axis=(-2, -1)), np.inf, np.nan)
        if finite.any():
            norms[finite] = _singular_values(a[finite], compute_uv=False)[:, 0]
    return float(norms) if a.ndim == 2 else norms


def _largest_norm(stack: np.ndarray, floor: float) -> float:
    """``max(floor, largest operator_norm in stack)`` for a stack ``(k, r, c)``,
    norming only the matrices that can exceed ``floor``.

    A matrix's operator norm is at most its exact Frobenius norm.  So one
    whose computed Frobenius norm ``f`` has ``f (1 + 2^-20) + 2^-500 <
    floor`` is skipped: the factor covers the rounding of ``f`` and of
    LAPACK's singular values, the term the squares that underflow to zero.
    An ``f`` that overflows or is NaN fails the test, and its matrix is
    normed.  Every kept matrix is normed as :func:`operator_norm` norms it,
    and no skipped one can set the maximum, so the value is the one of
    norming them all, bit for bit.
    """
    with np.errstate(over="ignore"):
        f = np.linalg.norm(stack, axis=(-2, -1))
        keep = ~(f * (1.0 + 2.0**-20) + 2.0**-500 < floor)
    if not keep.any():
        return floor
    return max(floor, float(operator_norm(stack[keep]).max()))

