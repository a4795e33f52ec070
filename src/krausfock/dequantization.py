"""Correlation matrices, time-``m`` dequantization and convergence reports.

Fixing a reference density matrix ``rho0``, the level-``m`` correlation
matrix pairs length-``m`` words through ``Tr(rho0 K_wk† K_wj)`` and is
rescaled so that its trace equals the trace of its inverse.  A level is
singular by the rank rule that decides full levels, applied to the square
root ``G_m rho0^{1/2}`` of its correlation matrix, and is inverted through
a triangular factor of that square root.  The normalized trace, read off
that inverse, certifies most levels full; only a level near the threshold
takes the singular values.  That rule alone decides which reference states
can be used: a state that gives some Kraus operator probability 0 makes
level 1 singular, while one that gives it probability ``1e-12`` is accepted
and computed to machine precision.  The time-``m`` dequantization carries
a system observable ``A`` to the level-``m`` operator built from the
weighted pairings ``Tr(rho0 K_wk† K_wj A)``; its unitality,
multiplicativity defects and state gaps over increasing ``m`` quantify how
fast the levels turn into a classical picture of the channel.

A *complete* level has ``d_m = d^2``: its generators span all of ``M_d``.
That is not the same as a *full* level, whose chain factor is the identity.
At a complete level the rows ``W = [vec(G_u rho0^{1/2})]`` form a square
invertible matrix and ``Psi_m(X) = W (1 ⊗ rho0^{-1/2} X rho0^{1/2}) W^{-1}``
is a similarity, hence an exact unital homomorphism.  So
:func:`convergence_report` gives a multiplicativity defect of exactly 0
there, and a generic channel's large-``m`` limit is the whole matrix
algebra, not a classical one.

A :class:`CorrelationData` holds the Kraus family, level spaces and
reference state it was built from, so :func:`dequantize`,
:func:`phi_symmetry_residual` and :func:`convergence_report` take only the
correlation data and read the rest from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import KrausSet, check_state, kraus_word
from .dilation import _pairing
from .linalg import (
    SingularMatrixError,
    _certified_full,
    _rank,
    _triangular_inverse,
    as_matrix,
    operator_norm,
    orthonormal_range,
)
from .subproduct import SubproductSystem, power_sweep

__all__ = [
    "StateSpec",
    "state_spec",
    "LevelCorrelation",
    "CorrelationData",
    "correlation_matrix",
    "correlations",
    "phi_symmetry_residual",
    "dequantize",
    "normal_ordering_residual",
    "ConvergenceReport",
    "convergence_report",
    "trend_verdict",
]


@dataclass(eq=False)
class StateSpec:
    """Reference density matrix and its square root."""

    rho0: np.ndarray

    @cached_property
    def root(self) -> np.ndarray:
        """``rho0^{1/2}``, from ``eigh`` with negative eigenvalues clipped to 0."""
        w, v = np.linalg.eigh(self.rho0)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def state_spec(kraus: KrausSet, rho0) -> StateSpec:
    """Validate a reference state against a Kraus family.

    Requires a Hermitian, PSD, trace-one ``d``-square matrix and nothing
    more.  Whether the state can be used is decided level by level, by the
    rank rule of :func:`correlation_matrix`: a state under which some
    ``K_k rho0^{1/2}`` vanishes, that is some outcome has probability 0,
    makes level 1 singular.
    """
    return StateSpec(check_state(kraus, rho0))


@dataclass(eq=False)
class LevelCorrelation:
    """Normalized level correlation matrix, its inverse, trace and scale.

    ``trace`` is the normalized trace ``sqrt(tr(W W†) tr((W W†)^{-1}))`` of
    the raw matrix ``W W†``, ``W = [vec(G_u rho0^{1/2})]``.  It bounds the
    condition number of ``W`` on both sides,
    ``cond(W) <= trace <= d_m cond(W)``, and decides whether the level is
    certified full (see :func:`correlation_matrix`).
    """

    matrix: np.ndarray
    inverse: np.ndarray
    trace: float
    scale: float

    @property
    def inv_trace(self) -> float:
        """Trace of the stored inverse, equal to ``trace`` by the normalization."""
        return float(np.trace(self.inverse).real)


@dataclass(eq=False)
class CorrelationData:
    """Correlation levels and the Kraus family, level spaces and state they come from."""

    kraus: KrausSet
    system: SubproductSystem
    state: StateSpec
    levels: dict[int, LevelCorrelation]

    @property
    def base(self) -> np.ndarray:
        """The level-one correlation matrix."""
        return self.levels[1].matrix


def _root_rows(system: SubproductSystem, state: StateSpec, m: int) -> np.ndarray:
    """The rows ``W = [vec(G_u rho0^{1/2})]`` of level ``m``."""
    gens = system.generators(m)
    return (gens @ state.root).reshape(gens.shape[0], -1)


def correlation_matrix(
    kraus: KrausSet, system: SubproductSystem, state: StateSpec, m: int
) -> LevelCorrelation:
    """Level-``m`` correlation matrix, scaled so trace equals inverse trace.

    The raw matrix ``[Tr(G_u rho0 G_v†)]`` is ``W W†`` for the ``rows x cols``
    matrix ``W = [vec(G_u rho0^{1/2})]``.  The triangular factor of
    ``W† = Q R`` gives ``raw = R† R`` and its inverse ``R^{-1} R^{-†}``
    without forming ``W W†`` first, which would square the condition number.
    ``R`` is inverted as a triangle, by blocked products
    (``linalg._triangular_inverse``).

    The level is singular, and :class:`~krausfock.linalg.SingularMatrixError`
    is raised, exactly when the rank rule that decides full levels finds that
    ``W`` does not have full row rank.  Far from the threshold the normalized
    trace ``T = sqrt(tr(raw) tr(inv))``, the stored ``trace``, reaches that
    decision without singular values.  In exact arithmetic
    ``T^2 = (sum s_i^2)(sum s_i^{-2})`` over the singular values of ``W``, so
    ``s_max / s_min <= T <= rows * s_max / s_min``.  The computed ``R`` is the
    exact factor of ``W† + E`` with ``|E| <= c (rows + cols) eps |W|``
    (Householder QR), and the computed ``R^{-1}`` has a relative error of at
    most about ``c rows eps cond(R)`` (J. Du Croz and N. J. Higham, IMA J.
    Numer. Anal. 12 (1992) 1-19), with ``eps`` the machine epsilon and ``c``
    a modest constant.  Both move the computed ``T`` by a relative
    ``O((rows + cols) eps T)``.  The level is certified full when
    ``(1 + 1/32) T < min(1 / (2 tau), 1 / (64 (rows + cols) eps))``
    (``tau = rank_rel_tol``).  The second cap keeps those errors below
    ``T / 32``, so the singular-value ratio of ``W`` exceeds both ``2 tau``
    and ``64 (rows + cols) eps``, a margin far wider than the error of
    computed singular values, and the rank rule finds the rows full too.  At
    the default ``tau = 1e-9`` the cap binds only where ``rows + cols``
    exceeds about ``1.4e5``.

    When the certificate fails, a trace is not finite or the inversion raises
    :class:`numpy.linalg.LinAlgError`, ``W`` is formed again and the rule is
    applied to its singular values.  A level the rule finds singular raises;
    an inversion error at a level it finds full is raised again; otherwise
    the computed matrices are kept.  So every decision is the rule's, and the
    values come from the same operations on either path.
    """
    if m < 1:
        raise ValueError("correlation levels start at 1")
    w = _root_rows(system, state, m)
    rows, cols = w.shape
    r = np.linalg.qr(w.conj().T, mode="r")
    del w
    raw = r.conj().T @ r
    tr = float(np.trace(raw).real)
    failure = None
    try:
        # near or past the threshold the inverse may overflow; the rule decides below
        with np.errstate(all="ignore"):
            r_inv = _triangular_inverse(r)
            del r
            inv = r_inv @ r_inv.conj().T
            del r_inv
            scale = float(np.sqrt(np.trace(inv).real / tr))
    except np.linalg.LinAlgError as exc:
        failure, scale = exc, np.nan
    trace = scale * tr
    tau = kraus.tol.rank_rel_tol
    cap = 1.0 / (64.0 * (rows + cols) * np.finfo(float).eps)
    # a trace that is not finite compares false and takes the singular values
    if not (1.0 + 1.0 / 32.0) * trace < min(0.5 / tau, cap):
        s = np.linalg.svd(_root_rows(system, state, m), compute_uv=False)
        if _rank(s, kraus.tol) < rows:
            raise SingularMatrixError(
                f"singular correlation: level-{m} correlation matrix has singular-value "
                f"ratio {s[-1] / s[0]:.3e}, not above {tau:.1e}"
            )
        if failure is not None:
            raise failure
    raw *= scale
    inv /= scale
    return LevelCorrelation(matrix=raw, inverse=inv, trace=trace, scale=scale)


def correlations(
    kraus: KrausSet, system: SubproductSystem, state: StateSpec, max_level: int
) -> CorrelationData:
    """Build correlation levels ``1..max_level``.

    The result keeps ``kraus``, ``system`` and ``state`` for the functions
    that read it, so this is the one place where the three must be given
    consistently: ``system`` built from ``kraus``, ``state`` checked against it.
    """
    if max_level < 1:
        raise ValueError("need at least one correlation level")
    levels = {m: correlation_matrix(kraus, system, state, m) for m in range(1, max_level + 1)}
    return CorrelationData(kraus, system, state, levels)


def phi_symmetry_residual(corr: CorrelationData, m: int) -> dict[int, tuple[float, float]]:
    """How far each level matrix is from a compressed tensor power of the base.

    Maps each level ``j = 1..m`` to ``r1 = |Q_j - B_j† Q^{⊗j} B_j|`` and
    ``r2 = |(1 - p_j) Q^{⊗j} p_j|``, from one :func:`power_sweep`.  Both
    vanish exactly when the reference state has channel-symmetric correlations.
    """
    if m not in corr.levels:
        raise ValueError(f"correlation level {m} not built")
    sweep = power_sweep(corr.system, corr.system, corr.base, m)
    return {
        j: (operator_norm(corr.levels[j].matrix - compressed), r2)
        for j, (compressed, r2) in enumerate(sweep[1:], start=1)
    }


def dequantize(corr: CorrelationData, a, m: int) -> np.ndarray:
    """Time-``m`` dequantization of a system observable.

    In level coordinates this is ``M_A @ M^(-1)`` where
    ``M_A = B† [Tr(rho0 K_wk† K_wj A)] B`` is the compressed ``A``-weighted
    pairing matrix and ``M`` the compressed pairing matrix of the identity,
    both over the Kraus family, level spaces and state that ``corr`` was
    built from.  Unitality ``Psi_m(1) = 1`` holds identically.  When the
    reference state has channel-symmetric correlations and the base
    correlation matrix is diagonal, this coincides with the weighted sum
    ``Tr(Q_m) sum_words w(wk) Tr(rho0 K_wk† K_wj A) |B† e_wj><B† e_wk|``
    whose per-word weight ``w(wk)`` is the product, over the letters ``k_i``
    of ``wk``, of the entries of the diagonal of the level-one inverse.
    """
    a = as_matrix(a)
    dim = corr.kraus.dim
    if a.shape != (dim, dim):
        raise ValueError(f"observable must be {dim}x{dim}, got {a.shape}")
    if m not in corr.levels:
        raise ValueError(f"correlation level {m} not built")
    pairing = _pairing(corr.system.generators(m), a @ corr.state.rho0)
    level = corr.levels[m]
    return pairing @ (level.inverse * level.scale)


def normal_ordering_residual(
    kraus: KrausSet,
    system: SubproductSystem,
    left_word,
    right_word,
    degree_bound: int,
) -> float:
    """Distance of ``K_left K_right†`` from the normally ordered span.

    Projects the anti-normally ordered product onto the span of all
    ``K_wj† K_wk`` with ``|wj| = |wk| <= degree_bound`` and returns the
    relative least-squares residual (Frobenius).  For a unital family that
    is the span of the top-degree generator products ``G_u† G_v`` alone,
    since ``K_v† K_v' = sum_k (K_k K_v)† (K_k K_v')`` puts every lower
    degree inside the next one.  Zero residual certifies that this word
    pair can be rewritten in normal order at the given degree bound;
    products that vanish count as residual zero.  The residual is exactly
    ``0.0`` at a complete level (``d_m = d^2``), where the ``G_u`` span
    ``M_d`` and with it the identity, so the products span ``M_d`` and are
    never formed.  It is also ``0.0`` when the products span all of
    ``C^{d^2}`` by the rank rule: a Cholesky certificate (see
    :func:`~krausfock.linalg.spans_all`) decides that without a projection,
    and otherwise the one SVD of the products that gives the projection also
    gives the rank.
    """
    left = tuple(int(j) for j in left_word)
    right = tuple(int(j) for j in right_word)
    if len(left) != len(right):
        raise ValueError("the two words must have equal length")
    if len(left) > degree_bound:
        raise ValueError("word length exceeds the degree bound")
    x = kraus_word(kraus, left) @ kraus_word(kraus, right).conj().T
    target = x.reshape(-1)
    scale = np.linalg.norm(target)
    if scale <= 1e-14:
        return 0.0
    gens = system.generators(degree_bound)
    if len(gens) == kraus.dim**2:
        # a complete level: the G_u span M_d, so their products do too
        return 0.0
    # a contiguous copy of the columns vec(G_u† G_v), with the products freed
    # at once: the certificate would copy a transposed view while both live
    prods = gens.conj().transpose(0, 2, 1)[:, None] @ gens
    columns = np.ascontiguousarray(prods.reshape(-1, target.size).T)
    del prods
    if columns.shape[0] <= columns.shape[1] and _certified_full(columns, kraus.tol):
        return 0.0
    span = orthonormal_range(columns, kraus.tol)
    if span.shape[1] == target.size:
        return 0.0
    residual = target - span @ (span.conj().T @ target)
    return float(np.linalg.norm(residual) / scale)


@dataclass(eq=False)
class ConvergenceReport:
    """Per-level diagnostic sequences with descriptive trend verdicts.

    For observables ``A, B`` and levels ``1..m_max``:

    - ``norm_gap[m]``: ``| |Psi_m(A)| - |A| |``
    - ``vn_residual[m]``: ``|Psi_m(AB) - Psi_m(A) Psi_m(B)|``
    - ``scaled_commutator[m]``: ``m * |[Psi_m(A), Psi_m(B)]|``
    - ``limit_state_gap[m]``: ``|Tr(Q_m Psi_m(A)) / Tr(Q_m) - Tr(rho0 A)|``

    ``vn_residual[m]`` is exactly ``0.0`` at a complete level (``d_m = d^2``),
    where ``Psi_m`` is a similarity and so a homomorphism.
    """

    levels: list[int]
    norm_gap: list[float]
    vn_residual: list[float]
    scaled_commutator: list[float]
    limit_state_gap: list[float]
    verdicts: dict[str, str] = field(default_factory=dict)

    _COLUMNS = ("norm_gap", "vn_residual", "scaled_commutator", "limit_state_gap")

    def rows(self):
        """Rows ``(m, *values)`` with one value for each name in ``_COLUMNS``."""
        return list(zip(self.levels, *(getattr(self, name) for name in self._COLUMNS)))


def _median(vals: list[float]) -> float:
    """The median of :func:`trend_verdict`.

    For finite values this is the float ``np.median`` returns, without the
    ``numpy.ma`` import that ``np.median`` makes on its first call.
    """
    ordered = sorted(vals)
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2.0


def trend_verdict(seq, tol: float) -> str:
    """Classify a nonnegative sequence: flat / decreasing / bounded / irregular.

    ``flat`` means every entry is within ``tol`` of zero; ``decreasing``
    allows a relative slack of ``tol`` per step; ``bounded`` caps the
    maximum at ten times the median: the middle entry of the sorted values,
    or the mean of the two middle entries for an even count.
    """
    vals = [float(x) for x in seq]
    if not vals or max(vals) <= tol:
        return "flat"
    if all(b <= a * (1.0 + tol) for a, b in zip(vals, vals[1:])):
        return "decreasing"
    med = _median(vals)
    if med > 0.0 and max(vals) <= 10.0 * med:
        return "bounded"
    return "irregular"


def _level_diagnostics(
    corr: CorrelationData, a, b, ab, comm, m: int, norm_a: float, ref
) -> tuple:
    """The four diagnostics at level ``m``; its level operators die at return."""
    pa = dequantize(corr, a, m)
    level = corr.levels[m]
    norm_gap = abs(operator_norm(pa) - norm_a)
    # Tr(Q_m Psi_m(A)) without the d_m^3 product, before pb and pab exist
    state_gap = float(abs(np.sum(level.matrix * pa.T) / level.trace - ref))
    if corr.system.dims[m] == corr.kraus.dim**2:
        # a complete level: Psi_m is a similarity, so a homomorphism; pa is
        # not read again, so it is dropped before the commutator's level operator
        del pa
        return norm_gap, 0.0, m * operator_norm(dequantize(corr, comm, m)), state_gap
    pb = dequantize(corr, b, m)
    pab = dequantize(corr, ab, m)
    # one product for both residuals, subtracted in place, so that no more
    # matrices are alive at once than with two products
    papb = pa @ pb
    vn_res = operator_norm(np.subtract(pab, papb, out=pab))
    papb -= pb @ pa
    return norm_gap, vn_res, m * operator_norm(papb), state_gap


def convergence_report(corr: CorrelationData, a, b, m_max: int) -> ConvergenceReport:
    """Evaluate all four diagnostic sequences for levels ``1..m_max``.

    At a complete level (``d_m = d^2``) the rows ``W = [vec(G_u rho0^{1/2})]``
    are square and invertible, so ``Psi_m(X) = W (1 ⊗ rho0^{-1/2} X rho0^{1/2})
    W^{-1}`` is a similarity and ``Psi_m(AB) = Psi_m(A) Psi_m(B)`` exactly.
    There ``vn_residual`` is ``0.0``, and ``scaled_commutator`` is taken as
    ``m * |Psi_m(AB - BA)|``, which equals ``m * |[Psi_m(A), Psi_m(B)]|``: two
    dequantizations instead of three and no level-sized products.  Every
    other level is evaluated from ``Psi_m(A)``, ``Psi_m(B)`` and ``Psi_m(AB)``.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    norm_a = operator_norm(a)
    ab = a @ b
    comm = ab - b @ a
    ref = np.trace(corr.state.rho0 @ a)

    levels = list(range(1, m_max + 1))
    rows = [_level_diagnostics(corr, a, b, ab, comm, m, norm_a, ref) for m in levels]
    report = ConvergenceReport(levels, *([row[i] for row in rows] for i in range(4)))
    tol = corr.kraus.tol.residual_tol
    for name in ConvergenceReport._COLUMNS:
        report.verdicts[name] = trend_verdict(getattr(report, name), tol)
    return report
