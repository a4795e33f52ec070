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

A :class:`CorrelationData` holds the level spaces and reference state it
is made of, ``CorrelationData(system, state)``, and reads the Kraus family
from the level spaces, which hold the family they were built from; so
:func:`dequantize`, :func:`phi_symmetry_residual`, :func:`convergence_rows`
and :func:`convergence_report` take only the correlation data and read the
rest from it.  Its levels are those of the level spaces,
``1..system.max_level``; each is formed when it is read, and the last one
formed is kept, so a reader that walks the levels upward forms each once
and holds one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import KrausSet, check_state, kraus_word
from .dilation import _pairing
from .linalg import (
    SingularMatrixError,
    _largest_part,
    _range_unless_full,
    _rank,
    _triangular_inverse,
    as_matrix,
    operator_norm,
)
from .subproduct import SubproductSystem, power_sweep

__all__ = [
    "StateSpec",
    "state_spec",
    "LevelCorrelation",
    "CorrelationData",
    "correlation_matrix",
    "phi_symmetry_residual",
    "dequantize",
    "normal_ordering_residual",
    "ConvergenceReport",
    "convergence_rows",
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
    certified full (see :func:`correlation_matrix`).  ``matrix`` and
    ``inverse`` are frozen against writes.
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
    """The level spaces and state of the correlation levels, and one level.

    The Kraus family is the one ``system`` was built from.  A system without
    level 1 is refused, and so is a state that is not ``d``-square for that
    family.  No level is formed here: :meth:`level` forms level ``m`` by
    :func:`correlation_matrix` when it is read, a singular level raising
    there, and keeps it until another level is read.
    """

    system: SubproductSystem
    state: StateSpec
    # the last level formed and its correlations; none until a level is read
    _cache: tuple[int, LevelCorrelation] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.system.max_level < 1:
            raise ValueError("need at least one correlation level")
        _square(self.state.rho0, self.system.kraus.dim, "state")

    def level(self, m: int) -> LevelCorrelation:
        """Correlations of level ``m``, ``1 <= m <= system.max_level``.

        A singular level raises :class:`~krausfock.linalg.SingularMatrixError`
        here, when it is read.
        """
        if not 1 <= m <= self.system.max_level:
            raise ValueError(f"correlation level {m} not built")
        if self._cache is None or self._cache[0] != m:
            # a level does not depend on another, so the kept one goes first
            self._cache = None
            self._cache = (m, correlation_matrix(self.system.kraus, self.system, self.state, m))
        return self._cache[1]


def _square(a, d: int, what: str = "observable", stacked: bool = False) -> np.ndarray:
    """``a`` as a matrix, or a stack of them if ``stacked``, refused unless
    ``d``-square; ``what`` names it."""
    a = as_matrix(a, stacked)
    if a.shape[-2:] != (d, d):
        raise ValueError(f"{what} must be {d}x{d}, got {a.shape}")
    return a


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
    raw.flags.writeable = inv.flags.writeable = False
    return LevelCorrelation(matrix=raw, inverse=inv, trace=trace, scale=scale)


def phi_symmetry_residual(corr: CorrelationData) -> dict[int, tuple[float, float]]:
    """How far each level matrix is from a compressed tensor power of the base.

    Maps each level ``j`` of ``corr``, ``1..system.max_level``, to
    ``r1 = |Q_j - B_j† Q^{⊗j} B_j|`` and ``r2 = |(1 - p_j) Q^{⊗j} p_j|``, from
    one :func:`power_sweep`.  Both vanish exactly when the reference state has
    channel-symmetric correlations.  The levels are read upward, so each is
    formed once and the top one is kept.
    """
    sweep = power_sweep(corr.system, corr.system, corr.level(1).matrix, corr.system.max_level)
    return {
        j: (operator_norm(corr.level(j).matrix - compressed), r2)
        for j, (compressed, r2) in enumerate(sweep[1:], start=1)
    }


def dequantize(corr: CorrelationData, a, m: int) -> np.ndarray:
    """Time-``m`` dequantization of a system observable, or of a stack of them.

    In level coordinates this is ``M_A @ M^(-1)`` where
    ``M_A = B† [Tr(rho0 K_wk† K_wj A)] B`` is the compressed ``A``-weighted
    pairing matrix and ``M`` the compressed pairing matrix of the identity,
    both over the level spaces and state of ``corr`` and the Kraus family
    the level spaces hold.  Unitality ``Psi_m(1) = 1`` holds identically.
    When the reference state has channel-symmetric correlations and the base
    correlation matrix is diagonal, this coincides with the weighted sum
    ``Tr(Q_m) sum_words w(wk) Tr(rho0 K_wk† K_wj A) |B† e_wj><B† e_wk|``
    whose per-word weight ``w(wk)`` is the product, over the letters ``k_i``
    of ``wk``, of the entries of the diagonal of the level-one inverse.

    ``a`` is one ``d``-square observable, which gives a ``d_m``-square
    ``Psi_m(A)``, or a stack ``(..., d, d)``, which gives the stack
    ``(..., d_m, d_m)`` of their dequantizations from one check of the stack,
    one scaling of the level inverse and one pairing; each matrix is formed
    by the same products, so it equals the one of its observable alone.  An
    observable whose pairings overflow is refused with a ``ValueError``:
    ``Psi_m`` of every observable is checked to be finite.
    """
    a = _square(a, corr.system.kraus.dim, stacked=True)
    level = corr.level(m)
    # a huge observable may overflow; the finiteness check below decides
    with np.errstate(all="ignore"):
        pairing = _pairing(corr.system.generators(m), a @ corr.state.rho0)
        psi = pairing @ (level.inverse * level.scale)
    if not _largest_part(psi) < np.inf:  # read in place: no level-sized mask
        raise ValueError(f"Psi_{m} of the observable has non-finite entries: its pairings overflow")
    return psi


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
    ``C^{d^2}`` by the rank rule, which
    :func:`~krausfock.linalg._range_unless_full` decides without a
    projection.
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
    prods = gens.conj().transpose(0, 2, 1)[:, None] @ gens
    span = _range_unless_full(prods.reshape(-1, target.size).T, kraus.tol)
    if span is None:
        return 0.0
    residual = target - span @ (span.conj().T @ target)
    return float(np.linalg.norm(residual) / scale)


@dataclass(eq=False)
class ConvergenceReport:
    """Per-level diagnostic sequences, and trend verdicts derived when read.

    For observables ``A, B`` and each level ``m`` of the correlation data, in order:

    - ``norm_gap[m]``: ``| |Psi_m(A)| - |A| |``
    - ``vn_residual[m]``: ``|Psi_m(AB) - Psi_m(A) Psi_m(B)|``
    - ``scaled_commutator[m]``: ``m * |[Psi_m(A), Psi_m(B)]|``
    - ``limit_state_gap[m]``: ``|Tr(Q_m Psi_m(A)) / Tr(Q_m) - Tr(rho0 A)|``

    ``vn_residual[m]`` is exactly ``0.0`` at a complete level (``d_m = d^2``),
    where ``Psi_m`` is a similarity and so a homomorphism.  ``residual_tol``
    is the tolerance of the Kraus family, which :attr:`verdicts` reads.
    """

    levels: list[int]
    norm_gap: list[float]
    vn_residual: list[float]
    scaled_commutator: list[float]
    limit_state_gap: list[float]
    residual_tol: float

    COLUMNS = ("norm_gap", "vn_residual", "scaled_commutator", "limit_state_gap")

    @cached_property
    def verdicts(self) -> dict[str, str]:
        """:func:`trend_verdict` of each column at ``residual_tol``, computed on first read."""
        return {c: trend_verdict(getattr(self, c), self.residual_tol) for c in self.COLUMNS}

    def rows(self):
        """Rows ``(m, *values)`` with one value for each name in ``COLUMNS``."""
        return list(zip(self.levels, *(getattr(self, name) for name in self.COLUMNS)))


def trend_verdict(seq, tol: float) -> str:
    """Classify a nonnegative sequence: flat / decreasing / bounded / irregular.

    ``flat`` means every entry is within ``tol`` of zero; ``decreasing``
    allows a relative slack of ``tol`` per step; ``bounded`` caps the
    maximum at ten times the median: the middle entry of the sorted values,
    or the mean of the two middle entries for an even count (``np.median``).
    """
    vals = [float(x) for x in seq]
    if not vals or max(vals) <= tol:
        return "flat"
    if all(b <= a * (1.0 + tol) for a, b in zip(vals, vals[1:])):
        return "decreasing"
    med = np.median(vals)
    if med > 0.0 and max(vals) <= 10.0 * med:
        return "bounded"
    return "irregular"


def convergence_rows(corr: CorrelationData, a, b):
    """Rows ``(m, *diagnostics)`` of observables ``a, b`` for ``m = 1..system.max_level``.

    The observables are checked at the call, each to be ``d``-square; a
    product ``AB`` or commutator ``[A, B]`` that overflows is refused with a
    ``ValueError``.  The rows are then formed upward as they are read, one
    level at a time, with the four diagnostics in the order of
    ``ConvergenceReport.COLUMNS`` (see :func:`convergence_report`).  A
    singular level raises when its row is read, after the rows below it, and
    so does a level whose products ``Psi_m(A) Psi_m(B)`` or diagnostics
    overflow, with a ``ValueError``.  A row's level operators die when the
    row function returns, so none is alive while the next level is formed.

    Below a complete level, one :func:`dequantize` call forms ``Psi_m(A)``,
    ``Psi_m(B)`` and ``Psi_m(AB)`` as a stack, and one
    :func:`~krausfock.linalg.operator_norm` call takes ``|Psi_m(A)|`` and the
    norms of the multiplicativity residual and the commutator, as a
    ``(3, d_m, d_m)`` stack.  A complete level makes two dequantizations and
    two norm calls, one operator at a time, so that only one level-sized
    operator is alive.
    """
    dim = corr.system.kraus.dim
    a, b = _square(a, dim), _square(b, dim)
    norm_a = operator_norm(a)
    with np.errstate(all="ignore"):
        ab = a @ b
        comm = ab - b @ a
        ref = np.trace(corr.state.rho0 @ a)
    # an entry that is not finite in AB is not finite in [A, B] either
    if not np.isfinite(comm).all():
        raise ValueError("the product of the observables overflows: AB or [A, B] is not finite")
    complete = dim**2

    def state_gap(m: int, pa: np.ndarray) -> float:
        # Tr(Q_m Psi_m(A)) without the d_m^3 product
        level = corr.level(m)
        with np.errstate(all="ignore"):
            return float(abs(np.sum(level.matrix * pa.T) / level.trace - ref))

    def row(m: int) -> tuple:
        if corr.system.dims[m] == complete:
            # a complete level: Psi_m is a similarity, so a homomorphism; pa is
            # not read again, so it is dropped before the commutator's level operator
            pa = dequantize(corr, a, m)
            norm_pa, gap = operator_norm(pa), state_gap(m, pa)
            del pa
            commutator = operator_norm(dequantize(corr, comm, m))
            values = abs(norm_pa - norm_a), 0.0, m * commutator, gap
        else:
            psi = dequantize(corr, np.stack([a, b, ab]), m)
            pa, pb, pab = psi
            # pb and pab are overwritten by the commutator and the vn residual, so
            # that one norm call takes |pa| and both; the products may overflow,
            # and the norms decide below
            with np.errstate(all="ignore"):
                papb = pa @ pb
                pab -= papb
                np.subtract(papb, pb @ pa, out=pb)
            norm_pa, commutator, vn_res = operator_norm(psi).tolist()
            if not (vn_res < np.inf and commutator < np.inf):  # NaN compares false too
                raise ValueError(f"the products of Psi_{m}(A) and Psi_{m}(B) overflow")
            values = abs(norm_pa - norm_a), vn_res, m * commutator, state_gap(m, pa)
        # a norm, a scaled commutator or a state gap may overflow where every Psi_m is finite
        if not all(v < np.inf for v in values):
            raise ValueError(f"a diagnostic of level {m} overflows")
        return values

    return ((m, *row(m)) for m in range(1, corr.system.max_level + 1))


def convergence_report(corr: CorrelationData, a, b) -> ConvergenceReport:
    """Evaluate all four diagnostic sequences at every level of ``corr``, in order.

    At a complete level (``d_m = d^2``) the rows ``W = [vec(G_u rho0^{1/2})]``
    are square and invertible, so ``Psi_m(X) = W (1 ⊗ rho0^{-1/2} X rho0^{1/2})
    W^{-1}`` is a similarity and ``Psi_m(AB) = Psi_m(A) Psi_m(B)`` exactly.
    There ``vn_residual`` is ``0.0``, and ``scaled_commutator`` is taken as
    ``m * |Psi_m(AB - BA)|``, which equals ``m * |[Psi_m(A), Psi_m(B)]|``: two
    dequantizations instead of three and no level-sized products.  Every
    other level is evaluated from ``Psi_m(A)``, ``Psi_m(B)`` and ``Psi_m(AB)``,
    formed in one call.
    The report collects the rows of :func:`convergence_rows`.
    """
    columns = map(list, zip(*convergence_rows(corr, a, b)))
    return ConvergenceReport(*columns, corr.system.kraus.tol.residual_tol)
