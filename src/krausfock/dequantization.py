"""Correlation matrices, time-``m`` dequantization and convergence reports.

Fixing a reference density matrix ``rho0``, the level-``m`` correlation
matrix pairs length-``m`` words through ``Tr(rho0 K_wk† K_wj)`` and is
rescaled so that its trace equals the trace of its inverse.  The time-``m``
dequantization carries a system observable ``A`` to the level-``m``
operator built from the weighted pairings ``Tr(rho0 K_wk† K_wj A)``; its
unitality, multiplicativity defects and state gaps over increasing ``m``
quantify how fast the levels turn into a classical picture of the channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, check_state, kraus_word
from .linalg import (
    as_matrix,
    kron_power_apply,
    operator_norm,
    orthonormal_range,
    psd_inverse,
)
from .subproduct import SubproductSystem

__all__ = [
    "StateSpec",
    "state_spec",
    "LevelCorrelation",
    "CorrelationData",
    "correlation_matrix",
    "correlations",
    "phi_symmetry_residual",
    "dequantize",
    "BalancedWordSum",
    "normal_ordering_residual",
    "ConvergenceReport",
    "convergence_report",
    "trend_verdict",
]


@dataclass(eq=False)
class StateSpec:
    """Reference density matrix together with its per-outcome weights."""

    rho0: np.ndarray
    weights: np.ndarray


def state_spec(kraus: KrausSet, rho0) -> StateSpec:
    """Validate a reference state against a Kraus family.

    Requires a Hermitian, PSD, trace-one matrix giving every outcome a
    strictly positive weight ``Tr(rho0 K_k† K_k)``.
    """
    rho0 = check_state(kraus, rho0)
    weights = np.array([np.trace(rho0 @ k.conj().T @ k).real for k in kraus.ops])
    if np.any(weights <= kraus.tol.residual_tol):
        bad = int(np.argmin(weights))
        raise ValueError(
            f"outcome {bad} has weight {weights[bad]:.3e}; every Kraus operator "
            "must carry positive probability in the reference state"
        )
    return StateSpec(rho0=rho0, weights=weights)


@dataclass(eq=False)
class LevelCorrelation:
    """Normalized level correlation matrix, its inverse and traces."""

    level: int
    matrix: np.ndarray
    inverse: np.ndarray
    trace: float
    inv_trace: float
    scale: float


@dataclass(eq=False)
class CorrelationData:
    """Level-one matrix, per-level compressions and symmetry residuals."""

    state: StateSpec
    base: np.ndarray
    base_inv_diag: np.ndarray
    levels: dict[int, LevelCorrelation] = field(default_factory=dict)
    symmetry_residuals: dict[int, tuple[float, float]] = field(default_factory=dict)


def _pairing(gens: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of ``Tr(G_u x G_v†)`` over one level's generators.

    Equals the compression ``B† [Tr(K_wj x K_wk†)] B`` of the word pairing
    onto the level basis.
    """
    dm = gens.shape[0]
    return (gens @ x).reshape(dm, -1) @ gens.reshape(dm, -1).conj().T


def correlation_matrix(
    kraus: KrausSet, system: SubproductSystem, state: StateSpec, m: int
) -> LevelCorrelation:
    """Level-``m`` correlation matrix, scaled so trace equals inverse trace.

    Raises :class:`~krausfock.linalg.SingularMatrixError` when the raw
    pairing matrix is not positive definite on the level.
    """
    if m < 1:
        raise ValueError("correlation levels start at 1")
    raw = _pairing(system.generators(m), state.rho0)
    raw = (raw + raw.conj().T) / 2.0
    inv = psd_inverse(raw, kraus.tol, label=f"level-{m} correlation matrix")
    tr = float(np.trace(raw).real)
    tr_inv = float(np.trace(inv).real)
    scale = float(np.sqrt(tr_inv / tr))
    return LevelCorrelation(
        level=m,
        matrix=scale * raw,
        inverse=inv / scale,
        trace=scale * tr,
        inv_trace=tr_inv / scale,
        scale=scale,
    )


def correlations(
    kraus: KrausSet, system: SubproductSystem, state: StateSpec, max_level: int
) -> CorrelationData:
    """Build correlation levels ``1..max_level`` plus symmetry residuals."""
    if max_level < 1:
        raise ValueError("need at least one correlation level")
    levels = {m: correlation_matrix(kraus, system, state, m) for m in range(1, max_level + 1)}
    data = CorrelationData(
        state=state,
        base=levels[1].matrix,
        base_inv_diag=np.diag(levels[1].inverse).real.copy(),
        levels=levels,
    )
    for m in range(1, max_level + 1):
        data.symmetry_residuals[m] = phi_symmetry_residual(data, system, m)
    return data


def phi_symmetry_residual(
    corr: CorrelationData, system: SubproductSystem, m: int
) -> tuple[float, float]:
    """How far the level matrix is from a compressed tensor power of the base.

    Returns ``(r1, r2)`` with ``r1 = |Q_m - B† Q^{⊗m} B|`` in level
    coordinates and ``r2 = |(1 - p_m) Q^{⊗m} p_m|``.  Both vanish exactly
    when the reference state has channel-symmetric correlations.
    """
    if m not in corr.levels:
        raise ValueError(f"correlation level {m} not built")
    basis = system.basis(m)
    qb = kron_power_apply(corr.base, m, basis)
    compressed = basis.conj().T @ qb
    r1 = operator_norm(corr.levels[m].matrix - compressed)
    r2 = operator_norm(qb - basis @ compressed)
    return float(r1), float(r2)


def dequantize(
    kraus: KrausSet, system: SubproductSystem, corr: CorrelationData, a, m: int
) -> np.ndarray:
    """Time-``m`` dequantization of a system observable.

    In level coordinates this is ``M_A @ M^(-1)`` where
    ``M_A = B† [Tr(rho0 K_wk† K_wj A)] B`` is the compressed ``A``-weighted
    pairing matrix and ``M`` the compressed pairing matrix of the identity.
    Unitality ``Psi_m(1) = 1`` holds identically.  When the reference state
    has channel-symmetric correlations and the base correlation matrix is
    diagonal, this coincides with the weighted sum
    ``Tr(Q_m) sum_words w(wk) Tr(rho0 K_wk† K_wj A) |B† e_wj><B† e_wk|``
    with per-word weights ``w(wk) = prod_i invdiag[k_i]``.
    """
    a = as_matrix(a)
    if a.shape != (kraus.dim, kraus.dim):
        raise ValueError(f"observable must be {kraus.dim}x{kraus.dim}, got {a.shape}")
    if m not in corr.levels:
        raise ValueError(f"correlation level {m} not built")
    pairing = _pairing(system.generators(m), a @ corr.state.rho0)
    level = corr.levels[m]
    return pairing @ (level.inverse * level.scale)


@dataclass(frozen=True)
class BalancedWordSum:
    """Finite sum of terms ``coeff * K_left† K_right`` with ``|left| = |right|``.

    Such sums exhaust the degree-zero part of the word algebra.  The formal
    adjoint swaps the two words and conjugates the coefficient; a term list
    closed under that operation evaluates to a Hermitian matrix.
    """

    terms: tuple[tuple[tuple[int, ...], tuple[int, ...], complex], ...]

    def __post_init__(self):
        norm_terms = []
        for left, right, coeff in self.terms:
            left = tuple(int(j) for j in left)
            right = tuple(int(j) for j in right)
            if len(left) != len(right):
                raise ValueError(
                    f"term ({left}, {right}) has degree {len(right) - len(left)}, "
                    "only degree-zero terms are allowed"
                )
            norm_terms.append((left, right, complex(coeff)))
        object.__setattr__(self, "terms", tuple(norm_terms))

    def evaluate(self, kraus: KrausSet) -> np.ndarray:
        """Matrix value ``sum coeff * K_left† @ K_right``."""
        out = np.zeros((kraus.dim, kraus.dim), dtype=complex)
        for left, right, coeff in self.terms:
            out += coeff * kraus_word(kraus, left).conj().T @ kraus_word(kraus, right)
        return out

    def is_formally_selfadjoint(self, tol: float = 1e-12) -> bool:
        """Whether the term list is closed under the formal adjoint."""
        acc: dict[tuple, complex] = {}
        for left, right, coeff in self.terms:
            acc[(left, right)] = acc.get((left, right), 0.0) + coeff
        for (left, right), coeff in acc.items():
            partner = acc.get((right, left), 0.0)
            if abs(partner - np.conj(coeff)) > tol * max(1.0, abs(coeff)):
                return False
        return True


def normal_ordering_residual(
    kraus: KrausSet,
    system: SubproductSystem,
    left_word,
    right_word,
    degree_bound: int,
) -> float:
    """Distance of ``K_left K_right†`` from the normally ordered span.

    Projects the anti-normally ordered product onto the span of all
    ``K_wj† K_wk`` with ``|wj| = |wk| <= degree_bound``, which is the span of
    the level generator products ``G_u† G_v``, and returns the
    relative least-squares residual (Frobenius).  Zero residual certifies
    that this word pair can be rewritten in normal order at the given
    degree bound; products that vanish count as residual zero.
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
    columns = []
    for mu in range(degree_bound + 1):
        gens = system.generators(mu)
        prods = gens.conj().transpose(0, 2, 1)[:, None] @ gens
        columns.append(prods.reshape(-1, kraus.dim * kraus.dim).T)
    span = orthonormal_range(np.concatenate(columns, axis=1), kraus.tol)
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
    """

    labels: tuple[str, str]
    levels: list[int]
    norm_gap: list[float]
    vn_residual: list[float]
    scaled_commutator: list[float]
    limit_state_gap: list[float]
    verdicts: dict[str, str] = field(default_factory=dict)

    _COLUMNS = ("norm_gap", "vn_residual", "scaled_commutator", "limit_state_gap")

    def rows(self):
        """Rows (m, norm_gap, vn_residual, scaled_commutator, limit_state_gap)."""
        return list(
            zip(
                self.levels,
                self.norm_gap,
                self.vn_residual,
                self.scaled_commutator,
                self.limit_state_gap,
            )
        )


def trend_verdict(seq, tol: float) -> str:
    """Classify a nonnegative sequence: flat / decreasing / bounded / irregular.

    ``flat`` means every entry is within ``tol`` of zero; ``decreasing``
    allows a relative slack of ``tol`` per step; ``bounded`` caps the
    maximum at ten times the median.
    """
    vals = [float(x) for x in seq]
    if not vals or max(vals) <= tol:
        return "flat"
    if all(b <= a * (1.0 + tol) for a, b in zip(vals, vals[1:])):
        return "decreasing"
    med = float(np.median(vals))
    if med > 0.0 and max(vals) <= 10.0 * med:
        return "bounded"
    return "irregular"


def convergence_report(
    kraus: KrausSet,
    system: SubproductSystem,
    corr: CorrelationData,
    a,
    b,
    m_max: int,
    labels: tuple[str, str] = ("A", "B"),
) -> ConvergenceReport:
    """Evaluate all four diagnostic sequences for levels ``1..m_max``."""
    a = as_matrix(a)
    b = as_matrix(b)
    norm_a = operator_norm(a)
    ab = a @ b
    ref = np.trace(corr.state.rho0 @ a)

    levels = list(range(1, m_max + 1))
    norm_gap, vn_res, scaled_comm, state_gap = [], [], [], []
    for m in levels:
        pa = dequantize(kraus, system, corr, a, m)
        pb = dequantize(kraus, system, corr, b, m)
        pab = dequantize(kraus, system, corr, ab, m)
        level = corr.levels[m]
        norm_gap.append(abs(operator_norm(pa) - norm_a))
        vn_res.append(operator_norm(pab - pa @ pb))
        scaled_comm.append(m * operator_norm(pa @ pb - pb @ pa))
        state_gap.append(float(abs(np.trace(level.matrix @ pa) / level.trace - ref)))

    tol = kraus.tol.residual_tol
    report = ConvergenceReport(
        labels=labels,
        levels=levels,
        norm_gap=norm_gap,
        vn_residual=vn_res,
        scaled_commutator=scaled_comm,
        limit_state_gap=state_gap,
    )
    for name in ConvergenceReport._COLUMNS:
        report.verdicts[name] = trend_verdict(getattr(report, name), tol)
    return report
