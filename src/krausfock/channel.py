"""Quantum channels presented by finite Kraus families.

A channel acts on observables as ``A -> sum_k K_k† A K_k`` (Heisenberg
picture) and on density matrices as ``rho -> sum_k K_k rho K_k†``
(Schrödinger picture).  Unitality means ``sum_k K_k† K_k = 1``.

Operator words are products ``K[j1] @ K[j2] @ ... @ K[jm]`` indexed by
tuples of 0-based letters; the empty word is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import Tolerances, _range_unless_full, _square, operator_norm

__all__ = [
    "KrausSet",
    "ValidationReport",
    "validate",
    "require_unital_minimal",
    "check_state",
    "apply_heisenberg",
    "kraus_word",
    "minimal_kraus",
]


@dataclass(eq=False, frozen=True)
class KrausSet:
    """An ordered family of ``n`` square matrices presenting one channel.

    ``ops`` is stored as an ``(n, d, d)`` stack and frozen against writes,
    and neither field can be reassigned, so a set stays as it was checked.
    So the guard's findings are kept on the set, each formed once, when
    first read: :func:`validate`, :func:`require_unital_minimal` and
    :func:`minimal_kraus` all read them.
    """

    ops: np.ndarray
    tol: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError("Kraus operators must form an (n, d, d) stack of square matrices")
        if ops.shape[0] < 1 or ops.shape[1] < 1:
            raise ValueError("need at least one Kraus operator of dimension >= 1")
        if not np.all(np.isfinite(ops)):
            raise ValueError("Kraus operators must have finite entries")
        if not isinstance(self.tol, Tolerances):
            raise ValueError(f"tol must be a Tolerances, got {self.tol!r}")
        ops.flags.writeable = False
        object.__setattr__(self, "ops", ops)

    @property
    def size(self) -> int:
        """Number of Kraus operators."""
        return self.ops.shape[0]

    @property
    def dim(self) -> int:
        """Dimension of the system Hilbert space."""
        return self.ops.shape[1]

    @cached_property
    def _range(self) -> np.ndarray | None:
        """``None`` when the ``n x d^2`` stack has independent rows by the rank
        rule, else its orthonormal range (:func:`~krausfock.linalg._range_unless_full`)."""
        q = _range_unless_full(self.ops.reshape(self.size, -1), self.tol)
        if q is not None:
            q.flags.writeable = False
        return q

    @cached_property
    def _report(self) -> ValidationReport:
        """What :func:`validate` returns."""
        total = np.einsum("kba,kbc->ac", self.ops.conj(), self.ops)
        residual = operator_norm(total - np.eye(self.dim))
        rank = self.size if self._range is None else self._range.shape[1]
        return ValidationReport(float(residual), rank, bool(residual <= self.tol.residual_tol))


@dataclass(frozen=True)
class ValidationReport:
    unitality_residual: float
    independence_rank: int
    valid: bool


def validate(kraus: KrausSet) -> ValidationReport:
    """Unitality residual ``|sum K†K - 1|`` and rank of the ``n x d^2`` stack.

    The rank is :func:`~krausfock.linalg._range_unless_full`'s decision on
    the stack that :func:`minimal_kraus` reduces, so the guard and the
    reducer take one decision, made once per set.  The set is flagged valid
    iff the residual is within ``residual_tol``.  The report is formed on
    the first call and kept on the set, which cannot change.
    """
    return kraus._report


def require_unital_minimal(kraus: KrausSet) -> None:
    """Raise ``ValueError`` unless the set is unital and linearly independent."""
    report = validate(kraus)
    if not report.valid:
        raise ValueError(
            f"Kraus set is not unital (residual {report.unitality_residual:.3e})"
        )
    if report.independence_rank != kraus.size:
        raise ValueError(
            "Kraus operators are linearly dependent; reduce with minimal_kraus first"
        )


def check_state(kraus: KrausSet, rho) -> np.ndarray:
    """Coerce ``rho`` and require a Hermitian, PSD, trace-one ``d``-square matrix.

    Sums and differences of entries are formed on ``rho / 2``, so none
    overflows, and doubled as Python numbers, which round a value beyond
    float range to ``inf`` silently; above the subnormal range every value
    equals the one formed on ``rho`` itself.
    """
    rho = _square(rho, kraus.dim, "state")
    tol = kraus.tol
    half = rho / 2.0
    gap = 2.0 * operator_norm(half - half.conj().T)
    if gap > tol.residual_tol:
        raise ValueError(f"state is not Hermitian (asymmetry {gap:.3e})")
    eigs = np.linalg.eigvalsh(half + half.conj().T)
    if eigs[0] < -tol.residual_tol:
        raise ValueError(f"state is not positive (eigenvalue {eigs[0]:.3e})")
    trace = 2.0 * complex(np.trace(half))
    if abs(trace - 1.0) > tol.residual_tol:
        raise ValueError(f"state trace {trace.real!r} differs from 1")
    return rho


def apply_heisenberg(kraus: KrausSet, a) -> np.ndarray:
    """Evaluate ``sum_k K_k† a K_k`` for one ``d``-square ``a`` or a stack ``(..., d, d)``."""
    a = _square(a, kraus.dim, stacked=True)
    ops = kraus.ops
    return (ops.conj().transpose(0, 2, 1) @ a[..., None, :, :] @ ops).sum(axis=-3)


def kraus_word(kraus: KrausSet, word: Sequence[int]) -> np.ndarray:
    """Left-to-right product ``K[j1] @ ... @ K[jm]`` for a letter tuple.

    The empty word gives the identity.
    """
    letters = tuple(int(j) for j in word)
    n = kraus.size
    for j in letters:
        if not 0 <= j < n:
            raise ValueError(f"letter {j} out of range for {n} Kraus operators")
    mat = np.eye(kraus.dim, dtype=complex)
    for j in letters:
        mat = mat @ kraus.ops[j]
    return mat


def minimal_kraus(kraus: KrausSet) -> KrausSet:
    """Reduce to a linearly independent family presenting the same channel.

    With ``q`` the orthonormal range of the ``n x d^2`` stacking matrix at
    ``rank_rel_tol``, the reduced operators are the rows of ``q† stack``
    (the singular-value-scaled leading right singular vectors), so the
    channel action is preserved exactly and the result is deterministic up
    to the usual singular-subspace freedom.  Already independent sets are
    returned unchanged.
    """
    q = kraus._range
    if q is None:
        return kraus
    if q.shape[1] == 0:
        raise ValueError("all Kraus operators vanish")
    d = kraus.dim
    # the reduced family keeps the Frobenius norm of the stack, which may
    # lie beyond float range though every entry given is finite
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = (q.conj().T @ kraus.ops.reshape(kraus.size, d * d)).reshape(-1, d, d)
    if not np.isfinite(reduced).all():
        raise ValueError("the Kraus operators overflow when reduced to an independent family")
    return KrausSet(reduced, tol=kraus.tol)
