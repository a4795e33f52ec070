"""Level spaces spanned by operator words, with shifts and inductive maps.

For a Kraus family ``K_1..K_n`` the level-``m`` space is the span of the
adjoints of all length-``m`` operator words.  It is embedded in the
``m``-fold tensor power of C^n by matching the basis vector
``e_j1 ⊗ ... ⊗ e_jm`` with ``(K_j1 @ ... @ K_jm)†``: a coefficient vector
lies in the kernel of that correspondence exactly when the matching
combination of adjoint words vanishes, and since word concatenation
multiplies the underlying operators, both one-sided extensions of a kernel
vector stay in the kernel.  The orthocomplements therefore satisfy the
nesting law ``level(m+l) ⊆ level(m) ⊗ level(l)`` exactly.

Each level is stored in two forms that share one basis: an isometry
``B_m`` of shape ``(n^m, d_m)`` whose columns are an orthonormal basis of
the level subspace, so the level projection is ``p_m = B_m @ B_m†``, and
the generator stack ``G_m`` of shape ``(d_m, d, d)`` with
``G_u = sum_w conj(B_m[w, u]) K_w``.  The generators span the same operator
space as the length-``m`` words, so every consumer works on ``d_m``
matrices instead of ``n^m`` words.

Levels nest, ``level(m) ⊆ level(m-1) ⊗ C^n``, so each level is built from
the previous one: the candidates ``H_(u,k) = G_u K_k`` carry the level-``m``
word span, an orthonormal basis ``C`` of the range of their stacked
transposes (one SVD of a ``(d_{m-1} n) x d^2`` matrix) fixes the level, and
``G_m = C† H``, ``B_m = (B_{m-1} ⊗ 1_n) C``.  In exact arithmetic the
singular values are those of the full ``n^m x d^2`` word stack, so the rank
rule at ``tol.rank_rel_tol`` decides the same dimensions.  When a level
has full dimension, ``C`` is the exact identity, so free families keep
identity bases and produce exactly zero residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausSet, require_unital_minimal
from .linalg import (
    Tolerances,
    as_matrix,
    kron_power_apply,
    operator_norm,
    orthonormal_range,
)

__all__ = [
    "SubproductSystem",
    "TruncatedFock",
    "build_subproduct",
    "level_projection",
    "subproduct_residual",
    "shift_left",
    "shift_right",
    "inductive_map",
    "multiplicativity_residual",
    "presentation_residual",
    "truncated_fock",
]


@dataclass(eq=False)
class SubproductSystem:
    """Orthonormal level bases and generator stacks of a Kraus family.

    ``bases[m]`` is ``B_m`` and ``gen_stacks[m]`` is ``G_m``, both present
    for every ``m <= max_level``.
    """

    n: int
    dim: int
    bases: list[np.ndarray]
    gen_stacks: list[np.ndarray] = field(repr=False)
    tol: Tolerances

    @property
    def max_level(self) -> int:
        return len(self.bases) - 1

    @property
    def dims(self) -> list[int]:
        """Level dimensions ``d_0..d_max_level``."""
        return [b.shape[1] for b in self.bases]

    def _check_level(self, m: int) -> None:
        if not 0 <= m <= self.max_level:
            raise ValueError(f"level {m} out of range (max level {self.max_level})")

    def dimension(self, m: int) -> int:
        self._check_level(m)
        return self.bases[m].shape[1]

    def basis(self, m: int) -> np.ndarray:
        """Isometry ``B_m`` with the level subspace as its column range."""
        self._check_level(m)
        return self.bases[m]

    def generators(self, m: int) -> np.ndarray:
        """Stack ``G_m`` of shape ``(d_m, dim, dim)``."""
        self._check_level(m)
        return self.gen_stacks[m]


def build_subproduct(kraus: KrausSet, max_level: int) -> SubproductSystem:
    """Construct level bases and generators for ``m = 0..max_level``.

    Requires a valid (unital) and minimal Kraus set.  Every level is built
    in full from the previous one; the bases hold ``sum_m n^m d_m`` entries.
    """
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    require_unital_minimal(kraus)
    n, d = kraus.size, kraus.dim
    tol = kraus.tol

    bases = [np.ones((1, 1), dtype=complex)]
    gens = [np.eye(d, dtype=complex).reshape(1, d, d)]
    for m in range(1, max_level + 1):
        prev = bases[-1]
        cand = (gens[-1][:, None] @ kraus.ops).reshape(-1, d, d)
        # rows are vec(H^T): their range is the level subspace in the
        # coordinates of level(m-1) ⊗ C^n
        c = orthonormal_range(cand.transpose(0, 2, 1).reshape(-1, d * d), tol)
        if c.shape[1] == c.shape[0]:
            c = np.eye(c.shape[0], dtype=complex)
        dm = c.shape[1]
        gens.append((c.conj().T @ cand.reshape(-1, d * d)).reshape(dm, d, d))
        bases.append((prev @ c.reshape(prev.shape[1], n * dm)).reshape(n**m, dm))

    return SubproductSystem(n=n, dim=d, bases=bases, gen_stacks=gens, tol=tol)


def level_projection(system: SubproductSystem, m: int) -> np.ndarray:
    """Projection ``p_m = B_m @ B_m†`` on the full ``n^m`` tensor level."""
    b = system.basis(m)
    return b @ b.conj().T


def subproduct_residual(system: SubproductSystem, m: int, l: int) -> float:
    """Operator norm of ``p_{m+l} (1 - p_m ⊗ p_l)``.

    Evaluated as ``|B_{m+l} - (p_m ⊗ p_l) B_{m+l}|`` without forming any
    ``n^{m+l}``-square matrix.
    """
    b_top = system.basis(m + l)
    bm = system.basis(m)
    bl = system.basis(l)
    nm, nl = system.n**m, system.n**l
    cols = b_top.shape[1]
    top = b_top.reshape(nm, nl, cols)
    inner = np.einsum("au,avk->uvk", bm.conj(), top)
    inner = np.einsum("uvk,vw->uwk", inner, bl.conj())
    recon = np.einsum("au,uwk,bw->abk", bm, inner, bl).reshape(nm * nl, cols)
    return operator_norm(b_top - recon)


def shift_left(system: SubproductSystem, k: int, m: int) -> np.ndarray:
    """Block of the left shift: prepend letter ``k``, level ``m -> m+1``.

    Returns the ``(d_{m+1}, d_m)`` matrix of ``psi -> p_{m+1}(e_k ⊗ psi)``
    in the level bases; always a contraction.
    """
    if not 0 <= k < system.n:
        raise ValueError(f"letter {k} out of range")
    b_next = system.basis(m + 1)
    block = b_next[k * system.n**m : (k + 1) * system.n**m, :]
    return block.conj().T @ system.basis(m)


def shift_right(system: SubproductSystem, k: int, m: int) -> np.ndarray:
    """Block of the right shift: append letter ``k``, level ``m -> m+1``."""
    if not 0 <= k < system.n:
        raise ValueError(f"letter {k} out of range")
    b_next = system.basis(m + 1)
    block = b_next[k :: system.n, :]
    return block.conj().T @ system.basis(m)


def inductive_map(system: SubproductSystem, a, m: int, l: int) -> np.ndarray:
    """Sum of right-shift conjugations carrying level ``m`` to level ``l``.

    Unital and positive; iterating the one-step sums makes the composition
    rule ``iota(r,l) ∘ iota(m,r) = iota(m,l)`` hold by construction.
    """
    x = as_matrix(a)
    if x.shape != (system.dimension(m),) * 2:
        raise ValueError(
            f"operator must be {system.dimension(m)}-square at level {m}, got {x.shape}"
        )
    if not m <= l <= system.max_level:
        raise ValueError(f"need m <= l <= max_level, got m={m}, l={l}")
    for level in range(m, l):
        shifts = [shift_right(system, k, level) for k in range(system.n)]
        x = sum(r @ x @ r.conj().T for r in shifts)
    return x


def multiplicativity_residual(system: SubproductSystem, a, b, m: int, l: int) -> float:
    """Norm of ``iota(ab) - iota(a) iota(b)`` between levels ``m`` and ``l``."""
    a = as_matrix(a)
    b = as_matrix(b)
    joint = inductive_map(system, a @ b, m, l)
    separate = inductive_map(system, a, m, l) @ inductive_map(system, b, m, l)
    return operator_norm(joint - separate)


def presentation_residual(
    original: SubproductSystem, mixed: SubproductSystem, u, m: int
) -> float:
    """Distance between level projections of two presentations of one channel.

    ``mixed`` must be built from the operators ``K'_j = sum_i u[i, j] K_i``
    for a unitary ``u``.  The mixing rotates the embedded level subspace by
    the ``m``-fold power of ``u^T``, so the aligned projections agree; the
    returned operator norm ``|p'_m - (u^T)^{⊗m} p_m (u^T†)^{⊗m}|`` is zero
    up to rounding whenever both systems present the same channel.
    """
    u = as_matrix(u)
    b_mixed = mixed.basis(m)
    b_aligned = kron_power_apply(u.T, m, original.basis(m))
    # |P - Q| = max of the two one-sided sines of the largest principal
    # angle; evaluated residual-first to avoid cancellation near zero.
    left = b_aligned - b_mixed @ (b_mixed.conj().T @ b_aligned)
    right = b_mixed - b_aligned @ (b_aligned.conj().T @ b_mixed)
    return max(operator_norm(left), operator_norm(right))


@dataclass(eq=False)
class TruncatedFock:
    """Direct sum of the levels ``0..top`` with per-level shift blocks.

    ``left_blocks[m][k]`` maps level ``m`` to level ``m+1`` by prepending
    letter ``k``; ``right_blocks`` appends instead.  Full matrices on the
    truncated sum place each block below the diagonal.
    """

    dims: tuple[int, ...]
    left_blocks: list[list[np.ndarray]]
    right_blocks: list[list[np.ndarray]]

    @property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for d in self.dims:
            out.append(out[-1] + d)
        return tuple(out)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def _assemble(self, blocks: list[np.ndarray]) -> np.ndarray:
        off = self.offsets
        full = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for m, block in enumerate(blocks):
            full[off[m + 1] : off[m + 2], off[m] : off[m + 1]] = block
        return full

    def left_shift_matrix(self, k: int) -> np.ndarray:
        return self._assemble([level[k] for level in self.left_blocks])

    def right_shift_matrix(self, k: int) -> np.ndarray:
        return self._assemble([level[k] for level in self.right_blocks])


def truncated_fock(system: SubproductSystem, top: int | None = None) -> TruncatedFock:
    """Assemble the truncated direct sum of levels ``0..top`` with shifts."""
    top = system.max_level if top is None else top
    dims = tuple(system.dimension(m) for m in range(top + 1))
    left = [[shift_left(system, k, m) for k in range(system.n)] for m in range(top)]
    right = [[shift_right(system, k, m) for k in range(system.n)] for m in range(top)]
    return TruncatedFock(dims=dims, left_blocks=left, right_blocks=right)
