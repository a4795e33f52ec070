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

Storage: level ``m`` is the chain factor ``C_m``, an orthonormal basis of
the range of the candidates ``H_(u,k) = G_u K_k`` built on level ``m-1``.
The factors fix the generators ``G_m = C_m† H = sum_w conj(B_m[w, :]) K_w``
of every level, so a system stores the factors, the family it was built
from, whose frozen stack is ``G_1``, and the ``G_m`` of one level, the last
one formed, and forms any other on demand by rerunning the build's step
from it or from ``G_1``, so memory does not grow by a ``d_m x d x d``
stack a level.  A reader that walks the levels upward pays one step a
level.  Every level space belongs to that one family, so a reader
of the levels reads the family from the system and is never given it
again.  Level 1 is the decision of the unital-and-minimal guard: it is
full, and ``G_1`` is the family's own frozen stack.  From level 2 on, as
long as the previous level was full, the rank rule decides whether level
``m`` is full too, by :func:`~krausfock.linalg._range_unless_full`.  The
basis ``B_m = (B_{m-1} ⊗ 1_n) C_m``, a left-canonical matrix product state
of bond dimension ``<= d^2`` with ``n^m`` rows, is formed only by the
tests, as a dense oracle; the left half of the nesting law holds by
construction.  Besides the build, every public function is a sweep or a
slice over the chain factors.  A full level, ``d_m = n d_{m-1}``, is
recorded once, as ``factors[m] is None``: its ``C_m`` is the identity, and
no reader forms it.

Sweeps: ``1 - p_l`` is the orthogonal sum of the pieces
``(B_{j-1} (1 - C_j C_j†) B_{j-1}†) ⊗ 1``, ``j <= l``.  Nesting, shift,
symmetry and presentation residuals are sweeps over sites carrying the
overlap of a ket chain with ``B_j`` and the Gram matrix of its weight on
those pieces, ``O(a d_{j-1} D_{j-1} n D_j)`` flops a site for a left bond
``a``: polynomial in ``m``.  At a full level the piece is zero: a sweep
skips the bra product there and passes a ket through as ``x ⊗ 1_n``, a
split whose right level is full (every ``C_1..C_l`` the identity,
``p_l = 1``) needs no sweep at all, and an inductive step through a full
level is ``x ⊗ 1_n``, a homomorphism, so the multiplicativity residual
across full levels is zero without forming a product.  Generic families
are full up to ``m ≈ 2 log_n d``.  Each shortcut reads the record in
``factors``, never the shape of an array: a site ``(q ⊗ 1) C_j`` can be
square without being the identity.

Shifts: the truncated Fock space of levels ``0..top`` is held as its
blocks, ``d_{m+1} x d_m`` for each letter and level; a right block is a
slice of ``C_{m+1}``, and the left blocks of every letter are the overlaps
of one sweep whose left bond is the letter, stacked ``(n, d_{m+1}, d_m)``
a level.  No function assembles the ``sum d_m``-square shift matrices.
Inductive maps carry a stack of operators through one sweep of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import KrausSet, require_unital_minimal
from .linalg import _range_unless_full, as_matrix, operator_norm, orthonormal_range

__all__ = [
    "SubproductSystem",
    "TruncatedFock",
    "build_subproduct",
    "nesting_residuals",
    "subproduct_residual",
    "power_sweep",
    "shift_left",
    "shift_right",
    "inductive_map",
    "multiplicativity_residual",
    "presentation_residual",
    "truncated_fock",
]


@dataclass(eq=False)
class SubproductSystem:
    """Chain factors of the levels of a Kraus family, the family, and one level's generators.

    ``factors[m]`` is ``C_m``, or ``None`` at a full level, whose ``C_m`` is
    the identity (``factors[0]`` is the ``1 x 1`` level-zero basis), and
    ``kraus`` is the family the levels belong to, whose frozen stack is
    ``G_1``: level 1 is full by the guard's decision, and from level 2 on,
    the rank rule decides whether a level is full, as long as the previous
    level was.  The factors fix every ``G_m``; :meth:`generators` forms it
    on demand by the build's own step, so its bits are the build's.  The
    last level formed is kept, and a reader that walks the levels upward
    pays one step a level.  :func:`build_subproduct` freezes the factors
    against writes, and every stack handed out is frozen too.
    """

    factors: list[np.ndarray | None]
    kraus: KrausSet = field(repr=False)
    # the last level formed and its frozen G_m; level 1 until one is formed
    _cache: tuple[int, np.ndarray] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        """The number of operators, the letters of the words."""
        return self.kraus.size

    @property
    def max_level(self) -> int:
        return len(self.factors) - 1

    @cached_property
    def dims(self) -> list[int]:
        """Level dimensions ``d_0..d_max_level``, read off the factors at the
        first read and kept: the factors are frozen."""
        dims, n = [1], self.n
        for c in self.factors[1:]:
            dims.append(n * dims[-1] if c is None else c.shape[1])
        return dims

    def _check_level(self, *levels: int) -> None:
        for m in levels:
            if not 0 <= m <= self.max_level:
                raise ValueError(f"level {m} out of range (max level {self.max_level})")

    def generators(self, m: int) -> np.ndarray:
        """Stack ``G_m`` of shape ``(d_m, d, d)``, frozen.

        Formed from the kept level when ``m`` is at or above it, otherwise
        from ``G_1``, one step of the build a level; it is then kept.
        """
        self._check_level(m)
        if m == 0:
            d = self.kraus.dim
            return np.broadcast_to(np.eye(d, dtype=complex), (1, d, d))  # a read-only view
        level, gens = self._cache if self._cache and self._cache[0] <= m else (1, self.kraus.ops)
        for c in self.factors[level + 1 : m + 1]:
            gens = _compress(_candidates(gens, self.kraus.ops), c)
        gens.flags.writeable = False
        self._cache = (m, gens)
        return gens


def _candidates(gens: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The candidates ``H_(u,k) = G_u K_k`` of the level after the stack ``gens``."""
    d = ops.shape[1]
    return (gens[:, None] @ ops).reshape(-1, d, d)


def _compress(cand: np.ndarray, c: np.ndarray | None) -> np.ndarray:
    """``G_m = C_m† H`` from the candidates ``H``; ``H`` itself at a full level."""
    d = cand.shape[-1]
    return cand if c is None else (c.conj().T @ cand.reshape(-1, d * d)).reshape(-1, d, d)


def build_subproduct(kraus: KrausSet, max_level: int) -> SubproductSystem:
    """Chain factors for ``m <= max_level`` of a unital, minimal set.

    Each level is formed from the one before by :func:`_candidates` and
    :func:`_compress`, the step :meth:`SubproductSystem.generators` reruns,
    so only the previous level is held; the top level is kept in the result,
    and so is ``kraus`` itself, the family every level belongs to.
    A level with no direction left by the rank rule is refused: a unital
    family has none, but a set that passes the guard only at a loose
    ``residual_tol`` can, when its candidates underflow to zero.
    """
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    require_unital_minimal(kraus)
    # the guard has found the K_k independent: level 1 is full, G_1 = K
    factors = [np.ones((1, 1), dtype=complex), None][: max_level + 1]
    gens = kraus.ops
    for m in range(2, max_level + 1):
        cand = _candidates(gens, kraus.ops)
        # For a unital family a level that is not full leaves no later level
        # full: a relation sum_k W_k K_k = 0 with W_k in level m-1 gives
        # sum_k (K_j W_k) K_k = 0 at level m+1, and the K_j W_k cannot all
        # vanish, since then W_k = sum_j K_j† K_j W_k = 0.  So only while the
        # previous level is full can this one be.
        decide = _range_unless_full if factors[-1] is None else orthonormal_range
        # the rows vec(H^T), a copy that dies with the call: their range is
        # the level subspace in the coordinates of level(m-1) ⊗ C^n
        c = decide(cand.transpose(0, 2, 1).reshape(len(cand), -1), kraus.tol)
        if c is not None:
            if c.shape[1] == 0:
                raise ValueError(f"level {m} is empty: the rank rule keeps no direction")
            c.flags.writeable = False
        factors.append(c)
        gens = _compress(cand, c)
        del cand  # before the next level's candidates are formed
    factors[0].flags.writeable = False
    return SubproductSystem(factors, kraus, _cache=(max(max_level, 1), gens))


def _full(factors) -> bool:
    """Whether every level of the chain factors ``factors`` is full."""
    return all(c is None for c in factors)


def _lift(x: np.ndarray, n: int) -> np.ndarray:
    """``x ⊗ 1_n`` of each matrix of a stack ``(..., r, c)``, written by an
    interleave: ``out[..., (i, a), (j, b)] = x[..., i, j] δ_ab``."""
    *stack, r, c = x.shape
    out = np.zeros((*stack, r, n, c, n), dtype=complex)
    for a in range(n):
        out[..., a, :, a] = x
    return out.reshape(*stack, r * n, c * n)


def _transfer(bra: np.ndarray, x: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """``sum_k bra[:, k, :]† x ket[:, k, :]`` over sites of shape ``(D n, D')``,
    for each matrix of a stack ``x`` of shape ``(..., r, c)``."""
    y = x @ ket.reshape(x.shape[-1], -1)
    return bra.conj().T @ y.reshape(*x.shape[:-2], -1, ket.shape[1])


def _complement_sweep(bra, kets, left: int, n: int, gram: bool = True):
    """Yield ``E_j = (1 ⊗ B_j)† V_j`` and ``S_j = V_j† (1 ⊗ (1 - p_j)) V_j``.

    ``V_j`` chains the sites ``kets[:j]`` behind a ``left``-dimensional bond
    and ``B_j`` the factors ``bra``, over ``n`` letters; a ``None`` in either
    is the identity of a full level, which a ket passes ``E`` and ``S``
    through as ``x ⊗ 1_n``.  ``S_j`` is ``None`` while exactly zero, and
    always for callers that read overlaps only (``gram=False``).  Pieces are
    formed residual-first as ``Z - C (C† Z)``, none at full levels.
    """
    e, s = np.eye(left, dtype=complex), None
    for c, k in zip(bra, kets):
        width = e.shape[1] * n if k is None else k.shape[1]
        z = (_lift(e, n) if k is None else e @ k.reshape(e.shape[1], -1)).reshape(left, -1, width)
        e = z if c is None else c.conj().T @ z
        if s is not None:
            s = _lift(s, n) if k is None else _transfer(k, s, k)
        if gram and c is not None:
            y = (z - c @ e).reshape(-1, width)
            s = y.conj().T @ y if s is None else s + y.conj().T @ y
        e = e.reshape(-1, width)
        yield e, s


def _gram_norm(s: np.ndarray | None) -> float:
    """``sqrt(λ_max(S))``, the operator norm of any ``Y`` with ``Y† Y = S``."""
    return 0.0 if s is None else float(np.sqrt(max(np.linalg.eigvalsh(s)[-1], 0.0)))


def nesting_residuals(system: SubproductSystem, m: int, l: int) -> list[float]:
    """Residuals ``|p_{m+j} (1 - p_m ⊗ p_j)|`` of the splits ``(m, j)``, ``j = 0..l``.

    With ``B_{m+j} = (B_m ⊗ 1) T`` each is ``|(1 ⊗ (1 - p_j)) T|``: one sweep
    of ``C_{m+1..m+l}`` on a ``d_m``-dimensional bond.  When ``C_1..C_l`` are
    the identity (level ``l`` is full), ``p_j = 1`` for every ``j <= l`` and
    the zeros need no sweep.
    """
    system._check_level(m, l, m + l)
    if _full(system.factors[1 : l + 1]):
        return [0.0] * (l + 1)
    kets = system.factors[m + 1 : m + l + 1]
    sweep = _complement_sweep(system.factors[1:], kets, system.dims[m], system.n)
    return [0.0] + [_gram_norm(s) for _, s in sweep]


def subproduct_residual(system: SubproductSystem, m: int, l: int) -> float:
    """Operator norm of ``p_{m+l} (1 - p_m ⊗ p_l)``; see :func:`nesting_residuals`."""
    return nesting_residuals(system, m, l)[l]


def power_sweep(
    bra: SubproductSystem, ket: SubproductSystem, q, m: int
) -> list[tuple[np.ndarray, float]]:
    """Pairs ``(B_j† q^{⊗j} B'_j, |(1 - p_j) q^{⊗j} B'_j|)`` for ``j = 0..m``.

    ``B`` and ``p`` belong to ``bra``, ``B'`` to ``ket`` and ``q`` acts on
    the letters; one sweep with the sites ``(1 ⊗ q) C'_j`` gives every level.
    Each site is formed when the sweep reaches it, as ``1_D ⊗ q`` at a full
    level of ``ket``.
    """
    q = as_matrix(q)
    if q.shape != (ket.n, ket.n) or bra.n != ket.n:
        raise ValueError(f"need an {ket.n}-square letter matrix for systems of equal n")
    bra._check_level(m)
    ket._check_level(m)

    def site(dim: int, c: np.ndarray | None) -> np.ndarray:
        if c is None:
            return np.kron(np.eye(dim), q)
        return (q @ c.reshape(-1, ket.n, c.shape[1])).reshape(c.shape)

    sites = map(site, ket.dims, ket.factors[1 : m + 1])
    sweep = _complement_sweep(bra.factors[1:], sites, 1, ket.n)
    return [(np.ones((1, 1), dtype=complex), 0.0)] + [(e, _gram_norm(s)) for e, s in sweep]


def _check_shift(system: SubproductSystem, k: int, m: int) -> None:
    if not 0 <= k < system.n:
        raise ValueError(f"letter {k} out of range")
    system._check_level(m, m + 1)


def _left_shifts(system: SubproductSystem, top: int) -> list[np.ndarray]:
    """Every letter's left-shift blocks ``B_{i+1}† (e_k ⊗ B_i)``, stacked
    ``(n, d_{i+1}, d_i)`` over ``k`` for each ``i < top``.

    They are the overlaps of one sweep whose left bond is the letter: the
    first ket site is ``sum_k e_k ⊗ e_k``, then come ``C_1, C_2, ...``; no
    solve is needed.  The levels are the caller's to check.
    """
    n = system.n
    kets = [np.eye(n, dtype=complex).reshape(n * n, 1), *system.factors[1:top]][:top]
    sweep = _complement_sweep(system.factors[1:], kets, n, n, gram=False)
    return [e.reshape(n, -1, e.shape[1]) for e, _ in sweep]


def shift_left(system: SubproductSystem, k: int, m: int) -> np.ndarray:
    """Block ``(d_{m+1}, d_m)`` of the left shift ``psi -> p_{m+1}(e_k ⊗ psi)``.

    Prepends letter ``k``; always a contraction.  A slice of the stack that
    one sweep of :func:`_left_shifts` gives for every letter.
    """
    _check_shift(system, k, m)
    return _left_shifts(system, m + 1)[m][k]


def shift_right(system: SubproductSystem, k: int, m: int) -> np.ndarray:
    """Block of the right shift, append letter ``k``: ``C_{m+1}[:, k, :]†``.

    At a full level ``m + 1`` that is the 0/1 block selecting the rows
    ``(i, k)``, written directly.
    """
    _check_shift(system, k, m)
    c, n = system.factors[m + 1], system.n
    if c is not None:
        return c[k::n].conj().T
    block = np.zeros((system.dims[m + 1], system.dims[m]), dtype=complex)
    block[k::n] = np.eye(system.dims[m])
    return block


def _check_inductive(
    system: SubproductSystem, m: int, l: int, *ops, stacked: bool = False
) -> list[np.ndarray]:
    """The level-``m`` operators ``ops`` as matrices, or stacks of them if
    ``stacked``, after checking each shape and ``m <= l <= max_level``."""
    mats = [as_matrix(x, stacked) for x in ops]
    system._check_level(m)
    dim = system.dims[m]
    for x in mats:
        if x.shape[-2:] != (dim, dim):
            raise ValueError(f"operator must be {dim}-square at level {m}, got {x.shape}")
    if not m <= l <= system.max_level:
        raise ValueError(f"need m <= l <= max_level, got m={m}, l={l}")
    return mats


def inductive_map(system: SubproductSystem, a, m: int, l: int) -> np.ndarray:
    """Sum of right-shift conjugations carrying level ``m`` to level ``l``.

    Each step is the transfer map ``x -> sum_k C[:, k, :]† x C[:, k, :]`` of
    the chain, which is ``x ⊗ 1_n`` at a full level (``C`` the identity),
    written without a matmul.  Unital and positive, and the composition rule
    ``iota(r,l) ∘ iota(m,r) = iota(m,l)`` holds by construction.

    ``a`` is one ``d_m``-square operator, or a stack ``(..., d_m, d_m)`` of
    them, which one sweep of the chain carries to ``(..., d_l, d_l)``; each
    matrix is formed by the same products, so it equals the one of its
    operator alone.
    """
    (x,) = _check_inductive(system, m, l, a, stacked=True)
    for c in system.factors[m + 1 : l + 1]:
        x = _lift(x, system.n) if c is None else _transfer(c, x, c)
    return x


def multiplicativity_residual(system: SubproductSystem, a, b, m: int, l: int) -> float:
    """Norm of ``iota(ab) - iota(a) iota(b)`` between levels ``m`` and ``l``.

    ``a`` and ``b`` are matrices; ``ab``, ``a`` and ``b`` are carried up by
    one sweep of the chain, as one stack.  Exactly ``0.0`` when levels
    ``m+1..l`` are full: every step is then ``x -> x ⊗ 1_n``, a
    homomorphism, and nothing is formed.
    """
    a, b = _check_inductive(system, m, l, a, b)
    if _full(system.factors[m + 1 : l + 1]):
        return 0.0
    joint, ia, ib = inductive_map(system, np.stack([a @ b, a, b]), m, l)
    return operator_norm(joint - ia @ ib)


def presentation_residual(
    original: SubproductSystem, mixed: SubproductSystem, u, m: int
) -> float:
    """Distance ``|p'_m - U p_m U†|``, ``U = (u^T)^{⊗m}``, of two presentations.

    ``mixed`` must be built from ``K'_j = sum_i u[i, j] K_i`` for a unitary
    ``u``, which rotates the level subspace by ``U``; the distance, the larger
    one-sided sine of the largest principal angle, is zero up to rounding.
    """
    u = as_matrix(u)
    left = power_sweep(mixed, original, u.T, m)[m][1]
    right = power_sweep(original, mixed, u.conj(), m)[m][1]
    return max(left, right)


@dataclass(eq=False)
class TruncatedFock:
    """Direct sum of the levels ``0..top``, held as its per-level shift blocks.

    ``left_blocks[m][k]`` maps level ``m`` to level ``m+1`` by prepending
    letter ``k``; ``right_blocks`` appends instead.  A shift of one letter on
    the sum is block sub-diagonal, so its norm is the largest of its blocks'.
    """

    dims: tuple[int, ...]
    left_blocks: list[list[np.ndarray]]
    right_blocks: list[list[np.ndarray]]


def truncated_fock(system: SubproductSystem, top: int | None = None) -> TruncatedFock:
    """The shift blocks of the levels ``0..top``: the left ones of every letter
    from one sweep, the right ones slices of the chain factors."""
    top = system.max_level if top is None else top
    system._check_level(top)
    dims = tuple(system.dims[: top + 1])
    left = [list(blocks) for blocks in _left_shifts(system, top)]
    right = [[shift_right(system, k, m) for k in range(system.n)] for m in range(top)]
    return TruncatedFock(dims=dims, left_blocks=left, right_blocks=right)
