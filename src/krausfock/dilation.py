"""Stinespring isometries, unitary dilations and complementary channels.

The level-``m`` isometry ``V_m`` sends ``x`` to ``sum_u (G_u x) ⊗ e_u`` over
the level generators ``G_u``; it is the one object this module computes
with.  :func:`compressed_action` forms ``V† (A ⊗ 1) V``, which reproduces
the ``m``-fold channel power, and the bath side ``Tr_sys(V x V†)`` has
entries ``Tr(G_u x G_v†)``.  At level one :func:`unitary_dilation` extends
``V_1`` to a unitary ``W`` on ``system ⊗ bath`` whose ``e_0`` columns
``W[:, ::n]`` are ``V_1``.
"""

from __future__ import annotations

import numpy as np

from .channel import KrausSet, check_state, require_unital_minimal
from .linalg import _square, as_matrix, partial_trace_left
from .subproduct import SubproductSystem, _check_inductive

__all__ = [
    "stinespring_isometry",
    "unitary_dilation",
    "compressed_action",
    "complementary_state",
    "complementary_state_via_dilation",
    "covariant_symbol",
]


def _isometry(stack: np.ndarray) -> np.ndarray:
    """Isometry ``x -> sum_u (G_u x) ⊗ e_u`` of a stack of ``d``-square ``G_u``."""
    d = stack.shape[-1]
    return stack.transpose(1, 0, 2).reshape(d * len(stack), d)


def _pairing(gens: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of ``Tr(G_u x G_v†)`` over a stack of generators ``G_u``.

    It is the bath side ``Tr_sys(V x V†)`` of their isometry ``V``.  Over
    one level's generators it equals the compression
    ``B† [Tr(K_wj x K_wk†)] B`` of the word pairing onto the level basis.
    It is formed as ``conj(conj(G x) G^T)``, conjugating its own buffers in
    place, so that no conjugate copy of the stack is made.  ``x`` may be a
    stack ``(..., d, d)``, which gives a stack ``(..., count, count)``, each
    matrix by the same products as ``x`` alone would give.
    """
    count = gens.shape[0]
    gx = (gens @ x[..., None, :, :]).reshape(*x.shape[:-2], count, -1)
    np.conjugate(gx, out=gx)
    pairing = gx @ gens.reshape(count, -1).T
    return np.conjugate(pairing, out=pairing)


def stinespring_isometry(system: SubproductSystem, m: int) -> np.ndarray:
    """Isometry ``V_m`` of shape ``(d * d_m, d)`` for the ``m``-fold channel.

    It is formed from the level-``m`` generators of ``system`` alone and
    satisfies ``V_m† V_m = 1`` and ``V_m† (A ⊗ 1) V_m = Phi^m(A)`` for the
    Kraus family ``system`` was built from.
    """
    return _isometry(system.generators(m))


def unitary_dilation(kraus: KrausSet) -> np.ndarray:
    """Complete the level-one isometry to a unitary ``W`` on ``C^d ⊗ C^n``.

    The ``x ⊗ e_0`` columns ``W[:, ::n]`` are ``V_1`` and the others an
    orthonormal completion, so ``<e_0| W† (A ⊗ 1) W |e_0> = Phi(A)`` on all
    of ``B(C^d)``, whatever the completion.
    """
    require_unital_minimal(kraus)
    n, d = kraus.size, kraus.dim
    v1 = _isometry(kraus.ops)
    w = np.empty((d * n, d * n), dtype=complex)
    w[:, 0::n] = v1
    if n > 1:
        u, _, _ = np.linalg.svd(v1, full_matrices=True)
        rest = np.ones(d * n, dtype=bool)
        rest[0::n] = False
        w[:, rest] = u[:, d:]
    return w


def compressed_action(v, a) -> np.ndarray:
    """``V† (a ⊗ 1) V`` for an isometry ``v`` of shape ``(c * b, c)``.

    ``a`` is one ``c``-square matrix or a stack ``(..., c, c)``; ``a ⊗ 1``
    acts on ``v`` by a reshape, without a Kronecker product.  ``v`` is any
    ``V_m``, or the ``e_0`` columns ``W[:, ::n]`` of a unitary dilation.
    """
    v = as_matrix(v)
    rows, c = v.shape
    a = _square(a, c, stacked=True)
    if rows % c:
        raise ValueError(f"an isometry on C^{c} needs a multiple of {c} rows, got {v.shape}")
    return _compressed_action(v.conj().T, v.reshape(c, -1), a)


def _compressed_action(v_adj: np.ndarray, v_wide: np.ndarray, a: np.ndarray) -> np.ndarray:
    """:func:`compressed_action` of checked input, given ``V†`` and ``V``
    reshaped to ``c`` rows, which a caller with many ``a`` forms once."""
    c, rows = v_adj.shape
    return v_adj @ (a @ v_wide).reshape(*a.shape[:-2], rows, c)


def complementary_state(kraus: KrausSet, rho) -> np.ndarray:
    """Bath-side state with entries ``Tr(rho K_k† K_j)`` at position (j, k).

    Describes the information about ``rho`` carried into the bath by one
    step of the evolution; a density matrix whenever ``rho`` is one.  Like
    :func:`complementary_state_via_dilation`, it requires a unital, minimal
    set, and checks that before the pairing, which overflows on a set far
    from unital.
    """
    return _complementary_state(kraus, check_state(kraus, rho))


def _complementary_state(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """:func:`complementary_state` of a state that is already checked."""
    require_unital_minimal(kraus)
    return _pairing(kraus.ops, rho)


def complementary_state_via_dilation(kraus: KrausSet, rho) -> np.ndarray:
    """Same state computed by tracing the system out of the dilated evolution.

    ``W (rho ⊗ |e_0><e_0|) W†`` is ``V rho V†`` for the ``e_0`` columns
    ``V = W[:, ::n]`` of the unitary ``W = unitary_dilation(kraus)``.  Those
    columns are ``V_1``, whatever the completion, so only ``V_1`` is formed.
    """
    return _complementary_state_via_dilation(kraus, check_state(kraus, rho))


def _complementary_state_via_dilation(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """:func:`complementary_state_via_dilation` of a state that is already checked."""
    require_unital_minimal(kraus)
    v = _isometry(kraus.ops)
    return partial_trace_left(v @ rho @ v.conj().T, kraus.dim, kraus.size)


def covariant_symbol(kraus: KrausSet, system: SubproductSystem, m: int, x) -> np.ndarray:
    """Coarse-graining of a level-``m`` operator back to the system.

    For ``x`` in the level basis this is
    ``sum_{words j,k} (B x B†)_{j,k} K_j† K_k``, evaluated through the
    ``d_m`` generator matrices ``G_u = sum_w conj(B[w,u]) K_w`` as
    ``sum_{u,v} x[u,v] G_u† G_v``; equals ``V_m† (1 ⊗ x) V_m``.  Completely
    positive and unital.
    """
    (x,) = _check_inductive(system, m, m, x)
    gens = system.generators(m)
    dm, d = gens.shape[0], kraus.dim
    stacked = gens.reshape(dm * d, d)
    return stacked.conj().T @ (x @ gens.reshape(dm, d * d)).reshape(dm * d, d)
