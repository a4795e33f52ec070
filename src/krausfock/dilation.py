"""Stinespring isometries, unitary dilations and complementary channels.

The level-``m`` isometry sends ``x`` to ``sum_u (G_u x) ⊗ e_u`` over the
level generators ``G_u``, so compressing ``A ⊗ 1`` through it reproduces
the ``m``-fold channel power.  At level one the isometry extends to a
unitary on ``system ⊗ bath`` that acts as it on the bath vector ``e_0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import KrausSet, check_state, require_unital_minimal
from .linalg import as_matrix, partial_trace_left
from .subproduct import SubproductSystem

__all__ = [
    "DilationBundle",
    "stinespring_isometry",
    "unitary_dilation",
    "compressed_action",
    "complementary_state",
    "complementary_state_via_dilation",
    "covariant_symbol",
]


@dataclass(eq=False)
class DilationBundle:
    """Level-one isometry ``V_1`` and its completion to a unitary ``W``.

    ``W`` acts as ``V_1`` on the slice of the bath vector ``e_0``; all
    compression results are independent of how the completion fills the
    remaining columns.
    """

    isometry: np.ndarray
    unitary: np.ndarray


def stinespring_isometry(kraus: KrausSet, system: SubproductSystem, m: int) -> np.ndarray:
    """Isometry ``V_m`` of shape ``(d * d_m, d)`` for the ``m``-fold channel.

    Satisfies ``V_m† V_m = 1`` and ``V_m† (A ⊗ 1) V_m = Phi^m(A)``.
    """
    gens = system.generators(m)
    d = kraus.dim
    return gens.transpose(1, 0, 2).reshape(d * gens.shape[0], d)


def unitary_dilation(kraus: KrausSet) -> DilationBundle:
    """Complete the level-one isometry to a unitary ``W`` on ``C^d ⊗ C^n``.

    ``W`` agrees with ``V_1`` on the ``x ⊗ e_0`` slice and carries an
    orthonormal completion elsewhere, so
    ``<e_0| W† (A ⊗ 1) W |e_0> = Phi(A)`` on all of ``B(C^d)``.
    """
    require_unital_minimal(kraus)
    n, d = kraus.size, kraus.dim
    v1 = kraus.ops.transpose(1, 0, 2).reshape(d * n, d)
    w = np.empty((d * n, d * n), dtype=complex)
    w[:, 0::n] = v1
    if n > 1:
        u, _, _ = np.linalg.svd(v1, full_matrices=True)
        rest = np.ones(d * n, dtype=bool)
        rest[0::n] = False
        w[:, rest] = u[:, d:]
    return DilationBundle(isometry=v1, unitary=w)


def compressed_action(w, a, dim: int, bath_dim: int) -> np.ndarray:
    """The ``dim``-square block ``<e_0| W† (a ⊗ 1) W |e_0>`` of a dilation.

    ``e_0`` is the bath vector of :func:`unitary_dilation`.  ``a`` is one
    ``dim``-square matrix or a stack ``(..., dim, dim)``; ``a ⊗ 1`` acts on the
    ``e_0`` columns by a reshape, without a Kronecker product.
    """
    w = as_matrix(w)
    a = as_matrix(a, stacked=True)
    if a.shape[-2:] != (dim, dim) or w.shape[0] != dim * bath_dim:
        raise ValueError(f"shapes {a.shape} and {w.shape} do not fit dim {dim}, bath {bath_dim}")
    cols = w[:, ::bath_dim]
    lifted = (a @ cols.reshape(dim, -1)).reshape(*a.shape[:-2], dim * bath_dim, dim)
    return cols.conj().T @ lifted


def complementary_state(kraus: KrausSet, rho) -> np.ndarray:
    """Bath-side state with entries ``Tr(rho K_k† K_j)`` at position (j, k).

    Describes the information about ``rho`` carried into the bath by one
    step of the evolution; a density matrix whenever ``rho`` is one.
    """
    rho = check_state(kraus, rho)
    n, d = kraus.size, kraus.dim
    # Tr(K_j rho K_k†) is the inner product of vec(K_j rho) with vec(K_k)
    return (kraus.ops @ rho).reshape(n, d * d) @ kraus.ops.reshape(n, d * d).conj().T


def complementary_state_via_dilation(
    kraus: KrausSet, rho, bundle: DilationBundle | None = None
) -> np.ndarray:
    """Same state computed by tracing the system out of the dilated evolution."""
    rho = check_state(kraus, rho)
    if bundle is None:
        bundle = unitary_dilation(kraus)
    n, d = kraus.size, kraus.dim
    e_ref = np.zeros((n, n), dtype=complex)
    e_ref[0, 0] = 1.0
    big = bundle.unitary @ np.kron(rho, e_ref) @ bundle.unitary.conj().T
    return partial_trace_left(big, d, n)


def covariant_symbol(kraus: KrausSet, system: SubproductSystem, m: int, x) -> np.ndarray:
    """Coarse-graining of a level-``m`` operator back to the system.

    For ``x`` in the level basis this is
    ``sum_{words j,k} (B x B†)_{j,k} K_j† K_k``, evaluated through the
    ``d_m`` generator matrices ``G_u = sum_w conj(B[w,u]) K_w`` as
    ``sum_{u,v} x[u,v] G_u† G_v``; equals ``V_m† (1 ⊗ x) V_m``.  Completely
    positive and unital.
    """
    x = as_matrix(x)
    gens = system.generators(m)
    dm, d = gens.shape[0], kraus.dim
    if x.shape != (dm, dm):
        raise ValueError(f"operator must be {dm}-square at level {m}, got {x.shape}")
    stacked = gens.reshape(dm * d, d)
    return stacked.conj().T @ (x @ gens.reshape(dm, d * d)).reshape(dm * d, d)
