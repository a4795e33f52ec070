"""Stinespring isometries, unitary dilations and complementary channels.

The level-``m`` isometry sends ``x`` to ``sum_u (G_u x) ⊗ e_u`` over the
level generators ``G_u``, so compressing ``A ⊗ 1`` through it reproduces
the ``m``-fold channel power.  At level one the isometry extends to a
unitary on ``system ⊗ bath`` acting on the distinguished bath vector slice.
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
    """Level, isometry ``V_m`` and, at level one, the completed unitary ``W``.

    ``bath_index`` is the bath basis vector on which ``W`` acts as ``V_1``;
    all compression results are independent of how the completion fills the
    remaining columns.
    """

    level: int
    isometry: np.ndarray
    unitary: np.ndarray | None = None
    bath_index: int = 0


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
    return DilationBundle(level=1, isometry=v1, unitary=w, bath_index=0)


def compressed_action(w, a, dim: int, bath_dim: int, bath_index: int = 0) -> np.ndarray:
    """The ``dim``-square block ``<e_b| W† (a ⊗ 1) W |e_b>`` of a dilation."""
    w = as_matrix(w)
    a = as_matrix(a)
    cols = w[:, bath_index::bath_dim]
    return cols.conj().T @ np.kron(a, np.eye(bath_dim)) @ cols


def complementary_state(kraus: KrausSet, rho) -> np.ndarray:
    """Bath-side state with entries ``Tr(rho K_k† K_j)`` at position (j, k).

    Describes the information about ``rho`` carried into the bath by one
    step of the evolution; a density matrix whenever ``rho`` is one.
    """
    rho = check_state(kraus, rho)
    n = kraus.size
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j, k] = np.trace(kraus.ops[j] @ rho @ kraus.ops[k].conj().T)
    return out


def complementary_state_via_dilation(
    kraus: KrausSet, rho, bundle: DilationBundle | None = None
) -> np.ndarray:
    """Same state computed by tracing the system out of the dilated evolution."""
    rho = check_state(kraus, rho)
    if bundle is None:
        bundle = unitary_dilation(kraus)
    n, d = kraus.size, kraus.dim
    e_ref = np.zeros((n, n), dtype=complex)
    e_ref[bundle.bath_index, bundle.bath_index] = 1.0
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
