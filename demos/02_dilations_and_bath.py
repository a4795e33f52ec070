"""Unitary dilations and what the bath learns about the system.

A unital channel is the compression of a unitary acting on system ⊗ bath.
This script builds that unitary explicitly, checks that compressing onto
the reference bath vector reproduces the channel, and then looks at the
other side of the coin: tracing out the system leaves the bath in a state
whose entries are the word pairings Tr(rho K_k† K_j) — the information
that one evolution step leaks into the environment.
"""

import numpy as np

from krausfock import (
    apply_heisenberg,
    build_subproduct,
    complementary_state,
    complementary_state_via_dilation,
    compressed_action,
    covariant_symbol,
    operator_norm,
    random_unital,
    stinespring_isometry,
    unitary_dilation,
)

rng = np.random.default_rng(7)
kraus = random_unital(3, 4, seed=11)
d, n = kraus.dim, kraus.size

w = unitary_dilation(kraus)
print(f"channel with n={n} Kraus operators on C^{d}")
print(f"dilation unitary on C^{d} ⊗ C^{n}: unitarity residual "
      f"{operator_norm(w @ w.conj().T - np.eye(d * n)):.2e}")

a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
a = a + a.conj().T
compressed = compressed_action(w[:, ::n], a)  # the e_0 columns of w are V_1
print(f"compression reproduces the channel: "
      f"{operator_norm(compressed - apply_heisenberg(kraus, a)):.2e}")

rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
rho = rho @ rho.conj().T
rho /= np.trace(rho).real
bath_state = complementary_state(kraus, rho)
bath_state_2 = complementary_state_via_dilation(kraus, rho)
print()
print("bath state after one step (two equivalent computations):")
print(f"  Kraus-sum vs trace-out agreement: "
      f"{operator_norm(bath_state - bath_state_2):.2e}")
print(f"  trace {np.trace(bath_state).real:.6f}, "
      f"eigenvalues {np.round(np.linalg.eigvalsh(bath_state), 4)}")

# multi-step: each power of the channel has its own minimal isometry, and
# level operators pull back to the system through the coarse-graining map
system = build_subproduct(kraus, 3)
print()
print("per-level isometries and the coarse-graining map:")
for m in (1, 2, 3):
    v = stinespring_isometry(system, m)
    iso = operator_norm(v.conj().T @ v - np.eye(d))
    x = rng.normal(size=(system.dims[m],) * 2)
    via_v = v.conj().T @ np.kron(np.eye(d), x) @ v
    direct = covariant_symbol(kraus, system, m, x)
    print(f"  m={m}: d_m={system.dims[m]}, isometry residual {iso:.2e}, "
          f"symbol route agreement {operator_norm(via_v - direct):.2e}")
