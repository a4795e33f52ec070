"""Watching a channel turn classical over repeated applications.

Fixing a reference state, every observable A has a time-m shadow on the
level-m space: a matrix of normalized post-measurement pairings.  For a
projective measurement the shadow is diagonal from the first step — the
channel is classical immediately.  For commuting-but-not-projective
channels the shadows form fuzzy approximations whose multiplicativity and
commutator defects do not decay level by level, but vanish once the level
space saturates at the d common eigenvectors; for free random channels nothing commutes and the word algebra
keeps its full quantum character (normal ordering fails).  Once a generic
channel's level reaches d_m = d^2 the shadow map is a similarity onto all
of M_d, so its multiplicativity defect is exactly 0: the limit is the whole
matrix algebra, not a classical one.
"""

import numpy as np

from krausfock import (
    CorrelationData,
    build_subproduct,
    commuting_generic,
    convergence_report,
    dequantize,
    normal_ordering_residual,
    operator_norm,
    phi_symmetry_residual,
    projective_measurement,
    random_unital,
    state_spec,
)

MAX_LEVEL = 6

print("=== projective measurement: classical after one step ===")
kraus = projective_measurement(3)
system = build_subproduct(kraus, MAX_LEVEL)
spec = state_spec(kraus, np.eye(3) / 3)
corr = CorrelationData(system, spec)
a = np.diag([1.0, -0.5, 2.0])
b = np.diag([0.5, 1.5, -1.0])
report = convergence_report(corr, a, b)
print("multiplicativity defect per level:",
      " ".join(f"{x:.1e}" for x in report.vn_residual))
print("identity shadow defect:",
      f"{operator_norm(dequantize(corr, np.eye(3), MAX_LEVEL) - np.eye(3)):.1e}")
print("state recovered from the level pairing:",
      " ".join(f"{x:.1e}" for x in report.limit_state_gap))

print()
print("=== commuting generic: a fuzzy classical limit ===")
kraus = commuting_generic(2, 12, seed=3)
system = build_subproduct(kraus, MAX_LEVEL)
spec = state_spec(kraus, np.eye(12) / 12)
corr = CorrelationData(system, spec)
a = kraus.ops[0].conj().T @ kraus.ops[0] - kraus.ops[1].conj().T @ kraus.ops[1]
b = kraus.ops[0].conj().T @ kraus.ops[1] + kraus.ops[1].conj().T @ kraus.ops[0]
report = convergence_report(corr, a, b)
print("level dimensions:", system.dims[1:])
print("correlation symmetry defect (first residual) per level:")
symmetry = phi_symmetry_residual(corr)
print("   ", " ".join(f"{symmetry[m][0]:.2e}" for m in range(1, MAX_LEVEL + 1)))
print("norm gap |  |shadow| - |A|  | per level:")
print("   ", " ".join(f"{x:.3f}" for x in report.norm_gap))
print("scaled commutator m|[shadow_A, shadow_B]| per level (bounded):")
print("   ", " ".join(f"{x:.3f}" for x in report.scaled_commutator))
print("verdicts:", report.verdicts)
deep = build_subproduct(kraus, 11)
report = convergence_report(CorrelationData(deep, spec), a, b)
print("no plateau: both defects vanish once d_m saturates at the 12 points")
for m in (10, 11):
    print(f"  m={m}: d_m={deep.dims[m]}, multiplicativity defect "
          f"{report.vn_residual[m - 1]:.1e}, scaled commutator "
          f"{report.scaled_commutator[m - 1]:.1e}")

print()
print("=== free random family: no reordering, no classical limit ===")
kraus = random_unital(2, 16, seed=0)
system = build_subproduct(kraus, 3)
residual = normal_ordering_residual(kraus, system, (0,), (1,), 3)
print(f"normal-ordering residual of K_0 K_1† at degree <= 3: {residual:.3f}")
print("strictly positive: anti-normally ordered words carry information the")
print("forward trajectories cannot express.")
kraus = random_unital(2, 4, seed=0)
system = build_subproduct(kraus, MAX_LEVEL)
corr = CorrelationData(system, state_spec(kraus, np.eye(4) / 4))
a = kraus.ops[0].conj().T @ kraus.ops[0] - kraus.ops[1].conj().T @ kraus.ops[1]
b = kraus.ops[0].conj().T @ kraus.ops[1] + kraus.ops[1].conj().T @ kraus.ops[0]
report = convergence_report(corr, a, b)
print(f"random_unital(2,4), d_m = {system.dims[1:]}: multiplicativity defect",
      " ".join(f"{x:.1e}" for x in report.vn_residual), "(exactly 0 once d_m = 16)")
