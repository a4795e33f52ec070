"""How the level spaces of a channel grow with time.

Each channel is a finite family of Kraus matrices.  The span of the
adjoints of all length-m operator words is the level-m space; its
dimension ladder is a fingerprint of the algebraic relations among the
Kraus operators:

* orthogonal projections stabilize immediately (repeated measurements
  give no new trajectories),
* commuting operators grow like the symmetric powers,
* generic random operators grow freely until the ambient operator space
  saturates.
"""

import numpy as np

from krausfock import (
    build_subproduct,
    commuting_generic,
    projective_measurement,
    random_unital,
    sequential_projective,
    subproduct_residual,
)

MAX_LEVEL = 7

families = {
    "projective measurement (n=3, d=3)": projective_measurement(3),
    "commuting generic     (n=2, d=12)": commuting_generic(2, 12, seed=3),
    "commuting generic     (n=3, d=20)": commuting_generic(3, 20, seed=3),
    "random unital         (n=2, d=16)": random_unital(2, 16, seed=0),
    "sequential projective (n=4, d=4) ": sequential_projective(4, np.pi / 4, seed=0),
}

print(f"{'family':38s}  dimension ladder m=0..{MAX_LEVEL}")
systems = {}
for name, kraus in families.items():
    system = build_subproduct(kraus, MAX_LEVEL)
    systems[name] = system
    print(f"{name:38s}  {system.dims}")

print()
print("nesting law: every level sits inside every tensor split of levels.")
print("largest residual |p_(m+l) (1 - p_m ⊗ p_l)| over all splits with m+l <= 5:")
for name, system in systems.items():
    worst = max(
        subproduct_residual(system, m, l)
        for m in range(1, 5)
        for l in range(1, 6 - m)
    )
    print(f"{name:38s}  {worst:.3e}")

print()
print("the ladders, not the Kraus matrices, are the invariant object:")
print("mixing the operators by a random unitary changes nothing (see the")
print("presentation_residual helper and the test suite).")
