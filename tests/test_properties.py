"""Property tests over small random catalog instances.

Each example draws a family, its size parameters and a seed, builds the
minimal presentation and checks one structural law of the level spaces.
Levels stay at ``m <= 4`` and ``n <= 3`` so the dense word-stack oracle
(``n^m`` words) stays cheap.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from krausfock import (
    KrausSet,
    build_subproduct,
    commuting_generic,
    minimal_kraus,
    operator_norm,
    projective_measurement,
    random_unital,
    sequential_projective,
    subproduct_residual,
)
from conftest import dense_level_basis, haar_unitary

TOP = 4
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def instances(draw):
    """A minimal Kraus family from one of four catalog families."""
    family = draw(st.sampled_from(["projective", "commuting", "random", "sequential"]))
    seed = draw(st.integers(0, 10_000))
    if family == "projective":
        ranks = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
        kraus = projective_measurement(sum(ranks), ranks)
    elif family == "commuting":
        kraus = commuting_generic(draw(st.integers(2, 3)), draw(st.integers(2, 6)), seed=seed)
    elif family == "random":
        kraus = random_unital(draw(st.integers(2, 3)), draw(st.integers(2, 4)), seed=seed)
    else:
        angle = draw(st.floats(0.05, 1.5))
        kraus = sequential_projective(draw(st.integers(2, 5)), angle, seed=seed)
    return minimal_kraus(kraus)


def top_level(kraus):
    # keep the dense oracle at no more than 3^4 = 81 words
    return TOP if kraus.size <= 3 else 3


@PROPERTY_SETTINGS
@given(instances())
def test_chain_build_matches_dense_oracle(kraus):
    top = top_level(kraus)
    system = build_subproduct(kraus, top)
    for m in range(top + 1):
        dense = dense_level_basis(kraus, m)
        chain = system.basis(m)
        assert chain.shape == dense.shape, m
        # looser than the fixed-instance check: random draws do not control
        # how far the smallest kept singular value sits above the threshold
        assert operator_norm(chain - dense @ (dense.conj().T @ chain)) <= 1e-10, m


@PROPERTY_SETTINGS
@given(instances())
def test_nesting_law_over_all_splits(kraus):
    system = build_subproduct(kraus, TOP)
    worst = max(
        subproduct_residual(system, m, l) for m in range(TOP + 1) for l in range(TOP + 1 - m)
    )
    assert worst <= 1e-8


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 10_000))
def test_dims_do_not_depend_on_the_presentation(kraus, seed):
    u = haar_unitary(np.random.default_rng(seed), kraus.size)
    mixed = KrausSet(np.einsum("ij,iab->jab", u, kraus.ops), tol=kraus.tol)
    assert build_subproduct(mixed, TOP).dims == build_subproduct(kraus, TOP).dims
