import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krausfock.subproduct
from krausfock import (
    KrausSet,
    Tolerances,
    build_subproduct,
    commuting_generic,
    inductive_map,
    multiplicativity_residual,
    nesting_residuals,
    operator_norm,
    presentation_residual,
    random_unital,
    sequential_projective,
    shift_left,
    shift_right,
    subproduct_residual,
    truncated_fock,
)
from conftest import (
    chain_basis,
    chain_factor,
    dense_level_basis,
    every_level,
    full_levels,
    haar_unitary,
    kron_power_apply,
    multiplicativity_oracle,
    random_complex,
    random_hermitian,
    range_ladder,
    residual_oracle,
    shift_oracle,
    word_stack,
)


class TestBuild:
    def test_level_zero(self, commuting212):
        s = build_subproduct(commuting212, 2)
        assert s.dims[0] == 1
        assert np.array_equal(chain_basis(s, 0), np.ones((1, 1)))
        assert build_subproduct(commuting212, 0).dims == [1]

    def test_level_one_is_identity_for_minimal_sets(self, catalog_quartet):
        # the guard has found the K_k independent, so level 1 is recorded
        # full without a decision of its own, and G_1 is the frozen stack
        for k in catalog_quartet.values():
            s = build_subproduct(k, 3)
            assert s.dims[1] == k.size
            assert np.array_equal(chain_basis(s, 1), np.eye(k.size))
            assert s.factors[1] is None and s.generators(1) is k.ops

    def test_projective_ladder_stabilizes(self, projective3):
        s = build_subproduct(projective3, 8)
        assert s.dims == [1, 3, 3, 3, 3, 3, 3, 3, 3]
        # every level is built; the basis of level 8 has one row per word
        assert chain_basis(s, 8).shape == (6561, 3)

    def test_commuting_ladder(self, commuting212):
        s = build_subproduct(commuting212, 7)
        assert s.dims == [1, 2, 3, 4, 5, 6, 7, 8]
        assert s.dims is s.dims  # read off the factors once

    def test_free_ladder_and_exact_identity_basis(self, random216):
        s = build_subproduct(random216, 5)
        assert s.dims == [1, 2, 4, 8, 16, 32]
        for m in range(1, 6):
            assert np.array_equal(chain_basis(s, m), np.eye(2**m))

    def test_dimension_cap(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m, dim in enumerate(s.dims):
                assert dim <= min(k.size**m, k.dim**2)

    def test_probed_ladder_equals_the_range_ladder(self, catalog_quartet):
        families = {**catalog_quartet, "small-angle": sequential_projective(4, 0.05, seed=0)}
        for name, k in families.items():
            dims = build_subproduct(k, 8).dims
            assert dims == range_ladder(k, 8), name
            # once a level is not full, no later level is
            full = full_levels(dims, k.size)
            assert full == sorted(full, reverse=True), name
        assert build_subproduct(families["small-angle"], 8).dims == [1, 4] + [6] * 7

    def test_full_levels_take_no_singular_values(self, monkeypatch):
        # singular values are taken only where the Cholesky certificate cannot
        # decide: not in the guard, not at the full levels of a generic
        # family, but from the first level that is not full on, one SVD a
        # level, whose range both decides the level and gives its chain
        # factor.  The 2 d x 144 candidate rows are wide, so that SVD reads
        # their square triangular factor
        probes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            probes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert build_subproduct(random_unital(2, 16, seed=3), 8).dims == [2**m for m in range(9)]
        assert probes == []
        dims = build_subproduct(commuting_generic(2, 12, seed=0), 12).dims
        assert dims[:3] == [1, 2, 3]
        assert probes == [(2 * dim, 2 * dim) for dim in dims[1:12]]

    def test_levels_are_frozen(self, commuting212):
        # a write into a returned level would silently change every later
        # reader of the system
        s = build_subproduct(commuting212, 4)
        with pytest.raises(ValueError, match="read-only"):
            s.generators(2)[...] *= 0
        for m in range(5):
            assert not s.generators(m).flags.writeable
            assert s.factors[m] is None or not s.factors[m].flags.writeable
        assert any(c is not None for c in s.factors[1:])
        with pytest.raises(ValueError, match="read-only"):
            s.factors[4][0, 0] = 1.0

    def test_rejects_non_minimal(self):
        ops = np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
        # level 0 alone still runs the guard
        for max_level in (2, 0):
            with pytest.raises(ValueError, match="minimal"):
                build_subproduct(KrausSet(ops), max_level)

    def test_rejects_non_unital(self):
        ops = np.stack([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)]) / np.sqrt(2.0)
        for max_level in (2, 0):
            with pytest.raises(ValueError, match="unital"):
                build_subproduct(KrausSet(ops), max_level)

    def test_rejects_an_empty_level(self):
        # K K underflows to zero, and a residual_tol of 1e300 passes the
        # guard: level 1 is full and level 2 has no direction
        tol = Tolerances(rank_rel_tol=1e-15, residual_tol=1e300)
        k = KrausSet(np.full((1, 1, 1), 1e-320), tol=tol)
        assert build_subproduct(k, 1).dims == [1, 1]
        with pytest.raises(ValueError, match="level 2 is empty"):
            build_subproduct(k, 2)

    def test_rejects_negative_max_level(self, commuting212):
        with pytest.raises(ValueError, match="max_level must be nonnegative"):
            build_subproduct(commuting212, -1)

    def test_commuting_builds_to_level_13(self):
        # the ladder saturates at the 12 points and every level stays built
        k = commuting_generic(2, 12, seed=1)
        s = build_subproduct(k, 13)
        assert s.dims == list(range(1, 13)) + [12, 12]
        assert chain_basis(s, 13).shape == (2**13, 12)
        assert s.generators(13).shape == (12, 12, 12)
        # the system stores chain factors only: no array has n^m rows, and
        # level 1, the one full level (d_1 = 2 d_0), stores none
        assert [c is None for c in s.factors[1:]] == [True] + [False] * 12
        assert max(c.shape[0] for c in s.factors if c is not None) <= 12 * 2


class TestLevelSteps:
    """``_levels`` is the build: every command that reads the levels as they
    are formed reads the factors and generators a built system holds."""

    @pytest.fixture(scope="class")
    def families(self, catalog_quartet):
        return {**catalog_quartet, "near-degenerate": sequential_projective(3, 3e-5, seed=0)}

    @pytest.mark.parametrize("top", [0, 1, 6])
    def test_yields_the_factors_and_generators_of_the_build(self, families, top):
        for name, k in families.items():
            s = build_subproduct(k, top)
            steps = list(krausfock.subproduct._levels(k, top))
            assert [m for m, _, _ in steps] == list(range(1, top + 1)), name
            for m, c, gens in steps:
                expected = s.factors[m]
                assert (c is None) == (expected is None), (name, m)
                assert c is None or (np.array_equal(c, expected) and not c.flags.writeable)
                assert np.array_equal(gens, s.generators(m)), (name, m)
                assert not gens.flags.writeable, (name, m)

    def test_refuses_the_empty_level_where_the_build_does(self):
        tol = Tolerances(rank_rel_tol=1e-15, residual_tol=1e300)
        k = KrausSet(np.full((1, 1, 1), 1e-320), tol=tol)
        with pytest.raises(ValueError) as built:
            build_subproduct(k, 3)
        steps, reached = krausfock.subproduct._levels(k, 3), []
        with pytest.raises(ValueError) as streamed:
            for m, _, _ in steps:
                reached.append(m)
        assert reached == [1]
        assert str(streamed.value) == str(built.value) == (
            "level 2 is empty: the rank rule keeps no direction"
        )

    def test_guards_the_set_before_the_first_level(self):
        ops = np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
        for top in (2, 0):
            with pytest.raises(ValueError, match="minimal"):
                next(krausfock.subproduct._levels(KrausSet(ops), top))


class TestImplicitIdentity:
    """A full level stores ``None`` for its identity chain factor; every reader
    matches the dense oracle, which forms that identity explicitly."""

    TOP = 6

    @pytest.fixture(scope="class")
    def system(self):
        # levels 1..4 are full (d_4 = 16 = d^2), levels 5 and 6 are not
        s = build_subproduct(random_unital(2, 4, seed=0), self.TOP)
        assert s.dims == [1, 2, 4, 8, 16, 16, 16]
        return s

    def test_none_exactly_at_full_levels(self, system):
        full = full_levels(system.dims, system.n)
        assert full == [True] * 4 + [False] * 2
        assert [c is None for c in system.factors[1:]] == full
        assert system.factors[0].shape == (1, 1)

    def test_nesting_residuals(self, system):
        for m in range(self.TOP + 1):
            for l in range(self.TOP + 1 - m):
                got = nesting_residuals(system, m, l)
                for j in range(l + 1):
                    assert abs(got[j] - residual_oracle(system, m, j)) <= 1e-12, (m, j)

    def test_power_sweep(self, system, rng):
        q = random_complex(rng, 2, 2)
        sweep = krausfock.subproduct.power_sweep(system, system, q, self.TOP)
        for j, (compressed, residual) in enumerate(sweep):
            b = chain_basis(system, j)
            qb = kron_power_apply(q, j, b)
            assert np.max(np.abs(compressed - b.conj().T @ qb)) <= 1e-12, j
            expected = operator_norm(qb - b @ (b.conj().T @ qb))
            assert abs(residual - expected) <= 1e-12, j

    def test_shifts_and_truncated_fock(self, system):
        fock = truncated_fock(system)
        for m in range(self.TOP):
            for k in range(system.n):
                for side, shift, blocks in (
                    ("left", shift_left, fock.left_blocks),
                    ("right", shift_right, fock.right_blocks),
                ):
                    expected = shift_oracle(system, k, m, side)
                    assert np.max(np.abs(shift(system, k, m) - expected)) <= 1e-12, (side, m)
                    assert np.max(np.abs(blocks[m][k] - expected)) <= 1e-12, (side, m)

    def test_inductive_map_and_multiplicativity(self, system, rng):
        n = system.n
        for m in range(self.TOP + 1):
            bm = chain_basis(system, m)
            for l in range(m, self.TOP + 1):
                bl = chain_basis(system, l)

                def lift(x):
                    return bl.conj().T @ np.kron(bm @ x @ bm.conj().T, np.eye(n ** (l - m))) @ bl

                a, b = (random_complex(rng, system.dims[m], system.dims[m]) for _ in range(2))
                got = inductive_map(system, a, m, l)
                assert np.max(np.abs(got - lift(a))) <= 1e-12, (m, l)
                expected = operator_norm(lift(a @ b) - lift(a) @ lift(b))
                residual = multiplicativity_residual(system, a, b, m, l)
                assert abs(residual - expected) <= 1e-12 * max(1.0, expected), (m, l)


def _held_bytes(a):
    """Bytes of the buffer that the array ``a`` keeps alive."""
    return (a if a.base is None else a.base).nbytes


def test_full_levels_keep_no_identity():
    # a build keeps its chain factors and the top level's generators, nothing
    # more.  random_unital(2,16) seed 3 is full up to level 8: no factor and
    # the 1.05 MB of G_8, neither the stacks below it (1.04 MB) nor a
    # d_m x d_m identity (1.40 MB over 1..8).  commuting_generic(2,24) seed 3
    # is not full from level 2: to level 48 its factors hold 0.61 MB and G_48
    # is 0.22 MB, against 8.3 MB for the stacks of all levels
    cases = ((random_unital(2, 16, seed=3), 8, True), (commuting_generic(2, 24, seed=3), 48, False))
    for kraus, top, full in cases:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s = build_subproduct(kraus, top)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert all(c is None for c in s.factors[1:]) == full
        factors = sum(_held_bytes(c) for c in s.factors if c is not None)
        assert kept - factors - _held_bytes(s.generators(top)) < 0.1e6, (top, kept)


def test_stored_factors_own_their_buffers():
    # a factor that dropped columns of the SVD's U would keep all of U alive:
    # 1.20 MB held for the 0.61 MB of these factors
    s = build_subproduct(commuting_generic(2, 24, seed=3), 48)
    assert all(c.flags.owndata for c in s.factors if c is not None)


class TestDenseOracle:
    """The chain build against the word-stack formula it replaces."""

    @pytest.fixture(scope="class")
    def instances(self, catalog_quartet):
        return {**catalog_quartet, "small-angle": sequential_projective(4, 0.05, seed=0)}

    def test_dims_projections_and_generators(self, instances):
        for name, k in instances.items():
            s = build_subproduct(k, 6)
            for m in range(7):
                dense = dense_level_basis(k, m)
                chain = chain_basis(s, m)
                assert chain.shape == dense.shape, (name, m)
                # |P - Q| for equal ranks, without forming n^m-square matrices
                gap = operator_norm(chain - dense @ (dense.conj().T @ chain))
                assert gap <= 1e-12, (name, m, gap)
                gens = np.einsum("wu,wij->uij", chain.conj(), word_stack(k, m))
                assert np.max(np.abs(s.generators(m) - gens)) <= 1e-12, (name, m)


ON_DEMAND_TOP = 8
ON_DEMAND_FAMILIES = ("projective", "commuting", "random", "sequential", "small-angle")


@pytest.fixture(scope="module")
def kept_levels(catalog_quartet):
    """Each family with the chain factors and stacks of a build that keeps every level."""
    families = {**catalog_quartet, "small-angle": sequential_projective(4, 0.05, seed=0)}
    return {name: (k, *every_level(k, ON_DEMAND_TOP)) for name, k in families.items()}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ON_DEMAND_FAMILIES),
    order=st.lists(st.integers(0, ON_DEMAND_TOP), min_size=1, max_size=12),
)
def test_generators_in_any_order_match_every_level_build(kept_levels, name, order):
    # a system keeps one level and forms the others on demand, by the
    # build's own step: bit for bit the stack a keep-every-level build
    # stored, in any order of reading, repeats included
    kraus, factors, stacks = kept_levels[name]
    s = build_subproduct(kraus, ON_DEMAND_TOP)
    assert len(s.factors) == len(factors)
    for c, expected in zip(s.factors, factors):
        assert (c is None) == (expected is None)
        assert c is None or np.array_equal(c, expected)
    for m in order:
        gens = s.generators(m)
        assert np.array_equal(gens, stacks[m]), (name, m)
        assert not gens.flags.writeable
        assert s.dims[m] == len(stacks[m])


def chain_projection(s, m):
    b = chain_basis(s, m)
    return b @ b.conj().T


class TestLevelProjection:
    """The projection ``p_m = B_m B_m†`` of the chain factors."""

    def test_level_zero(self, projective3):
        s = build_subproduct(projective3, 2)
        assert np.array_equal(chain_projection(s, 0), np.ones((1, 1)))

    def test_free_case_is_identity(self, random216):
        s = build_subproduct(random216, 3)
        assert np.array_equal(chain_projection(s, 3), np.eye(8))

    def test_commuting_symmetric_projector(self, commuting212):
        # two commuting generators: p_2 maps e_0⊗e_1 to the symmetric average
        s = build_subproduct(commuting212, 2)
        p2 = chain_projection(s, 2)
        e01 = np.zeros(4)
        e01[1] = 1.0
        expected = np.zeros(4)
        expected[1] = 0.5
        expected[2] = 0.5
        assert np.allclose(p2 @ e01, expected, atol=1e-12)

    def test_hermitian_idempotent(self, sequential4):
        s = build_subproduct(sequential4, 3)
        p = chain_projection(s, 2)
        assert operator_norm(p - p.conj().T) < 1e-13
        assert operator_norm(p @ p - p) < 1e-13


class TestSubproductResidual:
    def test_free_case_exact_zero(self, random216):
        s = build_subproduct(random216, 6)
        for m in range(7):
            for l in range(7 - m):
                assert subproduct_residual(s, m, l) == 0.0, (m, l)

    def test_small_on_all_families(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m in range(1, 5):
                for l in range(1, 6 - m):
                    assert subproduct_residual(s, m, l) < 1e-8

    def test_matches_explicit_oracle(self, catalog_quartet):
        families = {
            **catalog_quartet,
            "small-angle": sequential_projective(4, 0.05, seed=0),
            # levels 1..3 full, then 9 < 16: square factors below non-square ones
            "mixed-ladder": random_unital(2, 3, seed=0),
        }
        for name, k in families.items():
            s = build_subproduct(k, 5)
            for m in range(6):
                for l in range(6 - m):
                    fast = subproduct_residual(s, m, l)
                    slow = residual_oracle(s, m, l)
                    assert abs(fast - slow) <= 1e-12, (name, m, l)

    def test_full_right_levels_need_no_sweep(self, random216, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept")

        s = build_subproduct(random216, 10)
        assert s.dims[8:] == [256, 256, 256]
        monkeypatch.setattr(krausfock.subproduct, "_complement_sweep", no_sweep)
        for m in range(11):
            for l in range(min(8, 10 - m) + 1):
                assert nesting_residuals(s, m, l) == [0.0] * (l + 1), (m, l)
        # level 9 is not full, so a split onto it is swept
        with pytest.raises(AssertionError, match="swept"):
            nesting_residuals(s, 1, 9)

    def test_adversarial_basis_is_detected(self, commuting212):
        # a basis is a chain product, so a level always lies in the previous
        # level ⊗ C^n and the left factor of the nesting law is structural.
        # Corrupt a lower chain factor instead: level 2 becomes the
        # antisymmetric pair and level 3 the whole of level(2) ⊗ C^2, which
        # no longer fits in C^2 ⊗ level(2)
        s = build_subproduct(commuting212, 3)
        s.factors[2] = np.array([[0.0], [1.0], [-1.0], [0.0]], dtype=complex) / np.sqrt(2)
        s.factors[3] = np.eye(2, dtype=complex)
        assert subproduct_residual(s, 2, 1) == 0.0
        residual = subproduct_residual(s, 1, 2)
        assert abs(residual - residual_oracle(s, 1, 2)) <= 1e-12
        assert abs(residual - np.sqrt(3) / 2) <= 1e-12

    def test_adversarial_right_factor_is_detected(self, commuting212):
        # corrupt the top chain factor so that level 3 is e_0 ⊗ e_0 ⊗ e_1:
        # level(2) is the symmetric subspace, so the split (1, 2) loses the
        # antisymmetric half of e_0 ⊗ e_1, of norm 1/sqrt(2)
        s = build_subproduct(commuting212, 3)
        e00 = np.array([1.0, 0.0, 0.0, 0.0])
        s.factors[3] = np.kron(chain_basis(s, 2).conj().T @ e00, [0.0, 1.0])[:, None]
        residual = subproduct_residual(s, 1, 2)
        assert abs(residual - residual_oracle(s, 1, 2)) <= 1e-12
        assert abs(residual - 2**-0.5) <= 1e-12


class TestShifts:
    def test_level_zero_action(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 2)
            for letter in range(k.size):
                col = shift_left(s, letter, 0)[:, 0]
                expected = np.zeros(k.size)
                expected[letter] = 1.0
                assert np.allclose(col, expected, atol=1e-12)
                assert np.allclose(shift_right(s, letter, 0)[:, 0], expected, atol=1e-12)

    def test_commuting_symmetric_amplitude(self, commuting212):
        # prepending letter 0 to level-1 vector e_1 lands on the symmetric
        # pair state, which has norm 1/sqrt(2)
        s = build_subproduct(commuting212, 2)
        out = shift_left(s, 0, 1)[:, 1]
        assert abs(np.linalg.norm(out) - 2**-0.5) < 1e-12

    def test_contractions(self, catalog_quartet):
        # so a shift of one letter on the truncated Fock space, which is block
        # sub-diagonal with these blocks, is a contraction too
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m in range(5):
                for letter in range(k.size):
                    assert operator_norm(shift_left(s, letter, m)) <= 1 + 1e-12
                    assert operator_norm(shift_right(s, letter, m)) <= 1 + 1e-12

    def test_free_right_shifts_are_isometries(self, random216):
        s = build_subproduct(random216, 3)
        for m in range(3):
            for j in range(2):
                for k_ in range(2):
                    prod = shift_right(s, j, m).conj().T @ shift_right(s, k_, m)
                    expected = np.eye(s.dims[m]) if j == k_ else np.zeros((s.dims[m],) * 2)
                    assert np.allclose(prod, expected, atol=1e-12)

    def test_commuting_left_equals_right(self, commuting212):
        s = build_subproduct(commuting212, 4)
        for m in range(4):
            for letter in range(2):
                gap = operator_norm(
                    shift_left(s, letter, m) - shift_right(s, letter, m)
                )
                assert gap < 1e-10

    def test_word_action_equals_basis_row(self, sequential4, rng):
        # composing left shifts along a word from level 0 reproduces the
        # basis coefficients of the projected word vector
        s = build_subproduct(sequential4, 3)
        for _ in range(6):
            word = tuple(rng.integers(0, 4, size=3))
            vec = np.ones((1, 1), dtype=complex)
            for pos, letter in enumerate(reversed(word)):
                vec = shift_left(s, letter, pos) @ vec
            index = (word[0] * 4 + word[1]) * 4 + word[2]
            expected = chain_basis(s, 3).conj().T[:, index]
            assert np.allclose(vec[:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize(
        "family", ["projective", "commuting", "random", "sequential", "sequential-3e-5"]
    )
    def test_letter_sum_is_the_one_step_nesting_defect(self, catalog_quartet, family):
        # the level-(m+1) blocks of one sweep over every letter give
        # sum_k L_k L_k† = B_{m+1}† (1 ⊗ p_m) B_{m+1}, so 1 minus it is Y† Y
        # for Y = (1 ⊗ (1 - p_m)) B_{m+1}, whose norm is the split (1, m)
        # residual; on the 3e-5 family, where the nesting law fails, both
        # sides read about 0.62, 0.26, 0.14 and 0.09 at m = 2..5
        if family == "sequential-3e-5":
            k = sequential_projective(3, 3e-5, seed=0)
        else:
            k = catalog_quartet[family]
        s = build_subproduct(k, 6)
        stacks = krausfock.subproduct._left_shifts(s, 6)
        assert [x.shape for x in stacks] == [(k.size, s.dims[i + 1], s.dims[i]) for i in range(6)]
        for m in range(1, 6):
            blocks = stacks[m]
            gram = np.sum(blocks @ blocks.conj().transpose(0, 2, 1), axis=0)
            defect = nesting_residuals(s, 1, m)[m]
            assert abs(operator_norm(np.eye(s.dims[m + 1]) - gram) - defect**2) <= 1e-13, m

    def test_rejects_letters_out_of_range(self, commuting212):
        s = build_subproduct(commuting212, 3)
        for m in range(3):
            for shift in (shift_left, shift_right):
                for letter in (-1, 2, 5):
                    with pytest.raises(ValueError, match=f"letter {letter} out of range"):
                        shift(s, letter, m)


class TestPowerSweep:
    def test_rejects_letter_matrices_and_systems_that_do_not_fit(self, commuting212, projective3):
        s2 = build_subproduct(commuting212, 2)
        s3 = build_subproduct(projective3, 2)
        with pytest.raises(ValueError, match=r"^letter matrix must be 2x2, got \(3, 3\)$"):
            krausfock.subproduct.power_sweep(s2, s2, np.eye(3), 2)
        with pytest.raises(ValueError, match="^need systems of equal n, got 3 and 2$"):
            krausfock.subproduct.power_sweep(s3, s2, np.eye(2), 2)


class TestInductiveMap:
    def test_identity_word(self, commuting212, rng):
        s = build_subproduct(commuting212, 3)
        a = random_hermitian(rng, s.dims[2])
        assert np.array_equal(inductive_map(s, a, 2, 2), a)

    @pytest.mark.parametrize("d", [16, 3])
    def test_full_steps_equal_the_transfer_form(self, d, rng):
        # d = 16: every level up to 8 is full; d = 3: levels 4.. are not
        s = build_subproduct(random_unital(2, d, seed=0), 8)
        for m in range(8):
            x = random_complex(rng, s.dims[m], s.dims[m])
            expected = x.astype(complex)
            for j in range(m + 1, 9):
                c = chain_factor(s, j)
                expected = krausfock.subproduct._transfer(c, expected, c)
            assert np.array_equal(inductive_map(s, x, m, 8), expected), m

    def test_unitality(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m in range(5):
                out = inductive_map(s, np.eye(s.dims[m]), m, 5)
                assert operator_norm(out - np.eye(s.dims[5])) < 1e-9

    def test_composition(self, commuting212, rng):
        s = build_subproduct(commuting212, 6)
        a = random_hermitian(rng, s.dims[1])
        direct = inductive_map(s, a, 1, 5)
        staged = inductive_map(s, inductive_map(s, a, 1, 3), 3, 5)
        assert operator_norm(direct - staged) < 1e-9

    def test_positivity(self, sequential4, rng):
        s = build_subproduct(sequential4, 4)
        g = random_complex(rng, s.dims[1], s.dims[1])
        out = inductive_map(s, g @ g.conj().T, 1, 4)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-10

    def test_free_multiplicativity_is_exactly_zero(self, random216, rng):
        s = build_subproduct(random216, 4)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert multiplicativity_residual(s, a, b, 1, 4) == 0.0

    @pytest.mark.parametrize(
        "kraus, top",
        [
            (random_unital(2, 16, seed=0), 10),
            (random_unital(2, 3, seed=0), 8),
            (commuting_generic(2, 12, seed=3), 7),
        ],
        ids=["random216", "random23", "commuting212"],
    )
    def test_multiplicativity_matches_the_unshortened_form(self, kraus, top, rng):
        # random216 is full to level 8 and not beyond; random23 mixes both
        s = build_subproduct(kraus, top)
        for m in range(1, top + 1):
            for l in range(m, top + 1):
                a, b = (random_complex(rng, s.dims[m], s.dims[m]) for _ in range(2))
                a, b = a / operator_norm(a), b / operator_norm(b)
                got = multiplicativity_residual(s, a, b, m, l)
                assert abs(got - multiplicativity_oracle(s, a, b, m, l)) <= 1e-12, (m, l)
                if all(full_levels(s.dims, s.n)[m:l]):
                    assert got == 0.0, (m, l)

    @pytest.mark.parametrize(
        "kraus, top",
        [
            (commuting_generic(2, 12, seed=3), 12),
            *[(random_unital(2, 4, seed=seed), 6) for seed in range(8)],
            (sequential_projective(4, 0.05), 6),
        ],
        ids=["commuting212", *[f"random24-s{seed}" for seed in range(8)], "sequential4"],
    )
    def test_a_stack_is_its_members_alone(self, kraus, top, rng):
        # random24 is full to level 4 and not beyond: the stack's matrices
        # are those of the single calls, bit for bit, across both kinds of
        # step, and the residual is that of three single sweeps
        s = build_subproduct(kraus, top)
        for m in range(top + 1):
            a, b = (random_complex(rng, s.dims[m], s.dims[m]) for _ in range(2))
            ops = np.stack([a @ b, a, b])
            for l in range(m, top + 1):
                stacked = inductive_map(s, ops, m, l)
                assert stacked.shape == (3, s.dims[l], s.dims[l])
                alone = [inductive_map(s, x, m, l) for x in ops]
                for got, expected in zip(stacked, alone):
                    assert np.array_equal(got, expected), (m, l)
                if not all(full_levels(s.dims, s.n)[m:l]):
                    residual = operator_norm(alone[0] - alone[1] @ alone[2])
                    assert multiplicativity_residual(s, a, b, m, l) == residual, (m, l)

    def test_a_stack_keeps_the_refusals(self, commuting212):
        s = build_subproduct(commuting212, 4)
        for bad in (np.zeros((3, 3, 3)), np.zeros((3, 2, 3)), np.zeros((2, 1, 3, 2))):
            with pytest.raises(ValueError) as shape:
                inductive_map(s, bad, 1, 4)
            assert str(shape.value) == f"operator must be 2-square at level 1, got {bad.shape}"
        with pytest.raises(ValueError) as vector:
            inductive_map(s, np.zeros(4), 1, 4)
        assert str(vector.value) == "expected a matrix, got an array of ndim 1"
        # the residual still takes one matrix a side
        eye, stack = np.eye(2), np.stack([np.eye(2)] * 3)
        for a, b in [(stack, eye), (eye, stack)]:
            with pytest.raises(ValueError) as ndim:
                multiplicativity_residual(s, a, b, 1, 4)
            assert str(ndim.value) == "expected a matrix, got an array of ndim 3"

    def test_full_chain_forms_no_product(self, random216, rng, monkeypatch):
        s = build_subproduct(random216, 8)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)

        def refuse(*args):
            raise AssertionError("the full chain needs no product")

        monkeypatch.setattr(krausfock.subproduct, "operator_norm", refuse)
        monkeypatch.setattr(krausfock.subproduct, "inductive_map", refuse)
        assert multiplicativity_residual(s, a, b, 1, 8) == 0.0

    def test_unital_inputs_give_zero_residual(self, commuting212):
        s = build_subproduct(commuting212, 4)
        eye = np.eye(s.dims[1])
        assert multiplicativity_residual(s, eye, eye, 1, 4) < 1e-10

    def test_commuting_residual_sequence_is_bounded(self, commuting212, rng):
        # the residual sequence plateaus at this scale; strict decrease is
        # not observed (see the limit-trend notes in the acceptance module)
        s = build_subproduct(commuting212, 7)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        seq = [multiplicativity_residual(s, a, b, 1, l) for l in range(2, 8)]
        assert max(seq) <= 10 * np.median(seq)

    def test_range_validation(self, commuting212):
        s = build_subproduct(commuting212, 3)
        with pytest.raises(ValueError):
            inductive_map(s, np.eye(2), 1, 4)
        with pytest.raises(ValueError):
            inductive_map(s, np.eye(3), 1, 3)

    def test_range_validation_on_a_full_chain(self, random216):
        # every level is full, so the multiplicativity shortcut applies once
        # the arguments are valid
        s = build_subproduct(random216, 4)
        eye2, eye3 = np.eye(2), np.eye(3)
        bad_shape = r"operator must be 2-square at level 1, got \(3, 3\)"
        for a, b in [(eye2, eye3), (eye3, eye2)]:
            with pytest.raises(ValueError, match=bad_shape):
                multiplicativity_residual(s, a, b, 1, 4)
        with pytest.raises(ValueError, match=bad_shape):
            inductive_map(s, eye3, 1, 4)
        for m, l in [(1, 5), (1, 0)]:
            with pytest.raises(ValueError, match="need m <= l <= max_level"):
                multiplicativity_residual(s, eye2, eye2, m, l)
        with pytest.raises(ValueError, match="level 5 out of range"):
            multiplicativity_residual(s, eye2, eye2, 5, 5)


class TestPresentationIndependence:
    def test_all_families(self, catalog_quartet, rng):
        for k in catalog_quartet.values():
            u = haar_unitary(rng, k.size)
            mixed = KrausSet(np.einsum("ij,iab->jab", u, k.ops), tol=k.tol)
            s0 = build_subproduct(k, 4)
            s1 = build_subproduct(mixed, 4)
            assert s0.dims == s1.dims
            for m in range(1, 5):
                assert presentation_residual(s0, s1, u, m) < 1e-8

    @pytest.mark.parametrize("d", [16, 3])
    def test_matches_dense_oracle_on_full_levels(self, d, rng):
        # |p'_m - U p_m U†| from the n^m-square projections of the word stacks
        k = random_unital(2, d, seed=0)
        u = haar_unitary(rng, k.size)
        mixed = KrausSet(np.einsum("ij,iab->jab", u, k.ops), tol=k.tol)
        s0, s1 = build_subproduct(k, 5), build_subproduct(mixed, 5)
        big = np.ones((1, 1))
        for m in range(1, 6):
            big = np.kron(big, u.T)
            b0, b1 = dense_level_basis(k, m), dense_level_basis(mixed, m)
            rotated = big @ b0 @ b0.conj().T @ big.conj().T
            oracle = operator_norm(b1 @ b1.conj().T - rotated)
            assert abs(presentation_residual(s0, s1, u, m) - oracle) <= 1e-12, m


class TestTruncatedFock:
    """The truncated Fock space is its shift blocks, which equal
    :func:`shift_left` and :func:`shift_right` (see TestImplicitIdentity)."""

    def test_dims_and_block_shapes(self, commuting212):
        s = build_subproduct(commuting212, 3)
        fock = truncated_fock(s)
        assert fock.dims == (1, 2, 3, 4)
        for blocks in (fock.left_blocks, fock.right_blocks):
            assert len(blocks) == 3
            for m, level in enumerate(blocks):
                assert [b.shape for b in level] == [(fock.dims[m + 1], fock.dims[m])] * 2

    def test_full_matrices_are_contractions(self, sequential4):
        # a shift of one letter on the truncated Fock space is block
        # sub-diagonal, so its norm is the largest norm among its blocks
        s = build_subproduct(sequential4, 3)
        fock = truncated_fock(s)
        for letter in range(4):
            for blocks in (fock.left_blocks, fock.right_blocks):
                norm = max(operator_norm(level[letter]) for level in blocks)
                assert norm <= 1 + 1e-12

    def test_level_zero_column(self, commuting212):
        # letter 1 carries the vacuum to e_1 at level 1
        s = build_subproduct(commuting212, 3)
        column = truncated_fock(s).left_blocks[0][1][:, 0]
        assert np.allclose(column, [0.0, 1.0], atol=1e-12)

    def test_letter_out_of_range_is_refused_at_every_top(self):
        # each top holds exactly one block per letter and level, and the
        # shifts that form those blocks refuse any other letter
        s = build_subproduct(commuting_generic(2, 4, seed=0), 3)
        for top in range(4):
            fock = truncated_fock(s, top)
            for blocks in (fock.left_blocks, fock.right_blocks):
                assert [len(level) for level in blocks] == [2] * top
            for m in range(top):
                for k in (-1, 2, 5):
                    for shift in (shift_left, shift_right):
                        with pytest.raises(ValueError, match=f"letter {k} out of range"):
                            shift(s, k, m)


def test_public_level_functions_stay_polynomial(commuting212, rng):
    # a new public name is listed here, with a call at a deep level, on purpose
    public = sorted(krausfock.subproduct.__all__)
    assert public == [
        "SubproductSystem",
        "TruncatedFock",
        "build_subproduct",
        "inductive_map",
        "multiplicativity_residual",
        "nesting_residuals",
        "power_sweep",
        "presentation_residual",
        "shift_left",
        "shift_right",
        "subproduct_residual",
        "truncated_fock",
    ]
    members = [name for name in dir(krausfock.subproduct.SubproductSystem) if name[0] != "_"]
    assert members == ["dims", "generators", "max_level", "n"]
    # level 40 has 2^40 words; the ladder saturates at d_m = 12 from m = 11
    top = 40
    s = build_subproduct(commuting212, top)
    assert s.dims[11:] == [12] * (top - 10)
    u = haar_unitary(rng, 2)
    mixed = KrausSet(np.einsum("ij,iab->jab", u, commuting212.ops), tol=commuting212.tol)
    s_mixed = build_subproduct(mixed, top)
    a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
    calls = {
        "build_subproduct": lambda: build_subproduct(commuting212, top),
        "dims": lambda: s.dims,
        "max_level": lambda: s.max_level,
        "n": lambda: s.n,
        # from level 1 up: every level regenerated, one kept
        "generators": lambda: (s.generators(1), s.generators(top)),
        "nesting_residuals": lambda: nesting_residuals(s, 1, top - 1),
        "subproduct_residual": lambda: subproduct_residual(s, top // 2, top // 2),
        "power_sweep": lambda: krausfock.subproduct.power_sweep(s, s, u, top),
        "shift_left": lambda: shift_left(s, 1, top - 1),
        "shift_right": lambda: shift_right(s, 1, top - 1),
        "inductive_map": lambda: inductive_map(s, a, 1, top),
        "multiplicativity_residual": lambda: multiplicativity_residual(s, a, b, 1, top),
        "presentation_residual": lambda: presentation_residual(s, s_mixed, u, top),
        "truncated_fock": lambda: truncated_fock(s),
    }
    assert sorted(calls) == sorted([name for name in public if name.islower()] + members)
    for name, call in calls.items():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # 0.52 MB for the build, which keeps the factors and one level (1.45 MB
        # with the stacks of all 41); 0.12 MB to regenerate; at most 0.36 MB otherwise
        assert peak < 4e6, (name, peak)
