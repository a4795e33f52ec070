import numpy as np
import pytest

from krausfock import (
    KrausSet,
    build_subproduct,
    commuting_generic,
    inductive_map,
    kron,
    level_projection,
    multiplicativity_residual,
    operator_norm,
    presentation_residual,
    random_unital,
    sequential_projective,
    shift_left,
    shift_right,
    subproduct_residual,
    truncated_fock,
    uniform_projective,
)
from conftest import (
    dense_level_basis,
    haar_unitary,
    random_complex,
    random_hermitian,
    word_stack,
)


def residual_oracle(system, m, l):
    # form |p_{m+l} (1 - p_m ⊗ p_l)| explicitly; small levels only
    top = level_projection(system, m + l)
    split = kron(level_projection(system, m), level_projection(system, l))
    return operator_norm(top @ (np.eye(top.shape[0]) - split))


class TestBuild:
    def test_level_zero(self, commuting212):
        s = build_subproduct(commuting212, 2)
        assert s.dims[0] == 1
        assert np.array_equal(s.basis(0), np.ones((1, 1)))

    def test_level_one_is_identity_for_minimal_sets(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 1)
            assert s.dims[1] == k.size
            assert np.array_equal(s.basis(1), np.eye(k.size))

    def test_projective_ladder_stabilizes(self, projective3):
        s = build_subproduct(projective3, 8)
        assert s.dims == [1, 3, 3, 3, 3, 3, 3, 3, 3]
        # every level is built, including level 8 with its 6561 words
        assert s.basis(8).shape == (6561, 3)

    def test_commuting_ladder(self, commuting212):
        s = build_subproduct(commuting212, 7)
        assert s.dims == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_free_ladder_and_exact_identity_basis(self, random216):
        s = build_subproduct(random216, 5)
        assert s.dims == [1, 2, 4, 8, 16, 32]
        for m in range(1, 6):
            assert np.array_equal(s.basis(m), np.eye(2**m))

    def test_dimension_cap(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m, dim in enumerate(s.dims):
                assert dim <= min(k.size**m, k.dim**2)

    def test_rejects_non_minimal(self):
        ops = np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="minimal"):
            build_subproduct(KrausSet(ops), 2)

    def test_rejects_non_unital(self):
        ops = np.stack([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="unital"):
            build_subproduct(KrausSet(ops), 2)

    def test_commuting_builds_to_level_13(self):
        # the ladder saturates at the 12 points and every level stays built
        k = commuting_generic(2, 12, seed=1)
        s = build_subproduct(k, 13)
        assert s.dims == list(range(1, 13)) + [12, 12]
        assert s.basis(13).shape == (2**13, 12)
        assert s.generators(13).shape == (12, 12, 12)


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
                chain = s.basis(m)
                assert chain.shape == dense.shape, (name, m)
                # |P - Q| for equal ranks, without forming n^m-square matrices
                gap = operator_norm(chain - dense @ (dense.conj().T @ chain))
                assert gap <= 1e-12, (name, m, gap)
                gens = np.einsum("wu,wij->uij", chain.conj(), word_stack(k, m))
                assert np.max(np.abs(s.generators(m) - gens)) <= 1e-12, (name, m)


class TestLevelProjection:
    def test_level_zero(self, projective3):
        s = build_subproduct(projective3, 2)
        assert np.array_equal(level_projection(s, 0), np.ones((1, 1)))

    def test_free_case_is_identity(self, random216):
        s = build_subproduct(random216, 3)
        assert np.array_equal(level_projection(s, 3), np.eye(8))

    def test_commuting_symmetric_projector(self, commuting212):
        # two commuting generators: p_2 maps e_0⊗e_1 to the symmetric average
        s = build_subproduct(commuting212, 2)
        p2 = level_projection(s, 2)
        e01 = np.zeros(4)
        e01[1] = 1.0
        expected = np.zeros(4)
        expected[1] = 0.5
        expected[2] = 0.5
        assert np.allclose(p2 @ e01, expected, atol=1e-12)

    def test_hermitian_idempotent(self, sequential4):
        s = build_subproduct(sequential4, 3)
        p = level_projection(s, 2)
        assert operator_norm(p - p.conj().T) < 1e-13
        assert operator_norm(p @ p - p) < 1e-13

    def test_out_of_range(self, projective3):
        s = build_subproduct(projective3, 2)
        with pytest.raises(ValueError, match="out of range"):
            level_projection(s, 3)


class TestSubproductResidual:
    def test_free_case_exact_zero(self, random216):
        s = build_subproduct(random216, 4)
        assert subproduct_residual(s, 2, 2) == 0.0

    def test_small_on_all_families(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m in range(1, 5):
                for l in range(1, 6 - m):
                    assert subproduct_residual(s, m, l) < 1e-8

    def test_matches_explicit_oracle(self, commuting212, sequential4):
        for k in (commuting212, sequential4):
            s = build_subproduct(k, 4)
            for m, l in [(1, 1), (1, 2), (2, 2), (3, 1)]:
                fast = subproduct_residual(s, m, l)
                slow = residual_oracle(s, m, l)
                assert abs(fast - slow) < 1e-10

    def test_adversarial_basis_is_detected(self, commuting212):
        s = build_subproduct(commuting212, 3)
        # replace the level-3 basis with a vector that is antisymmetric in the
        # first two tensor factors, violating the nesting law by a full unit
        bad = np.zeros((8, 1), dtype=complex)
        bad[int("010", 2)] = 1 / np.sqrt(2)
        bad[int("100", 2)] = -1 / np.sqrt(2)
        s.bases[3] = bad
        assert subproduct_residual(s, 2, 1) > 0.9


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
            expected = s.basis(3).conj().T[:, index]
            assert np.allclose(vec[:, 0], expected, atol=1e-12)


class TestInductiveMap:
    def test_identity_word(self, commuting212, rng):
        s = build_subproduct(commuting212, 3)
        a = random_hermitian(rng, s.dims[2])
        assert np.array_equal(inductive_map(s, a, 2, 2), a)

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
        assert multiplicativity_residual(s, a, b, 1, 4) < 1e-10

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


class TestTruncatedFock:
    def test_shapes_and_offsets(self, commuting212):
        s = build_subproduct(commuting212, 3)
        fock = truncated_fock(s)
        assert fock.dims == (1, 2, 3, 4)
        assert fock.offsets == (0, 1, 3, 6, 10)
        assert fock.total_dim == 10

    def test_full_matrices_are_contractions(self, sequential4):
        s = build_subproduct(sequential4, 3)
        fock = truncated_fock(s)
        for letter in range(4):
            assert operator_norm(fock.left_shift_matrix(letter)) <= 1 + 1e-12
            assert operator_norm(fock.right_shift_matrix(letter)) <= 1 + 1e-12

    def test_level_zero_column(self, commuting212):
        s = build_subproduct(commuting212, 3)
        fock = truncated_fock(s)
        full = fock.left_shift_matrix(1)
        column = full[:, 0]
        expected = np.zeros(fock.total_dim)
        expected[fock.offsets[1] + 1] = 1.0
        assert np.allclose(column, expected, atol=1e-12)
