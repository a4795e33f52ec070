import numpy as np
import pytest

from krausfock import (
    KrausSet,
    apply_heisenberg,
    apply_schrodinger,
    check_state,
    choi_matrix,
    kraus_word,
    minimal_kraus,
    random_unital,
    require_unital_minimal,
    uniform_projective,
    validate,
)
from conftest import random_complex, random_density, random_hermitian


def fold_word_oracle(ops, word):
    out = np.eye(ops.shape[1], dtype=complex)
    for j in word:
        out = out @ ops[j]
    return out


class TestKrausSet:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            KrausSet(np.zeros((1, 2, 3)))

    def test_rejects_non_finite(self):
        bad = np.full((1, 2, 2), np.nan)
        with pytest.raises(ValueError):
            KrausSet(bad)

    def test_ops_are_read_only(self):
        k = uniform_projective(2)
        with pytest.raises(ValueError):
            k.ops[0, 0, 0] = 5.0


class TestValidate:
    def test_identity_channel(self):
        report = validate(KrausSet(np.eye(2)[None]))
        assert report.unitality_residual == 0.0
        assert report.independence_rank == 1
        assert report.valid

    def test_orthogonal_projections(self):
        k = KrausSet(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        report = validate(k)
        assert report.unitality_residual == 0.0
        assert report.independence_rank == 2

    def test_two_projection_average_is_not_unital(self):
        # P = |0><0|, Q = |+><+|: |(P+Q)/2 - 1| = (1 + 1/sqrt(2))/2 > 0.2
        p = np.diag([1.0, 0.0])
        q = np.full((2, 2), 0.5)
        k = KrausSet(np.stack([p, q]) / np.sqrt(2.0))
        report = validate(k)
        assert report.unitality_residual > 0.2
        assert not report.valid
        assert abs(report.unitality_residual - (1 + 2**-0.5) / 2) < 1e-12


class TestApplyHeisenberg:
    def test_unit_preserving(self, catalog_quartet):
        for k in catalog_quartet.values():
            out = apply_heisenberg(k, np.eye(k.dim))
            assert np.linalg.norm(out - np.eye(k.dim), 2) < 1e-12

    def test_projective_kills_off_diagonals(self):
        k = uniform_projective(2)
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(apply_heisenberg(k, sigma_x), 0.0)

    def test_hermitian_and_spectrum_containment(self, rng):
        k = random_unital(3, 5, seed=4)
        a = random_hermitian(rng, 5)
        out = apply_heisenberg(k, a)
        assert np.linalg.norm(out - out.conj().T, 2) < 1e-12
        eigs_in = np.linalg.eigvalsh(a)
        eigs_out = np.linalg.eigvalsh((out + out.conj().T) / 2)
        assert eigs_out[0] >= eigs_in[0] - 1e-10
        assert eigs_out[-1] <= eigs_in[-1] + 1e-10


class TestApplySchrodinger:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 3)
        k = KrausSet(np.eye(3)[None])
        assert np.allclose(apply_schrodinger(k, rho), rho)

    def test_trace_preserving(self, rng):
        k = random_unital(2, 4, seed=7)
        rho = random_density(rng, 4)
        assert abs(np.trace(apply_schrodinger(k, rho)) - 1.0) < 1e-12

    def test_duality_with_heisenberg(self, rng):
        k = random_unital(2, 4, seed=8)
        for _ in range(5):
            rho = random_density(rng, 4)
            a = random_hermitian(rng, 4)
            lhs = np.trace(apply_schrodinger(k, rho) @ a)
            rhs = np.trace(rho @ apply_heisenberg(k, a))
            assert abs(lhs - rhs) < 1e-10


class TestGuards:
    def test_require_unital_minimal(self):
        require_unital_minimal(uniform_projective(3))
        with pytest.raises(ValueError, match="not unital"):
            require_unital_minimal(KrausSet(2.0 * np.eye(2)[None]))
        with pytest.raises(ValueError, match="minimal_kraus"):
            require_unital_minimal(KrausSet(np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)))

    def test_check_state(self):
        k = uniform_projective(2)
        assert np.array_equal(check_state(k, np.eye(2) / 2), np.eye(2) / 2)
        for bad, message in [
            (np.eye(3) / 3, "must be 2x2"),
            (np.array([[1.0, 1.0], [0.0, 0.0]]), "Hermitian"),
            (np.diag([1.5, -0.5]), "positive"),
            (np.eye(2), "trace"),
        ]:
            with pytest.raises(ValueError, match=message):
                check_state(k, bad)


class TestKrausWord:
    def test_empty_word(self):
        k = uniform_projective(3)
        assert np.array_equal(kraus_word(k, ()), np.eye(3))

    def test_orthogonal_projections_annihilate(self):
        k = uniform_projective(2)
        assert np.allclose(kraus_word(k, (0, 1)), 0.0)

    def test_matches_fold_oracle(self, rng):
        k = random_unital(3, 4, seed=5)
        for _ in range(10):
            word = tuple(rng.integers(0, 3, size=rng.integers(0, 6)))
            assert np.array_equal(kraus_word(k, word), fold_word_oracle(k.ops, word))

    def test_concatenation_is_multiplication(self, rng):
        k = random_unital(2, 4, seed=6)
        for _ in range(5):
            left = tuple(rng.integers(0, 2, size=3))
            right = tuple(rng.integers(0, 2, size=4))
            prod = kraus_word(k, left) @ kraus_word(k, right)
            assert np.allclose(kraus_word(k, left + right), prod, atol=1e-14)

    def test_letter_out_of_range(self):
        k = uniform_projective(2)
        with pytest.raises(ValueError, match="letter"):
            kraus_word(k, (2,))

    def test_length_13_word_is_product_of_letters(self, rng):
        # 2**13 words have this length; a single word is never refused
        k = random_unital(2, 4, seed=6)
        word = tuple(rng.integers(0, 2, size=13))
        assert np.array_equal(kraus_word(k, word), fold_word_oracle(k.ops, word))


class TestMinimalKraus:
    def test_duplicate_identity_reduces_to_one(self):
        k = KrausSet(np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0))
        reduced = minimal_kraus(k)
        assert reduced.size == 1
        assert np.allclose(np.abs(reduced.ops[0]), np.eye(2), atol=1e-12)

    def test_independent_set_unchanged(self):
        k = uniform_projective(3)
        assert minimal_kraus(k) is k

    def test_reduces_mixed_presentation(self, rng):
        base = random_unital(2, 3, seed=2)
        iso = np.linalg.qr(random_complex(rng, 3, 2))[0]
        mixed = KrausSet(np.einsum("jk,kab->jab", iso, base.ops))
        assert validate(mixed).independence_rank == 2
        reduced = minimal_kraus(mixed)
        assert reduced.size == 2
        for _ in range(4):
            probe = random_complex(rng, 3, 3)
            gap = np.linalg.norm(
                apply_heisenberg(mixed, probe) - apply_heisenberg(reduced, probe), 2
            )
            assert gap < 1e-10

    def test_idempotent(self, rng):
        base = random_unital(2, 3, seed=2)
        iso = np.linalg.qr(random_complex(rng, 3, 2))[0]
        reduced = minimal_kraus(KrausSet(np.einsum("jk,kab->jab", iso, base.ops)))
        assert minimal_kraus(reduced).size == reduced.size


def test_choi_matrix_is_psd_for_valid_sets():
    for seed in range(3):
        k = random_unital(2, 4, seed=seed)
        eigs = np.linalg.eigvalsh(choi_matrix(k))
        assert eigs[0] > -1e-10
