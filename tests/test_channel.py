import dataclasses

import numpy as np
import pytest

import krausfock.channel
import report_digests
from krausfock import (
    KrausSet,
    Tolerances,
    apply_heisenberg,
    build_subproduct,
    check_state,
    kraus_word,
    minimal_kraus,
    orthonormal_range,
    projective_measurement,
    random_unital,
    require_unital_minimal,
    validate,
)
from conftest import random_complex, random_hermitian


def near_dependent_unitaries():
    """Three unitaries whose ``n x d^2`` stack has ``sigma_min / sigma_max = 1.6e-5``.

    The third is ``exp(i t X)`` with ``t = 4e-5``; the squared ratio of the
    Gram matrix (2.4e-10) would fall below ``rank_rel_tol = 1e-9``.
    """
    x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    w, v = np.linalg.eigh(x)
    rotation = (v * np.exp(4e-5j * w)) @ v.T
    return KrausSet(np.stack([np.eye(3), np.diag([1.0, 1j, -1.0]), rotation]) / np.sqrt(3.0))


def rank_tie_family():
    """Two unitaries ``u, u exp(i t X)`` at a rounding tie of ``rank_rel_tol``.

    With ``t = 1.9999998881931785e-09`` the singular-value ratio of the
    stack is ``1.00000000011e-9`` over the rows ``vec(K_k)`` and
    ``0.99999999514e-9`` over ``vec(K_k^T)`` with one OpenBLAS thread;
    another BLAS may put the tie elsewhere.
    """
    return report_digests.rotated_unitaries(1.9999998881931785e-09)


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

    def test_rejects_empty_stacks(self):
        for empty in (np.zeros((0, 2, 2)), np.zeros((1, 0, 0))):
            with pytest.raises(ValueError, match="at least one Kraus operator"):
                KrausSet(empty)

    def test_ops_are_read_only(self):
        k = projective_measurement(2)
        with pytest.raises(ValueError):
            k.ops[0, 0, 0] = 5.0

    def test_fields_cannot_be_reassigned(self):
        # a reassigned field would skip the checks of construction
        k = random_unital(2, 3, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.ops = np.full((2, 3, 3), np.nan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.tol = "x"
        assert np.all(np.isfinite(k.ops)) and k.tol == Tolerances()

    def test_replace_returns_a_checked_frozen_copy(self):
        k = random_unital(2, 3, seed=1)
        tol = Tolerances(rank_rel_tol=1e-6)
        copy = dataclasses.replace(k, tol=tol)
        assert copy.tol is tol and k.tol == Tolerances()
        assert np.array_equal(copy.ops, k.ops) and not copy.ops.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.ops = k.ops
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(k, ops=np.full((2, 3, 3), np.nan))

    def test_rejects_a_tol_that_is_not_tolerances(self):
        # refused at construction, not at the first read of tol.rank_rel_tol
        k = random_unital(2, 3, seed=1)
        with pytest.raises(ValueError, match="tol must be a Tolerances, got 'x'"):
            KrausSet(k.ops, tol="x")
        with pytest.raises(ValueError, match="tol must be a Tolerances, got None"):
            dataclasses.replace(k, tol=None)


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
        k = projective_measurement(2)
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


class TestGuards:
    def test_require_unital_minimal(self):
        require_unital_minimal(projective_measurement(3))
        with pytest.raises(ValueError, match="not unital"):
            require_unital_minimal(KrausSet(2.0 * np.eye(2)[None]))
        with pytest.raises(ValueError, match="minimal_kraus"):
            require_unital_minimal(KrausSet(np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)))

    def test_check_state(self):
        k = projective_measurement(2)
        assert np.array_equal(check_state(k, np.eye(2) / 2), np.eye(2) / 2)
        for bad, message in [
            (np.eye(3) / 3, "must be 2x2"),
            (np.array([[1.0, 1.0], [0.0, 0.0]]), "Hermitian"),
            (np.diag([1.5, -0.5]), "positive"),
            (np.eye(2), "trace"),
            (np.diag([1e200, 0.0]), r"^state trace 1e\+200 differs from 1$"),
        ]:
            with pytest.raises(ValueError, match=message):
                check_state(k, bad)


class TestKrausWord:
    def test_empty_word(self):
        k = projective_measurement(3)
        assert np.array_equal(kraus_word(k, ()), np.eye(3))

    def test_orthogonal_projections_annihilate(self):
        k = projective_measurement(2)
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
        k = projective_measurement(2)
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
        k = projective_measurement(3)
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

    def test_independent_set_takes_no_singular_values(self, monkeypatch):
        # the Cholesky certificate of the 2 x 256 stack decides it
        k = random_unital(2, 16, seed=3)
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert minimal_kraus(k) is k
        assert calls == []

    def test_dependent_sets_reduce_by_the_range(self, rng):
        # a dependent family reduces to q† stack, q the orthonormal range of
        # its n x d^2 stack, bit for bit
        base = random_unital(2, 3, seed=2)
        iso = np.linalg.qr(random_complex(rng, 3, 2))[0]
        families = [
            KrausSet(np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)),
            KrausSet(np.einsum("jk,kab->jab", iso, base.ops)),
        ]
        for k in families:
            stack = k.ops.reshape(k.size, -1)
            q = orthonormal_range(stack, k.tol)
            expected = (q.conj().T @ stack).reshape(-1, k.dim, k.dim)
            assert np.array_equal(minimal_kraus(k).ops, expected)

    def test_rejects_vanishing_operators(self):
        with pytest.raises(ValueError, match="all Kraus operators vanish"):
            minimal_kraus(KrausSet(np.zeros((2, 3, 3))))

    def test_rejects_a_reduction_beyond_float_range(self):
        # three dependent operators of entries 1e308 reduce to one of norm
        # 2e308: refused by name, where the product used to warn of overflow
        ops = np.array([-1e308, -1e308, -1e308 - 1e308j]).reshape(3, 1, 1)
        with pytest.raises(ValueError, match="overflow when reduced to an independent family"):
            minimal_kraus(KrausSet(ops))

    def test_idempotent(self, rng):
        base = random_unital(2, 3, seed=2)
        iso = np.linalg.qr(random_complex(rng, 3, 2))[0]
        reduced = minimal_kraus(KrausSet(np.einsum("jk,kab->jab", iso, base.ops)))
        assert minimal_kraus(reduced).size == reduced.size

    def test_validate_and_minimal_kraus_share_the_rank_rule(self):
        k = near_dependent_unitaries()
        s = np.linalg.svd(k.ops.reshape(3, 9), compute_uv=False)
        assert 1e-5 < s[-1] / s[0] < 2e-5
        assert validate(k).independence_rank == 3
        assert minimal_kraus(k) is k
        assert build_subproduct(k, 3).dims == [1, 3, 5, 5]

    def test_the_decision_is_made_once_per_set(self, monkeypatch):
        # the guard, the reducer and validate read one decision and one report,
        # kept on the frozen set; a copy with other tolerances decides anew
        calls = []
        decide = krausfock.channel._range_unless_full

        def spy(a, tol):
            calls.append(tol.rank_rel_tol)
            return decide(a, tol)

        monkeypatch.setattr(krausfock.channel, "_range_unless_full", spy)
        k = random_unital(2, 3, seed=1)
        report = validate(k)
        require_unital_minimal(k)
        assert minimal_kraus(k) is k and validate(k) is report
        assert calls == [1e-9]
        loose = dataclasses.replace(k, tol=Tolerances(rank_rel_tol=1e-3))
        assert validate(loose) == report and validate(loose) is not report
        assert calls == [1e-9, 1e-3]
        dependent = KrausSet(np.concatenate([k.ops, k.ops]) / np.sqrt(2.0))
        reduced = minimal_kraus(dependent)
        assert validate(dependent).independence_rank == reduced.size == 2
        assert calls == [1e-9, 1e-3, 1e-9]

    def test_guard_reducer_and_level_one_take_one_decision(self, catalog_quartet):
        # at a rounding tie of the threshold the stack's rows vec(K_k) and
        # the rows vec(K_k^T) can fall on either side of it, so only the
        # agreement is asserted, not the rank; the build reads the reduced
        # family, as the command line does
        families = {**catalog_quartet, "near": near_dependent_unitaries(), "tie": rank_tie_family()}
        for name, k in families.items():
            reduced = minimal_kraus(k)
            rank = validate(k).independence_rank
            assert rank == reduced.size == build_subproduct(reduced, 1).dims[1], name
