import numpy as np
import pytest

from krausfock import (
    BalancedWordSum,
    SingularMatrixError,
    build_subproduct,
    commuting_generic,
    convergence_report,
    correlations,
    dequantize,
    kraus_word,
    normal_ordering_residual,
    operator_norm,
    phi_symmetry_residual,
    random_unital,
    state_spec,
    trend_verdict,
    uniform_projective,
)
from conftest import fock_rank_one_oracle, random_complex, random_hermitian, word_stack


def maximally_mixed(dim):
    return np.eye(dim) / dim


class TestStateSpec:
    def test_accepts_maximally_mixed(self, commuting212):
        spec = state_spec(commuting212, maximally_mixed(12))
        assert spec.weights.shape == (2,)
        assert np.all(spec.weights > 0)

    def test_rejects_bad_states(self, projective3):
        with pytest.raises(ValueError, match="trace"):
            state_spec(projective3, np.eye(3))
        with pytest.raises(ValueError, match="Hermitian"):
            state_spec(projective3, np.triu(np.full((3, 3), 1.0 / 3)))
        with pytest.raises(ValueError, match="positive"):
            state_spec(projective3, np.diag([1.5, -0.25, -0.25]))

    def test_rejects_zero_weight_outcome(self, projective3):
        # a state concentrated on one measurement block starves the others
        with pytest.raises(ValueError, match="weight"):
            state_spec(projective3, np.diag([1.0, 0.0, 0.0]))


class TestCorrelations:
    def test_uniform_projective_is_identity(self, projective3):
        s = build_subproduct(projective3, 6)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = correlations(projective3, s, spec, 6)
        assert np.allclose(corr.base, np.eye(3), atol=1e-10)
        for m in range(1, 7):
            level = corr.levels[m]
            assert operator_norm(level.matrix - np.eye(s.dims[m])) < 1e-10

    def test_level_one_raw_trace_is_one(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 1)
            spec = state_spec(k, maximally_mixed(k.dim))
            level = correlations(k, s, spec, 1).levels[1]
            raw_trace = level.trace / level.scale
            assert abs(raw_trace - 1.0) < 1e-12

    def test_normalization_identity(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            spec = state_spec(k, maximally_mixed(k.dim))
            corr = correlations(k, s, spec, 5)
            for level in corr.levels.values():
                assert abs(level.inv_trace - level.trace) < 1e-8 * level.trace

    def test_hermitian_positive(self, commuting212, rng):
        s = build_subproduct(commuting212, 4)
        g = random_complex(rng, 12, 12)
        rho = g @ g.conj().T
        spec = state_spec(commuting212, rho / np.trace(rho).real)
        corr = correlations(commuting212, s, spec, 4)
        for level in corr.levels.values():
            assert operator_norm(level.matrix - level.matrix.conj().T) < 1e-12
            assert np.linalg.eigvalsh(level.matrix)[0] > 0

    def test_singular_correlation_names_level(self, commuting212):
        # a rank-2 diagonal state supports only two of the twelve points, so
        # at level 2 the three-dimensional level space cannot stay faithful
        s = build_subproduct(commuting212, 2)
        rho = np.zeros((12, 12))
        rho[0, 0] = rho[1, 1] = 0.5
        spec = state_spec(commuting212, rho)
        with pytest.raises(SingularMatrixError, match="level-2"):
            correlations(commuting212, s, spec, 2)


class TestPhiSymmetry:
    def test_level_one_first_residual_vanishes(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 2)
            spec = state_spec(k, maximally_mixed(k.dim))
            corr = correlations(k, s, spec, 2)
            r1, _ = phi_symmetry_residual(corr, s, 1)
            assert r1 < 1e-12

    def test_uniform_projective_is_symmetric(self, projective3):
        s = build_subproduct(projective3, 6)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = correlations(projective3, s, spec, 6)
        for m in range(1, 7):
            r1, r2 = corr.symmetry_residuals[m]
            assert r1 < 1e-10
            assert r2 < 1e-10

    def test_commuting_reports_positive_residuals(self, commuting212):
        # the first equality genuinely fails for the uniform state, while the
        # second holds structurally: the level space is the full symmetric
        # subspace here and tensor powers commute with the symmetrizer
        s = build_subproduct(commuting212, 3)
        spec = state_spec(commuting212, maximally_mixed(12))
        corr = correlations(commuting212, s, spec, 3)
        r1, r2 = corr.symmetry_residuals[3]
        assert r1 > 1e-6
        assert r2 < 1e-10


class TestDequantize:
    def test_unitality_is_exact(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            spec = state_spec(k, maximally_mixed(k.dim))
            corr = correlations(k, s, spec, 5)
            for m in range(1, 6):
                out = dequantize(k, s, corr, np.eye(k.dim), m)
                assert operator_norm(out - np.eye(s.dims[m])) < 1e-8

    def test_projective_level_one_closed_form(self, projective3, rng):
        s = build_subproduct(projective3, 1)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = correlations(projective3, s, spec, 1)
        a = random_hermitian(rng, 3)
        got = dequantize(projective3, s, corr, a, 1)
        # post-measurement expectations Tr(rho0 P_k A) / Tr(rho0 P_k)
        expected = np.diag(
            [
                np.trace(maximally_mixed(3) @ p @ a) / np.trace(maximally_mixed(3) @ p)
                for p in projective3.ops
            ]
        )
        assert np.allclose(got, expected, atol=1e-10)

    def test_projective_all_levels_distribute_expectations(self, projective3, rng):
        # the level basis may order the stabilized outcome directions freely,
        # so compare the spectra instead of fixed matrix positions
        s = build_subproduct(projective3, 5)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = correlations(projective3, s, spec, 5)
        a = random_hermitian(rng, 3)
        expected = sorted(np.trace(p @ a).real for p in projective3.ops)
        for m in range(1, 6):
            got = dequantize(projective3, s, corr, a, m)
            assert operator_norm(got - got.conj().T) < 1e-10
            spectrum = sorted(np.linalg.eigvalsh((got + got.conj().T) / 2))
            assert np.allclose(spectrum, expected, atol=1e-9)

    def test_matches_fock_rank_one_oracle(self, catalog_quartet, rng):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 3)
            spec = state_spec(k, maximally_mixed(k.dim))
            corr = correlations(k, s, spec, 3)
            a = random_hermitian(rng, k.dim)
            for m in (1, 2, 3):
                fast = dequantize(k, s, corr, a, m)
                slow = fock_rank_one_oracle(k, s, corr, a, m)
                scale = max(1.0, operator_norm(fast))
                assert operator_norm(fast - slow) / scale < 1e-9

    def test_weighted_formula_agrees_under_symmetry(self, projective3, rng):
        # with channel-symmetric correlations and a diagonal base matrix the
        # level-inverse form equals the tensor-power-weighted word sum
        k = projective3
        s = build_subproduct(k, 4)
        spec = state_spec(k, maximally_mixed(3))
        corr = correlations(k, s, spec, 4)
        a = random_hermitian(rng, 3)
        for m in (2, 3, 4):
            words = word_stack(k, m)
            basis = s.basis(m)
            count = words.shape[0]
            w_vec = np.ones(1)
            for _ in range(m):
                w_vec = np.kron(w_vec, corr.base_inv_diag)
            pairing = np.empty((count, count), dtype=complex)
            for ji in range(count):
                for ki in range(count):
                    pairing[ji, ki] = np.trace(
                        spec.rho0 @ words[ki].conj().T @ words[ji] @ a
                    )
            weighted = corr.levels[m].trace * (
                basis.conj().T @ (pairing * w_vec[None, :]) @ basis
            )
            fast = dequantize(k, s, corr, a, m)
            assert operator_norm(fast - weighted) < 1e-9

    def test_hermitian_on_symmetric_instance(self, projective3, rng):
        s = build_subproduct(projective3, 4)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = correlations(projective3, s, spec, 4)
        a = random_hermitian(rng, 3)
        out = dequantize(projective3, s, corr, a, 4)
        assert operator_norm(out - out.conj().T) < 1e-10

    def test_requires_built_level(self, projective3):
        s = build_subproduct(projective3, 2)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = correlations(projective3, s, spec, 2)
        with pytest.raises(ValueError, match="not built"):
            dequantize(projective3, s, corr, np.eye(3), 3)


class TestBalancedWordSum:
    def test_single_projective_term(self, projective3):
        element = BalancedWordSum((((0,), (0,), 1.0),))
        assert np.allclose(element.evaluate(projective3), projective3.ops[0])

    def test_unitality_sum(self, catalog_quartet):
        for k in catalog_quartet.values():
            element = BalancedWordSum(
                tuple(((j,), (j,), 1.0) for j in range(k.size))
            )
            assert operator_norm(element.evaluate(k) - np.eye(k.dim)) < 1e-12

    def test_matches_word_product_oracle(self, rng):
        k = random_unital(2, 4, seed=11)
        terms = []
        expected = np.zeros((4, 4), dtype=complex)
        for _ in range(6):
            m = int(rng.integers(1, 4))
            left = tuple(int(x) for x in rng.integers(0, 2, size=m))
            right = tuple(int(x) for x in rng.integers(0, 2, size=m))
            coeff = complex(rng.normal(), rng.normal())
            terms.append((left, right, coeff))
            expected += coeff * kraus_word(k, left).conj().T @ kraus_word(k, right)
        element = BalancedWordSum(tuple(terms))
        assert np.allclose(element.evaluate(k), expected, atol=1e-13)

    def test_selfadjointness_detection(self):
        symmetric = BalancedWordSum(
            (((0,), (1,), 1 + 2j), ((1,), (0,), 1 - 2j))
        )
        assert symmetric.is_formally_selfadjoint()
        lopsided = BalancedWordSum((((0,), (1,), 1.0),))
        assert not lopsided.is_formally_selfadjoint()

    def test_rejects_unbalanced_terms(self):
        with pytest.raises(ValueError, match="degree"):
            BalancedWordSum((((0,), (0, 1), 1.0),))


class TestNormalOrdering:
    def test_projective_words_are_ordered(self, projective3):
        s = build_subproduct(projective3, 3)
        for left, right in [((0,), (1,)), ((0, 1), (1, 0)), ((2, 2, 0), (1, 0, 2))]:
            assert normal_ordering_residual(projective3, s, left, right, 3) < 1e-10

    def test_commuting_words_are_ordered(self, commuting212):
        s = build_subproduct(commuting212, 3)
        for left, right in [((0,), (1,)), ((0, 1), (1, 0)), ((0, 0, 1), (1, 1, 0))]:
            assert normal_ordering_residual(commuting212, s, left, right, 3) < 1e-9

    def test_free_family_is_not_ordered(self, random216):
        s = build_subproduct(random216, 3)
        residual = normal_ordering_residual(random216, s, (0,), (1,), 3)
        assert residual > 1e-3

    def test_vanishing_product_counts_as_ordered(self, projective3):
        s = build_subproduct(projective3, 2)
        # P_0 P_1† = 0 exactly
        assert normal_ordering_residual(projective3, s, (0,), (1,), 0 + 1) == 0.0

    def test_validation(self, projective3):
        s = build_subproduct(projective3, 2)
        with pytest.raises(ValueError, match="equal length"):
            normal_ordering_residual(projective3, s, (0,), (0, 1), 2)
        with pytest.raises(ValueError, match="degree bound"):
            normal_ordering_residual(projective3, s, (0, 0, 0), (1, 1, 1), 2)


class TestConvergenceReport:
    def test_identity_observables_are_flat(self, commuting212):
        s = build_subproduct(commuting212, 4)
        spec = state_spec(commuting212, maximally_mixed(12))
        corr = correlations(commuting212, s, spec, 4)
        eye = np.eye(12)
        report = convergence_report(commuting212, s, corr, eye, eye, 4)
        for name in ("norm_gap", "vn_residual", "scaled_commutator", "limit_state_gap"):
            assert max(getattr(report, name)) <= 1e-8
            assert report.verdicts[name] == "flat"

    def test_projective_diagonal_observables_are_classical(self, projective3, rng):
        s = build_subproduct(projective3, 5)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = correlations(projective3, s, spec, 5)
        a = np.diag(rng.normal(size=3))
        b = np.diag(rng.normal(size=3))
        report = convergence_report(projective3, s, corr, a, b, 5)
        assert max(report.vn_residual) < 1e-9
        assert max(report.limit_state_gap) < 1e-10

    def test_limit_state_gap_is_structurally_zero(self, commuting212, rng):
        s = build_subproduct(commuting212, 5)
        spec = state_spec(commuting212, maximally_mixed(12))
        corr = correlations(commuting212, s, spec, 5)
        a = random_hermitian(rng, 12)
        report = convergence_report(commuting212, s, corr, a, a, 5)
        assert max(report.limit_state_gap) < 1e-10

    def test_rows_shape(self, projective3):
        s = build_subproduct(projective3, 3)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = correlations(projective3, s, spec, 3)
        report = convergence_report(projective3, s, corr, np.eye(3), np.eye(3), 3)
        rows = report.rows()
        assert len(rows) == 3
        assert rows[0][0] == 1
        assert len(rows[0]) == 5


class TestTrendVerdict:
    def test_flat(self):
        assert trend_verdict([1e-12, 5e-13], 1e-8) == "flat"
        assert trend_verdict([], 1e-8) == "flat"

    def test_decreasing(self):
        assert trend_verdict([3.0, 2.0, 1.0], 1e-8) == "decreasing"

    def test_bounded(self):
        assert trend_verdict([1.0, 3.0, 2.0], 1e-8) == "bounded"

    def test_irregular(self):
        assert trend_verdict([0.01, 0.01, 1.0], 1e-8) == "irregular"
