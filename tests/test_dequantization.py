import functools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import krausfock.dequantization as dequantization
from krausfock import (
    CorrelationData,
    KrausSet,
    SingularMatrixError,
    SubproductSystem,
    Tolerances,
    build_subproduct,
    commuting_generic,
    convergence_report,
    dequantize,
    kraus_word,
    normal_ordering_residual,
    operator_norm,
    phi_symmetry_residual,
    random_unital,
    sequential_projective,
    state_spec,
    trend_verdict,
)
from krausfock.linalg import _range_unless_full, _rank
from conftest import (
    chain_basis,
    fock_rank_one_oracle,
    haar_unitary,
    mp_dequantize,
    normal_ordering_oracle,
    random_complex,
    random_density,
    random_hermitian,
    symmetry_oracle,
    word_stack,
)


def maximally_mixed(dim):
    return np.eye(dim) / dim


def every_level(corr):
    """The correlations of each level of ``corr``, read upward."""
    return [corr.level(m) for m in range(1, corr.system.max_level + 1)]


@functools.cache
def _convergence_case(family):
    """Correlation data of a ``d = 3`` family to level 4 at ``rho0 = 1/3``."""
    k = commuting_generic(2, 3, seed=1) if family == "commuting" else random_unital(2, 3, seed=1)
    return CorrelationData(build_subproduct(k, 4), state_spec(k, maximally_mixed(3)))


@pytest.fixture(scope="module")
def deep48():
    """``commuting_generic(2,48)`` seed 3 with correlation levels 1..46 at ``rho0 = 1/48``."""
    k = commuting_generic(2, 48, seed=3)
    s = build_subproduct(k, 46)
    spec = state_spec(k, maximally_mixed(48))
    return s, spec, CorrelationData(s, spec)


class TestStateSpec:
    def test_accepts_maximally_mixed(self, commuting212):
        spec = state_spec(commuting212, maximally_mixed(12))
        assert np.allclose(spec.root @ spec.root, spec.rho0, rtol=0.0, atol=1e-15)

    def test_rejects_bad_states(self, projective3):
        with pytest.raises(ValueError, match="trace"):
            state_spec(projective3, np.eye(3))
        with pytest.raises(ValueError, match="Hermitian"):
            state_spec(projective3, np.triu(np.full((3, 3), 1.0 / 3)))
        with pytest.raises(ValueError, match="positive"):
            state_spec(projective3, np.diag([1.5, -0.25, -0.25]))

    def test_rejects_zero_weight_outcome(self, projective3):
        # a state concentrated on one measurement block starves the others:
        # K_1 rho^{1/2} = K_2 rho^{1/2} = 0, so the rank rule refuses level 1
        spec = state_spec(projective3, np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(SingularMatrixError, match="level-1 correlation matrix"):
            dequantization.correlation_matrix(projective3, build_subproduct(projective3, 1), spec, 1)

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_accepts_rare_outcomes(self, projective3, eps):
        # outcomes 1 and 2 have probability eps, far below residual_tol, yet
        # every level is computed to machine precision
        spec = state_spec(projective3, np.diag([1.0 - 2.0 * eps, eps, eps]))
        s = build_subproduct(projective3, 3)
        corr = CorrelationData(s, spec)
        a = random_hermitian(np.random.default_rng(5), 3)
        for m in range(1, 4):
            ref = mp_dequantize(s, spec.rho0, a, m)
            err = operator_norm(dequantize(corr, a, m) - ref) / operator_norm(ref)
            assert err <= 1e-13, m


class TestCorrelations:
    def test_uniform_projective_is_identity(self, projective3):
        s = build_subproduct(projective3, 6)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        assert np.allclose(corr.level(1).matrix, np.eye(3), atol=1e-10)
        for m in range(1, 7):
            level = corr.level(m)
            assert operator_norm(level.matrix - np.eye(s.dims[m])) < 1e-10

    def test_keeps_what_it_was_built_from(self, commuting212):
        s = build_subproduct(commuting212, 2)
        spec = state_spec(commuting212, maximally_mixed(12))
        corr = CorrelationData(s, spec)
        assert corr.system.kraus is commuting212 and corr.system is s and corr.state is spec

    def test_refuses_a_state_of_another_family(self, projective3, commuting212):
        # the state is checked against the family the level spaces hold, by
        # the library and not by numpy's matmul
        spec = state_spec(projective3, maximally_mixed(3))
        with pytest.raises(ValueError, match=r"state must be 12x12, got \(3, 3\)"):
            CorrelationData(build_subproduct(commuting212, 2), spec)

    def test_levels_are_formed_when_read_and_the_last_is_kept(self, commuting212, monkeypatch):
        s = build_subproduct(commuting212, 3)
        corr = CorrelationData(s, state_spec(commuting212, maximally_mixed(12)))
        formed = []
        real = dequantization.correlation_matrix

        def spy(kraus, system, state, m):
            formed.append(m)
            return real(kraus, system, state, m)

        monkeypatch.setattr(dequantization, "correlation_matrix", spy)
        level = corr.level(2)
        assert corr.level(2) is level
        corr.level(3)
        corr.level(2)
        assert formed == [2, 3, 2]
        for m in (0, 4):
            with pytest.raises(ValueError, match=f"correlation level {m} not built"):
                corr.level(m)

    def test_levels_are_frozen(self, commuting212):
        s = build_subproduct(commuting212, 3)
        corr = CorrelationData(s, state_spec(commuting212, maximally_mixed(12)))
        for level in every_level(corr):
            for a in (level.matrix, level.inverse):
                with pytest.raises(ValueError, match="read-only"):
                    a *= 2.0

    def test_level_one_raw_trace_is_one(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 1)
            spec = state_spec(k, maximally_mixed(k.dim))
            level = CorrelationData(s, spec).level(1)
            raw_trace = level.trace / level.scale
            assert abs(raw_trace - 1.0) < 1e-12

    def test_normalization_identity(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            spec = state_spec(k, maximally_mixed(k.dim))
            corr = CorrelationData(s, spec)
            for level in every_level(corr):
                assert abs(level.inv_trace - level.trace) < 1e-8 * level.trace

    def test_hermitian_positive(self, commuting212, rng):
        s = build_subproduct(commuting212, 4)
        g = random_complex(rng, 12, 12)
        rho = g @ g.conj().T
        spec = state_spec(commuting212, rho / np.trace(rho).real)
        corr = CorrelationData(s, spec)
        for level in every_level(corr):
            assert operator_norm(level.matrix - level.matrix.conj().T) < 1e-12
            assert np.linalg.eigvalsh(level.matrix)[0] > 0
            eye = np.eye(level.matrix.shape[0])
            assert operator_norm(level.matrix @ level.inverse - eye) <= 1e-10

    def test_singular_correlation_names_level(self, commuting212):
        # a rank-2 diagonal state supports only two of the twelve points, so
        # at level 2 the three-dimensional level space cannot stay faithful
        s = build_subproduct(commuting212, 2)
        rho = np.zeros((12, 12))
        rho[0, 0] = rho[1, 1] = 0.5
        spec = state_spec(commuting212, rho)
        # the level is refused when it is read, not when the data is made
        corr = CorrelationData(s, spec)
        corr.level(1)
        with pytest.raises(SingularMatrixError, match="level-2"):
            corr.level(2)

    def test_ill_conditioned_deep_levels_are_not_refused(self, deep48):
        # singular-value ratios of W = G_m rho0^{1/2} down to 3.3e-6 at level
        # 46, inside the rank rule; their squares, the eigenvalue ratios of
        # the correlation matrix, fell below it from level 45
        _, _, corr = deep48
        assert len(every_level(corr)) == 46

    def test_trace_bounds_the_condition_number(self, catalog_quartet, deep48):
        # the normalized trace T = sqrt(tr(W W†) tr((W W†)^{-1})) satisfies
        # cond(W) <= T <= d_m cond(W); the uniform projective levels, whose
        # singular values are all equal, meet the upper bound
        cases = []
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            spec = state_spec(k, maximally_mixed(k.dim))
            cases.append((s, spec, CorrelationData(s, spec)))
        cases.append(deep48)
        for s, spec, corr in cases:
            for m, level in enumerate(every_level(corr), start=1):
                sv = np.linalg.svd(dequantization._root_rows(s, spec, m), compute_uv=False)
                cond = sv[0] / sv[-1]
                assert cond <= level.trace * (1.0 + 1e-12), m
                assert level.trace <= s.dims[m] * cond * (1.0 + 1e-12), m
        assert deep48[2].level(46).trace >= 1.0 / 3.4e-6


    @pytest.mark.parametrize("d, top", [(12, 14), (24, 48)])
    def test_commuting_spectrum_is_a_hadamard_power(self, d, top):
        # diagonal K_j = diag(a_j(x)) and rho0 = 1/d: the raw level-m matrix
        # is W W† with W[w, x] = a_w(x) / sqrt(d), whose nonzero spectrum is
        # that of W† W = [<a(y), a(x)>^m] / d, of rank d_m
        k = commuting_generic(2, d, seed=3)
        s = build_subproduct(k, top)
        corr = CorrelationData(s, state_spec(k, maximally_mixed(d)))
        points = np.stack([np.diagonal(op) for op in k.ops], axis=1)
        gram = points.conj() @ points.T
        for m in range(1, top + 1):
            level = corr.level(m)
            got = np.linalg.eigvalsh(level.matrix / level.scale)
            expected = np.linalg.eigvalsh(gram**m / d)[d - s.dims[m] :]
            assert np.max(np.abs(got - expected)) <= 1e-12 * expected[-1], m


    def test_dense_level_memory_and_values(self, random216):
        # level 8 of random_unital(2,16) is complete: 256 x 256, about 1 MB an array
        s = build_subproduct(random216, 8)
        spec = state_spec(random216, maximally_mixed(16))
        gens = s.generators(8)
        w = (gens @ spec.root).reshape(gens.shape[0], -1)
        r = np.linalg.qr(w.conj().T, mode="r")
        r_inv = dequantization._triangular_inverse(r)
        raw = r.conj().T @ r
        inv = r_inv @ r_inv.conj().T
        tr = float(np.trace(raw).real)
        scale = float(np.sqrt(np.trace(inv).real / tr))
        del w, r, r_inv
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            level = dequantization.correlation_matrix(random216, s, spec, 8)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5.5e6
        assert np.array_equal(level.matrix, scale * raw)
        assert np.array_equal(level.inverse, inv / scale)
        assert level.trace == scale * tr and level.scale == scale

    def test_certified_levels_take_no_singular_values(self, random216, commuting212, monkeypatch):
        # far from the threshold the normalized trace decides every level:
        # no SVD and no Cholesky factorization is taken
        systems = [(k, build_subproduct(k, top)) for k, top in ((random216, 8), (commuting212, 12))]
        calls = []

        def spy(name):
            real = getattr(np.linalg, name)

            def counted(a, *args, **kwargs):
                calls.append((name, a.shape))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        spy("svd")
        spy("cholesky")
        for k, s in systems:
            every_level(CorrelationData(s, state_spec(k, maximally_mixed(k.dim))))
        assert calls == []

    def test_near_threshold_level_takes_the_rank_rule(self, monkeypatch):
        # level 11 of commuting_generic(2,12) seed 0 has singular-value ratio
        # 1.5e-5: above tau = 1e-5, so the rule keeps it, but too close for the
        # certificate, which needs about 2 tau; the values are the certified ones
        k = commuting_generic(2, 12, seed=0)
        near = KrausSet(k.ops, tol=Tolerances(rank_rel_tol=1e-5))
        s = build_subproduct(near, 11)
        spec = state_spec(near, maximally_mixed(12))
        certified = dequantization.correlation_matrix(k, s, spec, 11)
        shapes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        level = dequantization.correlation_matrix(near, s, spec, 11)
        assert shapes == [(12, 144)]
        assert np.array_equal(level.matrix, certified.matrix)
        assert np.array_equal(level.inverse, certified.inverse)
        assert (level.trace, level.scale) == (certified.trace, certified.scale)

    def test_inversion_error_at_a_full_level_is_raised_again(self, projective3, monkeypatch):
        def failing(r):
            raise np.linalg.LinAlgError("planted")

        s = build_subproduct(projective3, 1)
        spec = state_spec(projective3, maximally_mixed(3))
        monkeypatch.setattr(dequantization, "_triangular_inverse", failing)
        with pytest.raises(np.linalg.LinAlgError, match="planted"):
            dequantization.correlation_matrix(projective3, s, spec, 1)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([1e-15, 1e-9, 1e-3]),
        st.sampled_from(["planted", "random state", "rank-2 state"]),
        st.integers(0, 2**32 - 1),
    )
    @example(1e-15, "rank-2 state", 0)
    @example(1e-9, "rank-2 state", 0)
    @example(1e-3, "rank-2 state", 0)
    def test_singular_exactly_when_the_rank_rule_says_so(self, tau, case, seed):
        # planted: rows W of a synthetic 3 x 3 level with a smallest singular
        # value within a factor of about 20 of tau or 2 tau, the certificate's
        # edge, or anywhere in [1e-16, 1]; otherwise commuting_generic(2,12)
        # seed 3 under a random full-rank state or the rank-2 state of
        # test_singular_correlation_names_level, at one of levels 1..3
        rng = np.random.default_rng(seed)
        tol = Tolerances(rank_rel_tol=tau)
        if case == "planted":
            rows = int(rng.integers(1, 10))
            sv = np.concatenate([[1.0], 10.0 ** rng.uniform(-3.0, 0.0, rows - 1)])
            edge = rng.choice([tau, 2.0 * tau, 10.0 ** rng.uniform(-16.0, 0.0)])
            offset = np.exp(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, 0.5))
            sv[-1] = min(edge * offset, 1.0)
            w = (haar_unitary(rng, rows) * sv) @ haar_unitary(rng, 9)[:rows]
            k = KrausSet(np.sqrt(3.0) * w.reshape(rows, 3, 3), tol=tol)
            # a full level 1 whose G_1 is the planted stack
            s = SubproductSystem([np.ones((1, 1)), None], k)
            spec, m = state_spec(k, maximally_mixed(3)), 1
        else:
            k = KrausSet(commuting_generic(2, 12, seed=3).ops, tol=tol)
            s = build_subproduct(k, 3)
            if case == "random state":
                rho = random_density(rng, 12)
            else:
                rho = np.diag([0.5, 0.5] + [0.0] * 10)
            spec, m = state_spec(k, rho), int(rng.integers(1, 4))
        sv = np.linalg.svd(dequantization._root_rows(s, spec, m), compute_uv=False)
        full = _rank(sv, tol) == s.dims[m]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                level = dequantization.correlation_matrix(k, s, spec, m)
            except SingularMatrixError as exc:
                assert not full
                assert f"level-{m} correlation matrix has singular-value ratio" in str(exc)
            else:
                assert full
                assert np.all(np.isfinite(level.matrix)) and np.all(np.isfinite(level.inverse))

    def test_levels_start_at_one(self, projective3):
        s = build_subproduct(projective3, 1)
        spec = state_spec(projective3, maximally_mixed(3))
        with pytest.raises(ValueError, match="correlation levels start at 1"):
            dequantization.correlation_matrix(projective3, s, spec, 0)
        with pytest.raises(ValueError, match="at least one correlation level"):
            CorrelationData(build_subproduct(projective3, 0), spec)


class TestPhiSymmetry:
    def test_level_one_first_residual_vanishes(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 2)
            spec = state_spec(k, maximally_mixed(k.dim))
            corr = CorrelationData(s, spec)
            r1, _ = phi_symmetry_residual(corr)[1]
            assert r1 < 1e-12

    def test_uniform_projective_is_symmetric(self, projective3):
        s = build_subproduct(projective3, 6)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        residuals = phi_symmetry_residual(corr)
        for m in range(1, 7):
            r1, r2 = residuals[m]
            assert r1 < 1e-10
            assert r2 < 1e-10

    @pytest.mark.parametrize("d", [16, 3])
    def test_matches_dense_oracle_on_full_levels(self, d, rng):
        # d = 16: levels 1..5 are full; d = 3: levels 4 and 5 are not
        k = random_unital(2, d, seed=0)
        s = build_subproduct(k, 5)
        corr = CorrelationData(s, state_spec(k, random_density(rng, d)))
        swept = phi_symmetry_residual(corr)
        for m in range(1, 6):
            scale = max(1.0, operator_norm(corr.level(1).matrix)) ** m
            for fast, slow in zip(swept[m], symmetry_oracle(corr, s, m)):
                assert abs(fast - slow) <= 1e-12 * scale, m

    def test_commuting_reports_positive_residuals(self, commuting212):
        # the first equality genuinely fails for the uniform state, while the
        # second holds structurally: the level space is the full symmetric
        # subspace here and tensor powers commute with the symmetrizer
        s = build_subproduct(commuting212, 3)
        spec = state_spec(commuting212, maximally_mixed(12))
        corr = CorrelationData(s, spec)
        r1, r2 = phi_symmetry_residual(corr)[3]
        assert r1 > 1e-6
        assert r2 < 1e-10


class TestDequantize:
    def test_unitality_is_exact(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            spec = state_spec(k, maximally_mixed(k.dim))
            corr = CorrelationData(s, spec)
            for m in range(1, 6):
                out = dequantize(corr, np.eye(k.dim), m)
                assert operator_norm(out - np.eye(s.dims[m])) < 1e-8

    def test_projective_level_one_closed_form(self, projective3, rng):
        s = build_subproduct(projective3, 1)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        a = random_hermitian(rng, 3)
        got = dequantize(corr, a, 1)
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
        corr = CorrelationData(s, spec)
        a = random_hermitian(rng, 3)
        expected = sorted(np.trace(p @ a).real for p in projective3.ops)
        for m in range(1, 6):
            got = dequantize(corr, a, m)
            assert operator_norm(got - got.conj().T) < 1e-10
            spectrum = sorted(np.linalg.eigvalsh((got + got.conj().T) / 2))
            assert np.allclose(spectrum, expected, atol=1e-9)

    def test_matches_fock_rank_one_oracle(self, catalog_quartet, rng):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 3)
            spec = state_spec(k, maximally_mixed(k.dim))
            corr = CorrelationData(s, spec)
            a = random_hermitian(rng, k.dim)
            for m in (1, 2, 3):
                fast = dequantize(corr, a, m)
                slow = fock_rank_one_oracle(k, s, corr, a, m)
                scale = max(1.0, operator_norm(fast))
                assert operator_norm(fast - slow) / scale < 1e-9

    def test_weighted_formula_agrees_under_symmetry(self, projective3, rng):
        # with channel-symmetric correlations and a diagonal base matrix the
        # level-inverse form equals the tensor-power-weighted word sum
        k = projective3
        s = build_subproduct(k, 4)
        spec = state_spec(k, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        a = random_hermitian(rng, 3)
        for m in (2, 3, 4):
            words = word_stack(k, m)
            basis = chain_basis(s, m)
            count = words.shape[0]
            w_vec = np.ones(1)
            for _ in range(m):
                w_vec = np.kron(w_vec, np.diag(corr.level(1).inverse).real)
            pairing = np.empty((count, count), dtype=complex)
            for ji in range(count):
                for ki in range(count):
                    pairing[ji, ki] = np.trace(
                        spec.rho0 @ words[ki].conj().T @ words[ji] @ a
                    )
            weighted = corr.level(m).trace * (
                basis.conj().T @ (pairing * w_vec[None, :]) @ basis
            )
            fast = dequantize(corr, a, m)
            assert operator_norm(fast - weighted) < 1e-9

    def test_hermitian_on_symmetric_instance(self, projective3, rng):
        s = build_subproduct(projective3, 4)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        a = random_hermitian(rng, 3)
        out = dequantize(corr, a, 4)
        assert operator_norm(out - out.conj().T) < 1e-10

    def test_matches_extended_precision_on_ill_conditioned_levels(self, rng):
        # correlation condition numbers up to about 1e8: forming the inverse
        # from the correlation matrix itself lost up to 2e-10 here
        k = sequential_projective(3, 0.01)
        s = build_subproduct(k, 8)
        spec = state_spec(k, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        a = random_hermitian(rng, 3)
        for m in range(1, 9):
            ref = mp_dequantize(s, spec.rho0, a, m)
            err = operator_norm(dequantize(corr, a, m) - ref) / operator_norm(ref)
            assert err <= 1e-12, m

    def test_requires_built_level(self, projective3):
        s = build_subproduct(projective3, 2)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        with pytest.raises(ValueError, match="not built"):
            dequantize(corr, np.eye(3), 3)

    def test_rejects_an_observable_of_another_shape(self, projective3):
        s = build_subproduct(projective3, 1)
        corr = CorrelationData(s, state_spec(projective3, maximally_mixed(3)))
        with pytest.raises(ValueError, match="observable must be 3x3"):
            dequantize(corr, np.eye(2), 1)

    @pytest.mark.parametrize(
        "family, top",
        [("commuting212", 12), ("random216", 8), ("sequential", 6)],
    )
    def test_a_stack_is_its_members_alone(self, request, rng, family, top):
        # every level, full, partial and complete: the stack's matrices are
        # those of the single calls, bit for bit
        if family == "sequential":
            k = sequential_projective(4, 0.05)
        else:
            k = request.getfixturevalue(family)
        corr = CorrelationData(build_subproduct(k, top), state_spec(k, random_density(rng, k.dim)))
        a, b = random_complex(rng, k.dim, k.dim), random_hermitian(rng, k.dim)
        observables = np.stack([a, b, a @ b])
        for m in range(1, top + 1):
            stacked = dequantize(corr, observables, m)
            assert stacked.shape == (3, corr.system.dims[m], corr.system.dims[m])
            for x, psi in zip(observables, stacked):
                assert np.array_equal(psi, dequantize(corr, x, m)), m

    def test_a_stack_keeps_the_refusals(self):
        corr = _convergence_case("commuting")
        with pytest.raises(ValueError) as shape:
            dequantize(corr, np.eye(3, 4), 2)
        assert str(shape.value) == "observable must be 3x3, got (3, 4)"
        with pytest.raises(ValueError) as stack_shape:
            dequantize(corr, np.zeros((2, 3, 2)), 2)
        assert str(stack_shape.value) == "observable must be 3x3, got (2, 3, 2)"
        # one member whose level-2 pairings overflow refuses the stack
        huge = np.zeros((3, 3))
        huge[:2, :2] = 1e308
        observables = np.stack([np.eye(3), huge, np.eye(3)])
        with pytest.raises(ValueError) as overflow:
            dequantize(corr, observables, 2)
        assert str(overflow.value) == (
            "Psi_2 of the observable has non-finite entries: its pairings overflow"
        )


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

    def test_top_degree_span_matches_every_degree(self, catalog_quartet):
        # for a unital family the top-degree products span every lower degree
        pairs = [((0,), (1,)), ((1, 0), (0, 1)), ((0, 0, 1), (1, 0, 0)), ((0, 1, 1, 0), (1, 0, 0, 1))]
        for k in [*catalog_quartet.values(), sequential_projective(4, 0.05)]:
            s = build_subproduct(k, 4)
            for left, right in pairs:
                for bound in range(len(left), 5):
                    got = normal_ordering_residual(k, s, left, right, bound)
                    assert abs(got - normal_ordering_oracle(k, s, left, right, bound)) <= 1e-12

    def test_strided_columns_give_the_contiguous_copys_residual(self, catalog_quartet):
        # the columns vec(G_u† G_v) reach the rank helper as a transposed view;
        # a contiguous copy of them gives the same residual, bit for bit, on
        # both the certificate's path and the singular-value path
        def copy_path(k, s, left, right, bound):
            target = (kraus_word(k, left) @ kraus_word(k, right).conj().T).reshape(-1)
            if np.linalg.norm(target) <= 1e-14:
                return 0.0
            gens = s.generators(bound)
            prods = gens.conj().transpose(0, 2, 1)[:, None] @ gens
            columns = np.ascontiguousarray(prods.reshape(-1, target.size).T)
            span = _range_unless_full(columns, k.tol)
            if span is None:
                return 0.0
            residual = target - span @ (span.conj().T @ target)
            return float(np.linalg.norm(residual) / np.linalg.norm(target))

        pairs = [((0,), (1,)), ((1, 0), (0, 1)), ((0, 0, 1), (1, 0, 0)), ((0, 1, 1, 0), (1, 0, 0, 1))]
        for k in catalog_quartet.values():
            s = build_subproduct(k, 4)
            for left, right in pairs:
                for bound in range(len(left), 5):
                    if len(s.generators(bound)) < k.dim**2:
                        got = normal_ordering_residual(k, s, left, right, bound)
                        assert got == copy_path(k, s, left, right, bound)

    def test_full_span_takes_no_singular_vectors(self, random216, commuting212, monkeypatch):
        # degree 4 of random216: 256 products span all of M_16; degree 3 (64
        # products) and commuting212 at degree 4 (25 of 144) do not
        calls = []
        svd = np.linalg.svd

        def spy(a, full_matrices=True, compute_uv=True, hermitian=False):
            calls.append(compute_uv)
            return svd(a, full_matrices, compute_uv, hermitian)

        monkeypatch.setattr(np.linalg, "svd", spy)
        s = build_subproduct(random216, 4)
        calls.clear()
        assert normal_ordering_residual(random216, s, (0, 1), (1, 0), 4) == 0.0
        assert True not in calls
        assert normal_ordering_oracle(random216, s, (0, 1), (1, 0), 4) <= 1e-12
        for k, bound in [(random216, 3), (commuting212, 4)]:
            s = build_subproduct(k, bound)
            calls.clear()
            got = normal_ordering_residual(k, s, (0, 1), (1, 0), bound)
            assert calls == [True]
            assert abs(got - normal_ordering_oracle(k, s, (0, 1), (1, 0), bound)) <= 1e-12

    def test_complete_level_is_decided_by_its_dimension(self):
        # d_8 = 256 = d^2: the 65,536 products G_u† G_v (over 800 MB with
        # their copy) span M_d exactly and are never formed
        k = random_unital(2, 16, seed=3)
        s = build_subproduct(k, 8)
        assert s.dims[8] == 256
        tracemalloc.start()
        try:
            got = normal_ordering_residual(k, s, (0, 1), (1, 0), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 0.0
        assert peak < 10e6

    def test_complete_levels_agree_with_the_oracle(self):
        # random_unital(2,4) is complete from degree 4 on
        k = random_unital(2, 4, seed=0)
        s = build_subproduct(k, 5)
        assert s.dims[4:] == [16, 16]
        pairs = [((0,), (1,)), ((1, 0), (0, 1)), ((0, 0, 1), (1, 0, 0)), ((0, 1, 1, 0), (1, 0, 0, 1))]
        for left, right in pairs:
            for bound in range(len(left), 6):
                got = normal_ordering_residual(k, s, left, right, bound)
                assert abs(got - normal_ordering_oracle(k, s, left, right, bound)) <= 1e-12

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
        corr = CorrelationData(s, spec)
        eye = np.eye(12)
        report = convergence_report(corr, eye, eye)
        for name in ("norm_gap", "vn_residual", "scaled_commutator", "limit_state_gap"):
            assert max(getattr(report, name)) <= 1e-8
            assert report.verdicts[name] == "flat"

    def test_projective_diagonal_observables_are_classical(self, projective3, rng):
        s = build_subproduct(projective3, 5)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        a = np.diag(rng.normal(size=3))
        b = np.diag(rng.normal(size=3))
        report = convergence_report(corr, a, b)
        assert max(report.vn_residual) < 1e-9
        assert max(report.limit_state_gap) < 1e-10

    def test_limit_state_gap_is_structurally_zero(self, commuting212, rng):
        s = build_subproduct(commuting212, 5)
        spec = state_spec(commuting212, maximally_mixed(12))
        corr = CorrelationData(s, spec)
        a = random_hermitian(rng, 12)
        report = convergence_report(corr, a, a)
        assert max(report.limit_state_gap) < 1e-10

    @staticmethod
    def complete_instance(rng, n, d, top):
        """``random_unital(n, d)`` to ``top`` with a random full-rank state,
        two random observables and the complete levels (``d_m = d^2``)."""
        kraus = random_unital(n, d, seed=0)
        s = build_subproduct(kraus, top)
        corr = CorrelationData(s, state_spec(kraus, random_density(rng, d)))
        complete = [m for m in range(1, top + 1) if s.dims[m] == d * d]
        return corr, random_hermitian(rng, d), random_hermitian(rng, d), complete

    @pytest.mark.parametrize("n, d, top, first", [(2, 4, 6, 4), (3, 3, 4, 2)])
    def test_complete_levels_are_homomorphisms(self, rng, n, d, top, first):
        corr, a, b, complete = self.complete_instance(rng, n, d, top)
        assert complete == list(range(first, top + 1))
        report = convergence_report(corr, a, b)
        for m, norm_gap, vn, commutator, _ in report.rows():
            pa, pb = dequantize(corr, a, m), dequantize(corr, b, m)
            expected = m * operator_norm(pa @ pb - pb @ pa)
            assert norm_gap == abs(operator_norm(pa) - operator_norm(a)), m
            if m in complete:
                # Psi_m is a similarity there: Psi_m(AB) = Psi_m(A) Psi_m(B)
                assert vn == 0.0, m
                assert abs(commutator - expected) <= 1e-10 * expected, m
            else:
                assert vn == operator_norm(dequantize(corr, a @ b, m) - pa @ pb), m
                assert commutator == expected, m

    def test_complete_levels_dequantize_twice(self, rng, monkeypatch):
        # counted by observables: a matrix is one, a stack (k, d, d) is k
        corr, a, b, complete = self.complete_instance(rng, 2, 4, 6)
        calls = []
        real = dequantization.dequantize

        def spy(corr, x, m):
            calls.append((m, int(np.prod(np.shape(x)[:-2]))))
            return real(corr, x, m)

        monkeypatch.setattr(dequantization, "dequantize", spy)
        convergence_report(corr, a, b)
        expected = [2 if m in complete else 3 for m in range(1, 7)]
        assert [sum(k for level, k in calls if level == m) for m in range(1, 7)] == expected
        # below a complete level, the three come from one call
        partial = [m for m in range(1, 7) if m not in complete]
        assert [level for level, _ in calls if level in partial] == partial

    def test_partial_data_reports_the_levels_it_holds(self, commuting212, rng):
        # a level's factors and generators do not depend on how deep the build
        # goes, so a system built to 3 gives the first rows of one built to 6
        spec = state_spec(commuting212, random_density(rng, 12))
        full = CorrelationData(build_subproduct(commuting212, 6), spec)
        partial = CorrelationData(build_subproduct(commuting212, 3), spec)
        a, b = random_hermitian(rng, 12), random_hermitian(rng, 12)
        report = convergence_report(partial, a, b)
        assert report.levels == [1, 2, 3]
        assert report.rows() == convergence_report(full, a, b).rows()[:3]
        swept, whole = phi_symmetry_residual(partial), phi_symmetry_residual(full)
        assert swept == {m: whole[m] for m in (1, 2, 3)}

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["commuting", "complete"]),
        st.tuples(*[st.sampled_from([(3, 3), (2, 2), (4, 4), (3, 4)])] * 2),
        st.tuples(*[st.floats(-320.0, 308.0)] * 2),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example("commuting", ((3, 3), (3, 3)), (200.0, 200.0), True, 0)
    @example("complete", ((3, 3), (3, 3)), (200.0, 200.0), True, 0)
    @example("complete", ((3, 3), (3, 3)), (308.0, 0.0), False, 0)
    # Psi_1(A) is finite, but its state gap's sum overflows
    @example("commuting", ((3, 3), (3, 3)), (308.0, -1.0), False, 3)
    # Psi_2(A) is finite, but its norm is not
    @example("commuting", ((3, 3), (3, 3)), (307.4824446142162, -59.02148197525264), False, 368)
    def test_rows_are_finite_or_refused(self, family, shapes, exponents, disjoint, seed):
        # observables of any shape, of entries up to 1e308 or down to the
        # subnormals, on a d = 3 family whose levels stay below d^2 = 9 or
        # reach it at m = 4.  Disjoint observables hold one entry each, at
        # (0, 0) and (1, 1): AB = BA = 0, yet Psi_m(A) Psi_m(B) can overflow.
        # The report is finite, or the library refuses the observables with
        # its own ValueError, never numpy's, and nothing warns
        corr = _convergence_case(family)
        rng = np.random.default_rng(seed)
        a, b = (
            (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)) * 10.0**e
            for shape, e in zip(shapes, exponents)
        )
        if disjoint:
            keep_a, keep_b = np.zeros(a.shape), np.zeros(b.shape)
            keep_a[0, 0] = keep_b[1, 1] = 1.0
            a, b = a * keep_a, b * keep_b
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = convergence_report(corr, a, b)
            except ValueError as exc:
                assert re.fullmatch(
                    r"observable must be 3x3, got \(\d, \d\)|.* overflows?(: .*)?", str(exc)
                ), exc
            else:
                assert np.isfinite(report.rows()).all()

    def test_rows_shape(self, projective3):
        s = build_subproduct(projective3, 3)
        spec = state_spec(projective3, maximally_mixed(3))
        corr = CorrelationData(s, spec)
        report = convergence_report(corr, np.eye(3), np.eye(3))
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

    def test_even_count_median_is_the_mean_of_the_middle_two(self):
        # median 2.5 caps the maximum at exactly 25; the lower middle entry would not
        assert trend_verdict([0.0, 2.0, 3.0, 25.0], 1e-8) == "bounded"
