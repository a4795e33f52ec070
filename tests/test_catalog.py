import numpy as np
import pytest

from krausfock import (
    CatalogSpec,
    build_catalog,
    build_subproduct,
    commuting_generic,
    minimal_kraus,
    projective_measurement,
    random_unital,
    sequential_projective,
    validate,
)


ALL_SPECS = [
    CatalogSpec("identity", d=4),
    CatalogSpec("unitary", d=4, seed=1),
    CatalogSpec("projective", d=5, params={"ranks": [2, 2, 1]}),
    CatalogSpec("commuting_generic", n=3, d=10, seed=2),
    CatalogSpec("random_unital", n=2, d=6, seed=3),
    CatalogSpec("sequential_projective", d=4, seed=4, params={"angle": 0.7}),
]


class TestConstructorValidity:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_every_family_is_exactly_unital(self, spec):
        report = validate(build_catalog(spec))
        assert report.valid
        assert report.unitality_residual < 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_determinism(self, spec):
        first = build_catalog(spec)
        second = build_catalog(spec)
        assert np.array_equal(first.ops, second.ops)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_square_chain_factors_are_identities(self, spec):
        # a full level, d_m = n d_{m-1}, is recorded as an implicit identity,
        # and a stored chain factor is never square
        system = build_subproduct(minimal_kraus(build_catalog(spec)), 6)
        dims, n = system.dims, system.n
        for m, c in enumerate(system.factors[1:], start=1):
            assert (c is None) == (dims[m] == n * dims[m - 1]), m
            if c is not None:
                assert c.shape == (n * dims[m - 1], dims[m]), m
                assert c.shape[0] > c.shape[1], m
                assert np.allclose(c.conj().T @ c, np.eye(dims[m]), atol=1e-12), m


class TestProjective:
    def test_block_structure(self):
        k = projective_measurement(3, [1, 2])
        assert k.size == 2
        assert np.array_equal(k.ops[0], np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(k.ops[1], np.diag([0.0, 1.0, 1.0]))

    def test_uniform_shortcut(self):
        # without ranks: d rank-one projections onto the coordinate axes
        k = projective_measurement(4)
        assert k.size == 4
        assert k.dim == 4
        assert np.array_equal(k.ops, np.eye(4)[:, None, :] * np.eye(4)[:, :, None])

    def test_rank_sum_mismatch(self):
        with pytest.raises(ValueError, match="sum"):
            projective_measurement(4, [2, 3])
        with pytest.raises(ValueError, match="positive"):
            projective_measurement(4, [0, 4])


class TestCommutingGeneric:
    def test_exactly_commuting(self):
        k = commuting_generic(3, 8, seed=5)
        for a in range(3):
            for b in range(3):
                assert np.array_equal(k.ops[a] @ k.ops[b], k.ops[b] @ k.ops[a])

    def test_dimension_ladder(self):
        k = commuting_generic(2, 12, seed=5)
        assert build_subproduct(k, 6).dims == [1, 2, 3, 4, 5, 6, 7]

    def test_ternary_ladder(self):
        k = commuting_generic(3, 20, seed=5)
        assert build_subproduct(k, 4).dims == [1, 3, 6, 10, 15]


class TestRandomUnital:
    def test_free_growth(self):
        k = random_unital(2, 16, seed=1)
        assert build_subproduct(k, 5).dims == [1, 2, 4, 8, 16, 32]

    def test_seed_changes_output(self):
        a = random_unital(2, 4, seed=0)
        b = random_unital(2, 4, seed=1)
        assert not np.allclose(a.ops, b.ops)

    @pytest.mark.parametrize("n, d", [(0, 3), (2, 0)])
    def test_rejects_empty_sizes(self, n, d):
        # an empty normalizer would otherwise be retried with new seeds forever
        with pytest.raises(ValueError, match="positive n and d"):
            random_unital(n, d)


class TestSequentialProjective:
    def test_trajectories_exceed_projective_ladder(self):
        k = sequential_projective(4, np.pi / 4, seed=0)
        dims = build_subproduct(k, 3).dims
        assert dims[1] == 4
        assert dims[2] > 4  # noncommuting trajectories proliferate

    def test_small_angle_still_valid(self):
        k = sequential_projective(4, 1e-3, seed=0)
        assert validate(k).valid

    def test_angle_validation(self):
        with pytest.raises(ValueError, match="angle"):
            sequential_projective(4, 0.0)
        with pytest.raises(ValueError, match="angle"):
            sequential_projective(4, np.pi)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension at least 2"):
            sequential_projective(1, np.pi / 4)


class TestDispatcher:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            CatalogSpec("teleportation")

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="needs parameter"):
            build_catalog(CatalogSpec("random_unital", n=2))

    def test_projective_defaults_to_uniform(self):
        k = build_catalog(CatalogSpec("projective", d=3))
        assert k.size == 3

    def test_projective_counts_its_operators_by_the_ranks(self):
        # the ranks fix the count, so an 'n' could only repeat or contradict it
        ranks = {"ranks": [1, 2]}
        assert build_catalog(CatalogSpec("projective", d=3, params=ranks)).size == 2
        for n in (2, 5):
            with pytest.raises(ValueError, match="does not use parameter 'n'"):
                CatalogSpec("projective", n=n, d=3, params=ranks)

    def test_identity_and_unitary(self):
        assert np.array_equal(
            build_catalog(CatalogSpec("identity", d=3)).ops[0], np.eye(3)
        )
        u = build_catalog(CatalogSpec("unitary", d=3, seed=7)).ops[0]
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize(
        "spec, unused",
        [
            (dict(family="random_unital", n=2, d=3, params={"ranks": [1, 2]}), "ranks"),
            (dict(family="identity", d=3, params={"angle": 0.3}), "angle"),
            (dict(family="identity", n=1, d=3), "n"),
            (dict(family="projective", d=3, seed=2), "seed"),
            (dict(family="sequential_projective", d=4, params={"bogus": 1}), "bogus"),
        ],
    )
    def test_unused_parameter_is_named(self, spec, unused):
        with pytest.raises(ValueError, match=f"does not use parameter '{unused}'"):
            CatalogSpec(**spec)

    @pytest.mark.parametrize(
        "spec, name",
        [
            (dict(family="random_unital", n=2.7, d=3), "n"),
            (dict(family="random_unital", n=True, d=3), "n"),
            (dict(family="random_unital", n=2, d="3"), "d"),
            (dict(family="random_unital", n=2, d=3, seed=-1), "seed"),
            (dict(family="sequential_projective", d=4, params={"angle": "0.3"}), "angle"),
            (dict(family="sequential_projective", d=4, params={"angle": True}), "angle"),
            (dict(family="projective", d=3, params={"ranks": [1.5, 1.5]}), "ranks"),
        ],
    )
    def test_wrong_type_or_range_is_named(self, spec, name):
        with pytest.raises(ValueError, match=f"parameter '{name}' must be"):
            CatalogSpec(**spec)

    @pytest.mark.parametrize("name", ["seed", "d"])
    def test_sizes_and_seed_are_not_params(self, name):
        # such a key used to be accepted and ignored: the default seed or size was built
        with pytest.raises(ValueError, match=f"does not use parameter 'params.{name}'"):
            CatalogSpec("random_unital", n=2, d=3, params={name: 7})

    @pytest.mark.parametrize("params", [5, None, [("angle", 0.3)]], ids=["int", "None", "list"])
    def test_params_must_be_a_dict(self, params):
        with pytest.raises(ValueError, match="params must be a dict"):
            CatalogSpec("sequential_projective", d=4, params=params)

    def test_params_are_validated_into_a_copy(self):
        # a later change to the caller's dict skips no check and changes no family
        p = {"angle": 0.3}
        spec = CatalogSpec("sequential_projective", d=4, params=p)
        p["angle"] = True
        p["seed"] = 7
        assert spec.params == {"angle": 0.3}
        expected = sequential_projective(4, 0.3, seed=0).ops
        assert np.array_equal(build_catalog(spec).ops, expected)
        ranks = [2, 1]
        spec = CatalogSpec("projective", d=3, params={"ranks": ranks})
        ranks.append(1.5)
        assert np.array_equal(build_catalog(spec).ops, projective_measurement(3, [2, 1]).ops)

    def test_numpy_integers_are_accepted(self):
        spec = CatalogSpec("random_unital", n=np.int64(2), d=np.int32(3), seed=np.uint8(4))
        assert np.array_equal(build_catalog(spec).ops, random_unital(2, 3, seed=4).ops)

    def test_seed_defaults_to_zero_where_read(self):
        assert CatalogSpec("random_unital", n=2, d=3).seed == 0
        assert CatalogSpec("identity", d=3).seed is None

    @pytest.mark.parametrize(
        "spec",
        [
            dict(family="identity", d=100_000_000),
            dict(family="commuting_generic", n=100_000_000, d=1),
            dict(family="sequential_projective", d=4096),
        ],
    )
    def test_size_bound(self, spec):
        with pytest.raises(ValueError, match="Kraus entries"):
            CatalogSpec(**spec)

