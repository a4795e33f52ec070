import numpy as np
import pytest

import krausfock.dilation as dilation
from krausfock import (
    KrausSet,
    apply_heisenberg,
    build_subproduct,
    complementary_state,
    complementary_state_via_dilation,
    compressed_action,
    covariant_symbol,
    kraus_word,
    operator_norm,
    partial_trace_left,
    projective_measurement,
    random_unital,
    stinespring_isometry,
    unitary_channel,
    unitary_dilation,
)
from conftest import random_complex, random_density, random_hermitian


def heisenberg_power(kraus, a, m):
    out = a
    for _ in range(m):
        out = apply_heisenberg(kraus, out)
    return out


def word_sum_oracle(kraus, a, m):
    # sum over all length-m words of K_w† a K_w, via explicit enumeration
    out = np.zeros_like(np.asarray(a, dtype=complex))
    n = kraus.size
    for index in range(n**m):
        word = []
        rest = index
        for _ in range(m):
            word.append(rest % n)
            rest //= n
        w = kraus_word(kraus, tuple(word))
        out += w.conj().T @ a @ w
    return out


class TestStinespringIsometry:
    def test_identity_channel(self):
        k = KrausSet(np.eye(3)[None])
        s = build_subproduct(k, 2)
        v = stinespring_isometry(s, 1)
        assert v.shape == (3, 3)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-14)

    def test_isometry_on_all_families(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m in range(1, 6):
                v = stinespring_isometry(s, m)
                assert operator_norm(v.conj().T @ v - np.eye(k.dim)) < 1e-10

    def test_compression_matches_word_sum_oracle(self, rng):
        k = random_unital(2, 4, seed=9)
        s = build_subproduct(k, 2)
        a = random_hermitian(rng, 4)
        v = stinespring_isometry(s, 2)
        got = v.conj().T @ np.kron(a, np.eye(s.dims[2])) @ v
        assert operator_norm(got - word_sum_oracle(k, a, 2)) < 1e-10
        assert operator_norm(got - heisenberg_power(k, a, 2)) < 1e-10

    def test_compression_at_higher_levels(self, catalog_quartet, rng):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 4)
            a = random_hermitian(rng, k.dim)
            for m in (3, 4):
                v = stinespring_isometry(s, m)
                got = v.conj().T @ np.kron(a, np.eye(s.dims[m])) @ v
                assert operator_norm(got - heisenberg_power(k, a, m)) < 1e-9
                assert operator_norm(compressed_action(v, a) - got) < 1e-12

    def test_bath_side_of_every_level_is_the_pairing(self, catalog_quartet, rng):
        # Tr_sys(V_m rho V_m†) has entries Tr(G_u rho G_v†), the pairing that
        # complementary_state takes at level one and dequantize at level m
        for k in catalog_quartet.values():
            s = build_subproduct(k, 3)
            rho = random_density(rng, k.dim)
            for m in range(1, 4):
                v = stinespring_isometry(s, m)
                traced = partial_trace_left(v @ rho @ v.conj().T, k.dim, s.dims[m])
                pairing = dilation._pairing(s.generators(m), rho)
                assert operator_norm(traced - pairing) < 1e-12


class TestUnitaryDilation:
    def test_identity_channel(self):
        w = unitary_dilation(KrausSet(np.eye(2)[None]))
        assert np.array_equal(w, np.eye(2))

    def test_unitarity(self):
        for seed in range(3):
            k = random_unital(2, 4, seed=seed)
            w = unitary_dilation(k)
            eye = np.eye(8)
            assert operator_norm(w @ w.conj().T - eye) < 1e-12
            assert operator_norm(w.conj().T @ w - eye) < 1e-12

    def test_reference_slice_is_isometry_columns(self):
        k = random_unital(3, 2, seed=1)
        s = build_subproduct(k, 1)
        assert np.array_equal(unitary_dilation(k)[:, :: k.size], stinespring_isometry(s, 1))

    def test_compression_reproduces_channel_on_probe_basis(self, catalog_quartet):
        for k in catalog_quartet.values():
            if k.dim > 6:
                continue
            v = unitary_dilation(k)[:, :: k.size]
            for a in range(k.dim):
                for b in range(k.dim):
                    unit = np.zeros((k.dim, k.dim))
                    unit[a, b] = 1.0
                    got = compressed_action(v, unit)
                    gap = operator_norm(got - apply_heisenberg(k, unit))
                    assert gap < 1e-10

    def test_rejects_non_minimal(self):
        ops = np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="minimal"):
            unitary_dilation(KrausSet(ops))


class TestStackedProbes:
    """A stack of probes in one call against one call per matrix."""

    def test_unit_probe_stack_matches_single_calls(self, catalog_quartet):
        for name, k in catalog_quartet.items():
            d, v = k.dim, unitary_dilation(k)[:, :: k.size]
            units = np.eye(d * d).reshape(d, d, d, d)  # units[a, b] = E_ab
            compressed = compressed_action(v, units)
            heisenberg = apply_heisenberg(k, units)
            assert compressed.shape == heisenberg.shape == (d, d, d, d)
            for a in range(d):
                for b in range(d):
                    single = compressed_action(v, units[a, b])
                    assert np.array_equal(compressed[a, b], single), (name, a, b)
                    single = apply_heisenberg(k, units[a, b])
                    assert np.array_equal(heisenberg[a, b], single), (name, a, b)

    def test_two_dimensional_calls_keep_shapes_and_errors(self):
        k = random_unital(3, 2, seed=1)
        w = unitary_dilation(k)
        v = w[:, ::3]
        a = np.arange(4.0).reshape(2, 2)
        assert compressed_action(v, a).shape == (2, 2)
        assert apply_heisenberg(k, a).shape == (2, 2)
        bad = [np.ones(2), np.ones((3, 3)), np.ones((2, 3)), np.full((2, 2), np.nan)]
        bad.append(np.ones((4, 2, 3)))  # a stack of non-square matrices
        for x in bad:
            with pytest.raises(ValueError):
                compressed_action(v, x)
            with pytest.raises(ValueError):
                apply_heisenberg(k, x)
        # the whole unitary is an isometry on C^6, and 5 rows are no C^2 ⊗ C^b
        for bad_v in (w, v[:5]):
            with pytest.raises(ValueError):
                compressed_action(bad_v, a)


class TestComplementaryState:
    def test_unitary_channel(self, rng):
        k = unitary_channel(4, seed=2)
        rho = random_density(rng, 4)
        out = complementary_state(k, rho)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0) < 1e-12

    def test_uniform_projective(self):
        n = 4
        k = projective_measurement(n)
        out = complementary_state(k, np.eye(n) / n)
        assert np.allclose(out, np.eye(n) / n, atol=1e-12)

    def test_two_formulas_agree(self, rng):
        k = random_unital(3, 4, seed=5)
        for _ in range(5):
            rho = random_density(rng, 4)
            by_sum = complementary_state(k, rho)
            by_dilation = complementary_state_via_dilation(k, rho)
            assert operator_norm(by_sum - by_dilation) < 1e-10

    def test_dilation_route_forms_only_the_isometry(self, rng, monkeypatch):
        # the e_0 columns of W are V_1 bit for bit, so no completion is formed,
        # and the unital-and-minimal guard still runs
        k = random_unital(2, 6, seed=3)
        rho = random_density(rng, 6)
        v = unitary_dilation(k)[:, :: k.size]
        expected = partial_trace_left(v @ rho @ v.conj().T, 6, 2)
        monkeypatch.setattr(dilation, "unitary_dilation", None)
        assert np.array_equal(complementary_state_via_dilation(k, rho), expected)
        with pytest.raises(ValueError, match="not unital"):
            complementary_state_via_dilation(KrausSet(2.0 * k.ops), rho)

    def test_output_is_a_density_matrix(self, rng):
        k = random_unital(3, 5, seed=6)
        rho = random_density(rng, 5)
        out = complementary_state(k, rho)
        assert operator_norm(out - out.conj().T) < 1e-12
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-12
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_rejects_invalid_states(self):
        k = projective_measurement(2)
        with pytest.raises(ValueError, match="trace"):
            complementary_state(k, np.eye(2))
        with pytest.raises(ValueError, match="Hermitian"):
            complementary_state(k, np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="positive"):
            complementary_state(k, np.diag([1.5, -0.5]))

    def test_both_routes_share_the_state_validator(self):
        k = projective_measurement(2)
        for route in (complementary_state, complementary_state_via_dilation):
            with pytest.raises(ValueError, match="state must be 2x2"):
                route(k, np.eye(3) / 3)
            with pytest.raises(ValueError, match="trace"):
                route(k, np.eye(2))


class TestCovariantSymbol:
    def test_identity_input_gives_identity(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 4)
            for m in range(1, 5):
                out = covariant_symbol(k, s, m, np.eye(s.dims[m]))
                assert operator_norm(out - np.eye(k.dim)) < 1e-9

    def test_level_one_matrix_units(self):
        k = random_unital(2, 3, seed=3)
        s = build_subproduct(k, 1)
        for j in range(2):
            for l in range(2):
                unit = np.zeros((2, 2))
                unit[j, l] = 1.0
                got = covariant_symbol(k, s, 1, unit)
                expected = k.ops[j].conj().T @ k.ops[l]
                assert np.allclose(got, expected, atol=1e-12)

    def test_agrees_with_isometry_route(self, catalog_quartet, rng):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m in range(1, 6):
                x = random_complex(rng, s.dims[m], s.dims[m])
                got = covariant_symbol(k, s, m, x)
                v = stinespring_isometry(s, m)
                alt = v.conj().T @ np.kron(np.eye(k.dim), x) @ v
                assert operator_norm(got - alt) < 1e-9

    def test_positivity(self, rng):
        k = random_unital(2, 4, seed=4)
        s = build_subproduct(k, 3)
        g = random_complex(rng, s.dims[3], s.dims[3])
        out = covariant_symbol(k, s, 3, g @ g.conj().T)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-10

    def test_shape_validation(self):
        k = projective_measurement(3)
        s = build_subproduct(k, 2)
        with pytest.raises(ValueError):
            covariant_symbol(k, s, 2, np.eye(5))
