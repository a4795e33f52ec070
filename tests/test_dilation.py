import numpy as np
import pytest

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
    random_unital,
    stinespring_isometry,
    uniform_projective,
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
        v = stinespring_isometry(k, s, 1)
        assert v.shape == (3, 3)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-14)

    def test_isometry_on_all_families(self, catalog_quartet):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 5)
            for m in range(1, 6):
                v = stinespring_isometry(k, s, m)
                assert operator_norm(v.conj().T @ v - np.eye(k.dim)) < 1e-10

    def test_compression_matches_word_sum_oracle(self, rng):
        k = random_unital(2, 4, seed=9)
        s = build_subproduct(k, 2)
        a = random_hermitian(rng, 4)
        v = stinespring_isometry(k, s, 2)
        got = v.conj().T @ np.kron(a, np.eye(s.dims[2])) @ v
        assert operator_norm(got - word_sum_oracle(k, a, 2)) < 1e-10
        assert operator_norm(got - heisenberg_power(k, a, 2)) < 1e-10

    def test_compression_at_higher_levels(self, catalog_quartet, rng):
        for k in catalog_quartet.values():
            s = build_subproduct(k, 4)
            a = random_hermitian(rng, k.dim)
            for m in (3, 4):
                v = stinespring_isometry(k, s, m)
                got = v.conj().T @ np.kron(a, np.eye(s.dims[m])) @ v
                assert operator_norm(got - heisenberg_power(k, a, m)) < 1e-9


class TestUnitaryDilation:
    def test_identity_channel(self):
        bundle = unitary_dilation(KrausSet(np.eye(2)[None]))
        assert np.array_equal(bundle.unitary, np.eye(2))

    def test_unitarity(self):
        for seed in range(3):
            k = random_unital(2, 4, seed=seed)
            w = unitary_dilation(k).unitary
            eye = np.eye(8)
            assert operator_norm(w @ w.conj().T - eye) < 1e-12
            assert operator_norm(w.conj().T @ w - eye) < 1e-12

    def test_reference_slice_is_isometry_columns(self):
        k = random_unital(3, 2, seed=1)
        bundle = unitary_dilation(k)
        assert np.array_equal(bundle.unitary[:, 0 :: k.size], bundle.isometry)

    def test_compression_reproduces_channel_on_probe_basis(self, catalog_quartet):
        for k in catalog_quartet.values():
            if k.dim > 6:
                continue
            w = unitary_dilation(k).unitary
            for a in range(k.dim):
                for b in range(k.dim):
                    unit = np.zeros((k.dim, k.dim))
                    unit[a, b] = 1.0
                    got = compressed_action(w, unit, k.dim, k.size)
                    gap = operator_norm(got - apply_heisenberg(k, unit))
                    assert gap < 1e-10

    def test_rejects_non_minimal(self):
        ops = np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="minimal"):
            unitary_dilation(KrausSet(ops))


class TestComplementaryState:
    def test_unitary_channel(self, rng):
        k = unitary_channel(4, seed=2)
        rho = random_density(rng, 4)
        out = complementary_state(k, rho)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0) < 1e-12

    def test_uniform_projective(self):
        n = 4
        k = uniform_projective(n)
        out = complementary_state(k, np.eye(n) / n)
        assert np.allclose(out, np.eye(n) / n, atol=1e-12)

    def test_two_formulas_agree(self, rng):
        k = random_unital(3, 4, seed=5)
        bundle = unitary_dilation(k)
        for _ in range(5):
            rho = random_density(rng, 4)
            by_sum = complementary_state(k, rho)
            by_dilation = complementary_state_via_dilation(k, rho, bundle)
            assert operator_norm(by_sum - by_dilation) < 1e-10

    def test_output_is_a_density_matrix(self, rng):
        k = random_unital(3, 5, seed=6)
        rho = random_density(rng, 5)
        out = complementary_state(k, rho)
        assert operator_norm(out - out.conj().T) < 1e-12
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-12
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_rejects_invalid_states(self):
        k = uniform_projective(2)
        with pytest.raises(ValueError, match="trace"):
            complementary_state(k, np.eye(2))
        with pytest.raises(ValueError, match="Hermitian"):
            complementary_state(k, np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="positive"):
            complementary_state(k, np.diag([1.5, -0.5]))

    def test_both_routes_share_the_state_validator(self):
        k = uniform_projective(2)
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
                v = stinespring_isometry(k, s, m)
                alt = v.conj().T @ np.kron(np.eye(k.dim), x) @ v
                assert operator_norm(got - alt) < 1e-9

    def test_positivity(self, rng):
        k = random_unital(2, 4, seed=4)
        s = build_subproduct(k, 3)
        g = random_complex(rng, s.dims[3], s.dims[3])
        out = covariant_symbol(k, s, 3, g @ g.conj().T)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] > -1e-10

    def test_shape_validation(self):
        k = uniform_projective(3)
        s = build_subproduct(k, 2)
        with pytest.raises(ValueError):
            covariant_symbol(k, s, 2, np.eye(5))
