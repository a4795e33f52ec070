import numpy as np
import pytest

from krausfock import (
    SingularMatrixError,
    Tolerances,
    kron,
    kron_power_apply,
    numerical_rank,
    operator_norm,
    orthonormal_range,
    partial_trace_left,
    partial_trace_right,
    psd_inverse,
)
from conftest import random_complex


def kron_oracle(a, b):
    # entrywise definition: (a ⊗ b)[(i,k),(j,l)] = a[i,j] b[k,l]
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def trace_right_oracle(m, dh, dk):
    out = np.zeros((dh, dh), dtype=complex)
    for i in range(dh):
        for j in range(dh):
            out[i, j] = sum(m[i * dk + k, j * dk + k] for k in range(dk))
    return out


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_rel_tol == 1e-9
        assert tol.residual_tol == 1e-8

    @pytest.mark.parametrize("kwargs", [{"rank_rel_tol": 0.0}, {"residual_tol": -1.0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerances(**kwargs)


class TestKron:
    def test_identity_cases(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
        assert np.array_equal(
            kron(np.diag([1.0, 0.0]), np.eye(2)), np.diag([1.0, 1.0, 0.0, 0.0])
        )

    def test_matches_entrywise_oracle(self, rng):
        # vectorized complex multiply may differ from the scalar path in the
        # last ulp, so compare at float resolution rather than bitwise
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        assert np.allclose(kron(a, b), kron_oracle(a, b), rtol=0, atol=1e-14)

    def test_associative_bitwise_on_small_inputs(self):
        a = np.array([[1.0, 2.0], [0.5, -1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = np.array([[2.0]])
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="budget"):
            kron(np.eye(10), np.eye(10), max_entries=100)


class TestOrthonormalRange:
    def test_duplicated_column(self):
        b = orthonormal_range(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert b.shape == (2, 1)
        assert abs(abs(b[0, 0]) - 1.0) < 1e-14
        assert abs(b[1, 0]) < 1e-14

    def test_already_orthonormal(self):
        b = orthonormal_range(np.eye(2))
        assert b.shape == (2, 2)
        assert np.allclose(b.conj().T @ b, np.eye(2), atol=1e-14)

    def test_synthetic_rank_three(self, rng):
        mat = random_complex(rng, 5, 3) @ random_complex(rng, 3, 7)
        b = orthonormal_range(mat)
        assert b.shape == (5, 3)
        # range equality: projecting the input onto span(b) changes nothing
        assert operator_norm(mat - b @ (b.conj().T @ mat)) < 1e-12

    def test_isometry_property(self, rng):
        b = orthonormal_range(random_complex(rng, 8, 5))
        assert operator_norm(b.conj().T @ b - np.eye(b.shape[1])) < 1e-13

    def test_zero_input(self):
        b = orthonormal_range(np.zeros((4, 2)))
        assert b.shape == (4, 0)


def test_numerical_rank(rng):
    mat = random_complex(rng, 6, 2) @ random_complex(rng, 2, 6)
    assert numerical_rank(mat) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0


class TestPartialTrace:
    def test_product_state(self):
        e = np.zeros((2, 1))
        e[0] = 1.0
        f = np.zeros((3, 1))
        f[1] = 1.0
        state = np.kron(e, f)
        proj = state @ state.conj().T
        assert np.allclose(partial_trace_right(proj, 2, 3), e @ e.conj().T)
        assert np.allclose(partial_trace_left(proj, 2, 3), f @ f.conj().T)

    def test_identity(self):
        assert np.allclose(partial_trace_right(np.eye(6), 2, 3), 3 * np.eye(2))
        assert np.allclose(partial_trace_left(np.eye(6), 2, 3), 2 * np.eye(3))

    def test_matches_loop_oracle_and_preserves_trace(self, rng):
        g = random_complex(rng, 6, 6)
        m = g @ g.conj().T
        got = partial_trace_right(m, 2, 3)
        assert np.allclose(got, trace_right_oracle(m, 2, 3), atol=1e-13)
        assert abs(np.trace(got) - np.trace(m)) < 1e-12

    def test_linearity(self, rng):
        a = random_complex(rng, 6, 6)
        b = random_complex(rng, 6, 6)
        lhs = partial_trace_right(2.0 * a + 3.0 * b, 3, 2)
        rhs = 2.0 * partial_trace_right(a, 3, 2) + 3.0 * partial_trace_right(b, 3, 2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace_right(np.eye(5), 2, 3)


class TestPsdInverse:
    def test_identity(self):
        assert np.allclose(psd_inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_inverse(np.diag([2.0, 0.5])), np.diag([0.5, 2.0]))

    def test_random_psd_residual(self, rng):
        g = random_complex(rng, 8, 8)
        m = g @ g.conj().T + np.eye(8)
        inv = psd_inverse(m)
        assert operator_norm(m @ inv - np.eye(8)) < 1e-10

    def test_singular_names_label(self):
        with pytest.raises(SingularMatrixError, match="level-3"):
            psd_inverse(np.diag([1.0, 0.0]), label="level-3 correlation matrix")

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_inverse(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_kron_power_apply_matches_explicit(rng):
    q = random_complex(rng, 3, 3)
    mat = random_complex(rng, 27, 4)
    explicit = np.kron(np.kron(q, q), q) @ mat
    assert np.allclose(kron_power_apply(q, 3, mat), explicit, atol=1e-12)
    assert np.array_equal(kron_power_apply(q, 0, mat[:1]), mat[:1])


def test_operator_norm_empty():
    assert operator_norm(np.zeros((3, 0))) == 0.0
