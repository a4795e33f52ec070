import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krausfock.linalg
from krausfock import (
    Tolerances,
    operator_norm,
    orthonormal_range,
    partial_trace_left,
)
from krausfock.linalg import (
    _certified_full,
    _largest_norm,
    _lower_gram,
    _range_unless_full,
    _rank,
    _triangular_inverse,
)
from conftest import haar_unitary, kron_power_apply, random_complex


def trace_left_oracle(m, dh, dk):
    out = np.zeros((dk, dk), dtype=complex)
    for i in range(dk):
        for j in range(dk):
            out[i, j] = sum(m[h * dk + i, h * dk + j] for h in range(dh))
    return out


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_rel_tol == 1e-9
        assert tol.residual_tol == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [{"rank_rel_tol": 0.0}, {"residual_tol": -1.0}]
        + [{name: x} for name in ("rank_rel_tol", "residual_tol") for x in (np.nan, np.inf)]
        # at 1 the rank rule would count even the largest singular value as zero
        + [{"rank_rel_tol": 1.0}, {"rank_rel_tol": 2.0}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerances(**kwargs)

    @pytest.mark.parametrize("value", [True, "1e-9", 10**400], ids=["bool", "str", "huge-int"])
    def test_rejects_what_is_not_a_positive_finite_real(self, value):
        # a bool read as 1.0, a string raised TypeError, and an integer
        # beyond float range raised OverflowError only when a rank was decided
        with pytest.raises(ValueError, match="rank_rel_tol must be a positive finite real"):
            Tolerances(rank_rel_tol=value)

    def test_stores_floats(self):
        tol = Tolerances(residual_tol=1, rank_rel_tol=np.float32(0.5))
        assert type(tol.residual_tol) is float and tol.residual_tol == 1.0
        assert type(tol.rank_rel_tol) is float and tol.rank_rel_tol == 0.5


class TestOrthonormalRange:
    def test_duplicated_column(self):
        b = orthonormal_range(np.array([[1.0, 1.0], [0.0, 0.0]]), Tolerances())
        assert b.shape == (2, 1)
        assert abs(abs(b[0, 0]) - 1.0) < 1e-14
        assert abs(b[1, 0]) < 1e-14

    def test_already_orthonormal(self):
        b = orthonormal_range(np.eye(2), Tolerances())
        assert b.shape == (2, 2)
        assert np.allclose(b.conj().T @ b, np.eye(2), atol=1e-14)

    def test_synthetic_rank_three(self, rng):
        mat = random_complex(rng, 5, 3) @ random_complex(rng, 3, 7)
        b = orthonormal_range(mat, Tolerances())
        assert b.shape == (5, 3)
        # range equality: projecting the input onto span(b) changes nothing
        assert operator_norm(mat - b @ (b.conj().T @ mat)) < 1e-12

    def test_isometry_property(self, rng):
        b = orthonormal_range(random_complex(rng, 8, 5), Tolerances())
        assert operator_norm(b.conj().T @ b - np.eye(b.shape[1])) < 1e-13

    def test_zero_input(self):
        b = orthonormal_range(np.zeros((4, 2)), Tolerances())
        assert b.shape == (4, 0)
        assert orthonormal_range(np.zeros((3, 11)), Tolerances()).shape == (3, 0)

    def test_column_count_is_numerical_rank(self, rng):
        mat = random_complex(rng, 6, 2) @ random_complex(rng, 2, 6)
        assert orthonormal_range(mat, Tolerances()).shape[1] == 2
        assert orthonormal_range(np.zeros((3, 3)), Tolerances()).shape[1] == 0


@st.composite
def wide_spectra(draw):
    """A ``rows x cols`` matrix, ``rows < cols``, with planted singular values
    clear of the rank threshold by at least 10x on both sides: largest 1, the
    kept ones log-uniform in ``[10 tau, 1]``, the dropped ones log-uniform in
    ``[1e-8 tau, tau / 10]`` or zero; then scaled by a power of two.  Returns
    the matrix, the tolerances and the planted rank."""
    tau = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(rows + 1, 160))
    rank = draw(st.integers(1, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kept = 10.0 ** rng.uniform(np.log10(10.0 * tau), 0.0, rank)
    kept[0] = 1.0
    dropped = 10.0 ** rng.uniform(np.log10(tau) - 8.0, np.log10(tau / 10.0), rows - rank)
    if draw(st.booleans()):
        dropped[:] = 0.0
    s = np.concatenate([kept, dropped])
    scale = draw(st.sampled_from([1.0, 2.0**600, 2.0**-600]))
    a = ((haar_unitary(rng, rows) * s) @ haar_unitary(rng, cols)[:rows]) * scale
    return a, Tolerances(rank_rel_tol=tau), rank


def svd_calls(run):
    """``run()`` and, for each call of ``np.linalg.svd`` it made, the shape of
    the input and the singular values."""
    calls = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        u, s, vh = svd(x, *args, **kwargs)
        calls.append((x.shape, s))
        return u, s, vh

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", spy)
        return run(), calls


class TestWideRange:
    """A wide input's range, taken from the triangular factor of its
    transpose, against the direct SVD of the input."""

    @staticmethod
    def check(a, tol):
        """The rank, the range and the singular values relative to the
        largest (an input beyond ``2^500`` is scaled down first) agree with
        the direct SVD's; returns the rank.  Two backward stable ranges
        differ by about ``eps s_max / sigma_k`` (Wedin), so the projector
        distance is held to 1e-12 for ``sigma_k >= 1e-3 s_max`` and to
        ``1e-15 s_max / sigma_k`` below."""
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        rank = _rank(s, tol)
        q, [(_, seen)] = svd_calls(lambda: orthonormal_range(a, tol))
        assert q.shape == (a.shape[0], rank)
        assert np.max(np.abs(seen / seen[0] - s / s[0])) <= 1e-13
        p = u[:, :rank]
        distance = operator_norm(q @ q.conj().T - p @ p.conj().T)
        assert distance <= (max(1e-12, 1e-15 * s[0] / s[rank - 1]) if rank else 0.0)
        return rank

    @settings(max_examples=200, deadline=None)
    @given(wide_spectra())
    def test_agrees_with_the_direct_svd(self, planted):
        a, tol, rank = planted
        assert self.check(a, tol) == rank

    @pytest.mark.parametrize(
        "shape, factored", [((5, 30), (5, 5)), ((30, 5), (30, 5)), ((7, 7), (7, 7))]
    )
    def test_only_a_wide_input_is_factored(self, rng, shape, factored):
        a = random_complex(rng, *shape)
        _, [(seen, _)] = svd_calls(lambda: orthonormal_range(a, Tolerances()))
        assert seen == factored

    def test_subnormal_input(self, rng):
        # the largest part is subnormal, so the input is scaled up by an exact
        # power of two before the factorization; the rank and range are those
        # of the copy scaled back up by 2^1024
        tol = Tolerances()
        s = np.concatenate([np.geomspace(1.0, 1e-3, 6), [1e-11, 0.0]])
        a = ((haar_unitary(rng, 8) * s) @ haar_unitary(rng, 50)[:8]) * 2.0**-1024
        assert 0.0 < np.abs(a.view(float)).max() < np.finfo(float).tiny
        unscaled = np.ldexp(a.view(float), 1024).view(complex)
        assert self.check(unscaled, tol) == 6
        q = orthonormal_range(a, tol)
        assert q.shape == (8, 6)
        p = orthonormal_range(unscaled, tol)
        assert operator_norm(q @ q.conj().T - p @ p.conj().T) <= 1e-12

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2)])
    def test_huge_input(self, shape):
        # scaled down first: a column norm of 1e308 sqrt(5) would overflow
        a = np.full(shape, 1e308, dtype=complex)
        q = orthonormal_range(a, Tolerances())
        assert q.shape == (shape[0], 1)
        assert np.allclose(np.abs(q), 1.0 / np.sqrt(shape[0]), rtol=1e-14)

    def test_single_row(self, rng):
        q = orthonormal_range(random_complex(rng, 1, 9), Tolerances())
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) < 1e-15
        assert orthonormal_range(np.zeros((1, 9)), Tolerances()).shape == (1, 0)


class TestSpansAll:
    """Whether rows span all of ``C^rows``: ``_range_unless_full`` against the
    column count of orthonormal_range."""

    @staticmethod
    def spans(a, tol=Tolerances()):
        """Whether the helper finds the rows full; any range it returns is
        bit-identical to orthonormal_range's."""
        q = _range_unless_full(a, tol)
        if q is not None:
            assert np.array_equal(q, orthonormal_range(a, tol))
        assert (q is None) == (orthonormal_range(a, tol).shape[1] == a.shape[0])
        return q is None

    @pytest.mark.parametrize("shape", [(6, 6), (4, 9)])
    @pytest.mark.parametrize(
        "ratio, spans",
        [(1e-8, True), (1e-9 * (1 + 1e-6), True), (1e-9 * (1 - 1e-6), False), (1e-10, False)],
    )
    def test_planted_spectra(self, rng, shape, ratio, spans):
        rows, cols = shape
        # singular values from 1 down to sigma_min / sigma_max = ratio
        s = np.geomspace(1.0, ratio, rows)
        a = (haar_unitary(rng, rows) * s) @ haar_unitary(rng, cols)[:rows]
        assert self.spans(a) is spans

    def test_tall_wide_and_zero(self, rng):
        cases = {
            "tall": (random_complex(rng, 7, 3), False),
            "wide": (random_complex(rng, 3, 7), True),
            "wide, rank 2": (random_complex(rng, 3, 2) @ random_complex(rng, 2, 7), False),
            "zero": (np.zeros((3, 5), dtype=complex), False),
            "no rows": (np.zeros((0, 4), dtype=complex), True),
        }
        for name, (a, spans) in cases.items():
            assert self.spans(a) is spans, name


def cutoff(rows, cols, tol):
    """The certificate's cut-off on ``sigma_min^2 / ||a||_F^2``."""
    return 4 * tol.rank_rel_tol**2 + 8 * (rows + cols + 2) * np.finfo(float).eps


@st.composite
def planted_spectra(draw, row_range=(1, 40), scales=(1.0, 2.0**600, 2.0**-600, 1e150, 1e-150)):
    """A ``rows x cols`` matrix, ``rows`` in ``row_range`` and
    ``rows <= cols <= row_range[1]``, with planted singular values: largest 1, the
    rest in [1e-3, 1], and the smallest log-uniform in [1e-12, 1], or near
    the rank threshold, or near the certificate's cut-off; then scaled by
    one of ``scales``.  Returns the matrix, the tolerances and its
    ``sigma_min^2 / ||a||_F^2``, measured on the matrix as stored, since a
    subnormal scale rounds the planted spectrum away."""
    tol = Tolerances(rank_rel_tol=draw(st.sampled_from([1e-9, 1e-6, 1e-3])))
    rows = draw(st.integers(*row_range))
    cols = draw(st.integers(rows, row_range[1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.concatenate([[1.0], 10.0 ** rng.uniform(-3.0, 0.0, max(rows - 2, 0))])
    near = draw(st.sampled_from(["anywhere", "threshold", "cut-off"]))
    # a relative offset from 1e-7 to about 20x, either way
    factor = np.exp(draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-7.0, 0.5)))
    if near == "anywhere":
        smallest = 10.0 ** draw(st.floats(-12.0, 0.0))
    elif near == "threshold":
        smallest = tol.rank_rel_tol * factor
    else:  # smallest^2 / (rest + smallest^2) = q
        q = min(cutoff(rows, cols, tol) * factor, 0.5)
        smallest = np.sqrt(q * np.sum(s**2) / (1.0 - q))
    if rows > 1:
        s = np.append(s, smallest)
    scale = draw(st.sampled_from(scales))
    a = ((haar_unitary(rng, rows) * s) @ haar_unitary(rng, cols)[:rows]) * scale
    # dividing the parts by a power of two is exact, and by 1e+-150 moves no
    # ratio that matters (a complex division by 2^-1060 would overflow)
    stored = np.linalg.svd((a.view(float) / scale).view(complex), compute_uv=False)
    return a, tol, stored[-1] ** 2 / np.sum(stored**2)


def lower_block_mask(rows):
    """Entries of the lower block triangle in 64-row blocks."""
    blocks = np.arange(rows) // 64
    return blocks[:, None] >= blocks[None, :]


class TestCertifiedFull:
    """The Cholesky certificate behind _range_unless_full against the singular-value rule."""

    @staticmethod
    def check(a, tol, q):
        """The three facts: the helper's decision is the rank rule's, any range
        it returns is orthonormal_range's, and clear of the cut-off the
        certificate decides, at any scale of ``a``."""
        rows, cols = a.shape
        span = _range_unless_full(a, tol)
        assert (span is None) == (_rank(np.linalg.svd(a, compute_uv=False), tol) == rows)
        if span is not None:
            assert np.array_equal(span, orthonormal_range(a, tol))
        if q >= 2 * cutoff(rows, cols, tol):
            assert _certified_full(a, tol)
        elif q <= cutoff(rows, cols, tol) / 2:
            assert not _certified_full(a, tol)

    @settings(max_examples=300, deadline=None)
    @given(planted_spectra())
    def test_never_disagrees_with_the_rank_rule(self, planted):
        self.check(*planted)

    @settings(max_examples=40, deadline=None)
    @given(planted_spectra(row_range=(65, 200), scales=(1.0, 2.0**1000, 2.0**-1000)))
    def test_never_disagrees_across_panels_and_extreme_scales(self, planted):
        # more than one 64-row panel
        self.check(*planted)

    @settings(max_examples=20, deadline=None)
    @given(planted_spectra(row_range=(65, 200), scales=(2.0**-1060,)))
    def test_subnormal_input_certifies_only_full_rows(self, planted):
        # the largest entry is subnormal.  The certificate and orthonormal_range
        # scale it up exactly, since an SVD of the input itself errs by the
        # subnormal spacing, about 3e-5 of the largest singular value here; the
        # rule is read on the copy scaled up by 2^1060 (exact) that also gives ``q``
        a, tol, q = planted
        rows, cols = a.shape
        unscaled = np.ldexp(a.view(float), 1060).view(complex)
        rank = _rank(np.linalg.svd(unscaled, compute_uv=False), tol)
        assert orthonormal_range(a, tol).shape[1] == rank
        assert (_range_unless_full(a, tol) is None) == (rank == rows)
        if _certified_full(a, tol):
            assert rank == rows
        if q >= 2 * cutoff(rows, cols, tol):
            assert _certified_full(a, tol)
        elif q <= cutoff(rows, cols, tol) / 2:
            assert not _certified_full(a, tol)

    def test_subnormal_rank_is_the_rescaled_copys(self):
        # 65 x 65, smallest singular value 10^-4.9 to 10^-4.2 of the largest:
        # an SVD of the subnormal input itself found rank 64 for 6 of these seeds
        tol = Tolerances(rank_rel_tol=1e-9)
        for seed in range(16):
            rng = np.random.default_rng(seed)
            low = 10.0 ** rng.uniform(-4.9, -4.2)
            s = np.concatenate([[1.0], 10.0 ** rng.uniform(-3.0, 0.0, 63), [low]])
            a = ((haar_unitary(rng, 65) * s) @ haar_unitary(rng, 65)) * 2.0**-1060
            unscaled = np.ldexp(a.view(float), 1060).view(complex)
            rank = _rank(np.linalg.svd(unscaled, compute_uv=False), tol)
            assert rank == 65, seed
            assert orthonormal_range(a, tol).shape[1] == rank, seed
            assert _range_unless_full(a, tol) is None, seed

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 128, 257])
    def test_panel_edges(self, rows):
        rng = np.random.default_rng(rows)
        tol = Tolerances()
        cols = rows + 7
        u, v = haar_unitary(rng, rows), haar_unitary(rng, cols)[:rows]
        s = np.geomspace(1.0, 0.5, rows)
        for factor in [4.0, 0.25] if rows > 1 else [4.0]:
            # sigma_min^2 / ||a||_F^2 = factor times the cut-off
            q = factor * cutoff(rows, cols, tol)
            s[-1] = np.sqrt(q * np.sum(s[:-1] ** 2) / (1.0 - q)) if rows > 1 else 1.0
            a = (u * s) @ v
            self.check(a, tol, np.min(s) ** 2 / np.sum(s**2))
            assert _certified_full(a, tol) is (factor > 1)
        # the Gram is formed on and below the 64-row diagonal blocks only
        g = _lower_gram(a, 3)
        full = 64.0 * (a @ a.conj().T)
        inside = lower_block_mask(rows)
        assert np.all(g[~inside] == 0.0)
        assert np.max(np.abs(g - full)[inside]) <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (64, 70), (130, 150)])
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)]
    )
    def test_non_finite_entries_certify_nothing(self, rng, shape, bad):
        # numpy's Cholesky of a Gram with NaN entries returns NaN, without raising
        tol = Tolerances()
        a = random_complex(rng, *shape)
        assert _certified_full(a, tol)
        a[-1, 0] = bad
        assert not _certified_full(a, tol)
        assert not _certified_full(np.array([[bad, 1, 0], [0, 1, 1]], dtype=complex), tol)

    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
    def test_memory_is_the_gram_and_its_factor(self, rng, transposed):
        # a 256 x 256 complex array is 1.05 MB; the Gram and its Cholesky factor
        # are two of them, and a scaled, conjugated or contiguous copy of the
        # input would add one more each
        a = random_complex(rng, 256, 256)
        a = a.T if transposed else a
        tol = Tolerances()
        assert _certified_full(a, tol)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert _certified_full(a, tol)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.4e6


def test_numpy_cholesky_reads_only_the_lower_triangle(rng):
    # _certified_full leaves the Gram at zero above its diagonal blocks
    b = random_complex(rng, 100, 120)
    h = b @ b.conj().T
    poisoned = h.copy()
    poisoned[np.triu_indices(100, 1)] = np.nan
    assert np.array_equal(np.linalg.cholesky(poisoned), np.linalg.cholesky(h))


class TestTriangularInverse:
    """The blocked inverse of an upper-triangular QR factor against an LU inverse."""

    SIZES = [1, 31, 32, 33, 100, 256, 257]

    @staticmethod
    def check(r):
        t = _triangular_inverse(r)
        eye = np.eye(r.shape[0])
        assert np.all(np.tril(t, -1) == 0.0)
        residual = np.linalg.norm(t @ r - eye, 2)
        lu_residual = np.linalg.norm(np.linalg.inv(r) @ r - eye, 2)
        assert residual <= 2.0 * max(lu_residual, np.finfo(float).eps)

    @pytest.mark.parametrize("n", SIZES)
    def test_random_factor(self, rng, n):
        self.check(np.linalg.qr(random_complex(rng, n, n), mode="r"))

    @pytest.mark.parametrize("n", SIZES)
    def test_ill_conditioned_factor(self, rng, n):
        # singular values from 1 down to 1e-10
        s = np.geomspace(1.0, 1e-10, n)
        self.check(np.linalg.qr((haar_unitary(rng, n) * s) @ haar_unitary(rng, n), mode="r"))

    def test_small_blocks_are_the_lu_inverse(self, rng):
        r = np.linalg.qr(random_complex(rng, 32, 32), mode="r")
        assert np.array_equal(_triangular_inverse(r), np.linalg.inv(r))


class TestPartialTrace:
    def test_product_state(self):
        e = np.zeros((2, 1))
        e[0] = 1.0
        f = np.zeros((3, 1))
        f[1] = 1.0
        state = np.kron(e, f)
        proj = state @ state.conj().T
        assert np.allclose(partial_trace_left(proj, 2, 3), f @ f.conj().T)

    def test_identity(self):
        assert np.allclose(partial_trace_left(np.eye(6), 2, 3), 2 * np.eye(3))

    def test_matches_loop_oracle_and_preserves_trace(self, rng):
        g = random_complex(rng, 6, 6)
        m = g @ g.conj().T
        got = partial_trace_left(m, 2, 3)
        assert np.allclose(got, trace_left_oracle(m, 2, 3), atol=1e-13)
        assert abs(np.trace(got) - np.trace(m)) < 1e-12

    def test_linearity(self, rng):
        a = random_complex(rng, 6, 6)
        b = random_complex(rng, 6, 6)
        lhs = partial_trace_left(2.0 * a + 3.0 * b, 3, 2)
        rhs = 2.0 * partial_trace_left(a, 3, 2) + 3.0 * partial_trace_left(b, 3, 2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace_left(np.eye(5), 2, 3)


def test_kron_power_apply_matches_explicit(rng):
    q = random_complex(rng, 3, 3)
    mat = random_complex(rng, 27, 4)
    explicit = np.kron(np.kron(q, q), q) @ mat
    assert np.allclose(kron_power_apply(q, 3, mat), explicit, atol=1e-12)
    assert np.array_equal(kron_power_apply(q, 0, mat[:1]), mat[:1])


def test_operator_norm_empty():
    assert operator_norm(np.zeros((3, 0))) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_operator_norm_equals_numpy_2_norm(rows, cols, seed):
    # one SVD call gives the bits of np.linalg.norm(a, 2), which runs the
    # same LAPACK routine and reduces its descending values by a maximum
    a = random_complex(np.random.default_rng(seed), rows, cols)
    norm = operator_norm(a)
    assert type(norm) is float and norm == float(np.linalg.norm(a, 2))


@pytest.mark.parametrize(
    "a",
    [
        [[np.inf]],
        [[1.0, -np.inf]],
        [[complex(0.0, np.inf), 0.0], [0.0, 1.0]],
        [[np.nan]],
        [[np.inf, np.nan]],
    ],
)
def test_operator_norm_of_an_infinite_entry_is_inf(monkeypatch, a):
    # the norm is at least every entry's modulus, so an infinite entry makes it
    # infinite, NaN entries or not; NaN entries alone leave it undefined.
    # LAPACK sees neither: its SVD fails on a NaN entry and is NaN on an infinite one
    monkeypatch.setattr(krausfock.linalg, "_singular_values", None)
    norm = operator_norm(a)
    if np.isinf(a).any():
        assert norm == np.inf
    else:
        assert np.isnan(norm)


@pytest.fixture
def lapack_inputs(monkeypatch):
    """The shapes of the inputs ``operator_norm`` hands to LAPACK, each checked finite."""
    shapes = []
    svd = krausfock.linalg._singular_values

    def spy(x, **kwargs):
        assert np.isfinite(x).all()
        shapes.append(x.shape)
        return svd(x, **kwargs)

    monkeypatch.setattr(krausfock.linalg, "_singular_values", spy)
    return shapes


class TestStackedOperatorNorm:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=2),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_each_matrix_as_if_alone(self, lead, rows, cols, seed):
        # one LAPACK call for the stack gives each matrix's value bit for bit
        rng = np.random.default_rng(seed)
        a = random_complex(rng, int(np.prod(lead)) * rows, cols).reshape(*lead, rows, cols)
        norms = operator_norm(a)
        assert norms.shape == tuple(lead)
        alone = [operator_norm(x) for x in a.reshape(-1, rows, cols)]
        assert norms.ravel().tolist() == alone

    def test_one_lapack_call_for_the_stack(self, rng, lapack_inputs):
        operator_norm(random_complex(rng, 12, 4).reshape(2, 3, 2, 4))
        assert lapack_inputs == [(2, 3, 2, 4)]

    @pytest.mark.parametrize("shape", [(3, 0, 4), (2, 4, 0), (0, 3, 3), (2, 0, 0, 0)])
    def test_empty_matrices_are_zero(self, shape):
        norms = operator_norm(np.zeros(shape))
        assert norms.shape == shape[:-2] and not norms.any()

    def test_non_finite_matrices_are_settled_alone(self, rng, lapack_inputs):
        a = random_complex(rng, 16, 3).reshape(4, 4, 3)
        expected = [operator_norm(x) for x in a]
        a[1, 2, 0] = complex(np.nan, np.inf)
        a[3, 0, 1] = np.nan
        lapack_inputs.clear()
        norms = operator_norm(a)
        assert lapack_inputs == [(2, 4, 3)]
        assert norms[1] == np.inf and np.isnan(norms[3])
        assert norms[[0, 2]].tolist() == [expected[0], expected[2]]

    def test_nothing_is_written_past_python(self, capfd):
        # handed an all-infinite matrix, LAPACK reports an illegal DLASCL
        # argument straight to a file descriptor; capfd reads both descriptors
        a = np.stack([np.full((3, 3), np.inf), np.eye(3), np.full((3, 3), np.nan)])
        assert operator_norm(a).tolist()[:2] == [np.inf, 1.0]
        assert capfd.readouterr() == ("", "")


@st.composite
def probe_rows(draw):
    """Rows of probe stacks ``(rows, k, r, c)`` and a floor to start from.

    Each probe is a random matrix, or a rank-one one, whose operator norm is
    its Frobenius norm in exact arithmetic, scaled by its own power of two
    from 2^-1074 to 2^1000, or all zero.  The floor is 0, or the float just
    above the computed Frobenius norm of the probe whose computed operator
    norm exceeds it the most: a rule with no margin for rounding skips that
    probe when its operator norm is above the floor.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    count = int(np.prod(shape))
    if draw(st.booleans()):
        probes = random_complex(rng, count * r, c).reshape(*shape, r, c)
    else:
        probes = random_complex(rng, count * r, 1).reshape(*shape, r, 1)
        probes = probes @ random_complex(rng, count, c).reshape(*shape, 1, c)
    exponents = rng.integers(-1074, 1001, size=shape)
    if draw(st.booleans()):  # probes of nearly one size, as rounding leaves them
        exponents = draw(st.integers(-1074, 1000)) + rng.integers(-2, 3, size=shape)
    scaled = np.ldexp(probes.view(float), np.minimum(exponents, 1000)[..., None, None])
    probes = scaled.view(complex)
    probes[rng.random(shape) < 0.3] = 0.0
    floor = 0.0
    if draw(st.booleans()):
        with np.errstate(over="ignore"):
            f = np.linalg.norm(probes, axis=(-2, -1))
        norms = np.linalg.norm(probes, 2, axis=(-2, -1))
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where((f > 0) & (f < np.inf), norms / f, 0.0)
        floor = float(np.nextafter(f.flat[np.argmax(excess)], np.inf))
    return probes, floor


class TestLargestNorm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(probe_rows())
    def test_skipping_keeps_the_maximum(self, planted):
        # row after row, as dilate takes its unit probes: the maximum over
        # the probes that can still exceed it is the maximum over all
        rows, floor = planted
        full = max(floor, float(np.linalg.norm(rows, 2, axis=(-2, -1)).max()))
        g = floor
        for row in rows:
            g = _largest_norm(row, g)
        assert g == full

    def test_a_probe_below_the_floor_is_not_normed(self, lapack_inputs):
        row = np.stack([np.eye(3), np.eye(3) * 1e-3, np.zeros((3, 3)), np.eye(3) * 2.0])
        assert _largest_norm(row, 0.5) == 2.0 and lapack_inputs == [(2, 3, 3)]
        # the floor stands when nothing can exceed it; an underflowing f is kept
        assert _largest_norm(row[1:3], 0.5) == 0.5 and lapack_inputs == [(2, 3, 3)]
        tiny = np.full((1, 2, 2), 2.0**-600)
        assert _largest_norm(tiny, 2.0**-600) == 2.0**-599
        assert lapack_inputs == [(2, 3, 3), (1, 2, 2)]
