import mpmath
import numpy as np
import pytest
from hypothesis import settings

from krausfock import (
    commuting_generic,
    kraus_word,
    operator_norm,
    orthonormal_range,
    projective_measurement,
    random_unital,
    sequential_projective,
    shift_left,
)
from krausfock.linalg import _range_unless_full
from krausfock.subproduct import _transfer

# every run draws the same examples, and none is replayed from a local
# example database; a test's own @settings keep their example counts
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_hermitian(rng, dim):
    a = random_complex(rng, dim, dim)
    return a + a.conj().T


def random_density(rng, dim):
    a = random_complex(rng, dim, dim)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex(rng, dim, dim))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def words_of_length(n, m):
    if m == 0:
        return [()]
    return [w + (j,) for w in words_of_length(n, m - 1) for j in range(n)]


def word_stack(kraus, m):
    """All length-``m`` word products, shape ``(n^m, d, d)``, last letter fastest."""
    return np.stack([kraus_word(kraus, w) for w in words_of_length(kraus.size, m)])


def chain_factor(system, m):
    """``C_m`` as an array, with the identity of a full level formed explicitly."""
    c = system.factors[m]
    return np.eye(system.n * system.dims[m - 1], dtype=complex) if c is None else c


def chain_basis(system, m):
    """Isometry ``B_m = (B_{m-1} ⊗ 1_n) C_m`` with ``n^m`` rows, the product of
    the chain factors ``C_1..C_m``, every one of them an explicit array.
    Exponential in ``m``, so small levels only."""
    b = system.factors[0]
    for j in range(1, m + 1):
        c = chain_factor(system, j)
        b = (b @ c.reshape(b.shape[1], -1)).reshape(-1, c.shape[1])
    return b


def dense_level_basis(kraus, m):
    """Level basis straight from the ``n^m x d^2`` word stack.

    The level space is the span of the conjugated rows ``vec(W†)`` over all
    length-``m`` words ``W``; a full-dimensional level gets the exact
    identity.  Exponential in ``m``, so small levels only.
    """
    words = word_stack(kraus, m)
    count, d = words.shape[0], kraus.dim
    adj_vecs = words.conj().transpose(0, 2, 1).reshape(count, d * d)
    basis = orthonormal_range(adj_vecs.conj(), kraus.tol)
    if basis.shape[1] == count:
        basis = np.eye(count, dtype=complex)
    return basis


def mp_dequantize(system, rho0, a, m, dps=50):
    """``M_A M^{-1}`` at ``dps`` digits with mpmath, as a complex128 array.

    ``M[u, v] = Tr(G_u rho0 G_v†)`` and ``M_A[u, v] = Tr(G_u a rho0 G_v†)``
    over the level-``m`` generators of ``system``, every entry taken exactly
    from its float64 value; only the result is rounded back.  A reference
    for how accurately ``dequantize`` inverts ill-conditioned levels.
    """
    gens = system.generators(m)
    dm, d = gens.shape[0], gens.shape[1]
    with mpmath.workdps(dps):

        def mp(x):
            return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in x])

        g = mp(gens.reshape(dm, d * d))  # rows vec(G_u), row-major
        g_h = g.transpose_conj()
        rho = mp(rho0)

        def pairing(x):
            # vec(G_u x) = vec(G_u) (1 ⊗ x) in row-major vec
            right = mpmath.zeros(d * d, d * d)
            for i in range(d):
                for k in range(d):
                    for j in range(d):
                        right[i * d + k, i * d + j] = x[k, j]
            return g * right * g_h

        out = pairing(mp(a) * rho) * pairing(rho) ** -1
        return np.array(out.tolist(), dtype=complex)


def full_levels(dims, n):
    """Whether each level ``m >= 1`` is full: ``d_m = n d_{m-1}``."""
    return [dims[m] == n * dims[m - 1] for m in range(1, len(dims))]


def range_ladder(kraus, top):
    """Dimension ladder with every level decided by ``orthonormal_range``.

    The chain build without its singular-value probe for full levels.
    """
    d = kraus.dim
    gens, dims = np.eye(d, dtype=complex).reshape(1, d, d), [1]
    for _ in range(top):
        cand = (gens[:, None] @ kraus.ops).reshape(-1, d, d)
        c = orthonormal_range(cand.transpose(0, 2, 1).reshape(-1, d * d), kraus.tol)
        gens = (c.conj().T @ cand.reshape(-1, d * d)).reshape(-1, d, d)
        dims.append(c.shape[1])
    return dims


def every_level(kraus, top):
    """Chain factors and generator stacks ``G_0..G_top`` of a build that keeps
    every level's stack, as :func:`krausfock.build_subproduct` did before it
    kept one: an oracle for :meth:`~krausfock.SubproductSystem.generators`."""
    d = kraus.dim
    factors = [np.ones((1, 1), dtype=complex), None][: top + 1]
    gens = [np.eye(d, dtype=complex).reshape(1, d, d), kraus.ops][: top + 1]
    for _ in range(2, top + 1):
        cand = (gens[-1][:, None] @ kraus.ops).reshape(-1, d, d)
        rows = cand.transpose(0, 2, 1).reshape(-1, d * d)
        decide = _range_unless_full if factors[-1] is None else orthonormal_range
        c = decide(rows, kraus.tol)
        factors.append(c)
        gens.append(cand if c is None else (c.conj().T @ cand.reshape(-1, d * d)).reshape(-1, d, d))
    return factors, gens


def kron_power_apply(op, power, mat):
    """Apply the ``power``-fold Kronecker power of ``op`` to columns of ``mat``.

    Equivalent to ``kron(op, ..., op) @ mat`` without forming the big matrix;
    ``mat`` has ``n^power`` rows, so small levels only.
    """
    n = op.shape[0]
    if mat.shape[0] != n**power:
        raise ValueError(f"matrix has {mat.shape[0]} rows, expected {n}**{power}")
    cols = mat.shape[1]
    t = mat.reshape((n,) * power + (cols,))
    for axis in range(power):
        t = np.tensordot(op, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    return t.reshape(n**power, cols)


def shift_oracle(system, k, m, side):
    """Shift block ``B_{m+1}† (e_k ⊗ B_m)`` (left) or ``B_{m+1}† (B_m ⊗ e_k)``
    (right) read off the ``n^m``-row bases."""
    n = system.n
    b_next = chain_basis(system, m + 1)
    block = b_next[k * n**m : (k + 1) * n**m] if side == "left" else b_next[k::n]
    return block.conj().T @ chain_basis(system, m)


def symmetry_oracle(corr, system, m):
    """``(|Q_m - B† Q^{⊗m} B|, |(1 - p_m) Q^{⊗m} p_m|)`` on the ``n^m``-row basis."""
    basis = chain_basis(system, m)
    qb = kron_power_apply(corr.level(1).matrix, m, basis)
    compressed = basis.conj().T @ qb
    r1 = operator_norm(corr.level(m).matrix - compressed)
    return r1, operator_norm(qb - basis @ compressed)


def residual_oracle(system, m, l):
    """``|p_{m+l} (1 - p_m ⊗ p_l)|`` from the explicit Kronecker projection.

    Evaluated as ``|B_{m+l}† (1 - p_m ⊗ p_l)|``, equal because ``B_{m+l}``
    is an isometry; ``n^{m+l}``-square, so small levels only.
    """
    top, left, right = (chain_basis(system, j) for j in (m + l, m, l))
    split = np.kron(left @ left.conj().T, right @ right.conj().T)
    return operator_norm(top.conj().T @ (np.eye(split.shape[0]) - split))


def multiplicativity_oracle(system, a, b, m, l):
    """``|iota(ab) - iota(a) iota(b)|`` with every step of ``iota`` taken as
    the transfer map, through the explicit identity at a full level."""

    def lift(x):
        for j in range(m + 1, l + 1):
            c = chain_factor(system, j)
            x = _transfer(c, x, c)
        return x

    return operator_norm(lift(a @ b) - lift(a) @ lift(b))


def normal_ordering_oracle(kraus, system, left, right, degree_bound):
    """Relative residual of ``K_left K_right†`` against the span of ``G_u† G_v``
    concatenated over every degree ``0..degree_bound``."""
    x = kraus_word(kraus, left) @ kraus_word(kraus, right).conj().T
    target = x.reshape(-1)
    scale = np.linalg.norm(target)
    if scale <= 1e-14:
        return 0.0
    columns = []
    for mu in range(degree_bound + 1):
        gens = system.generators(mu)
        prods = gens.conj().transpose(0, 2, 1)[:, None] @ gens
        columns.append(prods.reshape(-1, kraus.dim * kraus.dim).T)
    span = orthonormal_range(np.concatenate(columns, axis=1), kraus.tol)
    return float(np.linalg.norm(target - span @ (span.conj().T @ target)) / scale)


def fock_rank_one_oracle(kraus, system, corr, a, m):
    """Dequantization reassembled from explicit shift-word rank-1 operators.

    Every word pair contributes ``coefficient * |S_wj 1><S_wk 1|`` on the
    level, with the shift vectors composed letter by letter from one-step
    shift blocks and the coefficients given by the word pairing of ``a``
    against the level-lifted inverse correlation.  Slower but structurally
    independent of the compressed-product route in ``dequantize``.
    """
    n = kraus.size
    basis = chain_basis(system, m)
    rho0 = corr.state.rho0
    words = words_of_length(n, m)

    # shift vectors S_w(1), grown level by level through the blocks
    vecs = [np.ones((1, 1), dtype=complex)]
    table = {(): 0}
    current = [()]
    for level in range(m):
        blocks = [shift_left(system, j, level) for j in range(n)]
        grown = []
        new_vecs = []
        for w in current:
            for j in range(n):
                new_vecs.append(blocks[j] @ vecs[table[w]])
                grown.append((j,) + w)
        vecs = new_vecs
        table = {w: i for i, w in enumerate(grown)}
        current = grown
    shift_matrix = np.concatenate([vecs[table[w]] for w in words], axis=1)

    pairing = np.empty((len(words), len(words)), dtype=complex)
    for ji, wj in enumerate(words):
        kj = kraus_word(kraus, wj)
        for ki, wk in enumerate(words):
            pairing[ji, ki] = np.trace(rho0 @ kraus_word(kraus, wk).conj().T @ kj @ a)

    level = corr.level(m)
    lifted_inverse = basis @ (level.inverse * level.scale) @ basis.conj().T
    coeff = pairing @ lifted_inverse
    out = np.zeros((system.dims[m], system.dims[m]), dtype=complex)
    for ki in range(len(words)):
        out += np.outer(shift_matrix @ coeff[:, ki], shift_matrix[:, ki].conj())
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def projective3():
    return projective_measurement(3)


@pytest.fixture(scope="session")
def commuting212():
    return commuting_generic(2, 12, seed=3)


@pytest.fixture(scope="session")
def random216():
    return random_unital(2, 16, seed=0)


@pytest.fixture(scope="session")
def sequential4():
    return sequential_projective(4, np.pi / 4, seed=0)


@pytest.fixture(scope="session")
def catalog_quartet(projective3, commuting212, random216, sequential4):
    return {
        "projective": projective3,
        "commuting": commuting212,
        "random": random216,
        "sequential": sequential4,
    }
