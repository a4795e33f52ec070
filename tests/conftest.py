import numpy as np
import pytest

from krausfock import (
    commuting_generic,
    kraus_word,
    orthonormal_range,
    random_unital,
    sequential_projective,
    shift_left,
    uniform_projective,
)


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


def fock_rank_one_oracle(kraus, system, corr, a, m):
    """Dequantization reassembled from explicit shift-word rank-1 operators.

    Every word pair contributes ``coefficient * |S_wj 1><S_wk 1|`` on the
    level, with the shift vectors composed letter by letter from one-step
    shift blocks and the coefficients given by the word pairing of ``a``
    against the level-lifted inverse correlation.  Slower but structurally
    independent of the compressed-product route in ``dequantize``.
    """
    n = kraus.size
    basis = system.basis(m)
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

    level = corr.levels[m]
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
    return uniform_projective(3)


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
