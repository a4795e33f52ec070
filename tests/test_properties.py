"""Property tests over small random catalog instances.

Each example draws a family, its size parameters and a seed, builds the
minimal presentation and checks one structural law of the channel or its
level spaces, or one sweep against its dense ``n^m``-row oracle.  Oracle
levels stay at ``m <= 5`` for ``n <= 3`` and ``m <= 4`` for ``n = 4``, so
the oracles stay cheap.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from krausfock import (
    CorrelationData,
    KrausSet,
    Tolerances,
    apply_heisenberg,
    build_subproduct,
    commuting_generic,
    dequantize,
    minimal_kraus,
    operator_norm,
    phi_symmetry_residual,
    projective_measurement,
    random_unital,
    sequential_projective,
    shift_left,
    shift_right,
    state_spec,
    subproduct_residual,
)
from krausfock.cli import _json_chunks, channel_from_document, channel_to_document, main
from conftest import (
    chain_basis,
    dense_level_basis,
    full_levels,
    haar_unitary,
    random_density,
    range_ladder,
    residual_oracle,
    shift_oracle,
    symmetry_oracle,
)

TOP = 4
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def instances(draw):
    """A minimal Kraus family from one of four catalog families."""
    family = draw(st.sampled_from(["projective", "commuting", "random", "sequential"]))
    seed = draw(st.integers(0, 10_000))
    if family == "projective":
        ranks = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
        kraus = projective_measurement(sum(ranks), ranks)
    elif family == "commuting":
        kraus = commuting_generic(draw(st.integers(2, 3)), draw(st.integers(2, 6)), seed=seed)
    elif family == "random":
        kraus = random_unital(draw(st.integers(2, 3)), draw(st.integers(2, 4)), seed=seed)
    else:
        angle = draw(st.floats(0.05, 1.5))
        kraus = sequential_projective(draw(st.integers(2, 5)), angle, seed=seed)
    return minimal_kraus(kraus)


def top_level(kraus):
    # keep the dense oracles at no more than 3^5 = 243 or 4^4 = 256 words
    return 5 if kraus.size <= 3 else 4


@PROPERTY_SETTINGS
@given(instances())
def test_chain_build_matches_dense_oracle(kraus):
    top = top_level(kraus)
    system = build_subproduct(kraus, top)
    for m in range(top + 1):
        dense = dense_level_basis(kraus, m)
        chain = chain_basis(system, m)
        assert chain.shape == dense.shape, m
        # looser than the fixed-instance check: random draws do not control
        # how far the smallest kept singular value sits above the threshold
        assert operator_norm(chain - dense @ (dense.conj().T @ chain)) <= 1e-10, m


@PROPERTY_SETTINGS
@given(instances())
def test_full_levels_end_at_the_first_deficient_level(kraus):
    dims = build_subproduct(kraus, TOP + 2).dims
    full = full_levels(dims, kraus.size)
    assert full == sorted(full, reverse=True)
    assert dims == range_ladder(kraus, TOP + 2)


@PROPERTY_SETTINGS
@given(instances())
def test_nesting_law_over_all_splits(kraus):
    system = build_subproduct(kraus, TOP)
    worst = max(
        subproduct_residual(system, m, l) for m in range(TOP + 1) for l in range(TOP + 1 - m)
    )
    assert worst <= 1e-8


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 10_000))
def test_dims_do_not_depend_on_the_presentation(kraus, seed):
    u = haar_unitary(np.random.default_rng(seed), kraus.size)
    mixed = KrausSet(np.einsum("ij,iab->jab", u, kraus.ops), tol=kraus.tol)
    assert build_subproduct(mixed, TOP).dims == build_subproduct(kraus, TOP).dims


@PROPERTY_SETTINGS
@given(instances())
def test_residual_matches_explicit_oracle(kraus):
    top = top_level(kraus)
    system = build_subproduct(kraus, top)
    for m in range(top + 1):
        for l in range(top + 1 - m):
            assert abs(subproduct_residual(system, m, l) - residual_oracle(system, m, l)) <= 1e-10


@PROPERTY_SETTINGS
@given(instances())
def test_shift_sweeps_match_dense_oracle(kraus):
    top = top_level(kraus)
    system = build_subproduct(kraus, top)
    for m in range(top):
        for k in range(kraus.size):
            left = shift_left(system, k, m) - shift_oracle(system, k, m, "left")
            right = shift_right(system, k, m) - shift_oracle(system, k, m, "right")
            assert np.max(np.abs(left), initial=0.0) <= 1e-10, (m, k)
            assert np.max(np.abs(right), initial=0.0) <= 1e-10, (m, k)


@PROPERTY_SETTINGS
@given(instances())
def test_symmetry_sweep_matches_dense_oracle(kraus):
    top = top_level(kraus)
    system = build_subproduct(kraus, top)
    corr = CorrelationData(system, state_spec(kraus, np.eye(kraus.dim) / kraus.dim))
    swept = phi_symmetry_residual(corr)
    assert sorted(swept) == list(range(1, top + 1))
    for m in range(1, top + 1):
        # both routes round relative to the size of Q^{⊗m}
        scale = max(1.0, operator_norm(corr.level(1).matrix)) ** m
        for fast, slow in zip(swept[m], symmetry_oracle(corr, system, m)):
            assert abs(fast - slow) <= 1e-12 * scale, m


@PROPERTY_SETTINGS
@given(instances())
def test_channel_is_unital(kraus):
    assert operator_norm(apply_heisenberg(kraus, np.eye(kraus.dim)) - np.eye(kraus.dim)) <= 1e-12


@PROPERTY_SETTINGS
@given(instances())
def test_dequantization_is_unital(kraus):
    top = 3
    system = build_subproduct(kraus, top)
    corr = CorrelationData(system, state_spec(kraus, np.eye(kraus.dim) / kraus.dim))
    for m in range(1, top + 1):
        psi = dequantize(corr, np.eye(kraus.dim), m)
        # M @ M^-1 loses accuracy with the condition number of M
        cond = np.linalg.cond(corr.level(m).matrix)
        assert operator_norm(psi - np.eye(system.dims[m])) <= 1e-13 * max(cond, 100.0), m


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 10_000), st.floats(1e-15, 1e-2), st.floats(1e-15, 1e-2))
def test_document_round_trip_is_bit_exact(kraus, seed, rank_rel_tol, residual_tol):
    kraus = KrausSet(kraus.ops, tol=Tolerances(rank_rel_tol, residual_tol))
    rho = random_density(np.random.default_rng(seed), kraus.dim)
    text = json.dumps(channel_to_document(kraus, rho), sort_keys=True, indent=2)
    parsed, state = channel_from_document(json.loads(text))
    assert np.array_equal(parsed.ops, kraus.ops)
    assert np.array_equal(state, rho)
    assert parsed.tol == kraus.tol


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
# report matrices are 2-d float64 arrays, written as their tolist()
ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4), elements=FLOATS
)
# nested dicts and lists of the scalars a report writer can meet
JSON_DOCUMENTS = st.recursive(
    st.one_of(
        FLOATS,
        FLOATS.map(np.float64),
        st.integers(-(2**70), 2**70),
        st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1]),
        st.booleans(),
        st.none(),
        st.text(),
        st.sampled_from(["é日本", 'quote " backslash \\ tab \t nul \x00 \u2028']),
        ARRAYS,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        st.lists(FLOATS, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=30,
)


def _tolists(node):
    """``node`` with every array replaced by its ``tolist()``."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {key: _tolists(value) for key, value in node.items()}
    return [_tolists(value) for value in node] if isinstance(node, list) else node


@PROPERTY_SETTINGS
@given(JSON_DOCUMENTS)
@example(
    {
        "empty": np.empty((0, 0)),
        "no columns": np.empty((1, 0)),
        "one row": np.array([[1.5, -0.0, 5e-324, 2.2250738585072014e-308]]),
        "non-finite": np.array([[math.nan, math.inf], [-math.inf, -0.0]]),
        "in a list": [np.empty((0, 3)), np.eye(2)],
    }
)
def test_report_writer_matches_json_dumps(doc):
    expected = json.dumps(_tolists(doc), sort_keys=True, indent=2)
    assert "".join(_json_chunks(doc)) == expected


VALID_DOCUMENTS = [
    {
        **channel_to_document(projective_measurement(3, [1, 2]), np.diag([0.25, 0.25, 0.5])),
        "catalog_echo": {"family": "projective", "d": 3},
    },
    {
        "catalog": {"family": "sequential_projective", "d": 2, "seed": 1, "params": {"angle": 0.4}},
        "tol": {"rank_rel_tol": 1e-9},
        "state": {"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.1], [-0.1, 0.0]]},
    },
    {"catalog": {"family": "projective", "d": 3, "params": {"ranks": [1, 2]}}},
]


def _paths(node, prefix=()):
    """Every key and index path into a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


SITES = [(i, path) for i, doc in enumerate(VALID_DOCUMENTS) for path in _paths(doc)]
DROP, RENAME = "drop", "rename"
MUTATIONS = [DROP, RENAME, "x", None, [], 10**400, math.nan]
COMMANDS = [["validate"], ["dims", "--max-m", "2"], ["complementary"]]


@PROPERTY_SETTINGS
@given(st.sampled_from(SITES), st.sampled_from(MUTATIONS), st.sampled_from(COMMANDS))
@example((1, ("tol", "rank_rel_tol")), 10**400, ["dims", "--max-m", "2"])
def test_mutated_document_exits_0_1_or_2(site, mutation, command):
    """Drop or rename a key, or replace a value: the CLI exits 0, 1 or 2, never raises."""
    index, (*route, last) = site
    doc = copy.deepcopy(VALID_DOCUMENTS[index])
    parent = doc
    for key in route:
        parent = parent[key]
    if mutation == DROP:
        del parent[last]
    elif mutation == RENAME and isinstance(parent, dict):
        parent[last + "_"] = parent.pop(last)
    else:  # a list index cannot be renamed, so that item becomes the string "rename"
        parent[last] = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chan.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([command[0], path, *command[1:]])
    assert code in (0, 1, 2)
