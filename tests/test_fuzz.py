"""Explicit-Kraus documents drawn at the input boundary, run through the level commands.

A drawn document has ``d, n <= 3`` and an optional ``tol``.  Half the
documents have entries drawn half from values that overflow, underflow or
sit at a threshold and half from a bounded range, with an optional
imaginary part; few of them are unital, but a ``residual_tol`` of ``1e300``
lets any minimal family past the guard.  The other half are mixtures of
unitaries with one entry moved by such a value, which the guard passes when
the value is small, so the level steps and residuals meet the extreme
entries too.  Each document runs through ``dilate`` and ``dims`` to
``--max-m 3``, twice.  The profile loaded by ``conftest.py`` derandomizes
the draws, so every run of the suite sees the same documents.
"""

import json
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from krausfock.cli import main

SPECIAL = [0.0, 1.0, -1.0, 0.5, 1e-320, 5e-324, 1e308, -1e308, 1e200, 1e-200, 1e-9, 3e-5]
SPECIAL.append(float(np.sqrt(0.5)))
ENTRIES = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0))
TOL = st.fixed_dictionaries(
    {},
    optional={
        "rank_rel_tol": st.sampled_from([1e-15, 1e-9, 0.5, 1e-300]),
        "residual_tol": st.sampled_from([1e-300, 1e-8, 1e300]),
    },
)


@st.composite
def documents(draw):
    """A document of ``n`` drawn ``d``-square matrices, or, as often, of ``n``
    unitaries ``phases @ shift / sqrt(n)`` with one entry moved by a drawn
    value, which the guard passes when the value is small."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        matrix = st.lists(st.lists(ENTRIES, min_size=d, max_size=d), min_size=d, max_size=d)
        ops = np.array([draw(matrix) for _ in range(n)], dtype=complex)
        for k in range(n):
            if draw(st.booleans()):
                ops[k] += 1j * np.array(draw(matrix))
    else:
        phases = st.lists(st.sampled_from([1.0, -1.0, 1j, -1j]), min_size=d, max_size=d)
        shifts = [draw(st.integers(0, d - 1)) for _ in range(n)]
        ops = np.array([np.roll(np.diag(draw(phases)), s, axis=1) for s in shifts]) / np.sqrt(n)
        ops[tuple(draw(st.integers(0, size - 1)) for size in ops.shape)] += draw(ENTRIES)
    doc = {"dim": d, "kraus": [{"re": op.real.tolist(), "im": op.imag.tolist()} for op in ops]}
    tol = draw(st.none() | TOL)
    if tol is not None:
        doc["tol"] = tol
    return doc


def _run(capfd, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capfd.readouterr()
    return code, out, err


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(doc=documents())
# dependent, of entries 1e308: the independent family they reduce to overflows
@example(doc={"dim": 1, "kraus": [{"re": [[-1e308]]}] * 2 + [{"re": [[-1e308]], "im": [[-1e308]]}]})
def test_level_commands_exit_cleanly(tmp_path, capfd, doc):
    # exit 0, 1 or 2 with a whole report or none, at most one error line on
    # stderr, no warning, nothing written past Python's streams by LAPACK,
    # and the same bytes on a second run
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps(doc))
    capfd.readouterr()
    for command in ("dilate", "dims"):
        argv = [command, str(chan), "--max-m", "3"]
        code, out, err = _run(capfd, argv)
        assert code in (0, 1, 2), (argv, doc)
        assert err == "" or (err.startswith("error: ") and err.find("\n") == len(err) - 1), err
        if out and command == "dilate":
            assert [lvl["m"] for lvl in json.loads(out)["payload"]["levels"]] == [1, 2, 3]
        elif out:
            lines = out.splitlines()
            assert all(line.startswith("# ") for line in lines[:3]), out
            assert lines[3] == "m,d_m,subproduct_residual_max", out
            assert [line.split(",")[0] for line in lines[4:]] == ["1", "2", "3"], out
        assert _run(capfd, argv) == (code, out, err), (argv, doc)
