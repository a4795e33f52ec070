import dataclasses
import gc
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import command_peaks
import report_digests
import krausfock.channel
import krausfock.cli
import krausfock.dequantization as dequantization
import krausfock.dilation
import krausfock.linalg
import krausfock.subproduct
from krausfock.catalog import CatalogSpec, build_catalog
from krausfock.channel import apply_heisenberg, minimal_kraus
from krausfock.dilation import (
    compressed_action,
    complementary_state,
    stinespring_isometry,
    unitary_dilation,
)
from krausfock.subproduct import build_subproduct
from krausfock.cli import (
    _emit_json,
    _matrix_arrays,
    build_parser,
    channel_from_document,
    channel_to_document,
    load_document,
    main,
    matrix_to_json,
)
from krausfock.linalg import Tolerances, operator_norm
from conftest import mp_dequantize, random_complex, random_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env() -> dict:
    """The environment with one BLAS thread and this checkout's ``src`` first
    on the import path, for a child interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def make_catalog_doc(tmp_path, name="chan.json", state=None, **catalog):
    doc = {"catalog": catalog}
    if state is not None:
        doc["state"] = {"re": np.asarray(state).tolist()}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _huge_block(entry):
    """A 3 x 3 observable with a 2 x 2 block of ``entry``, whose square overflows at 1e300."""
    return [[entry, entry, 0.0], [entry, entry, 0.0], [0.0, 0.0, 1.0]]


def make_observable(tmp_path, matrix, name="obs.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps({"matrix": {"re": np.real(matrix).tolist(), "im": np.imag(matrix).tolist()}})
    )
    return str(path)


def oracle_case(tmp_path, rng):
    """``random_unital(2,3)`` seed 1 with a random complex state, as a catalog
    document: its path, the minimal Kraus set the commands reduce it to, and
    the state.  Level 4 is complete (``d_4 = 9``)."""
    rho = random_density(rng, 3)
    path = tmp_path / "oracle.json"
    catalog = {"family": "random_unital", "n": 2, "d": 3, "seed": 1}
    path.write_text(json.dumps({"catalog": catalog, "state": matrix_to_json(rho)}))
    return str(path), minimal_kraus(build_catalog(CatalogSpec(**catalog))), rho


class TestValidate:
    def test_identity_document(self, tmp_path, capsys):
        doc = {"dim": 2, "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]]}]}
        path = tmp_path / "id.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "unitality_residual = 0.0" in out
        assert "valid              = yes" in out

    def test_non_unital_document_fails(self, tmp_path, capsys):
        s = 2**-0.5
        doc = {
            "dim": 2,
            "kraus": [
                {"re": [[s, 0.0], [0.0, 0.0]]},
                {"re": [[s / 2, s / 2], [s / 2, s / 2]]},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "valid              = no" in out

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,,}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "line" in err and "column" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "nope.json")
        assert code == 2

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"dim": 1, "kraus": [], "catalog": {"family": "identity"}}))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "exactly one" in err

    def test_tolerance_override_changes_verdict(self, tmp_path, capsys):
        s = 2**-0.5
        doc = {
            "dim": 2,
            "kraus": [
                {"re": [[s, 0.0], [0.0, 0.0]]},
                {"re": [[s / 2, s / 2], [s / 2, s / 2]]},
            ],
        }
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 1
        code, _, _ = run(capsys, "validate", str(path), "--tol-residual", "1.0")
        assert code == 0

    def test_retired_word_count_cap_is_input_error(self, tmp_path, capsys):
        # not a tolerance field: ignoring it would misread the document
        path = tmp_path / "capped.json"
        doc = {"catalog": {"family": "projective", "d": 3}, "tol": {"word_count_cap": 4096}}
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "dims", str(path), "--max-m", "2")
        assert code == 2
        assert "word_count_cap" in err

    def test_rank_tolerance_of_one_is_input_error(self, tmp_path, capsys):
        # at 1 every singular value counts as zero: validate used to report
        # rank 0 and exit 0, and dims to refuse the family as all-vanishing
        doc = {"catalog": {"family": "projective", "d": 3}, "tol": {"rank_rel_tol": 1}}
        path = tmp_path / "rank-one.json"
        path.write_text(json.dumps(doc))
        plain = make_catalog_doc(tmp_path, family="projective", d=3)
        for argv in (["validate", str(path)], ["dims", plain, "--tol-rank", "1"]):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert "rank_rel_tol must be below 1" in err
            assert "Traceback" not in err

    def test_minimalize_writes_reduced_document(self, tmp_path, capsys):
        s = 0.5  # two copies of I/sqrt(2) -> one operator
        doc = {
            "dim": 2,
            "kraus": [
                {"re": [[2**-0.5, 0.0], [0.0, 2**-0.5]]},
                {"re": [[2**-0.5, 0.0], [0.0, 2**-0.5]]},
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "reduced.json"
        code, out, _ = run(capsys, "validate", str(path), "--minimalize", "--out", str(out_path))
        assert code == 0
        reduced = json.loads(out_path.read_text())
        assert len(reduced["kraus"]) == 1
        assert out.splitlines()[-1] == f"minimalized channel with 1 operators written to {out_path}"

    def test_out_without_minimalize_is_input_error(self, tmp_path, capsys):
        # validate writes a file only with --minimalize, so a named file would
        # silently stay unwritten while the report went to stdout
        path = make_catalog_doc(tmp_path, family="projective", d=3)
        out_path = tmp_path / "report.txt"
        code, out, err = run(capsys, "validate", path, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert "--out" in err and "--minimalize" in err
        assert not out_path.exists()

    def test_help_names_out_as_the_reduced_channel_file(self, capsys):
        # validate prints its report; --out only names where --minimalize writes
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "with --minimalize, write the reduced channel here (default: over the input)" in text
        assert "write the report here" not in text

    def test_minimalize_in_place_keeps_the_state(self, tmp_path, capsys):
        rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
        doc = {
            "dim": 2,
            "kraus": [{"re": [[2**-0.5, 0.0], [0.0, 2**-0.5]]}] * 2,
            "state": {"re": rho.real.tolist(), "im": rho.imag.tolist()},
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "validate", str(path), "--minimalize")
        assert code == 0
        kraus, state = channel_from_document(load_document(str(path))[0])
        assert kraus.size == 1
        assert np.array_equal(state, rho)


class TestCatalogCommand:
    def test_emits_loadable_document(self, tmp_path, capsys):
        out_path = tmp_path / "chan.json"
        code, _, _ = run(
            capsys,
            "catalog",
            "--family",
            "commuting_generic",
            "--n",
            "2",
            "--d",
            "6",
            "--seed",
            "5",
            "--out",
            str(out_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "validate", str(out_path))
        assert code == 0

    def test_round_trip_is_bit_exact(self, tmp_path, capsys):
        out_path = tmp_path / "chan.json"
        run(capsys, "catalog", "--family", "random_unital", "--n", "2", "--d", "4",
            "--seed", "3", "--out", str(out_path))
        from krausfock.cli import channel_from_document, channel_to_document, load_document

        doc, _ = load_document(str(out_path))
        kraus, _ = channel_from_document(doc)
        text_again = json.dumps(channel_to_document(kraus), sort_keys=True, indent=2) + "\n"
        doc2 = json.loads(text_again)
        kraus2, _ = channel_from_document(doc2)
        assert np.array_equal(kraus.ops, kraus2.ops)


    @pytest.mark.parametrize(
        "flags, unused",
        [
            (["--family", "random_unital", "--n", "2", "--d", "3", "--ranks", "1,2"], "'ranks'"),
            (["--family", "identity", "--d", "3", "--angle", "0.3"], "'angle'"),
            (["--family", "identity", "--n", "1", "--d", "3"], "'n'"),
            (
                ["--family", "projective", "--n", "3", "--d", "3"],
                "family 'projective' does not use parameter 'n'",
            ),
        ],
    )
    def test_unused_parameter_is_input_error(self, capsys, flags, unused):
        code, out, err = run(capsys, "catalog", *flags)
        assert code == 2
        assert out == ""
        assert unused in err

    def test_spec_is_checked_once(self, capsys, monkeypatch):
        # the spec that is built is the one echoed
        calls = []
        check = CatalogSpec.__post_init__

        def spy(spec):
            calls.append(spec.family)
            check(spec)

        monkeypatch.setattr(CatalogSpec, "__post_init__", spy)
        code, out, _ = run(capsys, "catalog", "--family", "projective", "--d", "3")
        assert code == 0 and calls == ["projective"]
        assert json.loads(out)["catalog_echo"]["family"] == "projective"

    def test_oversized_family_is_input_error(self, capsys):
        code, out, err = run(capsys, "catalog", "--family", "identity", "--d", "100000000")
        assert code == 2
        assert out == ""
        assert "Kraus entries" in err


class TestDims:
    def test_commuting_ladder_csv(self, tmp_path, capsys):
        path = make_catalog_doc(tmp_path, family="commuting_generic", n=2, d=12, seed=3)
        code, out, _ = run(capsys, "dims", path, "--max-m", "5")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[0] == ["m", "d_m", "subproduct_residual_max"]
        dims = [int(r[1]) for r in rows[1:]]
        assert dims == [2, 3, 4, 5, 6]
        assert all(float(r[2]) < 1e-8 for r in rows[1:])

    def test_projective_ladder_reaches_stabilized_levels(self, tmp_path, capsys):
        path = make_catalog_doc(tmp_path, family="projective", d=3)
        code, out, _ = run(capsys, "dims", path, "--max-m", "8")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")]
        dims = [int(r[1]) for r in rows[1:]]
        assert dims == [3] * 8
        # level 8 is built in full, so its nesting residual is a number
        assert float(rows[8][2]) <= 1e-8

    @pytest.mark.parametrize("form", ["catalog", "kraus"])
    def test_document_tolerances_reach_the_family(self, tmp_path, capsys, form):
        # the ladder of a nearly commuting family moves with the rank threshold
        catalog = {"family": "sequential_projective", "d": 4, "seed": 0, "params": {"angle": 0.01}}
        if form == "catalog":
            doc = {"catalog": catalog}
        else:
            doc = channel_to_document(build_catalog(CatalogSpec(**catalog)))
            del doc["tol"]

        def ladder(name, *flags, **tol):
            path = tmp_path / name
            path.write_text(json.dumps({**doc, "tol": tol} if tol else doc))
            code, out, _ = run(capsys, "dims", str(path), "--max-m", "5", *flags)
            assert code == 0
            return [int(line.split(",")[1]) for line in out.splitlines() if line[:1].isdigit()]

        assert ladder("default.json") == [4, 6, 6, 6, 6]
        assert ladder("tol.json", rank_rel_tol=1e-3) == [4, 4, 4, 4, 4]
        assert ladder("flag.json", "--tol-rank", "1e-3") == [4, 4, 4, 4, 4]
        # the flag does not carry over to the next call
        assert ladder("default.json") == [4, 6, 6, 6, 6]


class TestSubproductCheck:
    def test_passes_on_catalog_instance(self, tmp_path, capsys):
        path = make_catalog_doc(tmp_path, family="random_unital", n=2, d=6, seed=2)
        code, out, _ = run(capsys, "subproduct-check", path, "--max-m", "4")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[0] == ["m", "l", "residual"]
        assert len(rows) > 1


class TestSplitTable:
    """``dims`` reads the split table ``subproduct-check`` prints."""

    @pytest.mark.parametrize(
        "catalog, top",
        [
            ({"family": "commuting_generic", "n": 2, "d": 12, "seed": 3}, 8),
            ({"family": "sequential_projective", "d": 4, "params": {"angle": 0.05}}, 6),
        ],
    )
    def test_dims_column_is_the_largest_split_residual(self, tmp_path, capsys, catalog, top):
        path = make_catalog_doc(tmp_path, **catalog)
        tables = {}
        for command in ("dims", "subproduct-check"):
            _, out, _ = run(capsys, command, path, "--max-m", str(top))
            rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
            tables[command] = [(int(a), int(b), float(c)) for a, b, c in rows]
        worst = {}
        for m, l, residual in tables["subproduct-check"]:
            worst[m + l] = max(worst.get(m + l, 0.0), residual)
        column = {m: residual for m, _, residual in tables["dims"]}
        assert column == {m: worst.get(m, 0.0) for m in range(1, top + 1)}
        assert column[1] == 0.0


class TestRankDecisions:
    @pytest.mark.parametrize("command, expected", [("dims", []), ("dilate", [(32, 16)])])
    def test_independent_family_takes_no_rank_svd(
        self, tmp_path, capsys, monkeypatch, command, expected
    ):
        # Cholesky certificates decide the family's independence at load and
        # in the guard, and every level of this family is full; the one SVD
        # of dilate completes its unitary
        path = make_catalog_doc(tmp_path, family="random_unital", n=2, d=16, seed=3)
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        code, _, _ = run(capsys, command, path, "--max-m", "8")
        assert code == 0
        assert calls == expected


def test_command_peaks_stop_growing_with_depth():
    # commuting_generic(2,24) seed 3 saturates at m = 23, so a level past it
    # adds a 24 x 48 chain factor and nothing else a command must keep: from
    # m = 24 to 48 the peaks grow 1.38-1.46 times (1.95 to 2.85 MB for
    # dequantize), where keeping every level's generators grew them 2.3-2.4 times
    peaks = command_peaks.command_peaks(("dequantize", "converge", "dilate"))
    for command, (shallow, deep) in peaks.items():
        assert deep <= 1.6 * shallow, (command, shallow, deep)


class TestReportDigests:
    def test_corpus_slice_is_reproducible(self):
        # the instance-3 runs at the default tolerances of the script that
        # checks reports for byte identity across changes
        first = report_digests.digests(instances=(3,), flag_sets=[()])
        assert len(first) == 6 * 7
        # the near-degenerate documents close the corpus; their nesting law fails today
        assert all(run.code == 0 for run in first[: 4 * 7])
        assert report_digests.digests(instances=(3,), flag_sets=[()]) == first

    def test_checked_in_digests_match(self):
        # the thread count must be set before numpy loads, so the corpus runs
        # in a subprocess: instance 3 and the near-degenerate documents, each
        # through the commands and then the library queries
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        paths = [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        probe = (
            "import report_digests as r; "
            "print(*r.header(), *r.digests(instances=(3,)), *r.query_digests(instances=(3,)), "
            "sep='\\n')"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        got = result.stdout.splitlines()
        recorded = (tests / "report_digests.txt").read_text().splitlines()
        head = [line for line in got if line.startswith("#")]
        assert head == [line for line in recorded if line.startswith("#")], (
            "tests/report_digests.txt was recorded with another numpy or BLAS; record it "
            "again with OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/report_digests.py "
            "> tests/report_digests.txt, on the tree before the change under test"
        )
        by_run = {line.split(" exit=")[0]: line for line in recorded}
        runs = got[len(head) :]
        assert len(runs) == 6 * 7 * 2 + 6
        differ = [
            f"recorded: {by_run.get(line.split(' exit=')[0])}\n     got: {line}"
            for line in runs
            if by_run.get(line.split(" exit=")[0]) != line
        ]
        assert not differ, "\n".join(differ)


class TestDilate:
    def test_reports_residuals(self, tmp_path, capsys):
        path = make_catalog_doc(tmp_path, family="sequential_projective", d=4, seed=1)
        code, out, _ = run(capsys, "dilate", path, "--max-m", "3")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["unitary"]["unitarity_residual"] < 1e-10
        assert payload["unitary"]["compression_residual"] < 1e-10
        assert all(lvl["isometry_residual"] < 1e-9 for lvl in payload["levels"])
        assert all(lvl["compression_residual"] < 1e-9 for lvl in payload["levels"])
        assert [lvl["m"] for lvl in payload["levels"]] == [1, 2, 3]

    @pytest.mark.parametrize(
        "catalog, top",
        [
            ({"family": "commuting_generic", "n": 2, "d": 12, "seed": 4}, 12),
            ({"family": "random_unital", "n": 2, "d": 16, "seed": 7}, 4),
            ({"family": "sequential_projective", "d": 4, "seed": 1}, 4),
        ],
    )
    def test_skipped_probes_leave_the_report(self, tmp_path, capsys, monkeypatch, catalog, top):
        # the largest unit-probe gap, taken over the probes that can still
        # exceed it, is the one of norming every probe, and so is every byte
        path = make_catalog_doc(tmp_path, **catalog)
        argv = ("dilate", path, "--max-m", str(top))
        skipped = run(capsys, *argv)

        def every_probe(stack, floor):
            return max(floor, float(np.linalg.norm(stack, 2, axis=(-2, -1)).max()))

        monkeypatch.setattr(krausfock.cli, "_largest_norm", every_probe)
        assert skipped == run(capsys, *argv)
        assert skipped[0] == 0

    def test_the_gram_screen_norms_few_probes(self, tmp_path, capsys, monkeypatch):
        # the probe gaps are rounding, at Frobenius norms about 1.8 times their
        # operator norms: that screen alone hands 212 of the 256 probes of
        # this instance to LAPACK, the Gram screen after it 26
        normed = []
        norm = krausfock.linalg.operator_norm

        def spy(stack):
            normed.append(len(stack))
            return norm(stack)

        monkeypatch.setattr(krausfock.linalg, "operator_norm", spy)
        path = make_catalog_doc(tmp_path, family="random_unital", n=2, d=16, seed=7)
        code, _, _ = run(capsys, "dilate", path, "--max-m", "1")
        assert code == 0 and 0 < sum(normed) <= 64

    @pytest.mark.parametrize("largest", [(0, 0), (2, 0), (1, 2), (2, 2)])
    def test_probe_maximum_is_the_one_of_every_probe_normed_densely(
        self, tmp_path, capsys, monkeypatch, largest
    ):
        # the gaps of an exact dilation are rounding, so gaps w[a, b] E_ab are
        # planted in Phi, the largest at the probe E_largest; the report must
        # be the largest gap of all d^2 probes, each formed and normed alone
        d = 3
        weights = np.random.default_rng(5).uniform(1e-3, 2e-3, (d, d))
        weights[largest] = 3e-3
        heisenberg = krausfock.cli.apply_heisenberg

        def planted(kraus, x):
            return heisenberg(kraus, x) + weights * x

        monkeypatch.setattr(krausfock.cli, "apply_heisenberg", planted)
        catalog = {"family": "random_unital", "n": 2, "d": d, "seed": 1}
        code, out, _ = run(capsys, "dilate", make_catalog_doc(tmp_path, **catalog), "--max-m", "1")
        assert code == 1  # the planted gaps exceed residual_tol
        kraus = minimal_kraus(build_catalog(CatalogSpec(**catalog)))
        v1 = unitary_dilation(kraus)[:, :: kraus.size]
        probes = np.eye(d * d).reshape(d * d, d, d)
        dense = max(
            np.linalg.norm(compressed_action(v1, e) - planted(kraus, e), 2) for e in probes
        )
        reported = json.loads(out)["payload"]["unitary"]["compression_residual"]
        assert reported == pytest.approx(dense, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("command", ["dilate", "complementary"])
    def test_family_is_decided_once(self, tmp_path, capsys, monkeypatch, command):
        # the loader's reducer and the guards of the unitary dilation, the
        # build and both complementary states read one decision of the set
        calls = []
        decide = krausfock.channel._range_unless_full

        def spy(a, tol):
            calls.append(a.shape)
            return decide(a, tol)

        monkeypatch.setattr(krausfock.channel, "_range_unless_full", spy)
        path = make_catalog_doc(tmp_path, family="random_unital", n=2, d=4, seed=3)
        flags = ["--max-m", "3"] if command == "dilate" else []
        code, _, _ = run(capsys, command, path, *flags)
        assert code == 0 and calls == [(2, 16)]


    def test_each_level_is_formed_once(self, tmp_path, capsys, monkeypatch):
        # the V_m are read off the levels as they are formed: one candidate
        # step a level past the first, with no second walk from level 1
        steps = []
        candidates = krausfock.subproduct._candidates

        def spy(gens, ops):
            steps.append(len(gens))
            return candidates(gens, ops)

        monkeypatch.setattr(krausfock.subproduct, "_candidates", spy)
        path = make_catalog_doc(tmp_path, family="commuting_generic", n=2, d=12, seed=4)
        code, _, _ = run(capsys, "dilate", path, "--max-m", "7")
        assert code == 0 and steps == [2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize(
        "catalog, top",
        [
            ({"family": "commuting_generic", "n": 2, "d": 12, "seed": 4}, 12),
            ({"family": "random_unital", "n": 2, "d": 16, "seed": 7}, 4),
            ({"family": "sequential_projective", "d": 3, "seed": 0, "params": {"angle": 3e-5}}, 4),
        ],
    )
    def test_report_is_the_one_of_the_public_route(self, tmp_path, capsys, catalog, top):
        # every field formed by the public functions, each level's V_m from a
        # built system, every matrix normed alone: the same bytes
        path = make_catalog_doc(tmp_path, **catalog)
        argv = ["dilate", path, "--max-m", str(top)]
        code, out, _ = run(capsys, *argv)
        kraus = minimal_kraus(build_catalog(CatalogSpec(**catalog)))
        d, eye = kraus.dim, np.eye(kraus.dim)
        w = unitary_dilation(kraus)
        wwh, whw = w @ w.conj().T, w.conj().T @ w
        unitarity = max(operator_norm(x - np.eye(len(w))) for x in (wwh, whw))
        v1, gaps = w[:, :: kraus.size], []
        for a in range(d):
            row = np.zeros((d, d, d), dtype=complex)
            row[:, a, :] = eye
            gaps += list(compressed_action(v1, row) - apply_heisenberg(kraus, row))
        p = np.arange(1, d * d + 1).reshape(d, d) / (d * d)
        probe, power = p + p.T + 1j * (p - p.T), p + p.T + 1j * (p - p.T)
        system, levels = build_subproduct(kraus, top), []
        for m in range(1, top + 1):
            v = stinespring_isometry(system, m)
            power = apply_heisenberg(kraus, power)
            levels.append(
                {
                    "m": m,
                    "isometry_residual": operator_norm(v.conj().T @ v - eye),
                    "compression_residual": operator_norm(compressed_action(v, probe) - power),
                }
            )
        probe_gap = max(operator_norm(g) for g in gaps)
        unitary = {"unitarity_residual": unitarity, "compression_residual": probe_gap}
        digest = load_document(path)[1]
        header = {"command": " ".join(["krausfock", *argv]), "input_digest": digest}
        header["version"] = krausfock.__version__
        report = {**header, "payload": {"unitary": unitary, "levels": levels}}
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
        ok = max(unitarity, probe_gap) <= kraus.tol.residual_tol
        assert code == (0 if ok else 1)


class TestComplementary:
    def test_agreement_and_trace(self, tmp_path, capsys):
        path = make_catalog_doc(tmp_path, family="random_unital", n=3, d=4, seed=6)
        code, out, _ = run(capsys, "complementary", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["formula_agreement"] < 1e-10
        assert abs(payload["trace"] - 1.0) < 1e-10
        assert payload["min_eigenvalue"] > -1e-10

    def test_min_eigenvalue_is_the_computed_one(self, tmp_path, capsys):
        # a pure state leaves a bath state of rank 2 of 3, whose smallest
        # eigenvalue rounds below 0; the report gives it as computed, not clipped
        rho = np.diag([1.0, 0.0])
        catalog = {"family": "random_unital", "n": 3, "d": 2, "seed": 5}
        path = make_catalog_doc(tmp_path, state=rho, **catalog)
        code, out, _ = run(capsys, "complementary", path)
        assert code == 0
        got = json.loads(out)["payload"]["min_eigenvalue"]
        b = complementary_state(minimal_kraus(build_catalog(CatalogSpec(**catalog))), rho)
        assert got == np.linalg.eigvalsh((b + b.conj().T) / 2.0)[0]
        assert got < 0.0


class TestDequantize:
    def test_identity_observable_metadata(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        obs = make_observable(tmp_path, np.eye(3))
        code, out, _ = run(capsys, "dequantize", chan, "--observable", obs, "--level", "3")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["unitality_residual"] < 1e-8
        assert payload["level"] == 3

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matrix_and_hermiticity_match_the_oracle(self, tmp_path, capsys, rng, hermitian):
        # on a complex family and state, Psi_3 of a Hermitian or non-Hermitian
        # observable is a complex, non-Hermitian matrix: its transpose is not
        # its adjoint, and hermiticity_residual is |Psi - Psi†|
        chan, kraus, rho = oracle_case(tmp_path, rng)
        x = random_complex(rng, 3, 3)
        a = x + x.conj().T if hermitian else x
        m = 3
        argv = ("dequantize", chan, "--observable", make_observable(tmp_path, a), "--level", str(m))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)["payload"]
        psi = np.array(payload["matrix"]["re"]) + 1j * np.array(payload["matrix"]["im"])
        ref = mp_dequantize(build_subproduct(kraus, m), rho, a, m)
        assert operator_norm(psi - ref) <= 1e-12 * operator_norm(ref)
        assert payload["hermiticity_residual"] == operator_norm(psi - psi.conj().T)
        assert payload["hermiticity_residual"] > 1e-3
        assert abs(operator_norm(psi - psi.T) - payload["hermiticity_residual"]) > 1e-3

    def test_deterministic_bytes(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="commuting_generic", n=2, d=8, seed=4)
        obs = make_observable(tmp_path, np.diag([1.0, -1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.25]))
        out = tmp_path / "psi.json"
        args = ("dequantize", chan, "--observable", obs, "--level", "2", "--out", str(out))
        run(capsys, *args)
        first = out.read_bytes()
        run(capsys, *args)
        assert out.read_bytes() == first

    def test_level_past_the_former_word_budget(self, tmp_path, capsys):
        # 3**8 = 6561 words: built in full, so dequantization reaches it
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        obs = make_observable(tmp_path, np.eye(3))
        code, out, _ = run(capsys, "dequantize", chan, "--observable", obs, "--level", "8")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["unitality_residual"] < 1e-8
        assert sorted(payload["symmetry_residuals"], key=int) == [str(m) for m in range(1, 9)]

    @pytest.mark.parametrize("command", ["dequantize", "converge", "complementary"])
    def test_state_is_checked_once(self, tmp_path, capsys, monkeypatch, command):
        # at load; the command holds the checked state without a second check
        calls = []
        check = krausfock.channel.check_state

        def spy(kraus, rho):
            calls.append(rho.shape)
            return check(kraus, rho)

        for module in (krausfock.channel, krausfock.cli, dequantization, krausfock.dilation):
            monkeypatch.setattr(module, "check_state", spy, raising=False)
        chan = make_catalog_doc(
            tmp_path, family="commuting_generic", n=2, d=3, seed=1, state=np.diag([0.5, 0.3, 0.2])
        )
        obs = make_observable(tmp_path, np.diag([1.0, -1.0, 0.5]))
        flags = {
            "dequantize": ["--observable", obs, "--level", "3"],
            "converge": ["--observables", obs, obs, "--max-m", "3"],
            "complementary": [],
        }[command]
        code, _, _ = run(capsys, command, chan, *flags)
        assert code == 0 and calls == [(3, 3)]

    @pytest.mark.parametrize("command, checks", [("dequantize", 0), ("converge", 2)])
    def test_each_observable_is_checked_once(self, tmp_path, capsys, monkeypatch, command, checks):
        # dequantize reads its observable when it loads it, and converge's rows
        # check theirs once at the call: no level scans an observable again.
        # random_unital(2,3) is complete from level 4, so both kinds of row run
        observables = []
        square = dequantization._square

        def spy(a, d, what="observable", stacked=False):
            if what == "observable":
                observables.append(np.shape(a))
            return square(a, d, what, stacked)

        monkeypatch.setattr(dequantization, "_square", spy)
        chan = make_catalog_doc(tmp_path, family="random_unital", n=2, d=3, seed=1)
        obs = make_observable(tmp_path, np.diag([1.0, -1.0, 0.5]))
        flags = {
            "dequantize": ["--observable", obs, "--level", "5"],
            "converge": ["--observables", obs, obs, "--max-m", "5"],
        }[command]
        code, _, _ = run(capsys, command, chan, *flags)
        assert code == 0 and observables == [(3, 3)] * checks

    def test_missing_observable_file(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        code, _, err = run(capsys, "dequantize", chan, "--observable", "gone.json", "--level", "2")
        assert code == 2

    def test_rare_outcomes_at_any_residual_tolerance(self, tmp_path, capsys):
        # outcome probabilities 1e-4 are usable whatever residual_tol says
        state = np.diag([1.0 - 2e-4, 1e-4, 1e-4])
        chan = make_catalog_doc(tmp_path, state=state, family="projective", d=3)
        obs = make_observable(tmp_path, np.diag([1.0, 2.0, 3.0]))
        argv = ("dequantize", chan, "--observable", obs, "--level", "2")
        for extra in ((), ("--tol-residual", "1e-3")):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 0, err
            assert json.loads(out)["payload"]["unitality_residual"] < 1e-8


class TestConverge:
    def test_csv_columns_and_flat_identity(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        a = make_observable(tmp_path, np.diag([1.0, 2.0, 3.0]), name="a.json")
        b = make_observable(tmp_path, np.diag([1.0, -1.0, 0.0]), name="b.json")
        code, out, _ = run(capsys, "converge", chan, "--observables", a, b, "--max-m", "4")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[0] == ["m", "norm_gap", "vn_residual", "scaled_commutator", "limit_state_gap"]
        assert len(rows) == 5
        assert all(float(r[2]) < 1e-9 for r in rows[1:])

    def test_missing_observable(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        a = make_observable(tmp_path, np.eye(3))
        code, _, _ = run(capsys, "converge", chan, "--observables", a, "missing.json")
        assert code == 2

    def test_non_hermitian_observables_match_the_oracle(self, tmp_path, capsys, rng):
        # Tr(rho0 A) is complex, and the limit state gap is 0 in exact arithmetic
        chan, kraus, rho = oracle_case(tmp_path, rng)
        a, b = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
        assert abs(np.trace(rho @ a).imag) > 1e-2
        paths = [make_observable(tmp_path, x, name=f"{name}.json") for name, x in zip("ab", (a, b))]
        code, out, _ = run(capsys, "converge", chan, "--observables", *paths, "--max-m", "4")
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[4:]]
        assert [row[0] for row in rows] == [1, 2, 3, 4]
        system = build_subproduct(kraus, 4)
        for m, norm_gap, vn, commutator, state_gap in rows:
            m = int(m)
            pa, pb, pab = (mp_dequantize(system, rho, x, m) for x in (a, b, a @ b))
            gens = system.generators(m)
            raw = np.einsum("uij,jk,vik->uv", gens, rho, gens.conj())
            scale = operator_norm(pa) * operator_norm(pb)
            assert norm_gap == pytest.approx(abs(operator_norm(pa) - operator_norm(a)), abs=1e-12)
            assert vn == pytest.approx(operator_norm(pab - pa @ pb), abs=1e-12 * scale)
            expected = m * operator_norm(pa @ pb - pb @ pa)
            assert commutator == pytest.approx(expected, abs=1e-12 * m * scale)
            gap = abs(np.trace(raw @ pa) / np.trace(raw) - np.trace(rho @ a))
            assert state_gap == pytest.approx(gap, abs=1e-12)

    @staticmethod
    def commuting_argv(tmp_path, state=None):
        kraus = build_catalog(CatalogSpec("commuting_generic", n=2, d=12, seed=0))
        doc = channel_to_document(kraus)
        if state is not None:
            doc["state"] = {"re": state.tolist()}
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps(doc))
        rng = np.random.default_rng(0)
        obs = [
            make_observable(tmp_path, x + x.T, name=f"{name}.json")
            for name, x in zip("ab", rng.normal(size=(2, 12, 12)))
        ]
        return ["converge", str(chan), "--observables", *obs, "--max-m"]

    def test_reports_the_levels_below_a_singular_one(self, tmp_path, capsys):
        # a rank-2 diagonal state supports two of the twelve points, so the
        # three-dimensional level 2 is singular in exact arithmetic
        state = np.zeros((12, 12))
        state[0, 0] = state[1, 1] = 0.5
        argv = self.commuting_argv(tmp_path, state)
        code, out, err = run(capsys, *argv, "12")
        assert code == 1
        assert err.startswith("error: singular correlation: level-2 correlation matrix")
        assert "Traceback" not in err
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert [int(row.split(",")[0]) for row in rows] == [1]
        # the same rows as a run that stops below the singular level
        code, below, _ = run(capsys, *argv, "1")
        assert code == 0
        assert rows == [line for line in below.splitlines() if line[:1].isdigit()]

    def test_singular_first_level_writes_the_header(self, tmp_path, capsys):
        # a pure state supports one of the twelve points, so level 1 is singular
        pure = np.zeros((12, 12))
        pure[0, 0] = 1.0
        # a state that gives two of three projections probability 0 leaves two
        # zero rows at level 1
        starved = make_catalog_doc(
            tmp_path, "starved.json", np.diag([1.0, 0.0, 0.0]), family="projective", d=3
        )
        obs = make_observable(tmp_path, np.diag([1.0, 2.0, 3.0]), name="diag.json")
        for argv in (
            self.commuting_argv(tmp_path, pure),
            ["converge", starved, "--observables", obs, obs, "--max-m"],
        ):
            code, out, err = run(capsys, *argv, "12")
            assert code == 1
            assert err.startswith("error: singular correlation: level-1 correlation matrix")
            assert "Traceback" not in err
            lines = out.splitlines()
            assert [line.split(":")[0] for line in lines[:3]] == ["# command", "# version", "# input_digest"]
            assert lines[3:] == ["m,norm_gap,vn_residual,scaled_commutator,limit_state_gap"]

    def test_ill_conditioned_levels_are_reported(self, tmp_path, capsys):
        # level 11 has singular-value ratio 1.5e-5, inside the rank rule
        code, out, err = run(capsys, *self.commuting_argv(tmp_path), "12")
        assert code == 0, err
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, 13))


NON_UNITAL = {
    "dim": 2,
    "kraus": [{"re": [[2**-0.5, 0.0], [0.0, 0.0]]}, {"re": [[0.5**1.5, 0.5**1.5]] * 2}],
}
NON_PSD_STATE = {
    "catalog": {"family": "projective", "d": 2},
    "state": {"re": [[1.5, 0.0], [0.0, -0.5]]},
}

MALFORMED = {
    "ragged-kraus-matrix": ({"dim": 2, "kraus": [{"re": [[1.0, 0.0], [0.0]]}]}, "kraus[0].re"),
    "kraus-parts-of-other-shapes": (
        {"dim": 2, "kraus": [{"re": np.eye(2).tolist(), "im": [[0.0, 0.0]]}]},
        "kraus[0] parts must be equal-shaped 2-d arrays",
    ),
    "string-tolerance": (
        {"catalog": {"family": "projective", "d": 3}, "tol": {"rank_rel_tol": "x"}},
        "rank_rel_tol",
    ),
    "null-seed": (
        {"catalog": {"family": "random_unital", "n": 2, "d": 3, "seed": None}},
        "'seed'",
    ),
    "string-ranks": (
        {"catalog": {"family": "projective", "d": 3, "params": {"ranks": "12"}}},
        "'ranks'",
    ),
    "string-n": ({"catalog": {"family": "random_unital", "n": "2", "d": 3}}, "'n'"),
    "fractional-seed": (
        {"catalog": {"family": "random_unital", "n": 2, "d": 3, "seed": 1.7}},
        "'seed'",
    ),
    "zero-n": ({"catalog": {"family": "random_unital", "n": 0, "d": 3}}, "'n'"),
    "negative-seed": ({"catalog": {"family": "random_unital", "n": 2, "d": 3, "seed": -1}}, "'seed'"),
    "negative-tolerance": (
        {"catalog": {"family": "projective", "d": 3}, "tol": {"residual_tol": -1.0}},
        "tol",
    ),
    "kraus-not-a-list": ({"dim": 2, "kraus": 5}, "'kraus'"),
    "catalog-not-an-object": ({"catalog": "projective"}, "catalog must be an object"),
    "kraus-shape-other-than-dim": ({"dim": 3, "kraus": [{"re": np.eye(2).tolist()}]}, "kraus[0]"),
    "string-matrix-entry": ({"dim": 1, "kraus": [{"re": [["1.0"]]}]}, "kraus[0].re"),
    "unused-ranks": (
        {"catalog": {"family": "random_unital", "n": 2, "d": 3, "params": {"ranks": [1, 2]}}},
        "'ranks'",
    ),
    "unknown-param": (
        {"catalog": {"family": "projective", "d": 3, "params": {"size": 3}}},
        "'size'",
    ),
    "seed-on-identity": ({"catalog": {"family": "identity", "d": 3, "seed": 1}}, "'seed'"),
    "oversized-identity": ({"catalog": {"family": "identity", "d": 100_000_000}}, "d=100000000"),
    "tolerance-beyond-float-range": (
        {"catalog": {"family": "projective", "d": 3}, "tol": {"rank_rel_tol": 10**400}},
        "rank_rel_tol",
    ),
    "kraus-entry-beyond-float-range": ({"dim": 1, "kraus": [{"re": [[10**400]]}]}, "kraus[0].re"),
    "angle-beyond-float-range": (
        {"catalog": {"family": "sequential_projective", "d": 4, "params": {"angle": 10**400}}},
        "angle",
    ),
    "projective-n-other-than-ranks": (
        {"catalog": {"family": "projective", "n": 5, "d": 3, "params": {"ranks": [1, 2]}}},
        "'n'",
    ),
    "imag-in-kraus-matrix": ({"dim": 1, "kraus": [{"re": [[1.0]], "imag": [[0.0]]}]}, "'imag'"),
    "stat-at-top-level": (
        {"catalog": {"family": "projective", "d": 3}, "stat": {"re": np.eye(3).tolist()}},
        "'stat'",
    ),
    "sead-in-catalog": (
        {"catalog": {"family": "random_unital", "n": 2, "d": 3, "sead": 4}},
        "'sead'",
    ),
    "dim-on-catalog-document": ({"dim": 3, "catalog": {"family": "projective", "d": 3}}, "'dim'"),
    "non-psd-state": (NON_PSD_STATE, "state is not positive"),
    "null-n": ({"catalog": {"family": "random_unital", "n": None, "d": 3}}, "'n'"),
    "null-family": ({"catalog": {"family": None}}, "'family'"),
    "null-angle": (
        {"catalog": {"family": "sequential_projective", "d": 4, "params": {"angle": None}}},
        "'angle'",
    ),
    "params-not-an-object": (
        {"catalog": {"family": "projective", "d": 3, "params": [1]}},
        "params must be a dict",
    ),
    "n-in-params": (
        {"catalog": {"family": "random_unital", "n": 2, "d": 3, "params": {"n": 2}}},
        "'params.n'",
    ),
    "bool-tolerance": (
        {"catalog": {"family": "projective", "d": 3}, "tol": {"rank_rel_tol": True}},
        "rank_rel_tol",
    ),
    # json.dumps writes the angle as NaN, which json.loads reads back
    "nan-angle": (
        {"catalog": {"family": "sequential_projective", "d": 4, "params": {"angle": np.nan}}},
        "angle",
    ),
    "bool-rank": (
        {"catalog": {"family": "projective", "d": 3, "params": {"ranks": [True, 1]}}},
        "'ranks'",
    ),
    # (2, 2) == (2.0, 2.0), so a float dim would pass the shape check
    "dim-bool": ({"dim": True, "kraus": [{"re": [[1.0]]}]}, "dim must be an integer"),
    "dim-float": ({"dim": 2.0, "kraus": [{"re": np.eye(2).tolist()}]}, "dim must be an integer"),
    "dim-string": ({"dim": "2", "kraus": [{"re": np.eye(2).tolist()}]}, "dim must be an integer"),
}


def library_message(doc) -> str | None:
    """The message of the ``ValueError`` that ``Tolerances`` or ``CatalogSpec`` and
    ``build_catalog`` raise on a catalog document, or ``None`` when the document
    holds more than those two objects, a catalog field the spec does not define
    or a ``null`` one, or values they accept."""
    catalog = doc.get("catalog")
    if not (set(doc) <= {"catalog", "tol"} and isinstance(catalog, dict)):
        return None
    names = {f.name for f in dataclasses.fields(CatalogSpec)}
    if not set(catalog) <= names or None in catalog.values():
        return None
    try:
        Tolerances(**doc.get("tol", {}))
        build_catalog(CatalogSpec(**catalog))
    except ValueError as exc:
        return str(exc)
    return None


class TestHighLevels:
    """Levels are chain factors, so commands reach m = 60 in megabytes."""

    def test_commuting_reaches_level_60(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="commuting_generic", n=2, d=12, seed=3)
        rng = np.random.default_rng(0)
        a, b = (rng.normal(size=(12, 12)) for _ in range(2))
        obs_a = make_observable(tmp_path, a + a.T, name="a.json")
        obs_b = make_observable(tmp_path, b + b.T, name="b.json")
        commands = {
            "dims": ["dims", chan, "--max-m", "60"],
            "converge": ["converge", chan, "--max-m", "60", "--observables", obs_a, obs_b],
            "dequantize": ["dequantize", chan, "--observable", obs_a, "--level", "60"],
        }
        outputs = {}
        for name, argv in commands.items():
            tracemalloc.start()
            try:
                code, outputs[name], _ = run(capsys, *argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0, name
            assert peak < 100e6, (name, peak)
        rows = [line.split(",") for line in outputs["dims"].splitlines() if line[:1].isdigit()]
        assert [int(r[1]) for r in rows] == list(range(2, 13)) + [12] * 49
        assert max(float(r[2]) for r in rows) <= 1e-12
        converge = [line for line in outputs["converge"].splitlines() if line[:1].isdigit()]
        assert len(converge) == 60
        payload = json.loads(outputs["dequantize"])["payload"]
        assert sorted(payload["symmetry_residuals"], key=int) == [str(m) for m in range(1, 61)]


class TestPeakMemory:
    """tracemalloc peaks at level 8 of the dense instance ``random_unital(2,16)``
    seed 3, where every level is full and the last one is complete."""

    @pytest.mark.parametrize(
        "command, bound",
        # measured: dequantize 11.29 MB while the identity chain factors, a
        # conjugate copy of G_8 and the level data were kept, 9.54 MB without;
        # converge 10.59 MB and 8.14 MB
        [("dequantize", 10.4e6), ("converge", 9.4e6)],
    )
    def test_dense_level_8(self, tmp_path, command, bound):
        peak = self.peak(self.argv(tmp_path, command))
        assert peak < bound, peak

    def test_converge_keeps_one_level_sized_operator(self, tmp_path):
        # measured 6.345 MB with one correlation level kept, bounded 2.4 %
        # above: the level-8 peak, which a stacked level-8 dequantization
        # would raise by about 1 MB
        peak = self.peak(self.argv(tmp_path, "converge"))
        assert peak < 6.5e6, peak

    @staticmethod
    def peak(argv):
        """The tracemalloc peak of a second ``main(argv)``, above what the
        first, warming run left allocated."""
        assert main(argv) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    @staticmethod
    def argv(tmp_path, command):
        chan = make_catalog_doc(tmp_path, family="random_unital", n=2, d=16, seed=3)
        rng = np.random.default_rng(3)
        a, b = (rng.normal(size=(16, 16)) for _ in range(2))
        obs_a = make_observable(tmp_path, a + a.T, name="a.json")
        obs_b = make_observable(tmp_path, b + b.T, name="b.json")
        return {
            "dequantize": ["dequantize", chan, "--observable", obs_a, "--level", "8"],
            "converge": ["converge", chan, "--max-m", "8", "--observables", obs_a, obs_b],
        }[command] + ["--out", str(tmp_path / "report")]

    @pytest.mark.parametrize("command", ["dequantize", "converge"])
    def test_each_level_is_formed_once(self, tmp_path, monkeypatch, command):
        formed = []
        real = dequantization.correlation_matrix

        def spy(kraus, system, state, m):
            formed.append(m)
            return real(kraus, system, state, m)

        monkeypatch.setattr(dequantization, "correlation_matrix", spy)
        assert main(self.argv(tmp_path, command)) == 0
        assert formed == list(range(1, 9))


class TestFlags:
    @pytest.mark.parametrize("command", ["dims", "subproduct-check", "converge"])
    def test_csv_report_goes_to_out(self, tmp_path, capsys, command):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        argv = [command, chan, "--max-m", "3"]
        if command == "converge":
            a = make_observable(tmp_path, np.diag([1.0, 2.0, 3.0]), name="a.json")
            b = make_observable(tmp_path, np.diag([1.0, -1.0, 0.0]), name="b.json")
            argv += ["--observables", a, b]
        code, printed, _ = run(capsys, *argv)
        assert code == 0
        report = tmp_path / "report.csv"
        code, out, _ = run(capsys, *argv, "--out", str(report))
        assert code == 0
        assert out == ""
        # identical but for the "# command:" line, which records --out
        written = report.read_text().splitlines()
        assert written[0] == printed.splitlines()[0] + f" --out {report}"
        assert written[1:] == printed.splitlines()[1:]

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "chan.json", "--max-m", "2"],
            ["dims", "chan.json", "--csv", "x.csv"],
            ["complementary", "chan.json", "--csv", "x.csv"],
            ["complementary", "chan.json", "--max-m", "2"],
            ["dequantize", "chan.json", "--observable", "a.json", "--level", "1", "--max-m", "2"],
            ["converge", "chan.json", "--observables", "a.json", "b.json", "--csv", "x.csv"],
            ["catalog", "--family", "projective", "--d", "3", "--tol-rank", "1e-3"],
            ["catalog", "--family", "projective", "--d", "3", "--max-m", "2"],
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["dims", "chan.json", "--max-m", "-1"], "--max-m"),
            (["subproduct-check", "chan.json", "--max-m", "-1"], "--max-m"),
            (["dilate", "chan.json", "--max-m", "-1"], "--max-m"),
            (["converge", "chan.json", "--max-m", "0", "--observables", "a", "b"], "--max-m"),
            (["dims", "chan.json", "--max-m", "2.5"], "--max-m"),
            (["dequantize", "chan.json", "--observable", "a.json", "--level", "0"], "--level"),
            (["dequantize", "chan.json", "--observable", "a.json", "--level", "-1"], "--level"),
        ],
    )
    def test_level_below_one_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        missing = tmp_path / "no-such-dir" / "report.csv"
        code, out, err = run(capsys, "dims", chan, "--max-m", "2", "--out", str(missing))
        assert code == 2
        assert out == ""
        assert str(missing) in err

    def test_readme_examples_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        commands = set()
        for line in readme.read_text().splitlines():
            line = re.sub(r"\[[^]]*\]", "", line.split("#")[0]).strip()
            if line.startswith("krausfock "):
                args = build_parser().parse_args(shlex.split(line)[1:])
                commands.add(args.command)
        assert len(commands) == 8


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_naming_the_field(self, tmp_path, capsys, case):
        doc, field = MALFORMED[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "dims", str(path), "--max-m", "2")
        assert code == 2
        assert out == ""
        assert field in err
        assert "Traceback" not in err

    def test_message_is_the_library_types(self, tmp_path, capsys):
        # a catalog or tolerance value is checked once, by the type that holds it
        cases = {case: library_message(doc) for case, (doc, _) in MALFORMED.items()}
        cases = {case: message for case, message in cases.items() if message is not None}
        assert len(cases) >= 20
        for case, message in sorted(cases.items()):
            path = tmp_path / f"{case}.json"
            path.write_text(json.dumps(MALFORMED[case][0]))
            code, out, err = run(capsys, "dims", str(path), "--max-m", "2")
            assert (code, out, err) == (2, "", f"error: {message}\n"), case

    def test_bad_tolerance_override_is_usage_error(self, tmp_path, capsys):
        # a flag value that is not a number is refused by argparse
        path = make_catalog_doc(tmp_path, family="projective", d=3)
        with pytest.raises(SystemExit) as exc:
            main(["dims", path, "--tol-rank", "abc"])
        assert exc.value.code == 2
        assert "--tol-rank" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dims", "validate"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--tol-rank", v) for v in ("nan", "0", "-1", "inf")]
        + [("--tol-residual", v) for v in ("0", "inf")],
    )
    def test_bad_tolerance_flag_prints_the_tolerances_message(
        self, tmp_path, capsys, command, flag, value
    ):
        field = {"--tol-rank": "rank_rel_tol", "--tol-residual": "residual_tol"}[flag]
        with pytest.raises(ValueError) as exc:
            Tolerances(**{field: float(value)})
        path = make_catalog_doc(tmp_path, family="projective", d=3)
        code, out, err = run(capsys, command, path, flag, value)
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")

    def test_observable_shape_names_the_file(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        obs = make_observable(tmp_path, np.eye(2))
        code, _, err = run(capsys, "dequantize", chan, "--observable", obs, "--level", "1")
        assert code == 2
        assert obs in err and "expected (3, 3)" in err

    def test_observable_extra_field_names_the_file(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps({"matrix": {"re": np.eye(3).tolist()}, "label": "x"}))
        code, _, err = run(capsys, "dequantize", chan, "--observable", str(obs), "--level", "1")
        assert code == 2
        assert str(obs) in err and "'label'" in err

    @pytest.mark.parametrize("which", ["channel", "observable"])
    @pytest.mark.parametrize("raw", [b'{"matrix": "\xff"}', b"[" * 100_000], ids=["utf8", "deep"])
    def test_unreadable_json_names_the_file(self, tmp_path, capsys, which, raw):
        # bytes that are not UTF-8, and nesting past the parser's recursion limit
        paths = {
            "channel": make_catalog_doc(tmp_path, family="projective", d=3),
            "observable": make_observable(tmp_path, np.eye(3)),
        }
        Path(paths[which]).write_bytes(raw)
        argv = ["dequantize", paths["channel"], "--observable", paths["observable"], "--level", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert paths[which] in err
        assert "Traceback" not in err


class TestExitCodes:
    """Exit 2 is decided while input is read; a failure after that exits 1."""

    COMMANDS = {
        "dims": ["dims", "{chan}", "--max-m", "2"],
        "dilate": ["dilate", "{chan}", "--max-m", "2"],
        "complementary": ["complementary", "{chan}"],
        "dequantize": ["dequantize", "{chan}", "--observable", "{a}", "--level", "1"],
        "converge": ["converge", "{chan}", "--observables", "{a}", "{b}", "--max-m", "2"],
    }

    def argv(self, tmp_path, command, doc):
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps(doc))
        files = {
            "chan": str(chan),
            "a": make_observable(tmp_path, np.diag([1.0, -1.0]), name="a.json"),
            "b": make_observable(tmp_path, np.array([[0.0, 1.0], [1.0, 0.0]]), name="b.json"),
        }
        return [arg.format(**files) for arg in self.COMMANDS[command]]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_unital_channel_exits_1(self, tmp_path, capsys, command):
        code, _, err = run(capsys, *self.argv(tmp_path, command, NON_UNITAL))
        assert code == 1
        assert "not unital" in err

    def test_infinite_unitality_residual_reads_inf(self, tmp_path, capsys):
        # K†K = 1e400 overflows, and LAPACK's SVD of the infinite residual is NaN
        chan = tmp_path / "huge.json"
        chan.write_text(json.dumps({"dim": 1, "kraus": [{"re": [[1e200]]}]}))
        code, out, _ = run(capsys, "validate", str(chan))
        assert code == 1
        assert out.splitlines()[0] == "unitality_residual = inf"
        code, out, err = run(capsys, "dims", str(chan))
        assert (code, out, err) == (1, "", "error: Kraus set is not unital (residual inf)\n")

    def test_undefined_unitality_residual_reads_inf(self, tmp_path, capsys):
        # K†K holds inf - inf, on which LAPACK's SVD does not converge
        chan = tmp_path / "huge.json"
        huge = [[1e200, 1e200], [1e200, -1e200]]
        chan.write_text(json.dumps({"dim": 2, "kraus": [{"re": huge}]}))
        code, out, err = run(capsys, "validate", str(chan))
        assert (code, err) == (1, "")
        assert out.splitlines()[0] == "unitality_residual = inf"
        code, out, err = run(capsys, "dims", str(chan))
        assert (code, out, err) == (1, "", "error: Kraus set is not unital (residual inf)\n")

    @pytest.mark.parametrize("count", [1, 2])
    def test_complementary_checks_unitality_before_the_pairing(self, tmp_path, capfd, count):
        # the bath pairing of this set overflows, and with the second matrix
        # meets inf - inf too; the guard refuses the set before it is formed
        kraus = [{"re": [[1e308, 1e308], [1e308, 1e308]]}, {"re": [[1e308, 0], [0, 1e308]]}]
        chan = tmp_path / "huge.json"
        chan.write_text(json.dumps({"dim": 2, "kraus": kraus[:count]}))
        code = main(["complementary", str(chan)])
        out, err = capfd.readouterr()
        assert (code, out, err) == (1, "", "error: Kraus set is not unital (residual inf)\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["dims", "--max-m", "3"],
            ["subproduct-check", "--max-m", "3"],
            ["dequantize", "--observable", "{a}", "--level", "2"],
            ["converge", "--observables", "{a}", "{a}"],
            ["dilate"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_empty_level_exits_1(self, tmp_path, capfd, argv):
        # the guard passes K = 1e-320 at residual_tol 1e300, and K K underflows
        # to zero: level 2 has no direction, which the build refuses before a
        # reader meets an empty array
        doc = {"dim": 1, "kraus": [{"re": [[1e-320]]}]}
        doc["tol"] = {"rank_rel_tol": 1e-15, "residual_tol": 1e300}
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps(doc))
        a = make_observable(tmp_path, np.eye(1))
        code = main([argv[0], str(chan)] + [arg.format(a=a) for arg in argv[1:]])
        out, err = capfd.readouterr()
        error = "error: level 2 is empty: the rank rule keeps no direction\n"
        assert (code, out, err) == (1, "", error)

    @pytest.mark.parametrize(
        "command, observables, error",
        [
            (
                "dequantize",
                [_huge_block(1e308)],
                "Psi_2 of the observable has non-finite entries: its pairings overflow",
            ),
            (
                "converge",
                [_huge_block(1e300)] * 2,
                "the product of the observables overflows: AB or [A, B] is not finite",
            ),
            (
                "converge",
                [np.diag([1e200, 0.0, 0.0]), np.diag([0.0, 1e200, 0.0])],
                "the products of Psi_1(A) and Psi_1(B) overflow",
            ),
        ],
        ids=["dequantize", "converge", "converge-rows"],
    )
    def test_overflowing_observable_exits_1(self, tmp_path, capfd, command, observables, error):
        # at 1e308 the level-2 pairings of A overflow; at 1e300 A itself is
        # dequantized, but A A overflows: one error line, no warning, no report.
        # diag(1e200, 0, 0) and diag(0, 1e200, 0) pass the check of AB, which
        # is 0, but Psi_1(A) Psi_1(B) overflows: the first row is refused, and
        # only the header and the column line are printed, as for a singular level
        chan = make_catalog_doc(tmp_path, family="commuting_generic", n=2, d=3, seed=1)
        paths = [make_observable(tmp_path, x, name=f"obs{i}.json") for i, x in enumerate(observables)]
        options = {
            "dequantize": ["--observable", *paths, "--level", "2"],
            "converge": ["--observables", *paths],
        }[command]
        code = main([command, chan, *options])
        out, err = capfd.readouterr()
        assert (code, err) == (1, f"error: {error}\n")
        if "Psi_1" in error:
            *header, columns = out.splitlines()
            assert len(header) == 3 and all(line.startswith("# ") for line in header)
            assert columns == "m,norm_gap,vn_residual,scaled_commutator,limit_state_gap"
        else:
            assert out == ""

    @pytest.mark.parametrize("command", ["validate", "dims"])
    def test_huge_asymmetric_state_reads_inf(self, tmp_path, capfd, command):
        # rho - rho† would overflow: the asymmetry is beyond float range
        doc = {"dim": 2, "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]]}]}
        doc["state"] = {"re": [[1e308, 1e308], [-1e308, 0.0]]}
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps(doc))
        code = main([command, str(chan)])
        out, err = capfd.readouterr()
        assert (code, out, err) == (2, "", "error: state is not Hermitian (asymmetry inf)\n")

    def test_infinite_residual_writes_nothing_past_python(self, tmp_path, capfd):
        # handed the all-infinite residual, LAPACK reports an illegal DLASCL
        # argument straight to a file descriptor, past sys.stdout and
        # sys.stderr; capfd reads both descriptors
        chan = tmp_path / "huge.json"
        chan.write_text(json.dumps({"dim": 3, "kraus": [{"re": [[1e200] * 3] * 3}]}))
        code = main(["validate", str(chan)])
        out, err = capfd.readouterr()
        assert "DLASCL" not in out + err
        assert (code, err) == (1, "")
        assert out.splitlines()[0] == "unitality_residual = inf"

    @pytest.mark.parametrize("command", ["complementary", "dequantize", "converge"])
    def test_non_psd_state_exits_2(self, tmp_path, capsys, command):
        code, out, err = run(capsys, *self.argv(tmp_path, command, NON_PSD_STATE))
        assert code == 2
        assert out == ""
        assert "state is not positive" in err


class TestReportWriter:
    def test_json_reports_equal_json_dumps(self, tmp_path, capsys):
        rho = np.array([[0.6, 0.1j, 0.0], [-0.1j, 0.3, 0.0], [0.0, 0.0, 0.1]])
        chan = tmp_path / "chan.json"
        chan.write_text(
            json.dumps(
                {
                    "catalog": {"family": "random_unital", "n": 2, "d": 3, "seed": 4},
                    "state": {"re": rho.real.tolist(), "im": rho.imag.tolist()},
                }
            )
        )
        chan = str(chan)
        obs = make_observable(tmp_path, np.diag([1.0, -1.0, 0.5]))
        commands = {
            "dequantize": ["dequantize", chan, "--observable", obs, "--level", "2"],
            "complementary": ["complementary", chan],
            "dilate": ["dilate", chan, "--max-m", "2"],
            "catalog": ["catalog", "--family", "projective", "--d", "3", "--ranks", "1,2"],
            "validate": ["validate", chan, "--minimalize"],
        }
        for name, argv in commands.items():
            out_path = tmp_path / f"{name}.json"
            code, _, _ = run(capsys, *argv, "--out", str(out_path))
            assert code == 0, name
            text = out_path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name
        dilated = json.loads((tmp_path / "dilate.json").read_text())
        assert np.array(dilated["payload"]["unitary"]["matrix"]["re"]).shape == (6, 6)

    def test_report_matrix_is_streamed(self, tmp_path):
        # a 256x256 complex matrix prints to about 3 MB; no piece near that
        # size, nor the matrix as nested lists, is held while writing
        rng = np.random.default_rng(0)
        a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            _emit_json({"payload": {"level": 8, "matrix": _matrix_arrays(a)}}, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        expected = {"payload": {"level": 8, "matrix": matrix_to_json(a)}}
        assert path.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_reader_that_stops_early_leaves_the_exit_code(self, tmp_path):
        # `krausfock dequantize ... | head`: the 128x128 matrix prints to
        # about 800 kB, more than a pipe holds, so the reader's exit is seen
        chan = make_catalog_doc(tmp_path, family="random_unital", n=2, d=16, seed=0)
        obs = make_observable(tmp_path, np.eye(16))
        argv = ["dequantize", chan, "--observable", obs, "--level", "7"]
        with subprocess.Popen(
            [sys.executable, "-m", "krausfock.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=src_env(),
        ) as proc:
            assert proc.stdout.read(20).startswith(b"{")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert (code, err) == (0, b"")


class TestRepeatedCalls:
    """``main`` builds one parser per process, and a call carries nothing to the next."""

    PARSERS_BUILT = """
import argparse, contextlib, io, sys
built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)

argparse.ArgumentParser.__init__ = counted
import krausfock.cli
print(built.count("krausfock"))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [krausfock.cli.main(argv.split("|")) for argv in sys.argv[1:]]
print(codes, built.count("krausfock"))
"""

    def test_a_process_builds_one_parser(self, tmp_path):
        chan = make_catalog_doc(tmp_path, family="projective", d=2)
        calls = [f"validate|{chan}", f"dims|{chan}|--max-m|2", "catalog|--family|projective|--d|2"]
        result = subprocess.run(
            [sys.executable, "-c", self.PARSERS_BUILT, *calls],
            capture_output=True,
            text=True,
            env=src_env(),
            timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        # none at import; one, shared by the subcommands, after three calls
        assert result.stdout.splitlines() == ["0", "[0, 0, 0] 1"]

    def test_usage_error_leaves_the_next_call_working(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        with pytest.raises(SystemExit) as exc:
            main(["dims", chan, "--bogus"])
        assert exc.value.code == 2
        assert "--bogus" in capsys.readouterr().err
        code, out, err = run(capsys, "dims", chan, "--max-m", "2")
        assert (code, err) == (0, "")
        assert [line.split(",")[1] for line in out.splitlines() if line[:1].isdigit()] == ["3", "3"]

    def test_plain_validate_after_minimalize_writes_nothing(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="random_unital", n=2, d=3, seed=1)
        reduced = tmp_path / "reduced.json"
        code, out, _ = run(capsys, "validate", chan, "--minimalize", "--out", str(reduced))
        assert code == 0
        assert out.splitlines()[-1].endswith(f"written to {reduced}")
        reduced.unlink()
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        code, out, err = run(capsys, "validate", chan)
        assert (code, err) == (0, "")
        assert "written" not in out
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestCyclicGarbage:
    def test_a_warm_command_leaves_none(self, tmp_path, capsys):
        # a parser dropped after each call is freed only by the cyclic collector
        chan = make_catalog_doc(tmp_path, family="random_unital", n=2, d=3, seed=1)
        a = make_observable(tmp_path, np.diag([1.0, -1.0, 0.5]), name="a.json")
        b = make_observable(tmp_path, np.eye(3, k=1) + np.eye(3, k=-1), name="b.json")
        docs = {"non-unital": NON_UNITAL, "ragged": MALFORMED["ragged-kraus-matrix"][0]}
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        commands = {
            "validate": (["validate", chan], 0),
            "validate --minimalize": (
                ["validate", chan, "--minimalize", "--out", str(tmp_path / "reduced.json")],
                0,
            ),
            "dims": (["dims", chan, "--max-m", "3"], 0),
            "subproduct-check": (["subproduct-check", chan, "--max-m", "3"], 0),
            "dilate": (["dilate", chan, "--max-m", "2"], 0),
            "complementary": (["complementary", chan], 0),
            "dequantize": (["dequantize", chan, "--observable", a, "--level", "2"], 0),
            "converge": (["converge", chan, "--observables", a, b, "--max-m", "3"], 0),
            "catalog": (["catalog", "--family", "random_unital", "--n", "2", "--d", "3"], 0),
            "exit 1": (["dims", str(tmp_path / "non-unital.json"), "--max-m", "2"], 1),
            "exit 2": (["dims", str(tmp_path / "ragged.json"), "--max-m", "2"], 2),
        }
        for argv, _ in commands.values():  # first calls fill caches
            main(argv)
        left = {}
        gc.collect()
        gc.disable()
        try:
            for name, (argv, expected) in commands.items():
                assert main(argv) == expected, name
                left[name] = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert left == dict.fromkeys(commands, 0)
