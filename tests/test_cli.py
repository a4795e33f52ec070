import json

import numpy as np
import pytest

from krausfock.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_catalog_doc(tmp_path, name="chan.json", **catalog):
    doc = {"catalog": catalog}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def make_observable(tmp_path, matrix, name="obs.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps({"matrix": {"re": np.real(matrix).tolist(), "im": np.imag(matrix).tolist()}})
    )
    return str(path)


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

        doc = load_document(str(out_path))
        kraus, _ = channel_from_document(doc)
        text_again = json.dumps(channel_to_document(kraus), sort_keys=True, indent=2) + "\n"
        doc2 = json.loads(text_again)
        kraus2, _ = channel_from_document({**doc2, "_digest": "", "_path": ""})
        assert np.array_equal(kraus.ops, kraus2.ops)


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


class TestSubproductCheck:
    def test_passes_on_catalog_instance(self, tmp_path, capsys):
        path = make_catalog_doc(tmp_path, family="random_unital", n=2, d=6, seed=2)
        code, out, _ = run(capsys, "subproduct-check", path, "--max-m", "4")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line and not line.startswith("#")]
        assert rows[0] == ["m", "l", "residual"]
        assert len(rows) > 1


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


class TestComplementary:
    def test_agreement_and_trace(self, tmp_path, capsys):
        path = make_catalog_doc(tmp_path, family="random_unital", n=3, d=4, seed=6)
        code, out, _ = run(capsys, "complementary", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["formula_agreement"] < 1e-10
        assert abs(payload["trace"] - 1.0) < 1e-10
        assert payload["min_eigenvalue"] > -1e-10


class TestDequantize:
    def test_identity_observable_metadata(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        obs = make_observable(tmp_path, np.eye(3))
        code, out, _ = run(capsys, "dequantize", chan, "--observable", obs, "--level", "3")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["unitality_residual"] < 1e-8
        assert payload["level"] == 3

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

    def test_missing_observable_file(self, tmp_path, capsys):
        chan = make_catalog_doc(tmp_path, family="projective", d=3)
        code, _, err = run(capsys, "dequantize", chan, "--observable", "gone.json", "--level", "2")
        assert code == 2


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
