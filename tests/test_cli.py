"""Command-line contract: exit codes, formats, determinism, round trips."""

from __future__ import annotations

import json
from fractions import Fraction

from sdybe.cli import main

Q = Fraction


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def t1_sl2(**overrides):
    doc = {"algebra": "sl", "m": 2, "n": 0, "epsilon": "0", "nu": ["0"], "X": "all", "D": []}
    doc.update(overrides)
    return doc


def t2_sl2(**overrides):
    doc = {"algebra": "sl", "m": 2, "n": 0, "epsilon": "1", "nu": ["0"], "X": "all", "D": []}
    doc.update(overrides)
    return doc


class TestAlgebraCommand:
    def test_sl21_descriptor(self, capsys):
        assert main(["algebra", "--family", "sl", "--m", "2", "--n", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 8
        assert len(doc["roots"]) == 6

    def test_gl20_descriptor(self, capsys):
        assert main(["algebra", "--family", "gl", "--m", "2", "--n", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 4

    def test_sl11_exit_code_2(self, capsys):
        assert main(["algebra", "--family", "sl", "--m", "1", "--n", "1"]) == 2
        assert "degenerate" in capsys.readouterr().err.lower()


class TestVerifyCommand:
    def test_rational_family_all_checks_pass(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "t1.json", t1_sl2())
        out = tmp_path / "report.json"
        code = main(["verify", "--spec", spec, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"]
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["cdybe"] == "exact-zero"
        assert statuses["unitarity"] == "exact-zero"
        assert statuses["zero-weight"] == "exact-zero"

    def test_nonclosed_D_exits_1_with_witness(self, tmp_path):
        doc = t1_sl2(algebra="gl", m=2, n=1, nu=["0", "0", "0"],
                     D=[{"i": 0, "j": 1, "num": "x2", "den": "1"}])
        spec = write_spec(tmp_path, "bad.json", doc)
        out = tmp_path / "report.json"
        assert main(["verify", "--spec", spec, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert not report["passed"]
        assert any("closed" in f["reason"] for f in report["validation"]["failures"])

    def test_malformed_spec_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "--spec", str(path)]) == 2
        missing = write_spec(tmp_path, "missing.json", {"algebra": "sl"})
        assert main(["verify", "--spec", missing]) == 2

    def test_unknown_check_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, "t1.json", t1_sl2())
        assert main(["verify", "--spec", spec, "--checks", "nonsense"]) == 2

    def test_fewer_than_one_point_exits_2(self, tmp_path, capsys):
        # with no sample points a surviving residual would pass vacuously
        spec = write_spec(tmp_path, "t2.json", t2_sl2())
        for points in ("0", "-1"):
            assert main(["verify", "--spec", spec, "--points", points]) == 2
            assert "points" in capsys.readouterr().err

    def test_precision_below_64_bits_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "t2.json", t2_sl2())
        for precision in ("0", "-3", "8", "53"):
            assert main(["verify", "--spec", spec, "--precision", precision]) == 2
            assert "precision" in capsys.readouterr().err

    def test_explicit_limits_on_inapplicable_spec_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "t1.json", t1_sl2())
        assert main(["verify", "--spec", spec, "--checks", "limits"]) == 2
        assert "limits" in capsys.readouterr().err

    def test_reports_deterministic_modulo_timing(self, tmp_path):
        spec = write_spec(tmp_path, "t2.json", t2_sl2(algebra="gl", m=2, n=1, nu=["0", "0", "0"]))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["verify", "--spec", spec, "--seed", "5", "--precision", "64", "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            for check in doc["checks"]:
                check.pop("seconds")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]


class TestConstructCommand:
    def test_exact_evaluation(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "t1.json", t1_sl2())
        assert main(["construct", "--spec", spec, "--at", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = {tuple(v["indices"]): v["value"] for v in doc["values"]}
        assert set(values.values()) == {"1/4", "-1/4"}

    def test_pole_exits_1_naming_form(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "t1.json", t1_sl2())
        assert main(["construct", "--spec", spec, "--at", "0"]) == 1
        assert "x0" in capsys.readouterr().err

    def test_symbolic_dump_one_atom_per_root(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "t2.json", t2_sl2())
        assert main(["construct", "--spec", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        root_cells = [c for c in doc["tensor"] if c["coefficient"].count("coth")]
        assert len(root_cells) == 2
        for cell in root_cells:
            assert cell["coefficient"].count("(coth") == 1

    def test_wrong_at_length_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, "t1.json", t1_sl2())
        assert main(["construct", "--spec", spec, "--at", "1,2"]) == 2


class TestRoundTrip:
    def test_descriptor_root_order_matches_spec_indices(self, tmp_path, capsys):
        assert main(["algebra", "--family", "gl", "--m", "2", "--n", "1"]) == 0
        descriptor = json.loads(capsys.readouterr().out)
        # pick the even positive root and its negative from the descriptor
        even_pos = next(
            r for r in descriptor["roots"] if r["parity"] == 0 and r["positive"]
        )
        pair = [even_pos["index"], even_pos["negative_index"]]
        doc = {
            "algebra": "gl", "m": 2, "n": 1, "epsilon": "0",
            "nu": ["0", "0", "0"], "X": pair, "D": [],
        }
        spec = write_spec(tmp_path, "sub.json", doc)
        out = tmp_path / "rep.json"
        assert main(["verify", "--spec", spec, "--checks", "validate,cdybe,unitarity,zero-weight", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"]
