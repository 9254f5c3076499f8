"""Command-line contract: exit codes, formats, determinism, round trips."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import sdybe
from sdybe import cli
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


def gl21_coth(**overrides):
    doc = {"algebra": "gl", "m": 2, "n": 1, "epsilon": "1/3", "nu": ["0", "0", "0"], "X": "all", "D": []}
    doc.update(overrides)
    return doc


def bad_signs_sl3():
    """X = none with the simple roots E12, E23 signed + and their sum E13
    signed - (root order E13, E12, E23, ...): validate accepts it, cdybe
    and mdybe are nonzero."""
    return {"algebra": "sl", "m": 3, "n": 0, "epsilon": "1/2", "nu": ["0", "0"], "X": "none", "D": [],
            "sign_choice": {"0": "-", "1": "+", "2": "+"}}


# each field value crashed verify and construct with a traceback and exit 1
MALFORMED = {
    "epsilon-1/0": ({"epsilon": "1/0"}, "epsilon"),
    "nu-1/0": ({"nu": ["1/0", "0", "0"]}, "nu"),
    "den-0": ({"D": [{"i": 0, "j": 1, "num": "1", "den": "0"}]}, "D entry 0"),
    "ratfun-den-0": ({"D": [{"i": 0, "j": 1, "ratfun": '(ratfun "1" "0")'}]}, "D entry 0"),
    "ratfun-coth": ({"D": [{"i": 0, "j": 1, "ratfun": "(coth 1 0 0 0)"}]}, "D entry 0"),
    "ratfun-coth-zero": ({"D": [{"i": 0, "j": 1, "ratfun": "(coth 0 0 0 0)"}]}, "D entry 0"),
    "D-index-7": ({"D": [{"i": 0, "j": 7, "num": "1"}]}, "D"),
    "D-entry-not-object": ({"D": ["x"]}, "D entry 0"),
    "D-diagonal": ({"D": [{"i": 1, "j": 1, "num": "1"}]}, "D"),
    # an out-of-range X index was a validation failure with exit 1, while an
    # out-of-range D index exited 2
    "X-index-99": ({"X": [0, 99]}, "X"),
    # each value below was accepted: "05" read as X = {0, 5}, 2.5 truncated,
    # true taken as 1 and 0.1 as its binary fraction
    "X-string": ({"X": "05"}, "X"),
    "X-float": ({"X": [0, 5.5]}, "X"),
    "m-float": ({"m": 2.5}, "m"),
    "n-bool": ({"n": True}, "n"),
    "epsilon-float": ({"epsilon": 0.1}, "epsilon"),
    "nu-float": ({"nu": [0.5, "0", "0"]}, "nu"),
    "D-index-float": ({"D": [{"i": 0.0, "j": 1, "num": "1"}]}, "D entry 0"),
    "sign-bool": ({"sign_choice": {"0": True}}, "sign_choice"),
}


@pytest.mark.parametrize("command", ["verify", "construct"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_exits_2_naming_it(tmp_path, capsys, command, case):
    overrides, field = MALFORMED[case]
    spec = write_spec(tmp_path, "bad.json", gl21_coth(**overrides))
    assert main([command, "--spec", spec]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad spec: {field}: ")


# gl(-1|4) and sl(4|-1) built algebras in which every basis vector was even,
# and verify passed on them
NEGATIVE_SIZES = [(family, m, n) for family in ("gl", "sl") for m, n in ((-1, 4), (4, -1))]


@pytest.mark.parametrize("family,m,n", NEGATIVE_SIZES)
def test_negative_size_exits_2(tmp_path, capsys, family, m, n):
    assert main(["algebra", "--family", family, "--m", str(m), "--n", str(n)]) == 2
    assert "non-negative" in capsys.readouterr().err
    rank = m + n if family == "gl" else m + n - 1
    doc = {"algebra": family, "m": m, "n": n, "epsilon": "0", "nu": ["0"] * rank, "X": "all", "D": []}
    spec = write_spec(tmp_path, "negative.json", doc)
    for command in ("verify", "construct"):
        assert main([command, "--spec", spec]) == 2
        assert capsys.readouterr().err.startswith("error: bad spec: m and n must be non-negative")


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

    @pytest.mark.parametrize(
        "doc,code,numeric",
        [(t1_sl2(), 0, False), (t2_sl2(), 0, False), (bad_signs_sl3(), 1, True)],
        ids=["exact", "limits", "witness"],
    )
    def test_mpmath_is_imported_on_first_numeric_use(self, tmp_path, doc, code, numeric):
        # a fresh interpreter: a passing verify evaluates nothing, limits
        # included, while the witness of a nonzero residual is a numeric value
        spec, out = write_spec(tmp_path, "spec.json", doc), str(tmp_path / "report.json")
        script = (
            "import sys\n"
            "from sdybe import cli\n"
            f"code = cli.main(['verify', '--spec', {spec!r}, '--out', {out!r}])\n"
            "print(code, 'mpmath' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sdybe.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split() == [str(code), str(numeric)]

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
            assert doc["config"] == {"precision_bits": 64, "seed": 5}
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
        # the report is written at a pole too, naming the cell and the form
        out = tmp_path / "pole.json"
        assert main(["construct", "--spec", spec, "--at", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert set(doc) == {"spec_digest", "algebra", "tool_version", "at", "pole"}
        assert doc["at"] == ["0"] and doc["algebra"] == {"family": "sl", "m": 2, "n": 0}
        assert err == f"error: {doc['pole']['form']} vanishes at the evaluation point\n"
        assert doc["pole"]["form"] == "x0" and len(doc["pole"]["indices"]) == 2

    @pytest.mark.parametrize("eps,form", [("0", "x0 - x1"), ("1", "coth(1/2*x0 - 1/2*x1)")])
    def test_pole_report_on_gl21(self, tmp_path, capsys, eps, form):
        # an exact cell (eps = 0) and a numeric one (eps = 1) hit the same hyperplane
        spec = write_spec(tmp_path, "gl21.json", gl21_coth(epsilon=eps))
        assert main(["construct", "--spec", spec, "--at", "1,1,0"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["at"] == ["1", "1", "0"] and "values" not in doc
        assert doc["pole"] == {"indices": [1, 3], "form": form}

    @pytest.mark.parametrize("doc,form", [(t1_sl2(), "x0"), (t2_sl2(), "coth(x0)")], ids=["eps0", "eps1"])
    def test_pole_margin_for_every_cell(self, tmp_path, capsys, doc, form):
        # at eps = 0 the rational cells printed +-5*10^11 here with exit 0
        spec = write_spec(tmp_path, "sl2.json", doc)
        assert main(["construct", "--spec", spec, "--at", "1/1000000000000"]) == 1
        assert json.loads(capsys.readouterr().out)["pole"]["form"] == form

    def test_d_entry_below_diagonal_is_the_negated_upper_entry(self, tmp_path, capsys):
        dumps = []
        for i, j, num in ((1, 0, "x0 + 2*x1"), (0, 1, "-x0 - 2*x1")):
            spec = write_spec(tmp_path, "d.json", gl21_coth(D=[{"i": i, "j": j, "num": num, "den": "x1 + 3"}]))
            assert main(["construct", "--spec", spec]) == 0
            dumps.append(json.loads(capsys.readouterr().out)["tensor"])
        assert dumps[0] == dumps[1]
        assert any("x1 + 3" in cell["coefficient"] for cell in dumps[0])

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

    def test_precision_below_64_bits_exits_2(self, tmp_path, capsys):
        # at 8 bits every coth cell printed as 1.0 or 0.0, with exit 0
        spec = write_spec(tmp_path, "t2.json", t2_sl2())
        for precision in ("0", "-3", "8", "63"):
            assert main(["construct", "--spec", spec, "--at", "3", "--precision", precision]) == 2
            assert "precision" in capsys.readouterr().err
        assert main(["construct", "--spec", spec, "--at", "3", "--precision", "64"]) == 0
        values = [v["value"] for v in json.loads(capsys.readouterr().out)["values"]]
        assert 1.0024849116568446 in values


# sha256 of `sdybe construct --out` dumps, taken before coth atoms and
# denominator factors were interned; term and factor order must not follow
# the intern ids
CONSTRUCT_DIGESTS = {
    "sl3-eps0-nu-D": (
        {"algebra": "sl", "m": 3, "n": 0, "epsilon": "0", "nu": ["1/2", "-1/3"], "X": "all",
         "D": [{"i": 0, "j": 1, "ratfun": '(ratfun "2*x0" "x1 + 3")'}]},
        "0506b7c3c59b5c1a4c1f04ff5a30c09582a30ad019dc0bf5e1744098099c1091",
    ),
    "gl21-coth-all": (
        {"algebra": "gl", "m": 2, "n": 1, "epsilon": "1/3", "nu": ["1/2", "1/3", "-1/5"], "X": "all", "D": []},
        "2d5a6ba77894d23c0cd2cb86c65a51b4fefdb0f64408df51ce248308bd8d79c3",
    ),
    "gl32-coth-levi": (
        {"algebra": "gl", "m": 3, "n": 2, "epsilon": "1/2", "nu": ["1/3", "-2/3", "1", "5/3", "-4/3"],
         "X": [2, 3, 6, 13, 16, 17], "D": [], "sign_choice": {str(k): "+" for k in (0, 1, 4, 5, 7, 8, 9)}},
        "3fd141b43d4447da5c24fdff6e2190b028ecaa3a32d60fdc9e3f972693591e0f",
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCT_DIGESTS))
def test_symbolic_dump_bytes_unchanged(tmp_path, case):
    doc, digest = CONSTRUCT_DIGESTS[case]
    spec = write_spec(tmp_path, "spec.json", doc)
    out = tmp_path / "dump.json"
    assert main(["construct", "--spec", spec, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


class TestParserReuse:
    """`main` parses with one parser, built on its first call."""

    def test_build_parser_runs_once(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert main(["algebra", "--family", "sl", "--m", "2", "--n", "0"]) == 0
            assert main(["algebra", "--family", "gl", "--m", "1", "--n", "1"]) == 0
        capsys.readouterr()
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["verify", "--spec", "SPEC", "--checks", "nonsense"], ["--version"], ["algebra", "--family", "so"]],
        ids=["usage", "unknown-check", "version", "bad-choice"],
    )
    def test_second_call_exits_as_the_first(self, tmp_path, capsys, argv):
        argv = [write_spec(tmp_path, "t1.json", t1_sl2()) if a == "SPEC" else a for a in argv]
        cli.build_parser.cache_clear()
        outcomes = []
        for _ in range(2):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] in (2, ("exit", 0), ("exit", 2))
        assert outcomes[0][1] or outcomes[0][2]


def _without_seconds(doc):
    if isinstance(doc, dict):
        return {k: _without_seconds(v) for k, v in doc.items() if k != "seconds"}
    if isinstance(doc, list):
        return [_without_seconds(v) for v in doc]
    return doc


def _clear_shared_setup():
    """Empty the per-process set-up caches, as a fresh process starts."""
    from sdybe import superalgebra, verifier

    for fn in (
        superalgebra._build,
        superalgebra.root_decomposition,
        superalgebra.casimir,
        verifier._omega_bracket,
        cli.build_parser,
    ):
        fn.cache_clear()


def test_shared_setup_leaks_no_state_between_specs(tmp_path, monkeypatch):
    """One process verifies the seed-1 bench specs of every workload forward, then in reverse;
    each report, less its `seconds`, is the report of a run that starts from empty set-up caches."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    loader = importlib.util.spec_from_file_location("workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look their module up there
    loader.loader.exec_module(workloads)
    specs = [
        s for name in sorted(workloads.WORKLOADS) for s in workloads.generate(name, 1, str(tmp_path / name))
    ]
    out = str(tmp_path / "report.json")

    def run(spec):
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            code = main(spec.argv(1, out))
        with open(out) as fh:
            return code, _without_seconds(json.load(fh))

    reference = []
    for spec in specs:
        _clear_shared_setup()
        reference.append(run(spec))
    for order in (range(len(specs)), reversed(range(len(specs)))):
        for k in order:
            assert run(specs[k]) == reference[k], specs[k].name

    # the in-process reference against the CLI entry point in a fresh process, on the last spec
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sdybe.__file__)))
    done = subprocess.run([sys.executable, "-m", "sdybe.cli", *specs[-1].argv(1, out)], env=env, capture_output=True)
    with open(out) as fh:
        assert (done.returncode, _without_seconds(json.load(fh))) == reference[-1]
