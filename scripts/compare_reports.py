#!/usr/bin/env python3
"""Check that a change leaves every `sdybe verify` and `construct --at` report as the parent wrote it.

    python3 scripts/compare_reports.py --parent HEAD~1

Run from the root of the checkout under test (the change).  The parent
revision is exported with `git archive` into --parent-dir (a fresh temporary
directory by default).  For seeds 1-3 of every perfbench workload, the spec
files of `perfbench/workloads.py` (negative controls included) are written
once, and each side runs on them, from its own source: `verify` with the
arguments perfbench uses, and `construct --at` at two fixed rational points
(`at_points`), at 64 and at 128 bits.  The reports are compared with every
`seconds` field removed, and so are the exit codes.  Prints one line per
difference, naming the spec and the path of the field with both values
(`limits.status: numeric-zero -> exact-zero`; a check is named by its
`name`), and exits 1 if there is any, else 0.

The workloads give D only as constants, so no workload reaches a product
with a non-constant numerator.  A fixed set of rational-D specs
(`RATIONAL_D`: gl(2|1), sl(3) and gl(3|2), eps = 0 and 1/3, X = all) runs through
`verify` and symbolic `construct` on both sides as well, and so does
`sdybe algebra` for every gl(m|n) and sl(m|n) with 2 <= m + n <= 9
(`DESCRIPTOR_SIZES`), whose descriptors are compared field by field and
then byte for byte.  The usage errors of `SELECTION_ERRORS` (unknown
checks, `--checks limits` on a spec it does not apply to, `--precision 53`
on `verify` and `construct`) run on both sides too, and their exit codes
are compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402
from bench_pairs import export_parent  # noqa: E402

SEEDS = (1, 2, 3)
PRECISIONS = (64, 128)
# each a list of D entries (i, j, ratfun); a spec runs on the algebras whose rank has room for its indices
RATIONAL_D = (
    ((0, 1, '(ratfun "2*x0" "x1 + 3")'),),
    ((0, 1, '(ratfun "x0" "x0^2 + 1")'),),
    ((0, 1, '(ratfun "1" "x0*x1")'),),
    # entries equal up to non-unit rational factors (closed: D_12 = -D_02 over x0 - x1,
    # D_12 = D_02 over x0 + x1), so the leg brackets share bases with int ratios other than +-1
    ((0, 1, '(ratfun "1" "2*x0 - 2*x1")'), (0, 2, '(ratfun "-3" "x0 - x1")'), (1, 2, '(ratfun "3" "x0 - x1")')),
    ((0, 1, '(ratfun "2/3" "x0 + x1")'), (0, 2, '(ratfun "-1/2" "x0 + x1")'), (1, 2, '(ratfun "-1/2" "x0 + x1")')),
)
# gl(3|2) gives the reducible x0*x1 entry a residual on which many cells share one sum (`ScalarExpr.sum`'s sums)
RATIONAL_D_ALGEBRAS = (("gl", 2, 1), ("sl", 3, 0), ("gl", 3, 2))
RATIONAL_D_EPSILONS = ("0", "1/3")
DESCRIPTOR_SIZES = range(2, 10)  # m + n of the algebras whose `sdybe algebra` output is compared
# the spec of the usage-error runs: X = all at eps = 0, where limits does not apply
SELECTION_SPEC = {"algebra": "sl", "m": 3, "n": 0, "epsilon": "0", "nu": ["0", "0"], "X": "all"}
SELECTION_ERRORS = (  # each exits 2 with no report
    ["verify", "--checks", "bogus"],
    ["verify", "--checks", "cdybe,bogus"],
    ["verify", "--checks", ","],
    ["verify", "--checks", "limits"],
    ["verify", "--checks", "validate,limits"],
    ["verify", "--precision", "53"],
    ["construct", "--precision", "53"],
    ["construct", "--at", "1/2,1/3", "--precision", "53"],
)

# runs in a fresh interpreter: argv[1] is a src/ directory, argv[2] a JSON list
# of `sdybe` argument lists; prints the list of exit codes as JSON
DRIVER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from sdybe import cli
codes = []
for argv in json.load(open(sys.argv[2])):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps(codes))
"""


def without_seconds(node):
    """node with every `seconds` entry removed, at any depth."""
    if isinstance(node, dict):
        return {k: without_seconds(v) for k, v in node.items() if k != "seconds"}
    if isinstance(node, list):
        return [without_seconds(v) for v in node]
    return node


def run_all(checkout: str, jobs: list[list[str]], work: str) -> list:
    path = os.path.join(work, "jobs.json")
    with open(path, "w") as fh:
        json.dump(jobs, fh)
    argv = [sys.executable, "-c", DRIVER, os.path.join(checkout, "src"), path]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


ABSENT = object()


def _shown(value) -> str:
    return "(absent)" if value is ABSENT else value if isinstance(value, str) else json.dumps(value, sort_keys=True)


def field_diffs(old, new, path: str = "") -> list[str]:
    """'path: old -> new' for every leaf field that differs; dicts and
    equal-length lists are descended, and a report's checks are keyed by name.
    A missing report file reads as None and differs as a whole `report`."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key, ABSENT), new.get(key, ABSENT)
            if key == "checks" and not path and isinstance(a, list) and isinstance(b, list):
                a, b = ({c["name"]: c for c in side} for side in (a, b))
                out += field_diffs(a, b, "")
            else:
                out += field_diffs(a, b, f"{path}.{key}" if path else key)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for k, (a, b) in enumerate(zip(old, new)) for d in field_diffs(a, b, f"{path}[{k}]")]
    return [] if old == new else [f"{path or 'report'}: {_shown(old)} -> {_shown(new)}"]


def read_report(path: str):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return without_seconds(json.load(fh))


def at_points(rank: int) -> list[str]:
    """The two fixed rational points of `construct --at` for this rank."""
    first = ["2/5", "-1/5"] + [f"{(-1) ** k * (k + 1)}/{3 * k + 4}" for k in range(2, rank)]
    return [",".join(first[:rank]), ",".join(f"{k + 1}/{2 * k + 3}" for k in range(rank))]


def runs(specs: list, seed: int, out) -> list[tuple[str, list[str]]]:
    """(label, argv) of every run on the specs; out(n) is the report path of run n."""
    jobs: list = []
    for k, spec in enumerate(specs):
        where = f"spec {k:02d} ({spec.name})"
        jobs.append((where, spec.argv(seed, out(len(jobs)))))
        for at in at_points(len(spec.doc["nu"])):
            for bits in PRECISIONS:
                argv = ["construct", "--spec", spec.path, "--at", at, "--precision", str(bits)]
                jobs.append((f"{where} construct --at {at} --precision {bits}", argv + ["--out", out(len(jobs))]))
    return jobs


def rational_d_specs(outdir: str) -> list[tuple[str, str]]:
    """Write the RATIONAL_D spec files under outdir; (label, path) of each."""
    os.makedirs(outdir, exist_ok=True)
    specs = []
    for family, m, n in RATIONAL_D_ALGEBRAS:
        rank = m + n if family == "gl" else m + n - 1
        for eps in RATIONAL_D_EPSILONS:
            for entries in RATIONAL_D:
                if max(j for _, j, _ in entries) >= rank:
                    continue
                doc = {"algebra": family, "m": m, "n": n, "epsilon": eps, "nu": ["0"] * rank, "X": "all",
                       "D": [{"i": i, "j": j, "ratfun": ratfun} for i, j, ratfun in entries]}
                path = os.path.join(outdir, f"{len(specs):02d}.json")
                with open(path, "w") as fh:
                    json.dump(doc, fh, indent=1, sort_keys=True)
                shown = " ".join(f"D{i}{j} {ratfun}" for i, j, ratfun in entries)
                specs.append((f"{workloads.label((family, m, n))} eps {eps} {shown}", path))
    return specs


def rational_d_runs(specs: list[tuple[str, str]], out) -> list[tuple[str, list[str]]]:
    """(label, argv) of `verify` and symbolic `construct` on each spec; out(n) is the report path of run n."""
    jobs: list = []
    for label, path in specs:
        for command in ("verify", "construct"):
            jobs.append((f"{label} {command}", [command, "--spec", path, "--out", out(len(jobs))]))
    return jobs


def descriptor_runs(out) -> list[tuple[str, list[str]]]:
    """(label, argv) of `sdybe algebra` on every gl(m|n) and sl(m|n), m != n, with m + n in DESCRIPTOR_SIZES."""
    jobs: list = []
    for d in DESCRIPTOR_SIZES:
        for m in range(d + 1):
            for family in ("gl", "sl"):
                if family == "gl" or 2 * m != d:
                    argv = ["algebra", "--family", family, "--m", str(m), "--n", str(d - m)]
                    jobs.append((workloads.label((family, m, d - m)), argv + ["--out", out(len(jobs))]))
    return jobs


def selection_runs(path: str, out) -> list[tuple[str, list[str]]]:
    """(label, argv) of each of SELECTION_ERRORS on the spec file at path."""
    return [
        (" ".join(args), [args[0], "--spec", path, *args[1:], "--out", out(n)])
        for n, args in enumerate(SELECTION_ERRORS)
    ]


def diff_runs(name: str, make_jobs, parent_dir: str, work: str, exact: bool = False) -> tuple[int, list[str]]:
    """(runs compared, differences) of the jobs make_jobs(out) gives, run on each side; with
    exact, output files whose fields agree must also agree byte for byte (1 and true differ)."""
    codes: dict = {}
    for side, checkout in (("parent", parent_dir), ("change", ROOT)):
        jobs = make_jobs(lambda n, side=side: os.path.join(work, f"{side}-{n:03d}.json"))
        codes[side] = run_all(checkout, [argv for _, argv in jobs], work)
    diffs = []
    for n, (label, _) in enumerate(jobs):
        where = f"{name} {label}"
        if codes["parent"][n] != codes["change"][n]:
            diffs.append(f"{where}: exit code {codes['parent'][n]} -> {codes['change'][n]}")
        old, new = (read_report(os.path.join(work, f"{side}-{n:03d}.json")) for side in ("parent", "change"))
        found = [f"{where}: {d}" for d in field_diffs(old, new)]
        if exact and not found:
            old, new = (_bytes(os.path.join(work, f"{side}-{n:03d}.json")) for side in ("parent", "change"))
            found = [] if old == new else [f"{where}: bytes differ"]
        diffs += found
    return len(jobs), diffs


def _bytes(path: str) -> bytes | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def compare(workload: str, seed: int, parent_dir: str, work: str) -> tuple[int, int, list[str]]:
    """(specs compared, runs compared, differences) for one workload and seed."""
    specs = workloads.generate(workload, seed, os.path.join(work, "specs"))
    ran, diffs = diff_runs(f"{workload} seed {seed}", lambda out: runs(specs, seed, out), parent_dir, work)
    return len(specs), ran, diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--parent-dir", help="where to export the parent (default: a new temporary directory)")
    args = ap.parse_args(argv)

    parent_dir = args.parent_dir or tempfile.mkdtemp(prefix="compare-parent-")
    commit = export_parent(args.parent, parent_dir)
    specs, total, diffs = 0, 0, []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
                count, ran, found = compare(workload, seed, parent_dir, work)
            specs, total = specs + count, total + ran
            diffs += found
            print(f"{workload} seed {seed}: {count} specs, {ran} runs, {len(found)} differences", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
        rational = rational_d_specs(os.path.join(work, "specs"))
        ran, found = diff_runs("rational-D", lambda out: rational_d_runs(rational, out), parent_dir, work)
    specs, total = specs + len(rational), total + ran
    diffs += found
    print(f"rational-D: {len(rational)} specs, {ran} runs, {len(found)} differences", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
        ran, found = diff_runs("algebra", descriptor_runs, parent_dir, work, exact=True)
    total += ran
    diffs += found
    print(f"algebra: {ran} descriptors, {len(found)} differences", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as work:
        path = os.path.join(work, "selection.json")
        with open(path, "w") as fh:
            json.dump(SELECTION_SPEC, fh)
        ran, found = diff_runs("selection", lambda out: selection_runs(path, out), parent_dir, work)
    total += ran
    diffs += found
    print(f"selection errors: {ran} runs, {len(found)} differences", file=sys.stderr)
    for line in diffs:
        print(line)
    verdict = "differ" if diffs else "match"
    print(
        f"{total} runs on {specs} specs against {commit[:7]}: {len(diffs)} differences; reports {verdict}",
        file=sys.stderr,
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
