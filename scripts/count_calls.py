#!/usr/bin/env python3
"""Call counts of one warm perfbench pass, parent against change.

    python3 scripts/count_calls.py --parent HEAD~1 --workload coth-sampled --seed 1

Run from the root of the checkout under test (the change).  The parent
revision is exported with `git archive` into --parent-dir (a fresh temporary
directory by default).  The workload's spec files for the seed (negative
controls included) are written once from this checkout's
`perfbench/workloads.py`.  Each side then, in a fresh interpreter on its own
source, verifies every spec once to fill its caches and once more under
cProfile, with the arguments perfbench uses.  Prints, per side, the calls of
the profiled pass as cProfile counts them (C builtins included) and the
calls of each function in COUNTED, or `-` where that side's source lacks
the function; for a cached function (one with `__wrapped__`) these are the
runs of the function it wraps, that is, cache misses.  A fixed seed gives
the same counts on every run.
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

# label -> the function's owner and attribute in the package's side
COUNTED = {
    "identically_zero": "scalars.ScalarExpr.identically_zero",
    "_content_form": "scalars._content_form",
    "_number_sums": "scalars._number_sums",
    "ScalarExpr.__mul__": "scalars.ScalarExpr.__mul__",
    "RationalFunction.__mul__": "scalars.RationalFunction.__mul__",
    "RationalFunction.sum": "scalars.RationalFunction.sum",
    "ScalarExpr.sum": "scalars.ScalarExpr.sum",
    "_sum_groups": "scalars._sum_groups",  # general-path sums computed: ScalarExpr.sum misses, products, derivatives
    "Poly.exact_div": "scalars.Poly.exact_div",
    "ScalarExpr.eval_numeric": "scalars.ScalarExpr.eval_numeric",
    "ScalarExpr.ray_limit": "scalars.ScalarExpr.ray_limit",
    "LieSuperalgebra.bracket_basis": "superalgebra.LieSuperalgebra.bracket_basis",
    "RootDatum.add_index": "superalgebra.RootDatum.add_index",
    "make_atom": "scalars.make_atom",
    "Fraction.__hash__": "fractions.Fraction.__hash__",
    "Fraction.__new__": "fractions.Fraction.__new__",
    "Fraction._mul": "fractions.Fraction._mul",
    "Fraction._add": "fractions.Fraction._add",
    "_build": "superalgebra._build",
    "root_decomposition": "superalgebra.root_decomposition",
    "casimir": "superalgebra.casimir",
    "build_parser": "cli.build_parser",
    "cross_bracket": "tensor.cross_bracket",
    "_leg_bracket": "tensor._leg_bracket",
    "_koszul": "tensor._koszul",
    "differential_dr": "verifier.differential_dr",
    "yb_bracket": "verifier.yb_bracket",
}

# runs in a fresh interpreter: argv[1] is a src/ directory, argv[2] a JSON list
# of `sdybe` argument lists, argv[3] the COUNTED table; prints the counts as JSON
DRIVER = """
import cProfile, contextlib, fractions, io, json, pstats, sys
sys.path.insert(0, sys.argv[1])
from sdybe import cli, scalars, superalgebra, tensor, verifier
jobs = json.load(open(sys.argv[2]))

def one_pass():
    for argv in jobs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:
                pass

one_pass()
profile = cProfile.Profile()
profile.runcall(one_pass)
stats = pstats.Stats(profile)
counts = {"calls": stats.total_calls}
for label, path in json.loads(sys.argv[3]).items():
    owner, *attrs = path.split(".")
    fn = {"cli": cli, "scalars": scalars, "superalgebra": superalgebra, "tensor": tensor, "verifier": verifier,
          "fractions": fractions}[owner]
    for attr in attrs:
        fn = getattr(fn, attr, None)
    if fn is None:  # not in this side's source
        counts[label] = None
        continue
    code = getattr(fn, "__wrapped__", fn).__code__  # a cached function: count its real runs
    entry = stats.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    counts[label] = entry[1] if entry else 0
print(json.dumps(counts))
"""


def count(checkout: str, jobs: list[list[str]], work: str) -> dict:
    path = os.path.join(work, "jobs.json")
    with open(path, "w") as fh:
        json.dump(jobs, fh)
    argv = [sys.executable, "-c", DRIVER, os.path.join(checkout, "src"), path, json.dumps(COUNTED)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--parent-dir", help="where to export the parent (default: a new temporary directory)")
    args = ap.parse_args(argv)

    parent_dir = args.parent_dir or tempfile.mkdtemp(prefix="count-parent-")
    commit = export_parent(args.parent, parent_dir)
    counts = {}
    with tempfile.TemporaryDirectory(prefix="count-calls-") as work:
        specs = workloads.generate(args.workload, args.seed, os.path.join(work, "specs"))
        jobs = [s.argv(args.seed, os.path.join(work, f"report-{k:02d}.json")) for k, s in enumerate(specs)]
        for side, checkout in (("parent", parent_dir), ("change", ROOT)):
            counts[side] = count(checkout, jobs, work)
    print(f"{args.workload} seed {args.seed}, one warm pass of {len(specs)} specs; parent {commit[:7]}")
    print(f"{'':28}{'parent':>12}{'change':>12}")
    for label in counts["parent"]:
        print(f"{label:28}" + "".join(f"{'-' if v is None else format(v, ','):>12}" for v in (counts["parent"][label], counts["change"][label])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
