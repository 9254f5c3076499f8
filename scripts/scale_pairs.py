#!/usr/bin/env python3
"""Alternating parent/change pairs of one `run_checks` per fresh process on large algebras.

    python3 scripts/scale_pairs.py --parent HEAD~1 --epsilon 0 --out BENCH_24.json

Run from the root of the checkout under test (the change).  The parent
revision is exported with `git archive` into --parent-dir (a fresh temporary
directory by default).  For each algebra of --algebras, pair k starts one
fresh interpreter per side on that side's source, odd pairs with the parent
first.  Each builds the algebra and its root datum, then times one
`run_checks` with the default checks on X = all, eps = --epsilon (1/3, the
ROADMAP baseline, by default; 0 gives the rational family),
nu_k = k/(2k+1) and D = 0.  A run records the `run_checks` wall time, the
lemma report's `seconds`, the statuses and the peak RSS of its process.
Each algebra gets the inclusive quartiles of both sides' `run_checks`
times, the median ratio, the gap of the medians beside the parent's
interquartile range, and the pairs the change won.  The pairs go under
`run_checks_pairs` (eps 1/3) or `run_checks_pairs_eps_<eps>` in --out, which
may already hold `bench_pairs.py` sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from bench_pairs import export_parent  # noqa: E402

# runs in a fresh interpreter: argv[1] is a src/ directory, argv[2..5] family, m, n, eps; prints one JSON line
DRIVER = """
import json, resource, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from sdybe.rmatrix import RMatrixSpec, TwoForm
from sdybe.superalgebra import build_gl, build_sl, root_decomposition
from sdybe.verifier import run_checks
family, m, n, eps = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), Fraction(sys.argv[5])
g = (build_gl if family == "gl" else build_sl)(m, n)
rd = root_decomposition(g)
nu = [Fraction(k, 2 * k + 1) for k in range(1, g.rank + 1)]
spec = RMatrixSpec(X=frozenset(range(len(rd))), nu=nu, D=TwoForm.zero(g.rank), epsilon=eps)
start = time.perf_counter()
ok, reports, _ = run_checks(g, rd, spec)
seconds = time.perf_counter() - start
print(json.dumps({
    "run_checks_s": seconds,
    "lemma_s": next(rep.seconds for rep in reports if rep.name == "lemma"),
    "ok": ok,
    "statuses": {rep.name: rep.status for rep in reports},
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run_once(checkout: str, family: str, m: int, n: int, eps: str) -> dict:
    argv = [sys.executable, "-c", DRIVER, os.path.join(checkout, "src"), family, str(m), str(n), eps]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--algebras", default="gl7,7;gl10,10", help="';'-separated family+m,n, e.g. gl7,7;sl14,0")
    ap.add_argument("--pairs", type=int, default=5, help="pairs per algebra, at least 2 (default 5)")
    ap.add_argument("--epsilon", type=Fraction, default=Fraction(1, 3), help="eps of every run, a rational (default 1/3)")
    ap.add_argument("--parent-dir", help="where to export the parent (default: a new temporary directory)")
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    parent_dir = args.parent_dir or tempfile.mkdtemp(prefix="scale-parent-")
    commit = export_parent(args.parent, parent_dir)
    doc: dict = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    eps = str(args.epsilon)
    name = "run_checks_pairs" if eps == "1/3" else f"run_checks_pairs_eps_{eps}"
    table = doc[name] = {
        "method": "scripts/scale_pairs.py: one run_checks per fresh process, default checks, X = all, "
        f"eps = {eps}, nu_k = k/(2k+1), D = 0; odd pairs run the parent first",
        "parent_commit": commit[:7],
    }
    sides = {"parent": parent_dir, "change": ROOT}
    for label in args.algebras.split(";"):
        family, m, n = label[:2], *map(int, label[2:].split(","))
        runs: dict = {"parent": [], "change": []}
        for k in range(1, args.pairs + 1):
            for side in ("parent", "change") if k % 2 else ("change", "parent"):
                runs[side].append(run_once(sides[side], family, m, n, eps))
            print(f"{family}({m}|{n}) pair {k}: " + ", ".join(
                f"{side} {runs[side][-1]['run_checks_s']:.3f} s" for side in sides), file=sys.stderr)
        quartiles = {side: statistics.quantiles([run["run_checks_s"] for run in runs[side]], n=4, method="inclusive")
                     for side in sides}
        wins = sum(c["run_checks_s"] < p["run_checks_s"] for p, c in zip(runs["parent"], runs["change"]))
        table[f"{family}({m}|{n})"] = entry = {
            **runs,
            "quartiles_s": quartiles,
            "median_ratio": quartiles["change"][1] / quartiles["parent"][1],
            "median_gap_s": quartiles["parent"][1] - quartiles["change"][1],
            "parent_iqr_s": quartiles["parent"][2] - quartiles["parent"][0],
            "change_wins": f"{wins}/{args.pairs}",
        }
        print(f"{family}({m}|{n}) eps {eps}: median {quartiles['parent'][1]:.3f} -> {quartiles['change'][1]:.3f} s "
              f"({entry['median_ratio']:.3f}x), gap {entry['median_gap_s']:.3f} s, parent IQR "
              f"{entry['parent_iqr_s']:.3f} s, change won {entry['change_wins']}")
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
