#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarised as a BENCH_*.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload limits-ray \\
        --seeds 1-10 --traced-seed 11 --out BENCH_6.json

Run from the root of the checkout under test (the change).  The parent
revision is exported with `git archive` into --parent-dir (a fresh
temporary directory by default), so each side runs `perfbench/run.py` from
its own checkout on its own source, for the run length BENCHMARK.json sets.
Pair k runs seed k; odd pairs run the parent first and even pairs the change
first.  With --traced-seed, each side adds one `--trace 1` run.

The output keeps the layout of BENCH_5.json: per workload a set of pairs
with, for every end-to-end metric, each side's runs, median and inclusive
quartiles, the pairs the change won strictly, the median ratio
(change / parent) and the parent's IQR.  An existing --out file is updated
in place: the new set is added after the named workload's earlier sets
when they have the same parent and run length (else it replaces them), and
the file is rewritten after every pair, so an interrupted run keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) as a list of ints."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export_parent(rev: str, dest: str) -> str:
    """Unpack `git archive rev` into dest; returns the full commit hash."""
    commit = subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"error: git archive {commit} failed")
    return commit


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its summary line plus the calibration record it wrote."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = os.path.join(checkout, ".perfbench", f"run-{workload}-seed{seed}-trace{trace}.json")
    with open(record) as fh:
        summary["calibration_s"] = json.load(fh)["calibration_s"]
    return summary


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarise(seeds: list[int], parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """The BENCH_*.json set for completed pairs."""
    out: dict = {}
    for spec in metrics:
        name = spec["name"]
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        lower = spec["better"] == "lower"
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        ps, cs = quartiles(p), quartiles(c)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": ps,
            "change": cs,
            "change_wins": f"{wins}/{len(p)}",
            "median_ratio": cs["median"] / ps["median"] if ps["median"] else None,
            "parent_iqr": ps["q3"] - ps["q1"],
        }
    ratios = [
        statistics.median(c["calibration_s"]) / statistics.median(p["calibration_s"])
        for p, c in zip(parent, change)
    ]
    return {
        "pairs": seeds[: len(parent)],
        "end_to_end": out,
        "calibration_ratio": statistics.median(ratios),
        "correct": {"parent": all(r["correct"] for r in parent), "change": all(r["correct"] for r in change)},
        "failed": {"parent": sum(r["failed"] for r in parent), "change": sum(r["failed"] for r in change)},
        "attempted": {
            "parent": sum(r["attempted"] for r in parent),
            "change": sum(r["attempted"] for r in change),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="one pair per seed, e.g. 1-10 or 1,4,7")
    ap.add_argument("--traced-seed", type=int, help="also one --trace 1 run per side with this seed")
    ap.add_argument("--parent-dir", help="where to export the parent (default: a new temporary directory)")
    ap.add_argument("--out", required=True, help="BENCH_*.json to create or update")
    ap.add_argument("--method", help="text for the file's method field")
    ap.add_argument("--machine", default=f"{os.cpu_count()}-core machine, CPython {platform.python_version()}")
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    parent_dir = args.parent_dir or tempfile.mkdtemp(prefix="bench-parent-")
    commit = export_parent(args.parent, parent_dir)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    doc: dict = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["method"] = args.method or doc.get("method") or (
        "Alternating pairs of `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` "
        "(scripts/bench_pairs.py): pair k runs seed k, odd pairs run the parent first; medians and "
        "inclusive quartiles over each side's runs; change_wins counts pairs the change won strictly."
    )
    doc["machine"] = args.machine
    entry = doc.setdefault("workloads", {}).get(args.workload, {})
    if doc.get("parent_commit") != commit[:7] or entry.get("seconds") != seconds:
        entry = {"seconds": seconds}
    doc["parent_commit"] = commit[:7]
    doc["workloads"][args.workload] = entry
    earlier = entry.get("sets", [])

    def save():
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    sides = {"parent": parent_dir, "change": ROOT}
    runs: dict = {"parent": [], "change": []}
    for k, seed in enumerate(seeds, start=1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, seconds, 0))
        entry["sets"] = earlier + [summarise(seeds, runs["parent"], runs["change"], metrics)]
        save()
        p, c = (runs[side][-1]["metrics"]["wall_s"]["value"] for side in ("parent", "change"))
        wins = entry["sets"][-1]["end_to_end"]["wall_s"]["change_wins"]
        print(f"{args.workload} pair {k} (seed {seed}): wall_s parent {p:.3f}, change {c:.3f}; wins {wins}",
              file=sys.stderr)
    if args.traced_seed is not None:
        traced: dict = {}
        for side in ("parent", "change"):
            run = run_once(sides[side], args.workload, args.traced_seed, seconds, 1)
            traced[side] = {name: m["value"] for name, m in run["metrics"].items()}
            traced[f"{side}_correct"] = run["correct"]
        entry["traced"] = traced
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
