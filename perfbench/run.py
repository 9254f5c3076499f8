#!/usr/bin/env python3
"""Benchmark of `sdybe verify` on seeded ladders of spec files.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from
./src).  One process, one client, closed loop: `sdybe.cli.main(["verify",
...])` is called in-process on one spec after another, and every report is
checked against the verdicts expected for its spec.  The run repeats passes
over the workload's specs until --seconds is spent.  The last line of
stdout is a JSON object {correct, attempted, failed, metrics}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  See README.md
in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_package():
    """Import sdybe from the checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "sdybe", "__init__.py")):
        raise SystemExit(f"error: no package source at {os.path.relpath(SRC)}; run from a source checkout")
    sys.path.insert(0, SRC)
    import sdybe.cli

    if not os.path.abspath(sdybe.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: sdybe was imported from {sdybe.cli.__file__}, not from {SRC}")
    return sdybe.cli


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop; a record of machine speed drift."""
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t


def setup_probe(workload: str, seed: int, outdir: str):
    """Body of one fresh set-up process: import the package, write the specs."""
    t = time.perf_counter()
    import_package()
    workloads.generate(workload, seed, outdir)
    print(json.dumps({"setup_s": time.perf_counter() - t}))


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload]
        argv += ["--seed", str(seed), "--seconds", "1", "--trace", "0"]
        argv += ["--outdir", os.path.join(WORK, f"setup-{k}")]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def verify(cli, spec: workloads.Spec, seed: int, out: str):
    """One `sdybe verify` call: (exit code, report or None, crash text or None)."""
    if os.path.exists(out):
        os.remove(out)
    crash = None
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(spec.argv(seed, out))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed verify, recorded with its traceback
            code, crash = None, traceback.format_exc()
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
    return code, report, crash


def run_pass(cli, specs, seed: int, out: str, problems: list, verdicts: list, tracer=None) -> list[float]:
    """Verify every spec once; returns per-spec latencies.

    Mismatches with the expected verdicts are appended to problems, and the
    check statuses of family members to verdicts.  A tracer, if given, is
    installed around family members only, so the negative controls (which
    reach the sampler by design) do not show in the per-layer numbers.
    """
    latencies = []
    for k, spec in enumerate(specs):
        traced = tracer is not None and not spec.control
        if traced:
            tracer.request = k
            tracer.install()
        t = time.perf_counter()
        try:
            code, report, crash = verify(cli, spec, seed, out)
        finally:
            latencies.append(time.perf_counter() - t)
            if traced:
                tracer.remove()
        found = workloads.mismatches(spec, code, report)
        if crash:
            found.append(crash)
        if found:
            problems.append({"spec": spec.name, "problems": found})
        if report and not spec.control:
            verdicts.extend(c["status"] for c in report.get("checks", []))
    return latencies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--outdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.outdir)
        return 0

    cli = import_package()
    os.makedirs(WORK, exist_ok=True)
    setup = measure_setup(args.workload, args.seed)
    specs = workloads.generate(args.workload, args.seed, os.path.join(WORK, f"specs-{args.workload}"))
    out = os.path.join(WORK, "report.json")
    top = next(k for k, s in enumerate(specs) if s.top)
    ladder = [k for k, s in enumerate(specs) if not s.control]

    problems: list = []
    verdicts: list = []
    passes: list[list[float]] = []  # untraced per-spec latencies, one list per pass
    traced: list[dict] = []
    drift: list[float] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        drift.append(calibration_s())
        t = time.perf_counter()
        if args.trace and len(traced) < len(passes):
            tracers.append(Tracer())
            lat = run_pass(cli, specs, args.seed, out, problems, verdicts, tracers[-1])
            metrics = tracers[-1].layer_metrics()
            metrics["wall_s"] = sum(lat)
            traced.append(metrics)
        else:
            passes.append(run_pass(cli, specs, args.seed, out, problems, verdicts))
        longest = max(longest, time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if elapsed + longest > args.seconds and (not args.trace or traced):
            break
    drift.append(calibration_s())
    attempted = len(specs) * (len(passes) + len(traced))
    failed = len(problems)

    walls = [sum(p) for p in passes]
    passing = [v for v in verdicts if v in ("exact-zero", "numeric-zero")]
    if args.trace:
        metrics = {}
        for spec_entry in load_benchmark()["per_layer"]:
            name = spec_entry["name"]
            if name == "trace.overhead_s":
                value = statistics.median(m["wall_s"] for m in traced) - statistics.median(walls)
            else:
                value = statistics.median(m[name] for m in traced)
            metrics[name] = {"value": value, "unit": spec_entry["unit"]}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "spec_s.p50": statistics.median(p[k] for p in passes for k in ladder),
            "top_rung_s": statistics.median(p[top] for p in passes),
            "exact_verdict_frac": passing.count("exact-zero") / len(passing),
            "match_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "specs": [s.name for s in specs],
        "setup_s": setup,
        "pass_latencies_s": passes,
        "spec_samples": len(ladder) * len(passes),
        "traced_passes": traced,
        "calibration_s": drift,
        "problems": problems,
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracers:
        with open(os.path.join(WORK, f"spans-{tag}.json"), "w") as fh:
            json.dump([t.dump() for t in tracers], fh)
    for p in problems:
        print(f"MISMATCH {p['spec']}: {'; '.join(p['problems'])}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, {len(traced)} traced, "
        f"{len(ladder) * len(passes)} ladder spec samples, calibration median "
        f"{statistics.median(drift):.4f}s (min {min(drift):.4f}, max {max(drift):.4f})",
        file=sys.stderr,
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
