#!/usr/bin/env python3
"""Sweep the verification suite over the desk-scale algebras.

For each of sl(2), sl(3), gl(2|1) this runs the zero-coupling family, the
coupled family at several coupling constants, and the constant/limit checks,
then writes one JSON report per (algebra, spec) pair under --outdir and
prints a one-line summary per run.

    python3 scripts/run_suite.py --outdir reports --precision 128 --seed 0
"""

from __future__ import annotations

import argparse
import json
import time
from fractions import Fraction
from pathlib import Path

from sdybe.rmatrix import RMatrixSpec, TwoForm, spec_to_json
from sdybe.superalgebra import build_gl, build_sl, root_decomposition
from sdybe.verifier import VerifyConfig, run_checks

Q = Fraction


def algebras():
    yield "sl2", build_sl(2, 0)
    yield "sl3", build_sl(3, 0)
    yield "gl21", build_gl(2, 1)


def specs_for(g, rd):
    n = g.rank
    full = frozenset(range(len(rd)))
    plus = {i: 1 for i in rd.positive_indices()}
    yield "rational-full", RMatrixSpec(X=full, nu=[0] * n, D=TwoForm.zero(n))
    yield "rational-shifted", RMatrixSpec(X=full, nu=[Q(1, 3)] * n, D=TwoForm.zero(n))
    for eps in (Q(1), Q(1, 3)):
        yield f"coth-full-eps{eps.numerator}_{eps.denominator}", RMatrixSpec(
            X=full, nu=[0] * n, D=TwoForm.zero(n), epsilon=eps
        )
    yield "constant-plus", RMatrixSpec(
        X=frozenset(), nu=[0] * n, D=TwoForm.zero(n), epsilon=1, sign_choice=plus
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--precision", type=int, default=128)
    ap.add_argument("--points", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = VerifyConfig(precision=args.precision, points=args.points, seed=args.seed)

    failures = 0
    for alg_label, g in algebras():
        rd = root_decomposition(g)
        for spec_label, spec in specs_for(g, rd):
            start = time.monotonic()
            ok, reports, extras = run_checks(g, rd, spec, cfg=cfg)
            elapsed = time.monotonic() - start
            doc = {
                "algebra": {"family": g.family, "m": g.m, "n": g.n},
                "spec": spec_to_json(spec, g),
                "config": cfg.as_dict(),
                "checks": [rep.as_dict() for rep in reports],
                "passed": ok,
                **extras,
            }
            path = outdir / f"{alg_label}__{spec_label}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            summary = ", ".join(f"{rep.name}={rep.status}" for rep in reports)
            print(f"[{'ok' if ok else 'FAIL'}] {alg_label:5s} {spec_label:24s} ({elapsed:5.2f}s) {summary}")
            failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
