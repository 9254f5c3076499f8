"""Command-line front end.

  sdybe algebra   --family {gl,sl} --m M --n N [--out PATH]
  sdybe construct --spec PATH [--at q1,q2,...] [--precision BITS] [--out PATH]
  sdybe verify    --spec PATH [--checks LIST] [--precision BITS] [--seed N]
                  [--out PATH]

Both --precision options take at least 64 bits.

Exit codes: 0 success / all selected checks pass, 1 check failure or pole,
2 usage or spec errors.  Reports are JSON and are written even on failure;
a fixed seed makes them byte-identical across runs apart from timing fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .rmatrix import spec_from_json, validate
from .scalars import PoleError
from .superalgebra import (
    DegenerateFormError,
    build_gl,
    build_sl,
    export_descriptor,
    root_decomposition,
)
from .tensor import tensor_dump
from .verifier import ALL_CHECKS, MIN_PRECISION, VerifyConfig, limits_applicable, run_checks

Q = Fraction


def _emit(doc: dict, out: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _build_algebra(family: str, m: int, n: int):
    if family == "gl":
        return build_gl(m, n)
    if family == "sl":
        return build_sl(m, n)
    raise ValueError(f"unknown family {family!r}")


def _load_spec(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("algebra", "m", "n"):
        if key not in doc:
            raise ValueError(f"spec file is missing the {key!r} field")
    g = _build_algebra(doc["algebra"], int(doc["m"]), int(doc["n"]))
    rd = root_decomposition(g)
    spec = spec_from_json(doc, g, rd)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return doc, g, rd, spec, digest


def cmd_algebra(args) -> int:
    try:
        g = _build_algebra(args.family, args.m, args.n)
        rd = root_decomposition(g)
    except (DegenerateFormError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(export_descriptor(g, rd), args.out)
    return 0


def cmd_construct(args) -> int:
    from .rmatrix import ValidationError, construct

    if args.precision < MIN_PRECISION:
        print(f"error: precision must be at least {MIN_PRECISION} bits, got {args.precision}", file=sys.stderr)
        return 2
    try:
        _, g, rd, spec, digest = _load_spec(args.spec)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, DegenerateFormError) as exc:
        print(f"error: bad spec: {exc}", file=sys.stderr)
        return 2
    try:
        r = construct(spec, g, rd)
    except ValidationError as exc:
        print(f"error: spec fails validation: {exc}", file=sys.stderr)
        _emit({"spec_digest": digest, "validation": exc.report.as_dict()}, args.out)
        return 1
    doc = {
        "spec_digest": digest,
        "algebra": {"family": g.family, "m": g.m, "n": g.n},
        "tool_version": __version__,
    }
    if args.at is None:
        doc["tensor"] = tensor_dump(r)
    else:
        try:
            point = [Q(v) for v in args.at.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: --at expects exact rationals: {exc}", file=sys.stderr)
            return 2
        if len(point) != g.rank:
            print(f"error: --at needs {g.rank} coordinates", file=sys.stderr)
            return 2
        values = []
        try:
            for key in sorted(r.coeffs):
                coeff = r.coeffs[key]
                if coeff.is_rational():
                    values.append({"indices": list(key), "value": str(coeff.eval_exact(point))})
                else:
                    v = coeff.eval_numeric(point, precision=args.precision)
                    values.append({"indices": list(key), "value": float(v)})
        except PoleError as exc:
            print(f"error: {exc.form} vanishes at the evaluation point", file=sys.stderr)
            return 1
        doc["at"] = [str(v) for v in point]
        doc["values"] = values
    _emit(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        raw, g, rd, spec, digest = _load_spec(args.spec)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, DegenerateFormError) as exc:
        print(f"error: bad spec: {exc}", file=sys.stderr)
        return 2
    checks = tuple(c.strip() for c in args.checks.split(",")) if args.checks else None
    bad = [c for c in checks or () if c not in ALL_CHECKS]
    if bad:
        print(f"error: unknown checks {bad}; available: {', '.join(ALL_CHECKS)}", file=sys.stderr)
        return 2
    if checks and "limits" in checks and not limits_applicable(spec, rd):
        print("error: limits check needs eps != 0, X = all, nu = 0, D = 0", file=sys.stderr)
        return 2
    try:
        cfg = VerifyConfig(precision=args.precision, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok, reports, extras = run_checks(g, rd, spec, checks=checks, cfg=cfg)
    doc = {
        "spec_digest": digest,
        "algebra": {"family": g.family, "m": g.m, "n": g.n},
        "tool_version": __version__,
        "config": cfg.as_dict(),
        "checks": [rep.as_dict() for rep in reports],
        "passed": ok,
    }
    doc.update(extras)
    _emit(doc, args.out)
    for rep in reports:
        print(f"{rep.name}: {rep.status}", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdybe",
        description="Construct and verify zero-weight super dynamical r-matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="emit an algebra descriptor with its root ordering")
    p_alg.add_argument("--family", required=True, choices=("gl", "sl"))
    p_alg.add_argument("--m", type=int, required=True)
    p_alg.add_argument("--n", type=int, required=True)
    p_alg.add_argument("--out", help="write JSON here instead of stdout")
    p_alg.set_defaults(func=cmd_algebra)

    p_con = sub.add_parser("construct", help="assemble the r-matrix of a spec file")
    p_con.add_argument("--spec", required=True, help="path to a JSON r-matrix spec")
    p_con.add_argument("--at", help="evaluate at lambda = q1,q2,... (exact rationals)")
    p_con.add_argument(
        "--precision", type=int, default=64, help="mantissa bits for coth values, at least 64 (default 64)"
    )
    p_con.add_argument("--out", help="write JSON here instead of stdout")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="run residual checks against a spec file")
    p_ver.add_argument("--spec", required=True, help="path to a JSON r-matrix spec")
    p_ver.add_argument(
        "--checks",
        help=f"comma-separated subset of: {', '.join(ALL_CHECKS)} (default: all applicable)",
    )
    p_ver.add_argument(
        "--precision", type=int, default=128, help="mantissa bits for witnesses and limits, at least 64 (default 128)"
    )
    p_ver.add_argument("--seed", type=int, default=0, help="seed for all lattice sampling (default 0)")
    p_ver.add_argument("--out", help="write the report here instead of stdout")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
