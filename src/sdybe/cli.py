"""Command-line front end.

  sdybe algebra   --family {gl,sl} --m M --n N [--out PATH]
  sdybe construct --spec PATH [--at q1,q2,...] [--precision BITS] [--out PATH]
  sdybe verify    --spec PATH [--checks LIST] [--precision BITS] [--seed N]
                  [--out PATH]

Both --precision options take at least 64 bits.  Every `verify` verdict is
exact, so there it sets only the witness values of nonzero residuals.

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
from functools import cache

from . import __version__
from .rmatrix import parse_sizes, spec_from_json
from .scalars import MARGIN, MIN_PRECISION, PoleError
from .superalgebra import build_gl, build_sl, export_descriptor, root_decomposition
from .tensor import tensor_dump
from .verifier import ALL_CHECKS, PreconditionError, VerifyConfig, run_checks

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
    """(g, rd, spec, header) of a spec file, header the report's {spec_digest, algebra,
    tool_version}; None after printing the error of a bad spec."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        for key in ("algebra", "m", "n"):
            if key not in doc:
                raise ValueError(f"spec file is missing the {key!r} field")
        g = _build_algebra(doc["algebra"], *parse_sizes(doc))
        rd = root_decomposition(g)
        spec = spec_from_json(doc, g, rd)
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError and DegenerateFormError are ValueErrors
        print(f"error: bad spec: {exc}", file=sys.stderr)
        return None
    header = {
        "spec_digest": hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest(),
        "algebra": {"family": g.family, "m": g.m, "n": g.n},
        "tool_version": __version__,
    }
    return g, rd, spec, header


def _config(precision: int, seed: int = 0) -> VerifyConfig | None:
    """The numeric settings, or None after printing why they are refused."""
    try:
        return VerifyConfig(precision=precision, seed=seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_algebra(args) -> int:
    try:
        g = _build_algebra(args.family, args.m, args.n)
        rd = root_decomposition(g)
    except ValueError as exc:  # DegenerateFormError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(export_descriptor(g, rd), args.out)
    return 0


def cmd_construct(args) -> int:
    from .rmatrix import ValidationError, construct

    if _config(args.precision) is None or (loaded := _load_spec(args.spec)) is None:
        return 2
    g, rd, spec, doc = loaded
    try:
        r = construct(spec, g, rd)
    except ValidationError as exc:
        print(f"error: spec fails validation: {exc}", file=sys.stderr)
        _emit({"spec_digest": doc["spec_digest"], "validation": exc.report.as_dict()}, args.out)
        return 1
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
        doc["at"] = [str(v) for v in point]
        values = []
        try:
            # a rational cell and a coth cell alike hit a pole within MARGIN of a singular form
            for key in sorted(r.coeffs):
                coeff = r.coeffs[key]
                if coeff.is_rational():
                    values.append({"indices": list(key), "value": str(coeff.eval_exact(point, MARGIN))})
                else:
                    v = coeff.eval_numeric(point, precision=args.precision, margin=MARGIN)
                    values.append({"indices": list(key), "value": float(v)})
        except PoleError as exc:
            print(f"error: {exc.form} vanishes at the evaluation point", file=sys.stderr)
            doc["pole"] = {"indices": list(key), "form": exc.form}
            _emit(doc, args.out)
            return 1
        doc["values"] = values
    _emit(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    if (loaded := _load_spec(args.spec)) is None or (cfg := _config(args.precision, args.seed)) is None:
        return 2
    g, rd, spec, doc = loaded
    checks = tuple(c.strip() for c in args.checks.split(",")) if args.checks else None
    try:
        ok, reports, extras = run_checks(g, rd, spec, checks=checks, cfg=cfg)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc.update(config=cfg.as_dict(), checks=[rep.as_dict() for rep in reports], passed=ok)
    doc.update(extras)
    _emit(doc, args.out)
    for rep in reports:
        print(f"{rep.name}: {rep.status}", file=sys.stderr)
    return 0 if ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `sdybe` parser, built on first use and shared by every later `main` call."""
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
        "--precision", type=int, default=MIN_PRECISION, help=f"mantissa bits for coth values, at least {MIN_PRECISION} (default %(default)s)"
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
        "--precision", type=int, default=128, help=f"mantissa bits for witness values, at least {MIN_PRECISION} (default 128)"
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
