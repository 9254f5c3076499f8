"""Residuals of the defining equations and their zero decisions.

Checks:

  cdybe        Alt_s(dr) + [r12,r13] + [r12,r23] + [r13,r23]
  unitarity    r + T_s(r) - eps * Omega          (decided exactly)
  zero-weight  [x (x) 1 + 1 (x) x, r] per Cartan basis vector x (exact)
  mdybe        Alt_s(ds) + [[s,s]] + (eps^2/4) [[Omega,Omega]]
  lemma        cdybe(r) and mdybe(r - (eps/2) Omega) agree, and the six-term
               s/Omega cross bracket vanishes exactly
  limits       the X = Delta coth family degenerates onto the two constant
               solutions along a dominant ray as t -> +-infinity

Zero decision policy: every residual is a dict of cells, and `decide_cells`
decides each cell exactly and completely (`ScalarExpr.identically_zero`,
which applies the coth addition law), so a residual is exact-zero or nonzero.
A nonzero residual is evaluated at seeded margin-respecting lattice points
only to give it its witness {indices, point, value}.  Only `limits`, a
statement about values along a ray, is decided numerically (numeric-zero).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .rmatrix import RMatrixSpec, functional_equation_residual, ode_residual, shift_to_s, validate
from .scalars import largest_value, sample_points, singular_forms
from .superalgebra import LieSuperalgebra, RootDatum, solve_linear
from .tensor import (
    Tensor2,
    Tensor3,
    accumulate,
    ad_action,
    alt_s,
    cross_bracket,
    super_twist,
    yb_bracket,
)

Q = Fraction


class PreconditionError(ValueError):
    """A check was invoked on input that violates its stated precondition."""


# the witness of a nonzero residual is searched at POINTS seeded points of
# [-LATTICE, LATTICE]^rank at least MARGIN away from every singular form
POINTS = 20
MARGIN = 1e-6
LATTICE = 10
# the limits bound 1e-15 needs at least this many mantissa bits to be resolved
MIN_PRECISION = 64


@dataclass
class VerifyConfig:
    """Numeric settings for witnesses and the limits check.

    Residual verdicts are exact; the seed fixes the lattice points that
    locate the witness of a nonzero residual, so reports are reproducible.
    precision feeds the witness values and `limits`.
    """

    precision: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.precision < MIN_PRECISION:
            raise ValueError(f"precision must be at least {MIN_PRECISION} bits, got {self.precision}")

    def as_dict(self) -> dict:
        return {"precision_bits": self.precision, "seed": self.seed}


@dataclass
class ResidualReport:
    """Outcome of one residual check.

    status 'exact-zero' is a symbolic proof.  A nonzero residual carries the
    witness {indices, point, value} of `decide_cells` (max_abs records its
    |value|); validate, lemma and limits carry their own.  'numeric-zero'
    comes only from `limits`: every deviation stayed below its bound
    `tolerance` (max_abs records the last one).
    """

    name: str
    status: str
    max_abs: float | None = None
    tolerance: float | None = None
    points_used: int = 0
    witness: dict | None = None
    seconds: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def is_zero(self) -> bool:
        return self.status in ("exact-zero", "numeric-zero")

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "max_abs": self.max_abs,
            "tolerance": self.tolerance,
            "points_used": self.points_used,
            "witness": self.witness,
            "seconds": round(self.seconds, 6),
        }
        if self.details:
            out["details"] = self.details
        return out


def decide_cells(cells: dict, name: str, cfg: VerifyConfig | None = None) -> ResidualReport:
    """Exact zero decision for every cell of a residual.

    A nonzero residual gets a witness: its nonzero cells are evaluated at the
    seeded lattice points, which avoid the singular forms of every cell, and
    the cell and point of largest |value| win.
    """
    cfg = cfg or VerifyConfig()
    start = time.monotonic()
    nonzero = {k: c for k, c in cells.items() if not c.identically_zero()}
    if not nonzero:
        return ResidualReport(name=name, status="exact-zero", seconds=time.monotonic() - start)
    nvars = next(iter(nonzero.values())).nvars
    avoid = singular_forms(cells.values())
    pts = sample_points(nvars, POINTS, seed=cfg.seed, avoid=avoid, margin=MARGIN, lattice=LATTICE)
    key, pt, v = largest_value(nonzero, pts, precision=cfg.precision, margin=MARGIN)
    return ResidualReport(
        name=name,
        status="nonzero",
        max_abs=float(abs(v)),
        points_used=len(pts),
        witness={"indices": list(key), "point": list(pt), "value": float(v)},
        seconds=time.monotonic() - start,
    )


def decide_tensor_zero(t: Tensor2 | Tensor3, name: str, cfg: VerifyConfig | None = None) -> ResidualReport:
    """`decide_cells` on the cells of a tensor."""
    return decide_cells(t.coeffs, name, cfg)


# ---------------------------------------------------------------------------
# the residuals


def differential_dr(r: Tensor2) -> Tensor3:
    """dr = sum_i x_i (x) dr/dx_i, first leg in the Cartan."""
    g = r.g
    out: dict = {}
    for coord, c_idx in enumerate(g.cartan):
        for (a, b), coeff in r.coeffs.items():
            d = coeff.differentiate(coord)
            if not d.symbolically_zero():
                accumulate(out, (c_idx, a, b), d)
    return Tensor3(g, out, _prune=True)


def cdybe_lhs(r: Tensor2) -> Tensor3:
    return alt_s(differential_dr(r)) + yb_bracket(r)


def cdybe_residual(r: Tensor2, cfg: VerifyConfig | None = None) -> tuple[Tensor3, ResidualReport]:
    lhs = cdybe_lhs(r)
    return lhs, decide_tensor_zero(lhs, "cdybe", cfg)


def unitarity_residual(
    r: Tensor2, eps, omega: Tensor2, cfg: VerifyConfig | None = None
) -> tuple[Tensor2, ResidualReport]:
    res = r + super_twist(r) - omega.scale(Q(eps))
    return res, decide_tensor_zero(res, "unitarity", cfg)


def zero_weight_residual(r: Tensor2 | Tensor3, cfg: VerifyConfig | None = None) -> ResidualReport:
    """[x (x) 1 + 1 (x) x, r] for every Cartan basis vector x, keyed (x, *cell)."""
    cells = {(c, *k): v for c in r.g.cartan for k, v in ad_action({c: Q(1)}, r).coeffs.items()}
    return decide_cells(cells, "zero-weight", cfg)


def mdybe_lhs(s: Tensor2, eps, omega: Tensor2) -> Tensor3:
    eps = Q(eps)
    return alt_s(differential_dr(s)) + yb_bracket(s) + yb_bracket(omega).scale(eps * eps / 4)


def mdybe_residual(s: Tensor2, eps, omega: Tensor2, cfg: VerifyConfig | None = None) -> tuple[Tensor3, ResidualReport]:
    lhs = mdybe_lhs(s, eps, omega)
    return lhs, decide_tensor_zero(lhs, "mdybe", cfg)


def lemma_consistency_check(
    r: Tensor2,
    eps,
    omega: Tensor2,
    cfg: VerifyConfig | None = None,
    *,
    s: Tensor2 | None = None,
    unitarity: ResidualReport | None = None,
    cdybe: ResidualReport | None = None,
    mdybe: ResidualReport | None = None,
) -> ResidualReport:
    """Both sides of the equivalence must agree, and the six-term cross
    bracket of the shifted tensor with the Casimir must vanish exactly.

    run_checks passes s and the unitarity, cdybe and mdybe reports it has
    already built, so only the cross bracket is new work here; whatever is
    not passed in is computed.
    """
    start = time.monotonic()
    unit = unitarity if unitarity is not None else unitarity_residual(r, eps, omega, cfg)[1]
    if not unit.is_zero:
        raise PreconditionError("lemma check requires generalized unitarity")
    s = s if s is not None else shift_to_s(r, eps, omega)
    cd = cdybe if cdybe is not None else cdybe_residual(r, cfg)[1]
    md = mdybe if mdybe is not None else mdybe_residual(s, eps, omega, cfg)[1]
    cross_rep = decide_tensor_zero(cross_bracket(s, omega), "lemma-cross-bracket", cfg)
    consistent = cd.is_zero == md.is_zero
    ok = consistent and cross_rep.status == "exact-zero"
    return ResidualReport(
        name="lemma",
        status="exact-zero" if ok else "nonzero",
        seconds=time.monotonic() - start,
        witness=None if ok else {"cdybe": cd.as_dict(), "mdybe": md.as_dict(), "cross": cross_rep.as_dict()},
        details={
            "cdybe_status": cd.status,
            "mdybe_status": md.status,
            "cross_bracket_status": cross_rep.status,
            "consistent": consistent,
        },
    )


# ---------------------------------------------------------------------------
# coefficient-identity checks (ODE, functional equation)


def ode_check(spec: RMatrixSpec, rd: RootDatum, cfg: VerifyConfig | None = None) -> ResidualReport:
    """d(phi_a) + A_a (phi_a^2 - eps^2/4) d(h_a) = 0 for every root, exactly.

    Cells are keyed (root index, coordinate).
    """
    indices = range(len(rd)) if spec.epsilon != 0 else sorted(spec.X)
    cells = {(i, j): res for i in indices for j, res in enumerate(ode_residual(i, spec, rd))}
    return decide_cells(cells, "phi-ode", cfg)


def functional_equation_check(
    spec: RMatrixSpec, rd: RootDatum, cfg: VerifyConfig | None = None
) -> ResidualReport:
    """The pairwise phi relation over every root pair with a + b a root, exactly.

    Cells are keyed (alpha index, beta index).
    """
    cells = {}
    for i in range(len(rd)):
        for j in range(len(rd)):
            res = functional_equation_residual(i, j, spec, rd)
            if res is not None:
                cells[(i, j)] = res
    return decide_cells(cells, "functional-equation", cfg)


# ---------------------------------------------------------------------------
# limit degeneration


def dominant_vector(rd: RootDatum) -> tuple[int, ...]:
    """A lattice point with (a, v) >= 1 for every positive root a.

    Solves (a_k, v) = 1 over Q for the simple roots a_k (the positive roots
    that are no sum of two positive roots).  On gl the centre leaves one
    direction free; it meets every Cartan coordinate, so pinning the leading
    coordinate to 0 fixes it.  Every positive root is a sum of simple roots,
    so scaling v to clear its denominators keeps (a, v) >= 1.
    """
    n = rd.g.rank
    pos = [rd.roots[i].functional for i in rd.positive_indices()]
    sums = {tuple(x + y for x, y in zip(a, b)) for a in pos for b in pos}
    rows = [rd.coroot_coords(i) for i, a in zip(rd.positive_indices(), pos) if a not in sums]
    rhs = [Q(1)] * len(rows)
    for k in range(n - len(rows)):
        rows.append([Q(int(j == k)) for j in range(n)])
        rhs.append(Q(0))
    v = solve_linear(rows, rhs)
    scale = math.lcm(*(x.denominator for x in v))
    return tuple(int(x * scale) for x in v)


def limits_applicable(spec: RMatrixSpec, rd: RootDatum) -> bool:
    """The limits check covers the X = all coth family with nu = 0 and D = 0."""
    return (
        spec.epsilon != 0
        and spec.X == frozenset(range(len(rd)))
        and all(v == 0 for v in spec.nu)
        and spec.D.is_zero()
    )


def limit_behavior_check(
    spec: RMatrixSpec,
    g: LieSuperalgebra,
    rd: RootDatum,
    cfg: VerifyConfig | None = None,
    *,
    scales: tuple = (10, 20, 40),
    final_tol: float = 1e-15,
) -> ResidualReport:
    """Coefficient-wise limits of the X = Delta family along a dominant ray.

    r(t v) must approach the twisted constant solution as t -> +infinity and
    the untwisted one as t -> -infinity, with geometrically shrinking error.
    The scales are measured in units of 1/eps, so the decay regime matched by
    final_tol is the same for every coupling constant.
    """
    from .rmatrix import constant_example, construct

    cfg = cfg or VerifyConfig()
    start = time.monotonic()
    if not limits_applicable(spec, rd):
        raise PreconditionError("limit check needs eps != 0, X = all roots, nu = 0 and D = 0")
    scales = tuple(Q(t) / abs(spec.epsilon) for t in scales)

    r = construct(spec, g, rd)
    v = dominant_vector(rd)
    targets = {
        1: constant_example(g, rd, spec.epsilon, which="Tsr"),
        -1: constant_example(g, rd, spec.epsilon, which="r"),
    }
    devs: dict[int, list[float]] = {1: [], -1: []}
    for direction in (1, -1):
        target_vals = {
            k: c.eval_numeric((0,) * g.rank, precision=cfg.precision)
            for k, c in targets[direction].coeffs.items()
        }
        for t in scales:
            pt = tuple(direction * t * x for x in v)
            vals = r.evaluate(pt, precision=cfg.precision, margin=MARGIN)
            keys = set(vals) | set(target_vals)
            dev = 0.0
            for k in keys:
                a = vals.get(k, 0)
                b = target_vals.get(k, 0)
                dev = max(dev, float(abs(a - b)))
            devs[direction].append(dev)

    monotone = all(d[i + 1] <= d[i] for d in devs.values() for i in range(len(d) - 1))
    converged = all(d[-1] < final_tol for d in devs.values())
    ok = monotone and converged
    return ResidualReport(
        name="limits",
        status="numeric-zero" if ok else "nonzero",
        max_abs=max(d[-1] for d in devs.values()),
        tolerance=final_tol,
        points_used=len(scales) * 2,
        witness=None if ok else {"deviations_positive": devs[1], "deviations_negative": devs[-1]},
        seconds=time.monotonic() - start,
        details={
            "dominant_vector": list(v),
            "scales": [str(t) for t in scales],
            "deviation_to_twisted_constant": devs[1],
            "deviation_to_constant": devs[-1],
        },
    )


# ---------------------------------------------------------------------------
# orchestration

ALL_CHECKS = ("validate", "unitarity", "zero-weight", "cdybe", "mdybe", "lemma", "limits")


def run_checks(
    g: LieSuperalgebra,
    rd: RootDatum,
    spec: RMatrixSpec,
    checks: tuple | None = None,
    cfg: VerifyConfig | None = None,
) -> tuple[bool, list[ResidualReport], dict]:
    """Run the selected residual checks; returns (all passed, reports, extras).

    checks defaults to every check that applies to the spec: all of them,
    less `limits` where `limits_applicable` is false.
    """
    # imported at call time: the per-layer benchmark wraps these names on
    # their own modules
    from .rmatrix import construct
    from .superalgebra import casimir

    if checks is None:
        checks = tuple(c for c in ALL_CHECKS if c != "limits" or limits_applicable(spec, rd))
    reports: list[ResidualReport] = []
    extras: dict = {}

    vrep = validate(spec, g, rd)
    extras["validation"] = vrep.as_dict()
    if "validate" in checks:
        reports.append(
            ResidualReport(
                name="validate",
                status="exact-zero" if vrep.ok else "nonzero",
                witness=None if vrep.ok else {"failures": vrep.failures},
            )
        )
    if not vrep.ok:
        return False, reports, extras

    needs_r = any(c in checks for c in ("unitarity", "zero-weight", "cdybe", "mdybe", "lemma"))
    if needs_r:
        # each residual is built and decided once; the lemma reuses them
        eps = spec.epsilon
        lemma = "lemma" in checks
        omega = casimir(g, rd)
        r = construct(spec, g, rd, omega=omega)
        unit = unitarity_residual(r, eps, omega, cfg)[1] if lemma or "unitarity" in checks else None
        cd = cdybe_residual(r, cfg)[1] if lemma or "cdybe" in checks else None
        s = shift_to_s(r, eps, omega) if lemma or "mdybe" in checks else None
        md = mdybe_residual(s, eps, omega, cfg)[1] if s is not None else None
        if "unitarity" in checks:
            reports.append(unit)
        if "zero-weight" in checks:
            reports.append(zero_weight_residual(r, cfg))
        if "cdybe" in checks:
            reports.append(cd)
        if "mdybe" in checks:
            reports.append(md)
        if lemma:
            reports.append(
                lemma_consistency_check(r, eps, omega, cfg, s=s, unitarity=unit, cdybe=cd, mdybe=md)
            )
    if "limits" in checks:
        reports.append(limit_behavior_check(spec, g, rd, cfg))

    ok = all(rep.is_zero for rep in reports)
    return ok, reports, extras
