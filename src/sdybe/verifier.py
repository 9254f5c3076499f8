"""Residuals of the defining equations and their zero decisions.

Checks:

  cdybe        Alt_s(dr) + [r12,r13] + [r12,r23] + [r13,r23]
  unitarity    r + T_s(r) - eps * Omega          (decided exactly)
  zero-weight  [x (x) 1 + 1 (x) x, r] per Cartan basis vector x (exact)
  mdybe        Alt_s(ds) + [[s,s]] + (eps^2/4) [[Omega,Omega]]
  lemma        cdybe(r) and mdybe(r - (eps/2) Omega) agree; the six-term
               s/Omega cross bracket is read off unitarity (see the check)
  limits       the X = Delta coth family degenerates onto the two constant
               solutions along a dominant ray as t -> +-infinity (the
               limit is exact: `ScalarExpr.ray_limit`)

run_checks builds each residual once: cdybe and mdybe are each one
accumulator of terms, and at eps = 0 (s = r, no [[Omega, Omega]] term)
cdybe's residual is reported as mdybe's.

run_checks is the one place that selects the checks and builds their
inputs: the lemma takes the reports it built, and limits its r.

Zero decision policy: every residual is a dict of cells, and `decide_cells`
decides each distinct cell form (`ScalarExpr.primitive`: cells equal up to a
rational factor share one) once per run, through the
one verdict memo run_checks passes to every decision, exactly and completely
(`ScalarExpr.identically_zero`, which applies the coth addition law), so a
residual is exact-zero or nonzero; no check is numeric.
A nonzero residual is evaluated at seeded margin-respecting lattice points
only to give it its witness {indices, point, value}; one whose nonzero cells
are all constants draws no point (point None).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .rmatrix import RMatrixSpec, _assemble, _constant_cells, shift_to_s, validate
from .scalars import ScalarExpr, largest_value, sample_points, singular_forms
from .superalgebra import LieSuperalgebra, RootDatum
from .tensor import Tensor2, Tensor3, ad_action, alt_s, super_twist, yb_bracket
from .tensor import cross_bracket  # noqa: F401  bound here for perfbench's `tensor.cross_bracket` tracer row

Q = Fraction


class PreconditionError(ValueError):
    """A check was invoked on input that violates its stated precondition."""


# the witness of a nonzero residual is searched at POINTS seeded points of
# [-LATTICE, LATTICE]^rank at least MARGIN away from every singular form;
# `construct --at` reports a pole within MARGIN of one
POINTS = 20
MARGIN = 1e-6
LATTICE = 10
# the floor on the mantissa bits of witness values
MIN_PRECISION = 64


@dataclass
class VerifyConfig:
    """Numeric settings for witnesses.

    Verdicts are exact; the seed fixes the lattice points that locate the
    witness of a nonzero residual, so reports are reproducible, and
    precision sets the witness values.
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

    status is 'exact-zero', a symbolic proof, or 'nonzero'.  A nonzero
    residual carries the witness {indices, point, value} of `decide_cells`
    (max_abs records its |value|); validate and lemma carry their own.
    tolerance is always None: no verdict rests on a numeric bound.
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
        return self.status == "exact-zero"

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


def decide_cells(cells: dict, name: str, cfg: VerifyConfig | None = None, *, verdicts=None) -> ResidualReport:
    """Exact zero decision for every cell of a residual, once per distinct `ScalarExpr.primitive` form.

    verdicts (primitive form -> identically zero) memoizes the decided forms,
    which a nonzero rational factor leaves zero or nonzero; run_checks passes
    one per run.  A nonzero residual gets a witness: its
    nonzero cells are evaluated at the seeded lattice points, which avoid the
    singular forms of every cell, and the cell and point of largest |value| win.
    When every nonzero cell is a constant, no point is drawn: the witness
    point is None and points_used 0.
    """
    cfg = cfg or VerifyConfig()
    start = time.monotonic()
    verdicts = {} if verdicts is None else verdicts
    nonzero = {}
    for k, c in cells.items():
        zero = verdicts.get(form := c.primitive()[1])
        if zero is None:
            zero = verdicts[form] = c.identically_zero()
        if not zero:
            nonzero[k] = c
    if not nonzero:
        return ResidualReport(name=name, status="exact-zero", seconds=time.monotonic() - start)
    pts = []  # none when every nonzero cell is a constant: no value depends on a point
    if any(c.constant() is None for c in nonzero.values()):
        nvars = next(iter(nonzero.values())).nvars
        avoid = singular_forms(cells.values())
        pts = sample_points(nvars, POINTS, seed=cfg.seed, avoid=avoid, margin=MARGIN, lattice=LATTICE)
    key, pt, v = largest_value(nonzero, pts or [()], precision=cfg.precision, margin=MARGIN)
    return ResidualReport(
        name=name,
        status="nonzero",
        max_abs=float(abs(v)),
        points_used=len(pts),
        witness={"indices": list(key), "point": list(pt) if pts else None, "value": float(v)},
        seconds=time.monotonic() - start,
    )


def decide_tensor_zero(
    t: Tensor2 | Tensor3, name: str, cfg: VerifyConfig | None = None, *, verdicts=None
) -> ResidualReport:
    """`decide_cells` on the cells of a tensor."""
    return decide_cells(t.coeffs, name, cfg, verdicts=verdicts)


# ---------------------------------------------------------------------------
# the residuals


def differential_dr(r: Tensor2) -> Tensor3:
    """dr = sum_i x_i (x) dr/dx_i, first leg in the Cartan."""
    g = r.g
    cells = {
        (c_idx, a, b): coeff.differentiate(coord)
        for coord, c_idx in enumerate(g.cartan)
        for (a, b), coeff in r.coeffs.items()
    }
    return Tensor3(g, cells, _prune=True)


def cdybe_lhs(r: Tensor2) -> Tensor3:
    """Alt_s(dr) + [[r, r]]: the mdybe residual at eps = 0."""
    return mdybe_lhs(r, 0, None)


def cdybe_residual(r: Tensor2, cfg: VerifyConfig | None = None, *, verdicts=None) -> tuple[Tensor3, ResidualReport]:
    lhs = cdybe_lhs(r)
    return lhs, decide_tensor_zero(lhs, "cdybe", cfg, verdicts=verdicts)


def unitarity_residual(
    r: Tensor2, eps, omega: Tensor2, cfg: VerifyConfig | None = None, *, verdicts=None
) -> tuple[Tensor2, ResidualReport]:
    res = r + super_twist(r) - omega.scale(Q(eps))
    return res, decide_tensor_zero(res, "unitarity", cfg, verdicts=verdicts)


def zero_weight_residual(r: Tensor2 | Tensor3, cfg: VerifyConfig | None = None, *, verdicts=None) -> ResidualReport:
    """[x (x) 1 + 1 (x) x, r] for every Cartan basis vector x, keyed (x, *cell)."""
    cells = {(c, *k): v for c in r.g.cartan for k, v in ad_action({c: Q(1)}, r).coeffs.items()}
    return decide_cells(cells, "zero-weight", cfg, verdicts=verdicts)


def mdybe_lhs(s: Tensor2, eps, omega: Tensor2 | None) -> Tensor3:
    """Alt_s(ds) + [[s, s]] + (eps^2/4) [[Omega, Omega]] in one accumulator; Omega is unread at eps = 0."""
    eps = Q(eps)
    cells: dict = {}
    alt_s(differential_dr(s), into=cells)
    yb_bracket(s, into=cells)
    if eps:
        yb_bracket(omega, into=cells, scale=eps * eps / 4)
    return Tensor3.summed(s.g, cells)


def mdybe_residual(
    s: Tensor2, eps, omega: Tensor2, cfg: VerifyConfig | None = None, *, verdicts=None
) -> tuple[Tensor3, ResidualReport]:
    lhs = mdybe_lhs(s, eps, omega)
    return lhs, decide_tensor_zero(lhs, "mdybe", cfg, verdicts=verdicts)


def lemma_consistency_check(unitarity: ResidualReport, cdybe: ResidualReport, mdybe: ResidualReport) -> ResidualReport:
    """Both sides of the equivalence, cdybe(r) and mdybe(s) with s = r - (eps/2) Omega, must agree.

    The reports are those run_checks built; the check forms no tensor.  The
    six-term cross bracket of s with Omega, on which the equivalence rests,
    is linear in s, takes no derivative and vanishes on a basis of the even
    super-skew tensors (Omega is invariant; the tests check the basis for
    m + n <= 4).  So it vanishes with s + T_s(s), the unitarity residual:
    its status is unitarity's, exact-zero by the precondition.
    """
    start = time.monotonic()
    if not unitarity.is_zero:
        raise PreconditionError("lemma check requires generalized unitarity")
    cross = ResidualReport(name="lemma-cross-bracket", status=unitarity.status)
    consistent = cdybe.is_zero == mdybe.is_zero
    return ResidualReport(
        name="lemma",
        status="exact-zero" if consistent else "nonzero",
        seconds=time.monotonic() - start,
        witness=None if consistent else {"cdybe": cdybe.as_dict(), "mdybe": mdybe.as_dict(), "cross": cross.as_dict()},
        details={
            "cdybe_status": cdybe.status,
            "mdybe_status": mdybe.status,
            "cross_bracket_status": cross.status,
            "consistent": consistent,
        },
    )


# ---------------------------------------------------------------------------
# limit degeneration


def dominant_vector(rd: RootDatum) -> tuple[int, ...]:
    """A lattice point with (a, v) >= 1 for every positive root a.

    Solves (a_k, v) = 1 along the simple roots e_k - e_{k+1} (s_i = +1 on even
    rows, -1 on odd) by forward substitution: v_{k+1} = s_{k+1}(s_k v_k - 1),
    with v_0 = 0 on gl, whose centre leaves it free.  On sl v_k = p_k v_0 + q_k,
    p_k = s_0 s_k, and the dense last row s_{d-2} v_{d-2} + s_{d-1} sum(v) = 1
    fixes v_0.  Positive roots are sums of simple roots, so scaling v to clear
    its denominator keeps (a, v) >= 1.
    """
    g = rd.g
    s = g.row_signs
    q = [0]
    for k in range(g.rank - 1):
        q.append(s[k + 1] * (s[k] * q[k] - 1))
    if g.family == "gl":
        return tuple(q)
    p = [s[0] * x for x in s[:-1]]
    last = len(q) - 1
    v0 = Q(1 - s[last] * q[last] - s[-1] * sum(q), s[last] * p[last] + s[-1] * sum(p))
    return tuple(int((a * v0 + b) * v0.denominator) for a, b in zip(p, q))


def limits_applicable(spec: RMatrixSpec, rd: RootDatum) -> bool:
    """The limits check covers the X = all coth family with nu = 0 and D = 0."""
    return (
        spec.epsilon != 0
        and spec.X == frozenset(range(len(rd)))
        and all(v == 0 for v in spec.nu)
        and spec.D.is_zero()
    )


def limit_behavior_check(
    r: Tensor2, rd: RootDatum, eps, cfg: VerifyConfig | None = None, *, verdicts=None
) -> ResidualReport:
    """Exact limits of the X = Delta family along a dominant ray.

    r(t v) must tend to the twisted constant solution as t -> +infinity and
    to the untwisted one as t -> -infinity.  Each coth atom of r tends to the
    sign of its slope (a, +-v), nonzero for a dominant v (`ScalarExpr.ray_limit`).
    Each limit minus its constant solution is taken on numbers; its nonzero
    cells, keyed (direction, i, j), are decided by `decide_cells`.  r is the
    r-matrix of a spec that `limits_applicable` admits, as run_checks passes it.
    """
    start = time.monotonic()
    g = r.g
    v = dominant_vector(rd)
    n = g.rank
    cells = {}
    for direction, which in ((1, "Tsr"), (-1, "r")):
        target = _constant_cells(g, rd, eps, which)
        ray = tuple(direction * x for x in v)
        for k in sorted(r.coeffs.keys() | target.keys()):
            lim = r.coeffs[k].ray_limit(ray).constant() if k in r.coeffs else 0
            aim = target.get(k, 0)
            if lim != aim:  # a cell at its target is exact-zero and is left out
                cells[(direction, *k)] = ScalarExpr.const(n, lim - aim)
    rep = decide_cells(cells, "limits", cfg, verdicts=verdicts)
    rep.seconds = time.monotonic() - start
    rep.details = {"dominant_vector": list(v)}
    return rep


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
    less `limits` where `limits_applicable` is false.  An empty selection, an
    unknown name or `limits` on a spec it does not apply to raises
    PreconditionError before the spec is validated.
    """
    # imported at call time: the per-layer benchmark wraps casimir on its
    # own module
    from .superalgebra import casimir

    if checks is None:
        checks = tuple(c for c in ALL_CHECKS if c != "limits" or limits_applicable(spec, rd))
    if not checks:
        raise PreconditionError("no checks selected")
    if bad := [c for c in checks if c not in ALL_CHECKS]:
        raise PreconditionError(f"unknown checks {bad}; available: {', '.join(ALL_CHECKS)}")
    if "limits" in checks and not limits_applicable(spec, rd):
        raise PreconditionError("limits check needs eps != 0, X = all, nu = 0, D = 0")
    reports: list[ResidualReport] = []
    extras: dict = {}

    # the spec is validated once, here; r is assembled from it without a second validation
    start = time.monotonic()
    vrep = validate(spec, g, rd)
    extras["validation"] = vrep.as_dict()
    if "validate" in checks:
        reports.append(
            ResidualReport(
                name="validate",
                status="exact-zero" if vrep.ok else "nonzero",
                witness=None if vrep.ok else {"failures": vrep.failures},
                seconds=time.monotonic() - start,
            )
        )
    if not vrep.ok or set(checks) <= {"validate"}:
        return vrep.ok, reports, extras

    # r and each residual are built and decided once, each form through one
    # verdict memo; the lemma reuses them
    eps = spec.epsilon
    lemma = "lemma" in checks
    verdicts: dict = {}
    omega = casimir(g, rd)
    r = _assemble(spec, g, rd, omega=omega)
    unit = unitarity_residual(r, eps, omega, cfg, verdicts=verdicts)[1] if lemma or "unitarity" in checks else None
    cd = cdybe_residual(r, cfg, verdicts=verdicts)[1] if lemma or "cdybe" in checks else None
    md = None
    if lemma or "mdybe" in checks:
        # at eps = 0 s is r and there is no [[Omega, Omega]] term: the residual is cdybe's
        if eps == 0 and cd:
            md = replace(cd, name="mdybe")
        else:
            md = mdybe_residual(shift_to_s(r, eps, omega) if eps else r, eps, omega, cfg, verdicts=verdicts)[1]
    if "unitarity" in checks:
        reports.append(unit)
    if "zero-weight" in checks:
        reports.append(zero_weight_residual(r, cfg, verdicts=verdicts))
    if "cdybe" in checks:
        reports.append(cd)
    if "mdybe" in checks:
        reports.append(md)
    if lemma:
        reports.append(lemma_consistency_check(unit, cd, md))
    if "limits" in checks:
        reports.append(limit_behavior_check(r, rd, eps, cfg, verdicts=verdicts))

    ok = all(rep.is_zero for rep in reports)
    return ok, reports, extras
