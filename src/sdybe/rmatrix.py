"""r-matrix construction from (X, nu, D, epsilon, sign choices) data.

Zero coupling:    r = sum D_ij x_i (x) x_j
                      + sum_{a in X} (-1)^{|a|} (e_a, e_{-a}) / (a, l - nu) e_a (x) e_{-a}

Nonzero coupling: r = sum D_ij x_i (x) x_j + (eps/2) Omega
                      + sum_{a in Delta} phi_a e_a (x) e_{-a}

with phi_a = (eps/2) coth((-1)^{|a|}(e_a,e_{-a})(eps/2)(a, l - nu)) on X and
the constant +-eps/2 branches off X, resolved per positive root by a sign
choice (the negative partner is forced by phi_{-a} = -(-1)^{|a|} phi_a).

X must be closed under negation and under addition of roots; D must be an
antisymmetric closed 2-form.  `validate` checks these exactly and returns
witnesses for every violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Poly, RationalFunction, ScalarExpr, from_sexpr, poly_from_str, to_sexpr
from .superalgebra import LieSuperalgebra, RootDatum, cartan_casimir_cells, casimir, sign_A
from .tensor import Tensor2, collect_tensor

Q = Fraction


class ValidationError(ValueError):
    """Raised when construct() is given a spec that fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(f["reason"] for f in report.failures) or "invalid spec")


class MissingSignChoiceError(KeyError):
    """A positive root outside X has no recorded sign choice."""


# ---------------------------------------------------------------------------
# Cartan 2-form


class TwoForm:
    """Antisymmetric N x N matrix of rational functions on the Cartan dual."""

    __slots__ = ("nvars", "entries")

    def __init__(self, nvars: int, upper: dict | None = None):
        """Build from upper-triangle entries {(i, j): RationalFunction}, i < j."""
        self.nvars = nvars
        self.entries: dict = {}
        for (i, j), rf in (upper or {}).items():
            if not (0 <= i < nvars and 0 <= j < nvars):
                raise IndexError(f"entry ({i},{j}) out of range")
            if i == j:
                raise ValueError("diagonal entries of an antisymmetric form must be zero")
            if i > j:
                i, j, rf = j, i, -rf
            if isinstance(rf, Poly):
                rf = RationalFunction(rf)
            if not rf.is_zero():
                self.entries[(i, j)] = self.entries.get((i, j), RationalFunction.zero(nvars)) + rf

    @classmethod
    def zero(cls, nvars: int) -> TwoForm:
        return cls(nvars, {})

    def entry(self, i: int, j: int) -> RationalFunction:
        if i == j:
            return RationalFunction.zero(self.nvars)
        if i < j:
            return self.entries.get((i, j), RationalFunction.zero(self.nvars))
        return -self.entries.get((j, i), RationalFunction.zero(self.nvars))

    def is_zero(self) -> bool:
        return not self.entries

    def closedness_residuals(self) -> list[tuple[tuple[int, int, int], RationalFunction]]:
        """dD components: d_i D_jk + d_j D_ki + d_k D_ij for i < j < k, nonzero only.

        Only a triple holding both indices of a nonzero entry can have a
        nonzero component, so only those triples are visited, in sorted order.
        """
        triples = {tuple(sorted((a, b, c))) for a, b in self.entries for c in range(self.nvars) if c != a and c != b}
        out = []
        for i, j, k in sorted(triples):
            res = self.entry(j, k).diff(i) + self.entry(k, i).diff(j) + self.entry(i, j).diff(k)
            if not res.is_zero():
                out.append(((i, j, k), res))
        return out


# ---------------------------------------------------------------------------
# spec


@dataclass
class RMatrixSpec:
    """Data selecting one member of the solution families.

    X: indices (in the root datum's deterministic order) of the roots where
    phi is non-constant.  sign_choice maps positive root indices outside X to
    +1/-1 and is only consulted when epsilon != 0.
    """

    X: frozenset
    nu: tuple
    D: TwoForm
    epsilon: Fraction = Q(0)
    sign_choice: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = frozenset(self.X)
        self.nu = tuple(Q(v) for v in self.nu)
        self.epsilon = Q(self.epsilon)
        self.sign_choice = {int(k): int(v) for k, v in self.sign_choice.items()}


@dataclass
class ValidationReport:
    ok: bool
    failures: list

    def as_dict(self) -> dict:
        return {"ok": self.ok, "failures": self.failures}


def _closed(X: set, rd: RootDatum) -> bool:
    """X is closed under negation and root addition iff it holds every e_a - e_b with a, b
    in one block of the labels that its roots join: |X| = sum of b(b - 1) over block sizes b."""
    block = list(range(rd.g.m + rd.g.n))  # each label's block, named by one of its labels
    for i in X:
        a, b = rd.labels[i]
        a, b = block[a], block[b]
        if a != b:  # at most d - 1 merges of O(d) each
            block = [a if c == b else c for c in block]
    return len(X) == sum(k * (k - 1) for k in map(block.count, set(block)))


def validate(spec: RMatrixSpec, g: LieSuperalgebra, rd: RootDatum) -> ValidationReport:
    """Exact hypothesis checks: X closure (addition and negation), D shape,
    D closedness, nu dimension, and sign-choice completeness for eps != 0.
    A closed X passes through its blocks (`_closed`); an open one is scanned for its witnesses."""
    failures: list[dict] = []
    n = g.rank
    nroots = len(rd)

    for i in spec.X:
        if not 0 <= i < nroots:
            failures.append({"reason": f"X contains invalid root index {i}"})
    X = {i for i in spec.X if 0 <= i < nroots}

    scan = () if _closed(X, rd) else X
    for i in scan:
        if rd.neg[i] not in X:
            failures.append(
                {
                    "reason": "X not closed under negation",
                    "witness": {"root": [str(c) for c in rd.roots[i].functional]},
                }
            )
    for i in scan:
        for j in X:
            k = rd.add_index(i, j)
            if k is not None and k not in X:
                failures.append(
                    {
                        "reason": "X not closed under root addition",
                        "witness": {
                            "alpha": [str(c) for c in rd.roots[i].functional],
                            "beta": [str(c) for c in rd.roots[j].functional],
                            "sum": [str(c) for c in rd.roots[k].functional],
                        },
                    }
                )

    if len(spec.nu) != n:
        failures.append({"reason": f"nu has {len(spec.nu)} coordinates, expected {n}"})

    if spec.D.nvars != n:
        failures.append({"reason": f"D is {spec.D.nvars}-dimensional, expected {n}"})
    else:
        for (i, j, k), res in spec.D.closedness_residuals():
            failures.append(
                {
                    "reason": "D is not closed",
                    "witness": {"component": [i, j, k], "residual": str(res)},
                }
            )

    if spec.epsilon != 0:
        for i in rd.positive_indices():
            if i not in X and i not in spec.sign_choice:
                failures.append(
                    {
                        "reason": "missing sign choice for positive root outside X",
                        "witness": {"root_index": i, "root": [str(c) for c in rd.roots[i].functional]},
                    }
                )
        for i, v in spec.sign_choice.items():
            if v not in (1, -1):
                failures.append({"reason": f"sign choice for root {i} must be +1 or -1, got {v}"})

    return ValidationReport(ok=not failures, failures=failures)


# ---------------------------------------------------------------------------
# coefficient functions


def root_linear_form(i: int, spec: RMatrixSpec, rd: RootDatum) -> tuple[tuple, Fraction]:
    """(alpha, lambda - nu) as (coordinate coefficients, constant); the constant is 0 at nu = 0."""
    coeffs = rd.coroot_table[i]
    return coeffs, -sum([c * v for c, v in zip(coeffs, spec.nu) if c and v]) if any(spec.nu) else 0


def phi_zero_coupling(i: int, spec: RMatrixSpec, rd: RootDatum) -> ScalarExpr:
    """(-1)^{|a|} (e_a, e_{-a}) / (a, lambda - nu); the numerator is A_a (`sign_A`)."""
    n = rd.g.rank
    coeffs, shift = root_linear_form(i, spec, rd)
    num = Poly.const(n, sign_A(rd, i))
    den = Poly.linear(coeffs, shift)
    return ScalarExpr.from_ratfun(RationalFunction(num, [(den, 1)]))


def phi_coupled(i: int, spec: RMatrixSpec, rd: RootDatum) -> ScalarExpr:
    """The phi table for nonzero coupling.

    a in X:               (eps/2) coth(A_a (eps/2)(a, l-nu)),  A_a = (-1)^{|a|}(e_a,e_{-a})
    a not in X, negative: s * eps/2
    a not in X, positive: -s * (-1)^{|a|} * eps/2
    with s the per-pair sign choice recorded on the positive representative.
    """
    eps = spec.epsilon
    if eps == 0:
        raise ValueError("phi_coupled requires epsilon != 0")
    n = rd.g.rank
    root = rd.roots[i]
    if i in spec.X:
        half = eps / 2
        return ScalarExpr.coth(*root_linear_form(i, spec, rd), scale=half if sign_A(rd, i) == 1 else -half) * half
    pos = i if root.positive else rd.neg[i]
    if pos not in spec.sign_choice:
        raise MissingSignChoiceError(f"no sign choice for positive root index {pos}")
    s = spec.sign_choice[pos]
    if root.positive:
        return ScalarExpr.const(n, Q(-s * ((-1) ** root.parity), 1) * eps / 2)
    return ScalarExpr.const(n, Q(s) * eps / 2)


def phi(i: int, spec: RMatrixSpec, rd: RootDatum) -> ScalarExpr:
    if spec.epsilon == 0:
        if i in spec.X:
            return phi_zero_coupling(i, spec, rd)
        return ScalarExpr.zero(rd.g.rank)
    return phi_coupled(i, spec, rd)


# ---------------------------------------------------------------------------
# assembly


def _cartan_part(spec: RMatrixSpec, g: LieSuperalgebra) -> dict:
    cells: dict = {}
    cartan = list(g.cartan)
    for (i, j), rf in spec.D.entries.items():
        expr = ScalarExpr.from_ratfun(rf)
        cells[(cartan[i], cartan[j])] = expr
        cells[(cartan[j], cartan[i])] = -expr
    return cells


def construct(spec: RMatrixSpec, g: LieSuperalgebra, rd: RootDatum, omega: Tensor2 | None = None) -> Tensor2:
    """Assemble the r-matrix for the spec; raises ValidationError on bad data."""
    report = validate(spec, g, rd)
    if not report.ok:
        raise ValidationError(report)
    return _assemble(spec, g, rd, omega)


def _assemble(spec: RMatrixSpec, g: LieSuperalgebra, rd: RootDatum, omega: Tensor2 | None = None) -> Tensor2:
    """The r-matrix of a spec the caller has validated, each cell summed once."""
    cells: dict = {}
    collect_tensor(cells, Tensor2(g, _cartan_part(spec, g)))
    if spec.epsilon != 0:
        omega = omega if omega is not None else casimir(g, rd)
        collect_tensor(cells, omega, spec.epsilon / 2)
        indices = range(len(rd))
    else:
        indices = sorted(spec.X)
    for i in indices:
        f = phi(i, spec, rd)
        if not f.symbolically_zero():
            collect_tensor(cells, Tensor2.from_vectors(g, rd.e[i], rd.e[rd.neg[i]], f))
    return Tensor2.summed(g, cells)


def constant_example(g: LieSuperalgebra, rd: RootDatum, eps, which: str = "r") -> Tensor2:
    """The two constant solutions attached to a triangular decomposition.

    which='r':   (eps/2) sum x_i (x) x_i*  +  eps sum_{a>0} e_{-a} (x) e_a
    which='Tsr': its super twist,
                 (eps/2) sum x_i (x) x_i*  +  eps sum_{a>0} (-1)^{|a|} e_a (x) e_{-a}
    """
    eps = Q(eps)
    if eps == 0:
        raise ValueError("constant example needs a nonzero coupling")
    if which not in ("r", "Tsr"):
        raise ValueError("which must be 'r' or 'Tsr'")
    return Tensor2.from_constant_cells(g, _constant_cells(g, rd, eps, which))


def _constant_cells(g: LieSuperalgebra, rd: RootDatum, eps: Fraction, which: str) -> dict:
    """The nonzero cells of `constant_example` as numbers, {(i, j): value}."""
    cells = cartan_casimir_cells(g, eps / 2)
    for i in rd.positive_indices():  # each root vector is one off-diagonal unit: no two cells meet
        x, y = (rd.e[rd.neg[i]], rd.e[i]) if which == "r" else (rd.e[i], rd.e[rd.neg[i]])
        value = eps if which == "r" else eps * (-1) ** rd.roots[i].parity
        cells.update({(bx, by): value * cx * cy for bx, cx in x.items() for by, cy in y.items()})
    return cells


def shift_to_s(r: Tensor2, eps, omega: Tensor2) -> Tensor2:
    """s = r - (eps/2) Omega."""
    return r - omega.scale(Q(eps) / 2)


# ---------------------------------------------------------------------------
# JSON spec format
#
# {"algebra": "gl" | "sl", "m": int, "n": int, "epsilon": "p/q",
#  "nu": ["p/q", ...], "X": "all" | "none" | [root indices],
#  "D": [{"i": int, "j": int, "ratfun": '(ratfun "NUM" "DEN")'}, ...],
#  "sign_choice": {"index": "+" | "-"}}
#
# Root indices refer to the deterministic ordering in export_descriptor.
# D coefficients use the s-expression grammar of `scalars` (bare "NUM"/"DEN"
# polynomial strings are also accepted as separate num/den fields).


def spec_to_json(spec: RMatrixSpec, g: LieSuperalgebra) -> dict:
    return {
        "algebra": g.family,
        "m": g.m,
        "n": g.n,
        "epsilon": str(spec.epsilon),
        "nu": [str(v) for v in spec.nu],
        "X": sorted(spec.X),
        "D": [
            {"i": i, "j": j, "ratfun": to_sexpr(ScalarExpr.from_ratfun(rf))}
            for (i, j), rf in sorted(spec.D.entries.items())
        ],
        "sign_choice": {str(k): ("+" if v > 0 else "-") for k, v in sorted(spec.sign_choice.items())},
    }


# what a malformed field value raises while it is parsed: bad rationals and
# polynomials, zero denominators, coth in D, out-of-range indices, wrong types
_BAD_FIELD = (ArithmeticError, LookupError, TypeError, ValueError)


def _parse_field(name: str, parse, *args):
    """parse(*args), reporting any malformed value as a ValueError naming the field."""
    try:
        return parse(*args)
    except _BAD_FIELD as exc:
        raise ValueError(f"{name}: {exc}") from exc


# one check per kind of JSON field, where int() would read 2.9 as 2 and true as
# 1, Fraction() 0.1 as its binary value, and a string would iterate as a list:
# m, n, X entries and D indices are integers, never bools; epsilon and nu
# entries are strings or integers; X and nu are lists; signs are never bools


def _integer(value) -> int:
    if value.__class__ is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value


def _rational(value) -> Fraction:
    if value.__class__ not in (int, str):
        raise TypeError(f"expected a rational as a string or an integer, got {json.dumps(value)}")
    return Q(value)


def _entries(value, parse) -> list:
    if value.__class__ is not list:
        raise TypeError(f"expected a list, got {json.dumps(value)}")
    return [parse(v) for v in value]


_SIGNS = {"+": 1, "+1": 1, 1: 1, "-": -1, "-1": -1, -1: -1}


def _sign(value) -> int:
    if value.__class__ not in (int, str) or value not in _SIGNS:
        raise ValueError(f"expected '+' or '-', got {json.dumps(value)}")
    return _SIGNS[value]


def parse_sizes(doc: dict) -> tuple[int, int]:
    """The m and n fields of a spec document."""
    return _parse_field("m", _integer, doc["m"]), _parse_field("n", _integer, doc["n"])


def _parse_x(value, count: int) -> frozenset:
    if value == "all":
        return frozenset(range(count))
    if value == "none":
        return frozenset()
    x = frozenset(_entries(value, _integer))
    for i in sorted(x):
        if not 0 <= i < count:
            raise IndexError(f"root index {i} out of range 0..{count - 1}")
    return x


def _parse_d_entry(entry: dict, n: int) -> tuple[int, int, RationalFunction]:
    i, j = _integer(entry["i"]), _integer(entry["j"])
    if "ratfun" in entry:
        expr = from_sexpr(entry["ratfun"], n)
        return i, j, expr.as_ratfun()  # raises NotRationalError on coth atoms
    num = poly_from_str(entry["num"], n)
    den = poly_from_str(entry.get("den", "1"), n)
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    return i, j, RationalFunction(num, [(den, 1)])


def _parse_d(entries: list, n: int) -> TwoForm:
    if not isinstance(entries, list):
        raise ValueError("D: expected a list of entries")
    upper: dict = {}
    for k, entry in enumerate(entries):
        i, j, rf = _parse_field(f"D entry {k}", _parse_d_entry, entry, n)
        if (i, j) in upper or (j, i) in upper:
            raise ValueError(f"duplicate D entry ({i},{j})")
        upper[(i, j)] = rf
    return _parse_field("D", TwoForm, n, upper)


def _parse_signs(choices: dict) -> dict:
    if not isinstance(choices, dict):
        raise TypeError("expected an object mapping root indices to '+' or '-'")
    return {int(k): _sign(v) for k, v in choices.items()}


def spec_from_json(doc: dict, g: LieSuperalgebra, rd: RootDatum) -> RMatrixSpec:
    """The spec a JSON document describes; a malformed field raises ValueError naming it."""
    n = g.rank
    return RMatrixSpec(
        X=_parse_field("X", _parse_x, doc.get("X", "none"), len(rd)),
        nu=_parse_field("nu", lambda v: tuple(_entries(v, _rational)), doc.get("nu", ["0"] * n)),
        D=_parse_d(doc.get("D", []), n),
        epsilon=_parse_field("epsilon", _rational, doc.get("epsilon", "0")),
        sign_choice=_parse_field("sign_choice", _parse_signs, doc.get("sign_choice", {})),
    )
