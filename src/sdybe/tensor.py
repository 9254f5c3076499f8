"""Parity-aware tensor algebra on g (x) g and g (x) g (x) g.

Tensors are sparse maps from basis index tuples to ScalarExpr coefficients in
the Cartan coordinates (nvars = rank of g).  Exactly-zero coefficients are
pruned; there is no epsilon pruning.  Koszul signs enter in three places:

  super twist        T_s(a (x) b) = (-1)^{|a||b|} b (x) a
  leg brackets       [r12, s13] = sum (-1)^{|b||a'|} [a,a'] (x) b (x) b'
                     [r12, s23] = sum a (x) [b,a'] (x) b'
                     [r13, s23] = sum (-1)^{|b||a'|} a (x) a' (x) [b,b']
  signed 3-cycles    Alt_s

The leg-bracket rules are the expansion of the graded commutators for tensors
whose terms have even total parity (all zero-weight tensors here do).

A builder whose terms can meet in one cell (the leg brackets, Alt_s, the
Cartan action, the r-matrix assembly) records every term as a (factor,
coefficient) pair with `collect`, which adds the factors of one coefficient
object, and reduces each cell once with `ScalarExpr.sum`
(`_TensorBase.summed`).  A cell whose factors add to 0 in `collect` is
dropped without a sum, and so is a cell whose sum cancels.  Alt_s and the leg
brackets can record into a caller's accumulator (`into`), so a residual is
summed once.  The leg brackets meet a cell only with its bracket partners
(`LieSuperalgebra.bracket_partners`), in full-scan order.  Within one call,
operand cells of one stored form (`ScalarExpr.form`: the cells equal up to a
rational factor) share one base (`_split`), the form times the gcd of their
contents, so every cell is an int times a base.  A pair records an int factor
against the product of two bases, formed once per pair of bases: the two
contents multiply once and the two forms as ints.  The terms of equal cells
merge in `collect`.  A leg-bracket call reads the Koszul sign of each
parity pair once (`_koszul`) and each bracket off `g.structure`, so a pair
of cells makes no `bracket_basis` or `_koszul` call; what remains per
output term is one `collect`.  Cells keep the order in which their first
term arrived, also a cell whose partial sum cancels before later terms
bring it back.  The super twist, `from_vectors`
and `dr` map distinct terms to distinct cells and sum nothing; two-operand
`+` merges copies and sums only the cells both operands hold.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

from .scalars import MpPoint, ScalarExpr, _coeff, singular_forms, to_sexpr
from .superalgebra import EVEN, LieSuperalgebra, Vector


class OddActorError(ValueError):
    """ad_action is only defined for even actors (Cartan elements)."""


def _koszul(p: int, q: int) -> int:
    """(-1)^{pq} for parities p, q.

    Monkeypatch target for sign-injection tests: the super twist reads it
    per cell, and each leg-bracket call once per parity pair, so a patched
    rule reaches every later call and leaves nothing behind once restored.
    """
    return -1 if p and q else 1


def collect(cells: dict, key, factor, term: ScalarExpr) -> None:
    """Record factor * term (factor an int or a Fraction) for the cell key.

    The factors of one term object in one cell add up, in the place of its
    first record, before its numerator is touched.
    """
    terms = cells.get(key)
    if terms is None:
        cells[key] = {id(term): (factor, term)}
    else:
        prior = terms.get(id(term))
        terms[id(term)] = (factor, term) if prior is None else (prior[0] + factor, term)


def collect_tensor(cells: dict, t, factor=1) -> None:
    """Record factor * t, cell by cell."""
    for key, c in t.coeffs.items():
        collect(cells, key, factor, c)


class _TensorBase:
    __slots__ = ("g", "coeffs")
    rank = 0

    def __init__(self, g: LieSuperalgebra, coeffs: dict | None = None, _prune: bool = True):
        self.g = g
        if coeffs and _prune:
            self.coeffs = {k: c for k, c in coeffs.items() if not c.symbolically_zero()}
        else:
            self.coeffs = coeffs or {}

    @classmethod
    def zero(cls, g: LieSuperalgebra):
        return cls(g, {})

    @classmethod
    def summed(cls, g: LieSuperalgebra, cells: dict):
        """The tensor whose cells are the sums of the terms `collect` recorded in cells."""
        out = {}
        for key, terms in cells.items():
            if not any(f for f, _ in terms.values()):  # every recorded term cancelled in `collect`
                continue
            c = ScalarExpr.sum(g.rank, terms.values())
            if c.form:
                out[key] = c
        return cls(g, out, _prune=False)

    @classmethod
    def from_constant_cells(cls, g: LieSuperalgebra, cells: dict):
        n = g.rank
        return cls(g, {k: ScalarExpr.const(n, v) for k, v in cells.items() if v})

    def is_zero(self) -> bool:
        """Exact zero test (atoms as indeterminates); sound, not complete."""
        return not self.coeffs

    def _check(self, other):
        if self.g is not other.g:
            raise ValueError("tensors over different algebras")
        if self.rank != other.rank:
            raise ValueError("tensor rank mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            if k in out:
                c = out[k] + c
                if not c.form:
                    del out[k]
                    continue
            out[k] = c
        return type(self)(self.g, out, _prune=False)

    def __neg__(self):
        return type(self)(self.g, {k: -c for k, c in self.coeffs.items()}, _prune=False)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        """factor * self for an int or Fraction factor, which scales each cell's content."""
        factor = _coeff(factor)
        if not factor:
            return type(self).zero(self.g)
        return type(self)(self.g, {k: c * factor for k, c in self.coeffs.items()}, _prune=False)

    def evaluate(self, point, precision: int = 64, margin: float = 1e-6) -> dict:
        """Numeric coefficient values at a sample point, which every cell shares."""
        at = MpPoint(point, precision, margin)
        return {k: c.eval_numeric(at) for k, c in self.coeffs.items()}

    def singular_forms(self):
        return singular_forms(self.coeffs.values())

    def __repr__(self):
        return f"{type(self).__name__}({len(self.coeffs)} cells over {self.g.family}({self.g.m}|{self.g.n}))"


class Tensor2(_TensorBase):
    """Element of g (x) g with ScalarExpr coefficients."""

    rank = 2

    @classmethod
    def from_vectors(cls, g: LieSuperalgebra, x: Vector, y: Vector, coeff=1) -> Tensor2:
        """coeff * x (x) y; a number or a constant coeff makes constant cells directly."""
        value = coeff.constant() if isinstance(coeff, ScalarExpr) else coeff
        if value is None:
            return cls(g, {(i, j): coeff * (ci * cj) for i, ci in x.items() for j, cj in y.items()})
        return cls.from_constant_cells(g, {(i, j): value * ci * cj for i, ci in x.items() for j, cj in y.items()})


class Tensor3(_TensorBase):
    """Element of g (x) g (x) g with ScalarExpr coefficients."""

    rank = 3


# ---------------------------------------------------------------------------
# twist, Alt_s


def super_twist(t: Tensor2) -> Tensor2:
    """T_s(a (x) b) = (-1)^{|a||b|} b (x) a, termwise."""
    p = t.g.parity
    return Tensor2(t.g, {(j, i): c if _koszul(p[i], p[j]) == 1 else -c for (i, j), c in t.coeffs.items()})


def alt_s(t: Tensor3, into: dict | None = None) -> Tensor3 | None:
    """Alt_s(a (x) b (x) c) = abc + (-1)^{|a|(|b|+|c|)} bca + (-1)^{|c|(|a|+|b|)} cab; into as in `_leg_brackets`."""
    p = t.g.parity
    cells: dict = {} if into is None else into
    for (i, j, k), c in t.coeffs.items():
        collect(cells, (i, j, k), 1, c)
        collect(cells, (j, k, i), -1 if p[i] * (p[j] + p[k]) % 2 else 1, c)
        collect(cells, (k, i, j), -1 if p[k] * (p[i] + p[j]) % 2 else 1, c)
    return Tensor3.summed(t.g, cells) if into is None else None


# ---------------------------------------------------------------------------
# leg brackets


def _split(t: Tensor2) -> list:
    """[(cell, k, base)] in t.coeffs order: each cell is the int k times the base of its group.

    The cells of one stored form, the cells equal up to a rational factor,
    make a group.  Its base is that form times the group's content, the gcd
    of its cells' contents signed as its first cell's.  A group whose cells
    have one content has its first cell as base.
    """
    groups: dict = {}  # form -> [first cell, gcd of content numerators, lcm of denominators]
    for c in t.coeffs.values():
        q = c.content
        num, den = (q, 1) if q.__class__ is int else (q.numerator, q.denominator)
        group = groups.get(c.form)
        if group is None:
            groups[c.form] = [c, num, den]
        elif group[0].content != q:
            group[1] = math.gcd(group[1], num)
            group[2] = math.lcm(group[2], den)
    n = t.g.rank
    for form, group in groups.items():
        first, num, den = group
        num = abs(num) if first.content > 0 else -abs(num)
        content = _coeff(Q(num, den))
        group[1:] = num, den
        if content != first.content:
            group[0] = ScalarExpr._of(n, content, form)
    out = []
    for key, c in t.coeffs.items():
        base, num, den = groups[c.form]
        q = c.content
        out.append((key, q * den // num if q.__class__ is int else (q.numerator // num) * (den // q.denominator), base))
    return out


class _Partners(dict):
    """x -> the `_split` cells of s whose leg has a nonzero bracket with x, in s's order; s is
    indexed by leg once, and the list of each x is built on its first lookup."""

    def __init__(self, g, s: list, leg: int):
        self.table, self.at = g.bracket_partners, {}
        for pos, cell in enumerate(s):
            self.at.setdefault(cell[0][leg], []).append((pos, cell))

    def __missing__(self, x):
        cells = self[x] = [cell for _, cell in sorted(p for y in self.table.get(x, ()) for p in self.at.get(y, ()))]
        return cells


def _leg_bracket(r: list, s: tuple, mode: str, g, products: dict, cells: dict) -> None:
    """Record the terms of one leg bracket of the `_split` cells r and those of s, given as the
    `_Partners` of its legs 0 and 1; mode is "12_13", "12_23" or "13_23".

    A cell of r meets only its partners in s, in the order of a full scan,
    so `g.structure` holds the bracket of every pair.  A pair records the
    int sign * sc * k1 * k2 against base1 * base2; the sign is read off
    the call's table of `_koszul` by the parities of j1 and i2.  That
    product is formed once per ordered pair of bases (products[id(base1)][id(base2)]),
    is the other base when one is the constant 1, and is nonzero as both are.
    """
    p, structure = g.parity, g.structure
    r_leg, s_leg = {"12_13": (0, 0), "12_23": (1, 0), "13_23": (1, 1)}[mode]  # the legs the mode brackets
    partners = s[s_leg]
    koszul = [[1, 1], [1, 1]] if mode == "12_23" else [[_koszul(a, b) for b in (0, 1)] for a in (0, 1)]
    for (i1, j1), k1, b1 in r:
        row = products.get(id(b1))
        if row is None:
            row = products[id(b1)] = {}
        x, signs = (j1 if r_leg else i1), koszul[p[j1]]
        for (i2, j2), k2, b2 in partners[x]:
            c = row.get(id(b2))
            if c is None:
                c = row[id(b2)] = b2 if b1.constant() == 1 else b1 if b2.constant() == 1 else b1 * b2
            k = signs[p[i2]] * k1 * k2
            if mode == "12_13":
                for idx, sc in structure[x, i2].items():
                    collect(cells, (idx, j1, j2), k * sc, c)
            elif mode == "12_23":
                for idx, sc in structure[x, i2].items():
                    collect(cells, (i1, idx, j2), k * sc, c)
            else:
                for idx, sc in structure[x, j2].items():
                    collect(cells, (i1, i2, idx), k * sc, c)


_MODES = ("12_13", "12_23", "13_23")


def _leg_brackets(r: Tensor2, s: Tensor2, into: dict | None = None):
    """The leg brackets of r and s in each of `_MODES`, recorded in into for the caller to sum,
    else each cell summed once.

    Every cell enters as an int times the base of its group (`_split`), so
    every recorded factor is an int.
    """
    r._check(s)
    g = r.g
    rs = _split(r)
    ss = rs if s is r else _split(s)
    partners = (_Partners(g, ss, 0), _Partners(g, ss, 1))
    products: dict = {}
    cells: dict = {} if into is None else into
    for mode in _MODES:
        _leg_bracket(rs, partners, mode, g, products, cells)
    return Tensor3.summed(g, cells) if into is None else None


def yb_bracket(r: Tensor2, into: dict | None = None) -> Tensor3 | None:
    """[[r, r]] = [r12, r13] + [r12, r23] + [r13, r23]; see `_leg_brackets`."""
    return _leg_brackets(r, r, into)


def cross_bracket(s: Tensor2, omega: Tensor2) -> Tensor3:
    """[s12,w13] + [s12,w23] + [s13,w23] + [w12,s13] + [w12,s23] + [w13,s23], each cell summed once.

    The oracle of the lemma's cross bracket, which the lemma itself reads
    off the unitarity residual (`verifier.lemma_consistency_check`).
    """
    cells: dict = {}
    _leg_brackets(s, omega, into=cells)
    _leg_brackets(omega, s, into=cells)
    return Tensor3.summed(s.g, cells)


# ---------------------------------------------------------------------------
# Cartan action


def ad_action(z: Vector, t: Tensor2 | Tensor3):
    """Leibniz action of an even element on each tensor leg.

    Odd actors would need Koszul signs that the zero-weight condition never
    exercises, so they are rejected.
    """
    g = t.g
    if any(g.parity[b] != EVEN and c for b, c in z.items()):
        raise OddActorError("ad_action actor must be even")
    cells: dict = {}
    for key, c in t.coeffs.items():
        for leg in range(t.rank):
            for b, cz in z.items():
                for k, sc in g.bracket_basis(b, key[leg]).items():
                    collect(cells, key[:leg] + (k,) + key[leg + 1 :], _coeff(cz * sc), c)
    return type(t).summed(g, cells)


# ---------------------------------------------------------------------------
# dump format


def tensor_dump(t: Tensor2 | Tensor3) -> list[dict]:
    """Stable-ordered (lexicographic by indices) list of cells for diffing."""
    return [{"indices": list(k), "coefficient": to_sexpr(t.coeffs[k])} for k in sorted(t.coeffs)]
