"""Parity-aware tensor algebra on g (x) g and g (x) g (x) g.

Tensors are sparse maps from basis index tuples to ScalarExpr coefficients in
the Cartan coordinates (nvars = rank of g).  Exactly-zero coefficients are
pruned; there is no epsilon pruning.  Koszul signs enter in three places:

  super twist        T_s(a (x) b) = (-1)^{|a||b|} b (x) a
  leg brackets       [r12, s13] = sum (-1)^{|b||a'|} [a,a'] (x) b (x) b'
                     [r12, s23] = sum a (x) [b,a'] (x) b'
                     [r13, s23] = sum (-1)^{|b||a'|} a (x) a' (x) [b,b']
  signed 3-cycles    Alt_s and the signed transpositions (12)_s, (13)_s, (23)_s

The leg-bracket rules are the expansion of the graded commutators for tensors
whose terms have even total parity (all zero-weight tensors here do).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ScalarExpr, singular_forms, to_sexpr
from .superalgebra import EVEN, LieSuperalgebra, Vector

Q = Fraction


class OddActorError(ValueError):
    """ad_action is only defined for even actors (Cartan elements)."""


def _koszul(p: int, q: int) -> int:
    """(-1)^{pq} for parities p, q.  Monkeypatch target for sign-injection tests."""
    return -1 if p and q else 1


def _as_scalar(g: LieSuperalgebra, value) -> ScalarExpr:
    if isinstance(value, ScalarExpr):
        return value
    return ScalarExpr.const(g.rank, value)


def accumulate(out: dict, key, term: ScalarExpr) -> None:
    """out[key] += term, dropping the cell when the sum cancels exactly."""
    if key in out:
        acc = out[key] + term
        if acc.symbolically_zero():
            del out[key]
        else:
            out[key] = acc
    else:
        out[key] = term


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
            accumulate(out, k, c)
        return type(self)(self.g, out, _prune=False)

    def __neg__(self):
        return type(self)(self.g, {k: -c for k, c in self.coeffs.items()}, _prune=False)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        factor = _as_scalar(self.g, factor)
        if factor.symbolically_zero():
            return type(self).zero(self.g)
        return type(self)(self.g, {k: c * factor for k, c in self.coeffs.items()})

    def evaluate(self, point, precision: int = 64, margin: float = 1e-6) -> dict:
        """Numeric coefficient values at a sample point."""
        return {k: c.eval_numeric(point, precision=precision, margin=margin) for k, c in self.coeffs.items()}

    def singular_forms(self):
        return singular_forms(self.coeffs.values())

    def cells(self) -> list:
        return sorted(self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({len(self.coeffs)} cells over {self.g.family}({self.g.m}|{self.g.n}))"


class Tensor2(_TensorBase):
    """Element of g (x) g with ScalarExpr coefficients."""

    rank = 2

    @classmethod
    def from_vectors(cls, g: LieSuperalgebra, x: Vector, y: Vector, coeff=1) -> Tensor2:
        coeff = _as_scalar(g, coeff)
        out: dict = {}
        for i, ci in x.items():
            for j, cj in y.items():
                accumulate(out, (i, j), coeff * (ci * cj))
        return cls(g, out)


class Tensor3(_TensorBase):
    """Element of g (x) g (x) g with ScalarExpr coefficients."""

    rank = 3


# ---------------------------------------------------------------------------
# twist, permutations, Alt_s


def super_twist(t: Tensor2) -> Tensor2:
    """T_s(a (x) b) = (-1)^{|a||b|} b (x) a, termwise."""
    p = t.g.parity
    out: dict = {}
    for (i, j), c in t.coeffs.items():
        accumulate(out, (j, i), c if _koszul(p[i], p[j]) == 1 else -c)
    return Tensor2(t.g, out)


_PERM_RULES = {
    "12": lambda i, j, k, p: ((j, i, k), p[i] * p[j]),
    "13": lambda i, j, k, p: ((k, j, i), p[i] * p[j] + p[i] * p[k] + p[j] * p[k]),
    "23": lambda i, j, k, p: ((i, k, j), p[j] * p[k]),
}


def signed_permutation(t: Tensor3, which: str) -> Tensor3:
    """The signed transpositions (12)_s, (13)_s, (23)_s on g (x) g (x) g."""
    if which not in _PERM_RULES:
        raise ValueError(f"permutation must be one of 12/13/23, got {which!r}")
    rule = _PERM_RULES[which]
    p = t.g.parity
    out: dict = {}
    for (i, j, k), c in t.coeffs.items():
        key, exponent = rule(i, j, k, p)
        accumulate(out, key, c if exponent % 2 == 0 else -c)
    return Tensor3(t.g, out)


def alt_s(t: Tensor3) -> Tensor3:
    """Alt_s(a (x) b (x) c) = abc + (-1)^{|a|(|b|+|c|)} bca + (-1)^{|c|(|a|+|b|)} cab."""
    p = t.g.parity
    out: dict = {}
    for (i, j, k), c in t.coeffs.items():
        accumulate(out, (i, j, k), c)
        s2 = (p[i] * (p[j] + p[k])) % 2
        accumulate(out, (j, k, i), c if s2 == 0 else -c)
        s3 = (p[k] * (p[i] + p[j])) % 2
        accumulate(out, (k, i, j), c if s3 == 0 else -c)
    return Tensor3(t.g, out, _prune=False)


# ---------------------------------------------------------------------------
# leg brackets


def _leg_bracket(r: Tensor2, s: Tensor2, mode: str, products: dict, swapped: bool = False) -> Tensor3:
    """One leg bracket of r and s; mode is "12_13", "12_23" or "13_23".

    products caches the coefficient product of each (cell of r, cell of s)
    pair, so the brackets of one yb_bracket or cross_bracket call form each
    product once; swapped marks a call with the operands the other way round
    from the cache's keys (coefficients commute).  A product is formed only
    when its legs have a nonzero bracket.
    """
    r._check(s)
    g = r.g
    p = g.parity
    out: dict = {}
    for (i1, j1), c1 in r.coeffs.items():
        for (i2, j2), c2 in s.coeffs.items():
            if mode == "12_13":
                basis, sign = g.bracket_basis(i1, i2), _koszul(p[j1], p[i2])
            elif mode == "12_23":
                basis, sign = g.bracket_basis(j1, i2), 1
            else:
                basis, sign = g.bracket_basis(j1, j2), _koszul(p[j1], p[i2])
            if not basis:
                continue
            pair = ((i2, j2), (i1, j1)) if swapped else ((i1, j1), (i2, j2))
            c = products.get(pair)
            if c is None:
                c = products[pair] = c2 * c1 if swapped else c1 * c2
            if c.symbolically_zero():
                continue
            for k, sc in basis.items():
                f = sign * sc
                term = c if f == 1 else -c if f == -1 else c * f
                if mode == "12_13":
                    key = (k, j1, j2)
                elif mode == "12_23":
                    key = (i1, k, j2)
                else:
                    key = (i1, i2, k)
                accumulate(out, key, term)
    return Tensor3(g, out, _prune=False)


def bracket_12_13(r: Tensor2, s: Tensor2) -> Tensor3:
    """[r^12, s^13] = sum (-1)^{|b||a'|} [a, a'] (x) b (x) b'."""
    return _leg_bracket(r, s, "12_13", {})


def bracket_12_23(r: Tensor2, s: Tensor2) -> Tensor3:
    """[r^12, s^23] = sum a (x) [b, a'] (x) b'."""
    return _leg_bracket(r, s, "12_23", {})


def bracket_13_23(r: Tensor2, s: Tensor2) -> Tensor3:
    """[r^13, s^23] = sum (-1)^{|b||a'|} a (x) a' (x) [b, b']."""
    return _leg_bracket(r, s, "13_23", {})


def yb_bracket(r: Tensor2) -> Tensor3:
    """[[r, r]] = [r12, r13] + [r12, r23] + [r13, r23]."""
    products: dict = {}
    return (
        _leg_bracket(r, r, "12_13", products)
        + _leg_bracket(r, r, "12_23", products)
        + _leg_bracket(r, r, "13_23", products)
    )


def cross_bracket(s: Tensor2, omega: Tensor2) -> Tensor3:
    """[s12,w13] + [w12,s13] + [s12,w23] + [w12,s23] + [s13,w23] + [w13,s23]."""
    products: dict = {}
    return (
        _leg_bracket(s, omega, "12_13", products)
        + _leg_bracket(omega, s, "12_13", products, swapped=True)
        + _leg_bracket(s, omega, "12_23", products)
        + _leg_bracket(omega, s, "12_23", products, swapped=True)
        + _leg_bracket(s, omega, "13_23", products)
        + _leg_bracket(omega, s, "13_23", products, swapped=True)
    )


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
    out: dict = {}
    for key, c in t.coeffs.items():
        for leg in range(t.rank):
            for b, cz in z.items():
                for k, sc in g.bracket_basis(b, key[leg]).items():
                    accumulate(out, key[:leg] + (k,) + key[leg + 1 :], c * (cz * sc))
    return type(t)(g, out, _prune=False)


# ---------------------------------------------------------------------------
# dump format


def tensor_dump(t: Tensor2 | Tensor3) -> list[dict]:
    """Stable-ordered (lexicographic by indices) list of cells for diffing."""
    return [{"indices": list(k), "coefficient": to_sexpr(t.coeffs[k])} for k in sorted(t.coeffs)]
