"""Exact scalar arithmetic for meromorphic coefficients on a Cartan dual space.

Coefficients are functions of N linear coordinates x0..x{N-1}.  Three layers:

  Poly              sparse multivariate polynomial over Fraction
                    ({exponent tuple: coefficient}, graded-lex monomial order)
  RationalFunction  numerator Poly over a product of monic denominator factors;
                    reduced by exact division so num/den share no stored factor
  ScalarExpr        polynomial in coth atoms with RationalFunction coefficients

A coth atom is coth(u) for an affine-linear form u with rational coefficients.
Atoms are sign-canonicalized (first nonzero coefficient of (u_0..u_{N-1}, const)
made positive via coth(-u) = -coth(u)), so expressions whose arguments differ
only by sign share an atom.

Zero is decided exactly and completely (`ScalarExpr.identically_zero`): the
coth addition law is applied by exponential substitution, which turns the
expression into a polynomial in exponential variables over the
rational-function field.  Seeded numeric sampling (`sample_points`,
`largest_value`) only locates the witness of a nonzero residual for
`verifier.decide_cells`, the one zero decision of every residual check.
"""

from __future__ import annotations

import math
import random
import threading
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath

# one immutable context per mantissa precision; mpmath's global context is
# mutable and workprec() on it would race under concurrent evaluation
_MP_CONTEXTS: dict = {}
_MP_LOCK = threading.Lock()


def mp_context(precision: int):
    ctx = _MP_CONTEXTS.get(precision)
    if ctx is None:
        with _MP_LOCK:
            ctx = _MP_CONTEXTS.get(precision)
            if ctx is None:
                ctx = mpmath.mp.clone()
                ctx.prec = precision
                _MP_CONTEXTS[precision] = ctx
    return ctx


class PoleError(ArithmeticError):
    """Evaluation point is on (or within margin of) a singular hyperplane."""

    def __init__(self, form: str, point: Sequence = ()):  # noqa: D107
        self.form = form
        self.point = tuple(point)
        super().__init__(f"evaluation hits pole of {form} at {self.point}")


class NotRationalError(TypeError):
    """Exact evaluation requested for an expression with coth atoms."""


Q = Fraction
Mono = tuple  # exponent tuple, one int per coordinate


def _grlex(mono: Mono):
    return (sum(mono), mono)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Sparse multivariate polynomial over Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None, _prune: bool = True):
        self.nvars = nvars
        if terms and _prune:
            self.terms = {m: Q(c) for m, c in terms.items() if c != 0}
        else:
            self.terms = terms or {}

    # -- constructors

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> Poly:
        value = Q(value)
        if value == 0:
            return cls.zero(nvars)
        return cls(nvars, {(0,) * nvars: value}, _prune=False)

    @classmethod
    def var(cls, nvars: int, index: int) -> Poly:
        if not 0 <= index < nvars:
            raise IndexError(f"coordinate {index} out of range for {nvars} vars")
        mono = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(nvars, {mono: Q(1)}, _prune=False)

    @classmethod
    def linear(cls, coeffs: Sequence, const=0) -> Poly:
        """Affine form sum(coeffs[i] * x_i) + const."""
        n = len(coeffs)
        terms: dict = {}
        for i, c in enumerate(coeffs):
            c = Q(c)
            if c:
                terms[tuple(1 if k == i else 0 for k in range(n))] = c
        const = Q(const)
        if const:
            terms[(0,) * n] = const
        return cls(n, terms, _prune=False)

    # -- structure

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Q(0))

    def lead_mono(self) -> Mono:
        return max(self.terms, key=_grlex)

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_mono()]

    def key(self) -> tuple:
        """Hashable canonical form (sorted term list)."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self.key()))

    # -- arithmetic

    def _check(self, other: Poly):
        if self.nvars != other.nvars:
            raise ValueError("mixed coordinate dimensions")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Q(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Poly(self.nvars, out, _prune=False)

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()}, _prune=False)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Q(other)
            if other == 0:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()}, _prune=False)
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, Q(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(self.nvars, out, _prune=False)

    __rmul__ = __mul__

    def diff(self, index: int) -> Poly:
        out: dict = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                dm = tuple(v - 1 if k == index else v for k, v in enumerate(m))
                out[dm] = out.get(dm, Q(0)) + c * e
        return Poly(self.nvars, out)

    def exact_div(self, divisor: Poly) -> Poly | None:
        """Quotient self/divisor if the division is exact, else None."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly.zero(self.nvars)
        lt_m = divisor.lead_mono()
        lt_c = divisor.terms[lt_m]
        rem = dict(self.terms)
        quo: dict = {}
        while rem:
            m = max(rem, key=_grlex)
            dm = tuple(a - b for a, b in zip(m, lt_m))
            if any(e < 0 for e in dm):
                return None
            c = rem[m] / lt_c
            quo[dm] = c
            for m2, c2 in divisor.terms.items():
                mm = tuple(a + b for a, b in zip(dm, m2))
                s = rem.get(mm, Q(0)) - c * c2
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return Poly(self.nvars, quo, _prune=False)

    # -- evaluation

    def eval_exact(self, point: Sequence) -> Fraction:
        acc = Q(0)
        vals = [Q(v) for v in point]
        for m, c in self.terms.items():
            t = c
            for i, e in enumerate(m):
                if e:
                    t *= vals[i] ** e
            acc += t
        return acc

    def eval_mp(self, point: Sequence, ctx=None):
        ctx = ctx or mp_context(64)
        acc = ctx.mpf(0)
        vals = [_to_mpf(v, ctx) for v in point]
        for m, c in self.terms.items():
            t = _to_mpf(c, ctx)
            for i, e in enumerate(m):
                if e:
                    t *= vals[i] ** e
            acc += t
        return acc

    # -- text form

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {poly_to_str(self)!r})"


def _to_mpf(v, ctx):
    if isinstance(v, Fraction):
        return ctx.mpf(v.numerator) / ctx.mpf(v.denominator)
    return ctx.mpf(v)


def poly_to_str(p: Poly) -> str:
    """Deterministic text form: grlex-descending terms, `p/q*x0^2*x1` syntax."""
    if p.is_zero():
        return "0"
    parts = []
    for m in sorted(p.terms, key=_grlex, reverse=True):
        c = p.terms[m]
        factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(m) if e]
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def poly_from_str(text: str, nvars: int) -> Poly:
    """Parse the `poly_to_str` grammar (signed terms of `coeff*x0^2*x1`)."""
    import re

    tokens = re.findall(r"\d+/\d+|\d+|x\d+|\^|\*|\+|-|\S", text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_term(sign: int) -> tuple[Mono, Fraction]:
        coeff = Q(sign)
        mono = [0] * nvars
        expect_factor = True
        while expect_factor:
            tok = take()
            if tok.startswith("x"):
                idx = int(tok[1:])
                if idx >= nvars:
                    raise ValueError(f"coordinate {tok} out of range")
                exp = 1
                if peek() == "^":
                    take()
                    exp = int(take())
                mono[idx] += exp
            else:
                coeff *= Q(tok)
            expect_factor = peek() == "*"
            if expect_factor:
                take()
        return tuple(mono), coeff

    terms: dict = {}
    sign = 1
    if peek() == "-":
        take()
        sign = -1
    while True:
        m, c = parse_term(sign)
        terms[m] = terms.get(m, Q(0)) + c
        tok = peek()
        if tok is None:
            break
        if tok == "+":
            take()
            sign = 1
        elif tok == "-":
            take()
            sign = -1
        else:
            raise ValueError(f"unexpected token {tok!r} in polynomial {text!r}")
    return Poly(nvars, terms)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """num / prod(factor^mult) with monic, non-constant, reduced factors.

    Zero-equality is decidable: the function is zero iff `num` is the zero
    polynomial.  Denominator factors are kept in factored form so that pole
    hyperplanes stay visible and cancellation is cheap (exact division).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Iterable[tuple[Poly, int]] = ()):
        factors: dict[tuple, tuple[Poly, int]] = {}
        for f, mult in den:
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("negative factor multiplicity")
            if f.is_zero():
                raise ZeroDivisionError("zero denominator factor")
            if f.is_const():
                num = num * (Q(1) / f.const_value()) ** mult
                continue
            lc = f.lead_coeff()
            if lc != 1:
                f = f * (Q(1) / lc)
                num = num * (Q(1) / lc) ** mult
            k = f.key()
            if k in factors:
                factors[k] = (f, factors[k][1] + mult)
            else:
                factors[k] = (f, mult)
        # cancel stored factors dividing the numerator
        if not num.is_zero():
            for k in list(factors):
                f, mult = factors[k]
                while mult > 0:
                    q = num.exact_div(f)
                    if q is None:
                        break
                    num = q
                    mult -= 1
                if mult:
                    factors[k] = (f, mult)
                else:
                    del factors[k]
        self.num = num
        self.den = () if num.is_zero() else tuple(sorted(factors.values(), key=lambda fm: fm[0].key()))

    # -- constructors

    @classmethod
    def zero(cls, nvars: int) -> RationalFunction:
        return cls(Poly.zero(nvars))

    @classmethod
    def const(cls, nvars: int, value) -> RationalFunction:
        return cls(Poly.const(nvars, value))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def den_poly(self) -> Poly:
        out = Poly.const(self.nvars, 1)
        for f, mult in self.den:
            for _ in range(mult):
                out = out * f
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(self.nvars, other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # value equality across representations; not hashable

    # -- arithmetic

    def _coerce(self, other) -> RationalFunction:
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(self.nvars, other)
        if isinstance(other, Poly):
            return RationalFunction(other)
        if isinstance(other, RationalFunction):
            return other
        return NotImplemented

    def __add__(self, other) -> RationalFunction:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged: dict[tuple, tuple[Poly, int]] = {f.key(): (f, m) for f, m in self.den}
        for f, m in other.den:
            k = f.key()
            if k in merged:
                merged[k] = (f, max(merged[k][1], m))
            else:
                merged[k] = (f, m)
        self_mult = dict((f.key(), m) for f, m in self.den)
        other_mult = dict((f.key(), m) for f, m in other.den)
        num1, num2 = self.num, other.num
        for k, (f, m) in merged.items():
            d1 = m - self_mult.get(k, 0)
            d2 = m - other_mult.get(k, 0)
            for _ in range(d1):
                num1 = num1 * f
            for _ in range(d2):
                num2 = num2 * f
        return RationalFunction(num1 + num2, merged.values())

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> RationalFunction:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged: dict[tuple, tuple[Poly, int]] = {}
        for f, m in list(self.den) + list(other.den):
            k = f.key()
            if k in merged:
                merged[k] = (f, merged[k][1] + m)
            else:
                merged[k] = (f, m)
        return RationalFunction(self.num * other.num, merged.values())

    __rmul__ = __mul__

    def inv(self) -> RationalFunction:
        if self.is_zero():
            raise ZeroDivisionError("inverting zero rational function")
        return RationalFunction(self.den_poly(), [(self.num, 1)])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def diff(self, index: int) -> RationalFunction:
        # d(n/D)/dx = (n' - n * sum_k m_k f_k'/f_k) / D, cleared of the f_k
        if not self.den:
            return RationalFunction(self.num.diff(index))
        prod_all = Poly.const(self.nvars, 1)
        for f, _ in self.den:
            prod_all = prod_all * f
        correction = Poly.zero(self.nvars)
        for f, m in self.den:
            df = f.diff(index)
            if df.is_zero():
                continue
            rest = Poly.const(self.nvars, m)
            for g, _ in self.den:
                if g is not f:
                    rest = rest * g
            correction = correction + df * rest
        new_num = self.num.diff(index) * prod_all - self.num * correction
        new_den = [(f, m + 1) for f, m in self.den]
        return RationalFunction(new_num, new_den)

    # -- evaluation

    def eval_exact(self, point: Sequence) -> Fraction:
        val = Q(1)
        for f, m in self.den:
            fv = f.eval_exact(point)
            if fv == 0:
                raise PoleError(poly_to_str(f), point)
            val *= fv**m
        return self.num.eval_exact(point) / val

    def eval_mp(self, point: Sequence, margin: float = 1e-6, ctx=None):
        ctx = ctx or mp_context(64)
        val = ctx.mpf(1)
        for f, m in self.den:
            fv = f.eval_mp(point, ctx)
            if abs(fv) < margin:
                raise PoleError(poly_to_str(f), point)
            val *= fv**m
        return self.num.eval_mp(point, ctx) / val

    def __str__(self) -> str:
        if not self.den:
            return poly_to_str(self.num)
        return f"({poly_to_str(self.num)}) / ({poly_to_str(self.den_poly())})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# ---------------------------------------------------------------------------
# coth atoms and scalar expressions

Atom = tuple  # (c_0, ..., c_{N-1}, const) of Fraction, sign-canonical
AtomMono = tuple  # ((atom, power), ...) sorted


def make_atom(coeffs: Sequence, const=0) -> tuple[Atom, int]:
    """Canonicalize the affine form of a coth atom; returns (atom, sign).

    coth is odd, so coth(u) = sign * coth(|u|) where |u| has its first
    nonzero entry (coordinates first, then constant) positive.
    """
    entries = [Q(c) for c in coeffs] + [Q(const)]
    sign = 0
    for c in entries:
        if c != 0:
            sign = 1 if c > 0 else -1
            break
    if sign == 0:
        raise ZeroDivisionError("coth of identically zero argument")
    if sign < 0:
        entries = [-c for c in entries]
    return tuple(entries), sign


def atom_form_poly(atom: Atom) -> Poly:
    """The affine argument of the atom as a Poly."""
    return Poly.linear(atom[:-1], atom[-1])


class ScalarExpr:
    """Polynomial in coth atoms over the rational-function field.

    terms maps an atom monomial ((atom, power), ...) to a RationalFunction
    coefficient; the empty monomial holds the coth-free part.  All operations
    are pure; values are immutable after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None, _prune: bool = True):
        self.nvars = nvars
        if terms and _prune:
            self.terms = {m: c for m, c in terms.items() if not c.is_zero()}
        else:
            self.terms = terms or {}

    # -- constructors

    @classmethod
    def zero(cls, nvars: int) -> ScalarExpr:
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> ScalarExpr:
        rf = RationalFunction.const(nvars, value)
        if rf.is_zero():
            return cls.zero(nvars)
        return cls(nvars, {(): rf}, _prune=False)

    @classmethod
    def coord(cls, nvars: int, index: int) -> ScalarExpr:
        return cls(nvars, {(): RationalFunction(Poly.var(nvars, index))}, _prune=False)

    @classmethod
    def from_ratfun(cls, rf: RationalFunction) -> ScalarExpr:
        if rf.is_zero():
            return cls.zero(rf.nvars)
        return cls(rf.nvars, {(): rf}, _prune=False)

    @classmethod
    def coth(cls, coeffs: Sequence, const=0) -> ScalarExpr:
        atom, sign = make_atom(coeffs, const)
        nvars = len(atom) - 1
        return cls(nvars, {((atom, 1),): RationalFunction.const(nvars, sign)}, _prune=False)

    # -- structure

    def is_rational(self) -> bool:
        return all(m == () for m in self.terms)

    def has_coth(self) -> bool:
        return not self.is_rational()

    def symbolically_zero(self) -> bool:
        """Exact zero test with atoms as independent indeterminates (sound)."""
        return not self.terms

    def identically_zero(self) -> bool:
        """Exact and complete zero test; applies the coth addition law.

        With L the lcm of the atoms' coefficient denominators, substitute
        y_i = e^{2 x_i / L} and t = e^{2/L}.  Then e^{2u} = P/M for monomials
        P, M in (y, t), so coth u = (P + M)/(P - M).  Clearing the (P - M)
        denominators leaves a polynomial in (y, t) over the rational
        functions in x; the expression is zero iff every coefficient of that
        polynomial is.  The substitution is a ring homomorphism, so this is
        sound.  The x_i and e^{2 x_i / L} are algebraically independent (Ax,
        Ann. Math. 93, 1971) and e^{2/L} is transcendental (Lindemann), so it
        is also complete.
        """
        if not self.terms:
            return True
        atoms = self.atoms()
        if not atoms:
            return False
        nexp = self.nvars + 1  # y_0..y_{N-1}, t
        lcm = math.lcm(*(c.denominator for atom in atoms for c in atom))
        factors = {}  # atom -> (P + M, P - M, highest power of the atom)
        for atom in atoms:
            p, m = (tuple(max(sign * int(c * lcm), 0) for c in atom) for sign in (1, -1))
            top = max(dict(mono).get(atom, 0) for mono in self.terms)
            factors[atom] = (Poly(nexp, {p: Q(1), m: Q(1)}), Poly(nexp, {p: Q(1), m: Q(-1)}), top)
        numerator: dict[Mono, RationalFunction] = {}
        for mono, coeff in self.terms.items():
            powers = dict(mono)
            cleared = Poly.const(nexp, 1)
            for atom, (plus, minus, top) in factors.items():
                k = powers.get(atom, 0)
                for f in [plus] * k + [minus] * (top - k):
                    cleared = cleared * f
            for m, c in cleared.terms.items():
                term = coeff * c
                numerator[m] = numerator[m] + term if m in numerator else term
        return all(c.is_zero() for c in numerator.values())

    def as_ratfun(self) -> RationalFunction:
        if not self.is_rational():
            raise NotRationalError("expression contains coth atoms")
        return self.terms.get((), RationalFunction.zero(self.nvars))

    def atoms(self) -> set[Atom]:
        return {a for m in self.terms for a, _ in m}

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ScalarExpr.const(self.nvars, other)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return (self - other).symbolically_zero()

    __hash__ = None  # value equality across representations; not hashable

    # -- arithmetic

    def _coerce(self, other) -> ScalarExpr:
        if isinstance(other, (int, Fraction)):
            return ScalarExpr.const(self.nvars, other)
        if isinstance(other, Poly):
            return ScalarExpr.from_ratfun(RationalFunction(other))
        if isinstance(other, RationalFunction):
            return ScalarExpr.from_ratfun(other)
        if isinstance(other, ScalarExpr):
            return other
        return NotImplemented

    def __add__(self, other) -> ScalarExpr:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return ScalarExpr(self.nvars, out, _prune=False)

    __radd__ = __add__

    def __neg__(self) -> ScalarExpr:
        return ScalarExpr(self.nvars, {m: -c for m, c in self.terms.items()}, _prune=False)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> ScalarExpr:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                if m in out:
                    s = out[m] + c
                    if s.is_zero():
                        del out[m]
                    else:
                        out[m] = s
                else:
                    out[m] = c
        return ScalarExpr(self.nvars, out, _prune=False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Q(other)
            if q == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * Q(q.denominator, q.numerator)
        if isinstance(other, (Poly, RationalFunction)):
            rf = other if isinstance(other, RationalFunction) else RationalFunction(other)
            return self * rf.inv()
        if isinstance(other, ScalarExpr) and other.is_rational():
            return self * other.as_ratfun().inv()
        return NotImplemented

    def differentiate(self, index: int) -> ScalarExpr:
        """Exact partial derivative; d coth(u) = (1 - coth(u)^2) du."""
        out = ScalarExpr.zero(self.nvars)
        for mono, coeff in self.terms.items():
            dc = coeff.diff(index)
            if not dc.is_zero():
                out = out + ScalarExpr(self.nvars, {mono: dc}, _prune=False)
            for k, (atom, power) in enumerate(mono):
                u_i = atom[index]
                if u_i == 0:
                    continue
                # p*coth^{p-1}*(1-coth^2)*u_i, within the rest of the monomial
                rest = mono[:k] + ((atom, power - 1),) + mono[k + 1 :] if power > 1 else mono[:k] + mono[k + 1 :]
                low = _mono_normal(rest)
                high = _mono_mul(low, ((atom, 2),))
                scale = coeff * (u_i * power)
                out = out + ScalarExpr(self.nvars, {low: scale}, _prune=True)
                out = out + ScalarExpr(self.nvars, {high: -scale}, _prune=True)
        return out

    # -- evaluation

    def eval_exact(self, point: Sequence) -> Fraction:
        if self.has_coth():
            raise NotRationalError("expression contains coth atoms")
        return self.as_ratfun().eval_exact(point)

    def eval_numeric(self, point: Sequence, precision: int = 64, margin: float = 1e-6):
        """Evaluate at `point` with `precision` mantissa bits.

        coth(t) = (e^t + e^-t) / (e^t - e^-t); raises PoleError when the point
        is within `margin` of a denominator hyperplane or a coth singularity.
        Thread-safe: arithmetic runs in a per-precision context, never through
        mpmath's mutable global state.
        """
        ctx = mp_context(precision)
        atom_vals: dict[Atom, object] = {}
        for atom in self.atoms():
            u = atom_form_poly(atom).eval_mp(point, ctx)
            if abs(u) < margin:
                raise PoleError(f"coth({poly_to_str(atom_form_poly(atom))})", point)
            et, emt = ctx.exp(u), ctx.exp(-u)
            atom_vals[atom] = (et + emt) / (et - emt)
        acc = ctx.mpf(0)
        for mono, coeff in self.terms.items():
            t = coeff.eval_mp(point, margin=margin, ctx=ctx)
            for atom, power in mono:
                t *= atom_vals[atom] ** power
            acc += t
        return acc

    def singular_forms(self) -> list[Poly]:
        """Denominator factors and coth arguments, as polynomials."""
        forms: dict[tuple, Poly] = {}
        for coeff in self.terms.values():
            for f, _ in coeff.den:
                forms[f.key()] = f
        for atom in self.atoms():
            p = atom_form_poly(atom)
            forms[p.key()] = p
        return [forms[k] for k in sorted(forms)]

    def __str__(self) -> str:
        return to_sexpr(self)

    def __repr__(self) -> str:
        return f"ScalarExpr({to_sexpr(self)})"


def _mono_mul(m1: AtomMono, m2: AtomMono) -> AtomMono:
    powers: dict[Atom, int] = {}
    for a, p in m1:
        powers[a] = powers.get(a, 0) + p
    for a, p in m2:
        powers[a] = powers.get(a, 0) + p
    return tuple(sorted((a, p) for a, p in powers.items() if p))


def _mono_normal(m: AtomMono) -> AtomMono:
    return _mono_mul(m, ())


# ---------------------------------------------------------------------------
# witness sampling


def singular_forms(exprs: Iterable[ScalarExpr]) -> list[Poly]:
    """Denominator factors and coth arguments of all the expressions, each once."""
    forms = {f.key(): f for e in exprs for f in e.singular_forms()}
    return [forms[k] for k in sorted(forms)]


def sample_points(
    nvars: int,
    count: int,
    *,
    seed: int = 0,
    avoid: Sequence[Poly] = (),
    margin: float = 1e-6,
    lattice: int = 10,
    rng: random.Random | None = None,
) -> list[tuple[int, ...]]:
    """Draw integer lattice points in [-lattice, lattice]^nvars.

    Points within `margin` of any polynomial in `avoid` (in value, tested with
    exact arithmetic) are rejected and redrawn; the draw is seed-deterministic.
    """
    rng = rng or random.Random(seed)
    out: list[tuple[int, ...]] = []
    tries = 0
    limit = 1000 * max(count, 1)
    margin_q = Q(margin)
    while len(out) < count:
        tries += 1
        if tries > limit:
            raise RuntimeError("could not find margin-respecting sample points")
        pt = tuple(rng.randint(-lattice, lattice) for _ in range(nvars))
        if any(abs(f.eval_exact(pt)) <= margin_q for f in avoid):
            continue
        out.append(pt)
    return out


def largest_value(exprs: dict, points: Sequence, *, precision: int, margin: float) -> tuple:
    """(key, point, value) of the largest |value| of exprs over points.

    Points are scanned in order and keys in insertion order; the first
    maximum wins, so the result is deterministic.
    """
    best = None
    max_abs = 0.0
    for pt in points:
        for key, f in exprs.items():
            v = f.eval_numeric(pt, precision=precision, margin=margin)
            if best is None or abs(v) > max_abs:
                max_abs = float(abs(v))
                best = (key, pt, v)
    return best


# ---------------------------------------------------------------------------
# s-expression serialization
#
#   expr   := '(' '+' term* ')' | term
#   term   := '(' '*' ratfun factor* ')' | ratfun
#   factor := atom | '(' '^' atom INT ')'
#   atom   := '(' 'coth' RAT+ ')'          coefficients c0..c{N-1} then const
#   ratfun := '(' 'ratfun' '"NUM"' '"DEN"' ')' | RAT


def _ratfun_sexpr(rf: RationalFunction) -> str:
    if not rf.den and rf.num.is_const():
        return str(rf.num.const_value()) if not rf.num.is_zero() else "0"
    return f'(ratfun "{poly_to_str(rf.num)}" "{poly_to_str(rf.den_poly())}")'


def to_sexpr(f: ScalarExpr) -> str:
    if f.symbolically_zero():
        return "0"
    parts = []
    for mono in sorted(f.terms):
        rf = f.terms[mono]
        head = _ratfun_sexpr(rf)
        if not mono:
            parts.append(head)
            continue
        factors = []
        for atom, power in mono:
            a = "(coth " + " ".join(str(c) for c in atom) + ")"
            factors.append(a if power == 1 else f"(^ {a} {power})")
        parts.append(f"(* {head} {' '.join(factors)})")
    if len(parts) == 1:
        return parts[0]
    return f"(+ {' '.join(parts)})"


def _tokenize_sexpr(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = text.index('"', i + 1)
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_node(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok != "(":
        return tok, pos + 1
    out = []
    pos += 1
    while tokens[pos] != ")":
        node, pos = _parse_node(tokens, pos)
        out.append(node)
    return out, pos + 1


def from_sexpr(text: str, nvars: int) -> ScalarExpr:
    tokens = _tokenize_sexpr(text)
    tree, end = _parse_node(tokens, 0)
    if end != len(tokens):
        raise ValueError(f"trailing tokens after s-expression: {tokens[end:]}")

    def build(node) -> ScalarExpr:
        if isinstance(node, str):
            return ScalarExpr.const(nvars, Q(node))
        head = node[0]
        if head == "+":
            acc = ScalarExpr.zero(nvars)
            for sub in node[1:]:
                acc = acc + build(sub)
            return acc
        if head == "*":
            acc = ScalarExpr.const(nvars, 1)
            for sub in node[1:]:
                acc = acc * build(sub)
            return acc
        if head == "ratfun":
            num = poly_from_str(node[1].strip('"'), nvars)
            den = poly_from_str(node[2].strip('"'), nvars)
            if den.is_zero():
                raise ZeroDivisionError("ratfun with zero denominator")
            return ScalarExpr.from_ratfun(RationalFunction(num, [(den, 1)]))
        if head == "coth":
            entries = [Q(c) for c in node[1:]]
            if len(entries) != nvars + 1:
                raise ValueError(f"coth atom needs {nvars + 1} coefficients, got {len(entries)}")
            return ScalarExpr.coth(entries[:-1], entries[-1])
        if head == "^":
            base = build(node[1])
            power = int(node[2])
            acc = ScalarExpr.const(nvars, 1)
            for _ in range(power):
                acc = acc * base
            return acc
        raise ValueError(f"unknown s-expression head {head!r}")

    return build(tree)
