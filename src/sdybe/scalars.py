"""Exact scalar arithmetic for meromorphic coefficients on a Cartan dual space.

Coefficients are functions of N linear coordinates x0..x{N-1}.  Three layers:

  Poly              sparse multivariate polynomial over Q
                    ({exponent tuple: coefficient}, graded-lex monomial order);
                    an integral coefficient is stored as int, any other as
                    Fraction, so most arithmetic stays on ints
  RationalFunction  numerator Poly over a product of monic denominator factors;
                    reduced by exact division so num/den share no stored factor
  ScalarExpr        polynomial in coth atoms, stored as content times form: a
                    rational content and a primitive form whose number and
                    numerator coefficients are coprime ints, the first positive,
                    so expressions equal up to a rational factor share one form

Every denominator factor is interned: made monic once, given an integer id
from a process-wide table keyed by its canonical form, and its key cached on
the Poly.  Denominators merge by id, and a factor already in a denominator is
never normalised again.

There is one sum path.  `RationalFunction.sum` and `ScalarExpr.sum` take
(factor, term) pairs with int or Fraction factors: numerators over one
denominator add into one coefficient dict, the groups meet over the lcm of
their denominators, and the total is reduced once (a zero total is never
divided).  The lcm's factors are tried in canonical order, so a sum's stored
form does not depend on the order of its pairs, also where a reducible
factor shares a divisor with another.  A `ScalarExpr` sum brings each factor
times its term's content onto one lcm per sum, so the forms add with int
factors: int entries as ints (`_number_sums`), no Fraction made before the
sum's content, and RationalFunction entries through `RationalFunction.sum`.
A caller may pass a memo (sums) that gives one general-path sum per term
vector, up to sign.  A rational derivative is one `RationalFunction.sum` too,
d(n/D) = n'/D - sum_k m_k n f_k'/(D f_k), each term reduced before it
enters, and it multiplies no two denominator factors.  A product multiplies the two contents once and the two
forms, int forms as ints; a number scales the content only.  `_content_form`
is the one place a content is split off a result and its form made
primitive.  `+`, `-`, `*` and `* number` are calls of these, and the tensor
builders sum each cell through them.  A product tries each factor of its
merged denominator once against the product of the numerators.

A coth atom is coth(u) for an affine-linear form u with rational coefficients.
Atoms are sign-canonicalized (first nonzero coefficient of (u_0..u_{N-1}, const)
made positive via coth(-u) = -coth(u)), so expressions whose arguments differ
only by sign share an atom.  An atom is an int id into a process-wide table
that holds the canonical Fraction tuple, the form as a Poly, and the form
cleared of denominators (int coordinates, int constant, their lcm).  Ids
follow the order in which a process first met each form, so all output
(s-expression term and factor order) and every numeric product follows the
Fraction tuples, never the ids.  Both tables take new entries under a lock.

Zero is decided exactly and completely on the form
(`ScalarExpr.identically_zero`): the coth addition law is applied by
exponential substitution, which turns the expression into a polynomial in
exponential variables over the rational-function field.  Limits along a ray
are exact too (`ScalarExpr.ray_limit`).  Seeded numeric sampling
(`sample_points`, `largest_value`) only locates the witness of a nonzero
residual for `verifier.decide_cells`, the one zero decision of every residual
check.  A numeric value is evaluated exactly and rounded once, content times
entry formed first; mpmath computes only coth.
"""

from __future__ import annotations

import math
import random
import threading
from fractions import Fraction
from typing import Iterable, Sequence

# witness settings: points of [-LATTICE, LATTICE]^rank at least MARGIN from every singular form, values
# of at least MIN_PRECISION mantissa bits; `construct --at` reports a pole within MARGIN of one
MARGIN = 1e-6
LATTICE = 10
MIN_PRECISION = 64

# one immutable context per mantissa precision; mpmath's global context is
# mutable and workprec() on it would race under concurrent evaluation
_MP_CONTEXTS: dict = {}
_MP_LOCK = threading.Lock()


def mp_context(precision: int):
    """The mpmath context of this precision; mpmath is imported on first numeric use."""
    ctx = _MP_CONTEXTS.get(precision)
    if ctx is None:
        with _MP_LOCK:
            ctx = _MP_CONTEXTS.get(precision)
            if ctx is None:
                import mpmath

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


class MpPoint:
    """An exact point, with the coth atom values found at it.

    A coefficient's value and a coth atom's argument are evaluated exactly and
    rounded once; mpmath computes only coth.  The expressions evaluated at one
    point share it, and it lives no longer.
    """

    __slots__ = ("point", "ctx", "margin", "_coth")

    def __init__(self, point: Sequence, precision: int, margin: float):
        self.point = tuple(point)
        self.ctx = mp_context(precision)
        self.margin = margin
        self._coth: dict = {}

    def mpf(self, value):
        """The exact int or Fraction value, rounded to the nearest mpf once."""
        if value.__class__ is int:
            return self.ctx.mpf(value)
        return self.ctx.fdiv(value.numerator, value.denominator)

    def coth(self, atom: Atom):
        """coth(u) = (e^u + e^-u) / (e^u - e^-u) of the atom's form u; PoleError within margin of u = 0."""
        value = self._coth.get(atom)
        if value is None:
            form = atom_form_poly(atom)
            u = form.eval_exact(self.point)
            if not u or abs(u) < self.margin:
                raise PoleError(f"coth({poly_to_str(form)})", self.point)
            u = self.mpf(u)
            et, emt = self.ctx.exp(u), self.ctx.exp(-u)
            value = self._coth[atom] = (et + emt) / (et - emt)
        return value


Q = Fraction
Mono = tuple  # exponent tuple, one int per coordinate


def _grlex(mono: Mono):
    return (sum(mono), mono)


def _coeff(value):
    """A coefficient in stored form: int when integral, else Fraction."""
    if value.__class__ is int:
        return value
    value = value if value.__class__ is Q else Q(value)
    return value.numerator if value.denominator == 1 else value


def _add_terms(acc: dict, terms: dict, factor) -> None:
    """acc += factor * terms, coefficient by coefficient; cancelled entries stay as 0."""
    get = acc.get
    if factor == 1:
        for m, c in terms.items():
            s = get(m)
            acc[m] = c if s is None else s + c
    elif factor == -1:
        for m, c in terms.items():
            s = get(m)
            acc[m] = -c if s is None else s - c
    else:
        for m, c in terms.items():
            s = get(m)
            acc[m] = c * factor if s is None else s + c * factor


def _pruned(acc: dict) -> dict:
    """acc without zero entries, integral Fractions stored as int."""
    return {m: c if c.__class__ is int or c.denominator != 1 else c.numerator for m, c in acc.items() if c}


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Sparse multivariate polynomial over Q; coefficients are int or Fraction.

    `_key` caches the canonical form and `_hash` its hash, set on the first
    hash; `_fid` is the interned factor id, set only once the polynomial is a
    monic denominator factor.
    """

    __slots__ = ("nvars", "terms", "_key", "_fid", "_hash")

    def __init__(self, nvars: int, terms: dict | None = None, _prune: bool = True):
        self.nvars = nvars
        self._key = self._fid = None
        if terms and _prune:
            self.terms = {m: _coeff(c) for m, c in terms.items() if c != 0}
        else:
            self.terms = terms or {}

    # -- constructors

    @classmethod
    def const(cls, nvars: int, value) -> Poly:
        value = _coeff(value)
        return cls(nvars, {(0,) * nvars: value} if value else None, _prune=False)

    @classmethod
    def var(cls, nvars: int, index: int) -> Poly:
        if not 0 <= index < nvars:
            raise IndexError(f"coordinate {index} out of range for {nvars} vars")
        mono = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(nvars, {mono: 1}, _prune=False)

    @classmethod
    def linear(cls, coeffs: Sequence, const=0) -> Poly:
        """Affine form sum(coeffs[i] * x_i) + const."""
        n = len(coeffs)
        terms: dict = {}
        for i, c in enumerate(coeffs):
            c = _coeff(c)
            if c:
                terms[tuple(1 if k == i else 0 for k in range(n))] = c
        const = _coeff(const)
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
        return Q(self.terms.get((0,) * self.nvars, 0))

    def lead_mono(self) -> Mono:
        return max(self.terms, key=_grlex)

    def key(self) -> tuple:
        """Hashable canonical form (sorted term list), computed once."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # not hashed yet
            self._hash = hash((self.nvars, self.key()))
            return self._hash

    # -- arithmetic

    def _check(self, other: Poly):
        if self.nvars != other.nvars:
            raise ValueError("mixed coordinate dimensions")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        out = dict(self.terms)
        _add_terms(out, other.terms, 1)
        return Poly(self.nvars, _pruned(out), _prune=False)

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()}, _prune=False)

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = _coeff(other)
            if other == 0:
                return Poly(self.nvars)
            return Poly(self.nvars, _pruned({m: c * other for m, c in self.terms.items()}), _prune=False)
        self._check(other)
        if len(other.terms) == 1 and not any(next(iter(other.terms))):
            return self * next(iter(other.terms.values()))
        if len(self.terms) == 1 and not any(next(iter(self.terms))):
            return other * next(iter(self.terms.values()))
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(self.nvars, _pruned(out), _prune=False)

    __rmul__ = __mul__

    def diff(self, index: int) -> Poly:
        out: dict = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                dm = tuple(v - 1 if k == index else v for k, v in enumerate(m))
                out[dm] = out.get(dm, 0) + c * e
        return Poly(self.nvars, out)

    def exact_div(self, divisor: Poly) -> Poly | None:
        """Quotient self/divisor if the division is exact, else None."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Poly(self.nvars)
        lt_m = divisor.lead_mono()
        lt_c = divisor.terms[lt_m]
        rem = dict(self.terms)
        quo: dict = {}
        while rem:
            m = max(rem, key=_grlex)
            dm = tuple(a - b for a, b in zip(m, lt_m))
            if any(e < 0 for e in dm):
                return None
            c = rem[m] if lt_c == 1 else _coeff(Q(rem[m]) / lt_c)
            quo[dm] = c
            for m2, c2 in divisor.terms.items():
                mm = tuple(a + b for a, b in zip(dm, m2))
                s = rem.get(mm, 0) - c * c2
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return Poly(self.nvars, _pruned(quo), _prune=False)

    # -- evaluation

    def eval_exact(self, point: Sequence):
        """The exact value at point, an int while every coefficient and coordinate is integral."""
        vals = [v if v.__class__ is int else _coeff(v) for v in point]
        acc = 0
        for m, c in self.terms.items():
            for v, e in zip(vals, m):
                if e:
                    c *= v**e
            acc += c
        return acc

    # -- text form

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {poly_to_str(self)!r})"


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

# interned denominator factors: canonical key of a monic factor -> factor id
_FACTOR_IDS: dict[tuple, int] = {}
_INTERN_LOCK = threading.Lock()


def _intern_factor(f: Poly) -> None:
    """Give the monic, non-constant f its factor id (cached on f with its key)."""
    key = f.key()
    fid = _FACTOR_IDS.get(key)
    if fid is None:
        with _INTERN_LOCK:
            fid = _FACTOR_IDS.setdefault(key, len(_FACTOR_IDS))
    f._fid = fid


def _factor_key(entry: tuple[Poly, int]) -> tuple:
    return entry[0]._key


def _cancel(num: Poly, factors: dict, fids: Iterable[int]) -> RationalFunction:
    """num / factors ({id: (factor, multiplicity)}), each factor in fids tried against num."""
    for fid in fids:
        f, mult = factors[fid]
        while mult and (q := num.exact_div(f)) is not None:
            num, mult = q, mult - 1
        if mult:
            factors[fid] = (f, mult)
        else:
            del factors[fid]
    # ordered by canonical key, never by id, so one denominator has one order
    return RationalFunction._reduced(num, tuple(sorted(factors.values(), key=_factor_key)) if num.terms else ())


class RationalFunction:
    """num / prod(factor^mult) with monic, non-constant, reduced factors.

    Zero-equality is decidable: the function is zero iff `num` is the zero
    polynomial.  Denominator factors are kept in factored form so that pole
    hyperplanes stay visible and cancellation is cheap (exact division).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Iterable[tuple[Poly, int]] = ()):
        factors: dict[int, tuple[Poly, int]] = {}  # factor id -> (factor, multiplicity)
        for f, mult in den:
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("negative factor multiplicity")
            if f._fid is None:
                if f.is_zero():
                    raise ZeroDivisionError("zero denominator factor")
                if f.is_const():
                    num = num * (Q(1) / f.const_value()) ** mult
                    continue
                lc = Q(f.terms[f.lead_mono()])
                if lc != 1:
                    f = f * (Q(1) / lc)
                    num = num * (Q(1) / lc) ** mult
                _intern_factor(f)
            fid = f._fid
            if fid in factors:
                factors[fid] = (f, factors[fid][1] + mult)
            else:
                factors[fid] = (f, mult)
        reduced = _cancel(num, factors, list(factors) if num.terms else ())
        self.num = reduced.num
        self.den = reduced.den

    @classmethod
    def _reduced(cls, num: Poly, den: tuple) -> RationalFunction:
        """num / den as given; the caller guarantees the canonical, reduced form."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @staticmethod
    def sum(pairs: Sequence[tuple]) -> RationalFunction:
        """sum(factor * term for factor, term in pairs), reduced once.

        A factor is an int or a Fraction; pairs must not be empty.  Numerators
        over one denominator add into one coefficient dict (+-1 as an add or
        a subtract); these groups meet over the lcm of their denominators, and
        each factor of the lcm is tried against the total once, in the order
        of their canonical keys, whatever order the pairs come in.  A zero total
        divides nothing; a single term is already reduced.  A term with factor
        0 (the merged factors of terms that cancel) keeps its place in the
        group order and the lcm, as those terms would.
        """
        nvars = pairs[0][1].num.nvars
        live = [(factor, term) for factor, term in pairs if term.num.terms]
        if len(live) < 2:
            if not live or not live[0][0]:
                return RationalFunction.zero(nvars)
            factor, term = live[0]
            if factor == 1:
                return term
            return RationalFunction._reduced(-term.num if factor == -1 else term.num * factor, term.den)
        groups: dict[tuple, tuple] = {}  # (factor id, multiplicity) pairs -> (den, coefficients)
        for factor, term in live:
            key = tuple([(f._fid, m) for f, m in term.den])
            group = groups.get(key)
            if group is None:
                group = groups[key] = (term.den, {})
            _add_terms(group[1], term.num.terms, factor)
        factors = {}  # the lcm: factor id -> (factor, highest multiplicity)
        for den, _ in groups.values():
            for f, m in den:
                if m > factors.get(f._fid, (f, 0))[1]:
                    factors[f._fid] = (f, m)
        total: dict = {}
        for key, (_, acc) in groups.items():
            have = dict(key)
            for fid, (f, m) in factors.items():
                for _ in range(m - have.get(fid, 0)):
                    acc = (Poly(nvars, acc, _prune=False) * f).terms
            if total:
                _add_terms(total, acc, 1)
            else:  # the first group's dict, built here, starts the total
                total = acc
        total = _pruned(total)
        fids = sorted(factors, key=lambda fid: factors[fid][0]._key) if total else ()
        return _cancel(Poly(nvars, total, _prune=False), factors, fids)

    # -- constructors

    @classmethod
    def zero(cls, nvars: int) -> RationalFunction:
        return cls(Poly(nvars))

    @classmethod
    def const(cls, nvars: int, value) -> RationalFunction:
        return cls._reduced(Poly.const(nvars, value), ())

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
        if not isinstance(other, (RationalFunction, int, Fraction)):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # value equality across representations; not hashable

    # -- arithmetic

    def _coerce(self, other) -> RationalFunction:
        # own type first: isinstance against Fraction goes through its ABC
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(self.nvars, other)
        raise TypeError(f"cannot combine a RationalFunction with {type(other).__name__}")

    def __add__(self, other) -> RationalFunction:
        other = self._coerce(other)
        return RationalFunction.sum(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFunction.sum(((1, self), (-1, other)))

    def __mul__(self, other) -> RationalFunction:
        """The product, reduced: each factor of the merged denominator is tried
        once against the product of the numerators, and none when that product
        is constant, as no non-constant factor divides a nonzero constant."""
        other = self._coerce(other)
        num = self.num * other.num
        if not self.den and not other.den:
            return RationalFunction._reduced(num, ())
        factors = {f._fid: (f, m) for f, m in self.den}  # id -> (factor, multiplicity)
        for f, m in other.den:
            factors[f._fid] = (f, factors[f._fid][1] + m) if f._fid in factors else (f, m)
        return _cancel(num, factors, () if num.is_const() else list(factors))

    __rmul__ = __mul__

    def diff(self, index: int) -> RationalFunction:
        """d(n/D)/dx_index = n'/D - sum_k m_k n f_k' / (D f_k) over the factors f_k^m_k of D, as one
        `RationalFunction.sum` of terms the constructor has reduced."""
        pairs = [(1, RationalFunction(self.num.diff(index), self.den))]
        for f, m in self.den:
            df = f.diff(index)
            if df.terms:
                pairs.append((-m, RationalFunction(self.num * df, (*self.den, (f, 1)))))
        return RationalFunction.sum(pairs)

    # -- evaluation

    def eval_exact(self, point: Sequence, margin: float = 0):
        """The exact value at point; PoleError where a denominator factor is 0 or within margin of 0."""
        den = 1
        for f, m in self.den:
            fv = f.eval_exact(point)
            if not fv or abs(fv) < margin:
                raise PoleError(poly_to_str(f), point)
            den *= fv**m
        num = self.num.eval_exact(point)
        return num if den == 1 else Q(num, den)

    def __str__(self) -> str:
        if not self.den:
            return poly_to_str(self.num)
        return f"({poly_to_str(self.num)}) / ({poly_to_str(self.den_poly())})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# ---------------------------------------------------------------------------
# coth atoms and scalar expressions

Atom = int  # id into _ATOMS, whose entry holds the form (c_0, ..., c_{N-1}, const)
AtomMono = tuple  # ((atom, power), ...) sorted by atom id, powers positive

# interned coth atoms: id -> (sign-canonical Fraction tuple, the form as a Poly), and
# id -> (the form cleared of denominators: int coordinates, then the int constant; their lcm), its _ATOM_IDS key
_ATOMS: list[tuple[tuple, Poly]] = []
_CLEARED: list[tuple[tuple, int]] = []
_ATOM_IDS: dict[tuple, int] = {}


def make_atom(coeffs: Sequence, const=0, scale=1) -> tuple[Atom, int]:
    """Canonicalize the affine form u = scale * (coeffs . x + const) of a coth atom; returns (atom, sign).

    coth is odd, so coth(u) = sign * coth(|u|) where |u| has its first
    nonzero entry (coordinates first, then constant) positive.  The lookup hashes
    the cleared ints and their lcm; only a new atom builds its Fraction tuple.
    A scale p/q needs no Fraction product: with the entries cleared to ints U
    over their lcm L, u is cleared to p U / h over q L / h, h = gcd(p gcd(U), q L).
    """
    entries = [c if c.__class__ is int or c.__class__ is Q else Q(c) for c in (*coeffs, const)]
    lcm = math.lcm(*[c.denominator for c in entries])
    cleared = [c.numerator * (lcm // c.denominator) for c in entries]
    if scale != 1:
        p, q = (scale, 1) if scale.__class__ is int else (scale.numerator, scale.denominator)
        h = math.gcd(p * math.gcd(*cleared), q * lcm)
        cleared = [p * c // h for c in cleared]
        lcm = q * lcm // h
    sign = 0
    for c in cleared:
        if c != 0:
            sign = 1 if c > 0 else -1
            break
    if sign == 0:
        raise ZeroDivisionError("coth of identically zero argument")
    key = (tuple(cleared if sign > 0 else [-c for c in cleared]), lcm)
    atom = _ATOM_IDS.get(key)
    if atom is None:
        with _INTERN_LOCK:
            atom = _ATOM_IDS.get(key)
            if atom is None:
                atom = len(_ATOMS)
                entries = tuple([Q(c, lcm) for c in key[0]])
                _ATOMS.append((entries, Poly.linear(entries[:-1], entries[-1])))
                _CLEARED.append(key)
                _ATOM_IDS[key] = atom
    return atom, sign


def atom_entries(atom: Atom) -> tuple:
    """The sign-canonical form (c_0, ..., c_{N-1}, const) of the atom, as Fractions."""
    return _ATOMS[atom][0]


def atom_form_poly(atom: Atom) -> Poly:
    """The affine argument of the atom as a Poly."""
    return _ATOMS[atom][1]


class ScalarExpr:
    """Polynomial in coth atoms over the rational-function field, stored as content times form.

    content is a nonzero int or Fraction (0 for the zero expression).  form is
    a tuple of (atom monomial, entry) pairs sorted by monomial, where an atom
    monomial is ((atom, power), ...) and the empty monomial holds the
    coth-free part.  An entry is an int, for a constant coefficient, or the
    (numerator, denominator) pair of a RationalFunction coefficient that is
    not constant, its numerator a Poly of int coefficients, hashed and compared
    by its sorted terms.  The ints of all entries (numbers and
    numerator coefficients, a numerator's in the sorted order of its
    monomials) are coprime and the first is positive, so expressions equal up
    to a rational factor share one form, and the form is hashable.  `terms`
    is the coefficient view, content times each entry, its numerators in
    sorted term order.  All operations are pure; values are immutable after
    construction.
    """

    __slots__ = ("nvars", "content", "form")

    def __init__(self, nvars: int, terms: dict | None = None):
        """The expression sum(c * monomial) over terms {atom monomial: coefficient}, a coefficient
        a number or a RationalFunction, stored as `_stored` gives it; zero coefficients drop out."""
        self.nvars = nvars
        stored = ((m, _stored(c) if c.__class__ is RationalFunction else c) for m, c in (terms or {}).items())
        self.content, self.form = _content_form(nvars, {m: c for m, c in stored if c})

    @classmethod
    def _of(cls, nvars: int, content, form: tuple) -> ScalarExpr:
        """content * form as given; the caller guarantees a primitive form and a stored content."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.content = content
        out.form = form
        return out

    # -- constructors

    @classmethod
    def zero(cls, nvars: int) -> ScalarExpr:
        return cls._of(nvars, 0, ())

    @classmethod
    def const(cls, nvars: int, value) -> ScalarExpr:
        value = _coeff(value)
        return cls._of(nvars, value, _ONE) if value else cls._of(nvars, 0, ())

    @classmethod
    def coord(cls, nvars: int, index: int) -> ScalarExpr:
        return cls(nvars, {(): RationalFunction(Poly.var(nvars, index))})

    @classmethod
    def from_ratfun(cls, rf: RationalFunction) -> ScalarExpr:
        return cls(rf.nvars, {(): rf})

    @classmethod
    def coth(cls, coeffs: Sequence, const=0, scale=1) -> ScalarExpr:
        """coth(scale * (coeffs . x + const))."""
        atom, sign = make_atom(coeffs, const, scale)
        return cls._of(len(coeffs), sign, ((((atom, 1),), 1),))

    # -- structure

    @property
    def terms(self) -> dict:
        """{atom monomial: coefficient} in form order: content times each entry, formed exactly
        once; a number (an int when integral) or a RationalFunction."""
        c = self.content
        return {
            mono: _coeff(c * k)
            if k.__class__ is int
            else RationalFunction._reduced(Poly(self.nvars, {m: _coeff(v * c) for m, v in k[0].key()}, _prune=False), k[1])
            for mono, k in self.form
        }

    def is_rational(self) -> bool:
        return all(not m for m, _ in self.form)

    def symbolically_zero(self) -> bool:
        """Exact zero test with atoms as independent indeterminates (sound)."""
        return not self.form

    def constant(self):
        """The int or Fraction value of a constant expression, else None."""
        if not self.form:
            return 0
        return self.content if self.form == _ONE else None

    def identically_zero(self) -> bool:
        """Exact and complete zero test on the form; applies the coth addition law.

        With L the lcm of the atoms' coefficient denominators, substitute
        y_i = e^{2 x_i / L} and t = e^{2/L}.  Then e^{2u} = P/M for monomials
        P, M in (y, t), so coth u = (P + M)/(P - M).  Clearing the (P - M)
        denominators leaves a polynomial in (y, t) over the rational
        functions in x; the expression is zero iff every coefficient of that
        polynomial is.  The substitution is a ring homomorphism, so this is
        sound.  The x_i and e^{2 x_i / L} are algebraically independent (Ax,
        Ann. Math. 93, 1971) and e^{2/L} is transcendental (Lindemann), so it
        is also complete.  P and M come from each atom's cleared int form.

        A (y, t) monomial is packed into one int, a field of `width` bits per
        exponent, wide enough for the largest exponent any cleared polynomial
        reaches, so a monomial product is an int sum.  Each atom's
        (P + M)^k (P - M)^(top - k) is built once per call and power k.
        """
        form = self.form
        if not form:
            return True
        tops: dict[Atom, int] = {}  # atom -> its highest power
        for mono, _ in form:
            for atom, power in mono:
                if power > tops.get(atom, 0):
                    tops[atom] = power
        if not tops:
            return False
        lcm = math.lcm(*[_CLEARED[atom][1] for atom in tops])
        signed = {atom: [v * (lcm // _CLEARED[atom][1]) for v in _CLEARED[atom][0]] for atom in tops}  # over lcm
        # no exponent exceeds the sum over atoms of their largest |entry| times their top power
        width = sum(max(map(abs, signed[atom])) * top for atom, top in tops.items()).bit_length()
        factors: dict[Atom, dict] = {}  # atom -> {k: (P + M)^k (P - M)^(top - k)}
        for atom, top in tops.items():
            p = sum(v << (width * j) for j, v in enumerate(signed[atom]) if v > 0)
            m = sum(-v << (width * j) for j, v in enumerate(signed[atom]) if v < 0)
            plus, minus = [{0: 1}], [{0: 1}]
            for _ in range(top):
                plus.append(_packed_mul(plus[-1], {p: 1, m: 1}))
                minus.append(_packed_mul(minus[-1], {p: 1, m: -1}))
            factors[atom] = {k: _packed_mul(plus[k], minus[top - k]) for k in range(top + 1)}
        numerator: dict[int, list] = {}  # (y, t) monomial -> its (int, entry) terms
        for mono, k in form:
            powers = dict(mono)
            cleared = {0: 1}
            for atom, table in factors.items():
                cleared = _packed_mul(cleared, table[powers.get(atom, 0)])
            for m, c in cleared.items():
                if c:
                    numerator.setdefault(m, []).append((c, k))
        if all(k.__class__ is int for _, k in form):
            return not any(sum([c * k for c, k in terms]) for terms in numerator.values())
        return not any(_sum_group(self.nvars, [(c, _entry(k)) for c, k in terms]) for terms in numerator.values())

    def as_ratfun(self) -> RationalFunction:
        if not self.is_rational():
            raise NotRationalError("expression contains coth atoms")
        c = self.terms.get((), 0)
        return c if c.__class__ is RationalFunction else RationalFunction.const(self.nvars, c)

    def atoms(self) -> set[Atom]:
        return {a for m, _ in self.form for a, _ in m}

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ScalarExpr, int, Fraction)):
            return NotImplemented
        return (self - other).symbolically_zero()

    __hash__ = None  # value equality across representations; not hashable

    # -- arithmetic

    def _coerce(self, other) -> ScalarExpr:
        if isinstance(other, ScalarExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return ScalarExpr.const(self.nvars, other)
        raise TypeError(f"cannot combine a ScalarExpr with {type(other).__name__}")

    @staticmethod
    def sum(nvars: int, pairs: Sequence[tuple], *, sums: dict | None = None) -> ScalarExpr:
        """sum(factor * term for factor, term in pairs), one reduction per atom monomial.

        A factor is an int or a Fraction, and meets each term's content once.
        When every entry is an int, the sum is `_number_sums`'; otherwise each
        monomial's coefficients add through `_sum_group`.

        sums memoizes the general path by term vector: the (id(term), factor)
        pairs sorted by id, zero factors kept (they shape the lcm), with the
        sign of the first nonzero factor divided out, so a vector and its
        negation share one sum.  The caller keeps every keyed term alive while
        sums is in use (`_TensorBase.summed` passes one per call).
        """
        numbers = _number_sums(nvars, pairs)
        if numbers is not None:
            return numbers
        if sums is not None:
            key = sorted([(id(term), factor) for factor, term in pairs])
            sign = next((-1 if f < 0 else 1 for _, f in key if f), 1)
            key = tuple(key) if sign == 1 else tuple([(i, -f) for i, f in key])
            hit = sums.get(key)
            if hit is not None:
                return hit if sign == 1 else -hit
        scaled = [(factor * term.content, term) for factor, term in pairs]
        lcm = math.lcm(*[q.denominator for q, _ in scaled])
        groups: dict[AtomMono, list] = {}
        for q, term in scaled:
            f = q.numerator * (lcm // q.denominator)
            for mono, k in term.form:
                group = groups.get(mono)
                if group is None:
                    groups[mono] = [(f, _entry(k))]
                else:
                    group.append((f, _entry(k)))
        out = ScalarExpr._of(nvars, *_content_form(nvars, _sum_groups(nvars, groups), 1 if lcm == 1 else Q(1, lcm)))
        if sums is not None:
            sums[key] = out if sign == 1 else -out
        return out

    def __add__(self, other) -> ScalarExpr:
        other = self._coerce(other)
        return ScalarExpr.sum(self.nvars, ((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> ScalarExpr:
        return ScalarExpr._of(self.nvars, -self.content, self.form)

    def __sub__(self, other):
        other = self._coerce(other)
        return ScalarExpr.sum(self.nvars, ((1, self), (-1, other)))

    def __mul__(self, other) -> ScalarExpr:
        """The product: a number scales the content, and two expressions multiply their contents
        once and their forms; two int forms multiply as ints."""
        n = self.nvars
        if other.__class__ in (int, Q):
            c = _coeff(self.content * other)
            return ScalarExpr._of(n, c, self.form) if c else ScalarExpr.zero(n)
        other = self._coerce(other)
        a, b = self.form, other.form
        if not a or not b:
            return ScalarExpr.zero(n)
        content = _coeff(self.content * other.content)
        if a == _ONE or b == _ONE:
            return ScalarExpr._of(n, content, b if a == _ONE else a)
        if len(a) == 1 == len(b):  # one product, nonzero: nothing to sum
            ((m1, k1),), ((m2, k2),) = a, b
            if k1.__class__ is int and k2.__class__ is int:  # both 1, as the forms are primitive
                return ScalarExpr._of(n, content, ((_mono_mul(m1, m2), 1),))
            return ScalarExpr._of(n, *_content_form(n, {_mono_mul(m1, m2): _times(_entry(k1), _entry(k2))}, content))
        if all(k.__class__ is int for _, k in a) and all(k.__class__ is int for _, k in b):
            acc: dict = {}
            for m1, k1 in a:
                for m2, k2 in b:
                    m = _mono_mul(m1, m2)
                    s = acc.get(m)
                    acc[m] = k1 * k2 if s is None else s + k1 * k2
            return _from_ints(n, acc, 1, content)
        groups: dict[AtomMono, list] = {}
        for m1, k1 in a:
            c1 = _entry(k1)
            for m2, k2 in b:
                groups.setdefault(_mono_mul(m1, m2), []).append((1, _times(c1, _entry(k2))))
        return ScalarExpr._of(n, *_content_form(n, _sum_groups(n, groups), content))

    __rmul__ = __mul__

    def differentiate(self, index: int) -> ScalarExpr:
        """Exact partial derivative; d coth(u) = (1 - coth(u)^2) du.

        The form is differentiated and the result scaled by the content once.
        du/dx_index is the atom's cleared int over its lcm, so every factor is
        an int over the lcm L of the atoms' lcms: on an int form the terms add
        as ints, and on any other the coefficients add with int factors.
        """
        n = self.nvars
        lcm = math.lcm(*[_CLEARED[atom][1] for atom in self.atoms()])
        numbers = all(k.__class__ is int for _, k in self.form)
        groups: dict[AtomMono, list] = {}  # monomial -> its (int factor, coefficient) terms
        for mono, k in self.form:
            coeff = k if numbers else _entry(k)
            if coeff.__class__ is RationalFunction and (dc := coeff.diff(index)).num.terms:
                groups.setdefault(mono, []).append((lcm, dc))
            for pos, (atom, power) in enumerate(mono):
                cleared, own = _CLEARED[atom]
                if not cleared[index]:
                    continue
                # p*coth^{p-1}*(1-coth^2)*u_i, within the rest of the monomial
                # (a canonical monomial, as mono is)
                low = mono[:pos] + ((atom, power - 1),) + mono[pos + 1 :] if power > 1 else mono[:pos] + mono[pos + 1 :]
                high = _mono_mul(low, ((atom, 2),))
                f = cleared[index] * power * (lcm // own)
                groups.setdefault(low, []).append((f, coeff))
                groups.setdefault(high, []).append((-f, coeff))
        if numbers:
            acc = {mono: sum([f * k for f, k in terms]) for mono, terms in groups.items()}
            return _from_ints(n, acc, lcm, self.content)
        return ScalarExpr._of(n, *_content_form(n, _sum_groups(n, groups), self.content if lcm == 1 else _coeff(Q(self.content, lcm))))

    # -- evaluation

    def eval_exact(self, point: Sequence, margin: float = 0):
        return self.as_ratfun().eval_exact(point, margin)

    def eval_numeric(self, point: Sequence | MpPoint, precision: int = MIN_PRECISION, margin: float = MARGIN):
        """The value at `point` as an mpf of `precision` mantissa bits.

        Each coefficient, content times entry, is formed and evaluated
        exactly and rounded once; mpmath is used only for the coth atoms
        (`MpPoint.coth`).  Raises PoleError when
        the point is within `margin` of a coth singularity (atoms first, in
        canonical order) or of a denominator hyperplane, judged on exact
        values.  An MpPoint brings its own precision and margin.
        Thread-safe: arithmetic runs in a per-precision context, never
        through mpmath's mutable global state.
        """
        at = point if isinstance(point, MpPoint) else MpPoint(point, precision, margin)
        for atom in sorted(self.atoms(), key=atom_entries):
            at.coth(atom)
        acc = at.ctx.mpf(0)
        for mono, coeff in self.terms.items():
            t = at.mpf(coeff.eval_exact(at.point, at.margin) if coeff.__class__ is RationalFunction else coeff)
            for atom, power in _shown(mono):
                t *= at.coth(atom) ** power
            acc += t
        return acc

    def ray_limit(self, w: Sequence) -> ScalarExpr:
        """The limit of the expression at t*w as t -> +infinity, for number coefficients.

        coth(c.x + d) at x = t*w tends to the sign of its slope c.w; a zero
        slope leaves coth(d), which has no rational limit, so PoleError.  Slopes
        are taken on each atom's cleared int coordinates; the signed entries
        add as ints, scaled by the content once.
        """
        acc = 0
        for mono, k in self.form:
            if k.__class__ is not int:
                raise ValueError("ray_limit needs constant coefficients")
            for atom, power in mono:
                slope = sum([c * x for c, x in zip(_CLEARED[atom][0][:-1], w)])
                if slope == 0:
                    raise PoleError(f"coth({poly_to_str(atom_form_poly(atom))})", w)
                if slope < 0 and power % 2:
                    k = -k
            acc += k
        return ScalarExpr.const(self.nvars, self.content * acc)

    def singular_forms(self) -> list[Poly]:
        """Denominator factors and coth arguments, as polynomials."""
        forms: dict[tuple, Poly] = {}
        for _, k in self.form:
            if k.__class__ is not int:
                for f, _ in k[1]:
                    forms[f.key()] = f
        for atom in self.atoms():
            p = atom_form_poly(atom)
            forms[p.key()] = p
        return [forms[k] for k in sorted(forms)]

    def __repr__(self) -> str:
        return f"ScalarExpr({to_sexpr(self)})"


_ONE = (((), 1),)  # the form of every nonzero constant


def _content_of(ints: list, lcm: int, scale, lead) -> tuple:
    """(g, content) of the coefficients ints / lcm whose first in form order is lead, times the
    number scale: g is the gcd of the ints, signed as lead, and content = scale * g / lcm, an int
    when integral.  The one place a content is split off."""
    g = math.gcd(*ints)
    if lead < 0:
        g = -g
    num, den = (scale * g, lcm) if scale.__class__ is int else (scale.numerator * g, scale.denominator * lcm)
    q, r = divmod(num, den)
    return g, Q(num, den) if r else q


def _from_ints(nvars: int, acc: dict, lcm: int, scale) -> ScalarExpr:
    """scale * sum(v * monomial for monomial, v in acc.items()) / lcm for int values v; a
    monomial whose value is 0 is dropped."""
    monos = sorted([m for m, v in acc.items() if v])
    if len(monos) < 2:  # zero, or one entry, which is 1
        if not monos:
            return ScalarExpr._of(nvars, 0, ())
        v = acc[monos[0]]
        return ScalarExpr._of(nvars, _content_of([v], lcm, scale, v)[1], ((monos[0], 1),))
    ints = [acc[m] for m in monos]
    g, content = _content_of(ints, lcm, scale, ints[0])
    if g != 1:
        ints = [v // g for v in ints]
    return ScalarExpr._of(nvars, content, tuple(zip(monos, ints)))


def _content_form(nvars: int, terms: dict, scale=1) -> tuple:
    """(content, form) of scale * sum(c * monomial) over terms {atom monomial: stored coefficient}.

    Every number and numerator coefficient is brought to an int over their
    lcm; the gcd of those ints, signed as the first coefficient in form order
    (a numerator's first is that of its least monomial), goes into the
    content.  A numerator that is already primitive is kept.
    """
    if not terms:
        return 0, ()
    monos = sorted(terms)
    values = []
    for mono in monos:
        c = terms[mono]
        if c.__class__ is RationalFunction:
            values += c.num.terms.values()
        else:
            values.append(_coeff(c))
    lead = terms[monos[0]]
    if lead.__class__ is RationalFunction:
        lead = lead.num.terms[min(lead.num.terms)]
    lcm = math.lcm(*[v.denominator for v in values])
    g, content = _content_of(values if lcm == 1 else [v.numerator * (lcm // v.denominator) for v in values], lcm, scale, lead)
    form = []
    for mono in monos:
        c = terms[mono]
        if c.__class__ is not RationalFunction:
            form.append((mono, c.numerator * (lcm // c.denominator) // g))
        elif lcm == 1 and g == 1:  # already primitive
            form.append((mono, (c.num, c.den)))
        else:
            num = {m: v.numerator * (lcm // v.denominator) // g for m, v in c.num.terms.items()}
            form.append((mono, (Poly(nvars, num, _prune=False), c.den)))
    return content, tuple(form)


def _entry(k):
    """A form entry as a stored coefficient: the int, or the RationalFunction of a (numerator,
    denominator) pair."""
    return k if k.__class__ is int else RationalFunction._reduced(k[0], k[1])


def _stored(rf: RationalFunction):
    """rf as a stored coefficient: its int or Fraction value when constant (0 when zero), else rf."""
    terms = rf.num.terms
    if rf.den or len(terms) > 1 or any(next(iter(terms), ())):
        return rf
    return next(iter(terms.values()), 0)


def _number_sums(nvars: int, pairs: Iterable[tuple]) -> ScalarExpr | None:
    """sum(factor * term) over (factor, ScalarExpr) pairs when every form entry is an int, else
    None.  Each factor times its term's content is an int over a denominator, brought onto one
    lcm per sum, and the form entries add as ints; no Fraction is made until the content."""
    acc: dict = {}
    lcm = 1
    get = acc.get
    for factor, term in pairs:
        c = term.content
        if factor.__class__ is int:
            if c.__class__ is int:
                n, d = factor * c, 1
            else:
                n, d = factor * c.numerator, c.denominator
        elif c.__class__ is int:
            n, d = factor.numerator * c, factor.denominator
        else:
            n, d = factor.numerator * c.numerator, factor.denominator * c.denominator
        if not n:
            if any(k.__class__ is not int for _, k in term.form):
                return None
            continue
        if d != lcm:
            if lcm % d:  # a new lcm: the sums so far are rescaled onto it
                grow = d // math.gcd(lcm, d)
                lcm *= grow
                for mono in acc:
                    acc[mono] *= grow
            n *= lcm // d
        for mono, k in term.form:
            if k.__class__ is not int:
                return None
            s = get(mono)
            acc[mono] = n * k if s is None else s + n * k
    return _from_ints(nvars, acc, lcm, 1)


def _packed_mul(a: dict, b: dict) -> dict:
    """The product of two polynomials {packed monomial: int}; see `ScalarExpr.identically_zero`."""
    out: dict = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            s = get(m)
            out[m] = c1 * c2 if s is None else s + c1 * c2
    return out


def _times(c1, c2):
    """c1 * c2 as a stored coefficient, for nonzero c1 and c2; a number scales a numerator."""
    if c1.__class__ is not RationalFunction:
        c1, c2 = c2, c1
    if c1.__class__ is not RationalFunction:
        return _coeff(c1 * c2)
    if c2.__class__ is not RationalFunction:
        return RationalFunction._reduced(c1.num * c2, c1.den)
    return _stored(c1 * c2)


def _sum_group(nvars: int, terms: list):
    """sum(factor * c for factor, c in terms) as a stored coefficient, 0 when it cancels.

    A coefficient c is a number or a RationalFunction, constant or not.  The
    numbers add as numbers, and their total is lifted to a RationalFunction
    only beside one.
    """
    numbers = [f * c for f, c in terms if c.__class__ is not RationalFunction]
    if not numbers:
        c = RationalFunction.sum(terms)
        return c if c.den else _stored(c)
    number = _coeff(sum(numbers))
    ratfuns = [t for t in terms if t[1].__class__ is RationalFunction]
    if ratfuns and number:
        ratfuns.append((1, RationalFunction.const(nvars, number)))
    return _stored(RationalFunction.sum(ratfuns)) if ratfuns else number


def _sum_groups(nvars: int, groups: dict) -> dict:
    """{monomial: `_sum_group` of its (factor, coefficient) terms}, zero sums dropped."""
    out = {}
    for mono, terms in groups.items():
        c = _sum_group(nvars, terms)
        if c:
            out[mono] = c
    return out


def _mono_mul(m1: AtomMono, m2: AtomMono) -> AtomMono:
    if not m2:
        return m1
    if not m1:
        return m2
    powers: dict[Atom, int] = dict(m1)
    for a, p in m2:
        powers[a] = powers.get(a, 0) + p
    return tuple(sorted(powers.items()))


def _atom_order(factor: tuple[Atom, int]) -> tuple:
    return _ATOMS[factor[0]][0]


def _shown(mono: AtomMono) -> AtomMono:
    """The factors of mono in the order of their Fraction tuples, never their ids."""
    return mono if len(mono) < 2 else tuple(sorted(mono, key=_atom_order))


def _shown_key(mono: AtomMono) -> tuple:
    return tuple((_ATOMS[a][0], p) for a, p in _shown(mono))


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
    margin: float = MARGIN,
    lattice: int = LATTICE,
) -> list[tuple[int, ...]]:
    """Draw integer lattice points in [-lattice, lattice]^nvars.

    Points within `margin` of any polynomial in `avoid` (in value, tested with
    exact arithmetic) are rejected and redrawn; the draw is seed-deterministic.
    """
    rng = random.Random(seed)
    out: list[tuple[int, ...]] = []
    tries = 0
    limit = 1000 * max(count, 1)
    while len(out) < count:
        tries += 1
        if tries > limit:
            raise RuntimeError("could not find margin-respecting sample points")
        pt = tuple(rng.randint(-lattice, lattice) for _ in range(nvars))
        if any(abs(f.eval_exact(pt)) <= margin for f in avoid):
            continue
        out.append(pt)
    return out


def largest_value(exprs: dict, points: Sequence, *, precision: int, margin: float) -> tuple:
    """(key, point, value) of the largest |value| of exprs over points.

    Points are scanned in order and keys in insertion order; the first
    maximum wins, so the result is deterministic.  A constant is evaluated
    at the first point only: a later point could only tie its value.
    """
    varying = {key: f for key, f in exprs.items() if f.constant() is None}
    best = None
    max_abs = 0
    for n, pt in enumerate(points):
        at = MpPoint(pt, precision, margin)
        for key, f in (varying if n else exprs).items():
            v = f.eval_numeric(at)
            if best is None or abs(v) > max_abs:
                max_abs = abs(v)
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


def to_sexpr(f: ScalarExpr) -> str:
    if f.symbolically_zero():
        return "0"
    parts = []
    terms = f.terms
    for mono in sorted(terms, key=_shown_key):
        c = terms[mono]
        if c.__class__ is RationalFunction:
            head = f'(ratfun "{poly_to_str(c.num)}" "{poly_to_str(c.den_poly())}")'
        else:
            head = str(c)
        if not mono:
            parts.append(head)
            continue
        factors = []
        for atom, power in _shown(mono):
            a = "(coth " + " ".join(str(c) for c in atom_entries(atom)) + ")"
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
            return ScalarExpr.sum(nvars, [(1, build(sub)) for sub in node[1:]])
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
