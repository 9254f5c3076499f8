"""Exact-arithmetic layer: rational functions, coth atoms, zero decisions."""

from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational

from sdybe import scalars
from sdybe.rmatrix import construct, spec_from_json
from sdybe.scalars import (
    NotRationalError,
    PoleError,
    Poly,
    RationalFunction,
    ScalarExpr,
    from_sexpr,
    largest_value,
    make_atom,
    poly_from_str,
    poly_to_str,
    sample_points,
    to_sexpr,
)
from sdybe.tensor import tensor_dump
from sdybe.verifier import VerifyConfig, decide_cells, run_checks

from conftest import (
    in_reference_layout,
    lifted,
    rebuilt_from_form,
    reference_differentiate,
    reference_primitive,
    reference_product,
    reference_ray_limit,
    reference_sexpr,
    reference_sum,
    sampled_max_abs,
    stored_form,
)

Q = Fraction


def ratfun(num: Poly, *dens: Poly) -> ScalarExpr:
    return ScalarExpr.from_ratfun(RationalFunction(num, [(d, 1) for d in dens]))


def inv_linear(coeffs, const=0) -> ScalarExpr:
    n = len(coeffs)
    return ratfun(Poly.const(n, 1), Poly.linear(coeffs, const))


# -- independent oracle: coth(1) from a Fraction-only series for e^2


def coth_one_oracle(terms: int = 40) -> Fraction:
    e2 = sum(Q(2**k, math.factorial(k)) for k in range(terms))
    return (e2 + 1) / (e2 - 1)


class TestFieldOps:
    def test_additive_inverse_of_pole_term(self):
        f = inv_linear([Q(1)])
        assert (f + (-f)).symbolically_zero()

    def test_multiplicative_inverse_away_from_pole(self):
        f = inv_linear([Q(1)])
        x0 = ScalarExpr.coord(1, 0)
        assert (f * x0 - 1).symbolically_zero()

    def test_coth_plus_one_is_irreducible(self):
        f = ScalarExpr.coth([Q(1)]) + 1
        assert not f.symbolically_zero()
        assert len(f.terms) == 2

    def test_mixed_coercion(self):
        c = ScalarExpr.coth([Q(1)])
        assert ((Q(1, 2) * c) * 2 - c).symbolically_zero()


class TestDifferentiate:
    def test_quotient_rule(self):
        f = inv_linear([Q(1)], -3)  # 1/(x0 - 3)
        df = f.differentiate(0)
        sq = Poly.linear([Q(1)], -3)
        expected = ScalarExpr.from_ratfun(RationalFunction(Poly.const(1, -1), [(sq, 2)]))
        assert (df - expected).symbolically_zero()

    def test_no_dependence(self):
        f = ratfun(Poly.const(2, 1), Poly.linear([Q(1), Q(0)], -3))
        assert f.differentiate(1).symbolically_zero()

    def test_coth_chain_rule(self):
        c = Q(5, 3)
        f = ScalarExpr.coth([c])
        df = f.differentiate(0)
        expected = (ScalarExpr.const(1, 1) - f * f) * c
        assert (df - expected).symbolically_zero()

    def test_matches_central_finite_difference(self):
        h = 1e-5
        exprs = [
            inv_linear([Q(1), Q(0)], -3) + ScalarExpr.coord(2, 1) * ScalarExpr.coord(2, 1),
            ScalarExpr.coth([Q(1), Q(2)]) * ScalarExpr.coord(2, 0),
            ScalarExpr.coth([Q(1), Q(0)]) * ScalarExpr.coth([Q(1), Q(0)]) * inv_linear([Q(1), Q(0)], 5),
        ]
        for f in exprs:
            pts = sample_points(2, 10, seed=11, avoid=f.singular_forms())
            for i in (0, 1):
                df = f.differentiate(i)
                for pt in pts:
                    up = [x + h if k == i else x for k, x in enumerate(pt)]
                    dn = [x - h if k == i else x for k, x in enumerate(pt)]
                    fd = (f.eval_numeric(up, precision=128) - f.eval_numeric(dn, precision=128)) / (2 * h)
                    exact = df.eval_numeric(pt, precision=128)
                    scale = max(1.0, abs(float(exact)))
                    assert abs(float(exact - fd)) / scale < 1e-6


class TestEvaluation:
    def test_exact_substitution(self):
        f = inv_linear([Q(1)], -3)
        assert f.eval_exact([5]) == Q(1, 2)

    def test_exact_pole(self):
        f = inv_linear([Q(1)], -3)
        with pytest.raises(PoleError):
            f.eval_exact([3])

    def test_exact_rejects_coth(self):
        with pytest.raises(NotRationalError):
            ScalarExpr.coth([Q(1)]).eval_exact([1])

    def test_coth_one_against_series_oracle(self):
        got = ScalarExpr.coth([Q(1)]).eval_numeric([1], precision=64)
        assert abs(float(got) - float(coth_one_oracle())) < 1e-15

    def test_coth_asymptote(self):
        got = ScalarExpr.coth([Q(1)]).eval_numeric([50], precision=64)
        assert abs(float(got) - 1.0) < 1e-15

    def test_ray_limit_takes_the_sign_of_each_slope(self):
        c = ScalarExpr.coth([Q(0), Q(1)])
        f = ScalarExpr.coth([Q(1), Q(-1)], 3) * ScalarExpr.coth([Q(2), Q(1)]) * 5 + c * c
        assert f.ray_limit((2, 1)).constant() == 5 * 1 * 1 + 1
        assert f.ray_limit((-1, 3)).constant() == 5 * -1 * 1 + 1
        with pytest.raises(PoleError, match="coth"):
            f.ray_limit((1, 1))  # x0 - x1 has slope 0: coth(3) is no rational limit
        with pytest.raises(ValueError, match="constant coefficients"):
            (f * inv_linear([Q(1), Q(0)])).ray_limit((2, 1))

    def test_margin_pole(self):
        f = inv_linear([Q(1)], -3)
        near = Q(3) + Q(1, 10**30)
        with pytest.raises(PoleError):
            f.eval_numeric([near], precision=64, margin=1e-6)
        # the margin is judged on exact values, for coth arguments and denominators
        with pytest.raises(PoleError, match="coth"):
            ScalarExpr.coth([Q(1)], -3).eval_numeric([near], precision=64, margin=1e-6)
        with pytest.raises(PoleError):
            f.eval_numeric([3 + Q(1, 2 * 10**6)], precision=64, margin=1e-6)
        assert f.eval_numeric([3 + Q(2, 10**6)], precision=64, margin=1e-6) == 500000

    def test_exact_numeric_agreement_on_rational(self):
        f = ratfun(Poly.linear([Q(2), Q(-1)], 7), Poly.linear([Q(1), Q(1)], 3))
        for pt in sample_points(2, 10, seed=5, avoid=f.singular_forms()):
            exact = f.eval_exact(pt)
            numeric = f.eval_numeric(pt, precision=64)
            assert abs(float(numeric) - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))

    @pytest.mark.parametrize("precision", [64, 128])
    def test_numeric_is_the_exact_value_rounded_once(self, precision):
        # fractional coefficients and a squared factor: rounding the
        # coefficients and the point before the arithmetic moves the last bits
        num = Poly.linear([Q(1, 3), Q(-2, 7)], Q(5, 11))
        f = ScalarExpr.from_ratfun(RationalFunction(num, [(Poly.linear([1, 3], Q(1, 3)), 2)]))
        ctx = mpmath.mp.clone()
        ctx.prec = precision
        for pt in sample_points(2, 10, seed=5, avoid=f.singular_forms()):
            exact = Q(f.eval_exact(pt))
            rounded = ctx.make_mpf(from_rational(exact.numerator, exact.denominator, precision, "n"))
            assert f.eval_numeric(pt, precision=precision) == rounded, pt


class TestZeroDecision:
    def test_exact_cancellation(self):
        f = inv_linear([Q(1)])
        assert (f - f).identically_zero()

    def test_atom_square_cancellation(self):
        c = ScalarExpr.coth([Q(1)])
        assert (c * c - c * c).identically_zero()

    def test_addition_law_needs_numerics(self):
        # atoms as indeterminates do not cancel; the exact decision applies
        # the addition law, and the sampler agrees as an oracle
        ca = ScalarExpr.coth([Q(1), Q(0)])
        cb = ScalarExpr.coth([Q(0), Q(1)])
        cab = ScalarExpr.coth([Q(1), Q(1)])
        f = cab * (ca + cb) - (ScalarExpr.const(2, 1) + ca * cb)
        assert not f.symbolically_zero()
        assert f.identically_zero()
        assert sampled_max_abs([f], 2, avoid=f.singular_forms(), precision=64) < 1e-12

    def test_nonzero_has_witness(self):
        f = ScalarExpr.coth([Q(1)]) - 1
        rep = decide_cells({(0,): f}, "f", VerifyConfig(precision=64))
        assert rep.status == "nonzero"
        assert rep.witness["point"] is not None
        assert abs(rep.witness["value"]) > 1e-12


def coth(c0, c1, const=0) -> ScalarExpr:
    """coth(c0 x0 + c1 x1 + const)."""
    return ScalarExpr.coth([Q(c0), Q(c1)], Q(const))


def addition_law(u, v) -> ScalarExpr:
    """coth(u + v)(coth u + coth v) - 1 - coth u coth v, zero by the addition law."""
    cu, cv = coth(*u), coth(*v)
    cuv = coth(*(a + b for a, b in zip(u, v)))
    return cuv * (cu + cv) - 1 - cu * cv


def double_angle(u) -> ScalarExpr:
    """2 coth(2u) coth u - 1 - coth(u)^2, zero by the addition law with v = u."""
    cu = coth(*u)
    return coth(*(2 * a for a in u)) * cu * 2 - 1 - cu * cu


# affine arguments with constants and several coefficient denominators; none
# of them (nor their sums) vanishes at an integer point
U = (Q(1), Q(0), Q(1, 3))
V = (Q(0), Q(1, 2), Q(-1, 4))
W = (Q(1, 3), Q(-1, 3), Q(1, 5))
IDENTITIES = (addition_law(U, V), addition_law(V, W), double_angle(U), double_angle(W))
# neither these nor any combination of them is identically zero
NONZERO = (coth(*U), coth(*V) * coth(*(a + b for a, b in zip(U, V))))
COEFFS = (
    ScalarExpr.const(2, 0),
    ScalarExpr.const(2, Q(3, 2)),
    ScalarExpr.coord(2, 0),
    ratfun(Poly.const(2, 1), Poly.linear([Q(1), Q(1)], Q(7, 3))),
    ratfun(Poly.linear([Q(1), Q(0)], -2), Poly.linear([Q(0), Q(1)], Q(5, 2))),
)


class TestExactDecider:
    @settings(max_examples=25, deadline=None)
    @given(
        coeffs=st.lists(st.sampled_from(COEFFS), min_size=len(IDENTITIES), max_size=len(IDENTITIES)),
        extra=st.lists(st.integers(-2, 2), min_size=len(NONZERO), max_size=len(NONZERO)),
    )
    def test_agrees_with_sampler(self, coeffs, extra):
        # rational-function combinations of the addition and double-angle laws
        # are zero, and adding any nonzero piece is not; the 128-bit sampler
        # is the independent oracle
        f = ScalarExpr.zero(2)
        for c, law in zip(coeffs, IDENTITIES):
            f = f + c * law
        for k, piece in zip(extra, NONZERO):
            f = f + piece * k
        exact = f.identically_zero()
        assert exact == (not any(extra))
        sampled = sampled_max_abs([f], 2, avoid=f.singular_forms())
        assert sampled < 1e-30 if exact else sampled > 1e-20

    def test_identities_need_the_addition_law(self):
        for law in IDENTITIES:
            assert not law.symbolically_zero()
            assert law.identically_zero()

    def test_negative_controls(self):
        law = addition_law(U, V)
        cu, cv = coth(*U), coth(*V)
        wrong_arg = coth(Q(1), Q(1, 2), Q(1, 3) - Q(1, 4) + Q(1, 1000)) * (cu + cv) - 1 - cu * cv
        scaled = addition_law(U, V) + cu * cv * Q(1, 10**30)
        for f in (law + Q(1, 10**20), wrong_arg, scaled):
            rep = decide_cells({(0,): f}, "f", VerifyConfig(precision=128))
            assert rep.status == "nonzero"
            assert rep.witness["point"] is not None and rep.points_used == 20
        # the tiny ones are below any tolerance the sampler could use
        assert sampled_max_abs([scaled], 2, avoid=scaled.singular_forms()) < 1e-25


class TestSampling:
    def test_margin_respected_and_deterministic(self):
        avoid = [Poly.linear([Q(1), Q(-1)])]
        a = sample_points(2, 25, seed=3, avoid=avoid)
        b = sample_points(2, 25, seed=3, avoid=avoid)
        assert a == b
        assert all(p[0] != p[1] for p in a)

    def test_largest_value_first_maximum_wins(self):
        # |value| peaks at 2/9, whose float rounds down, in both cells at two
        # points: a tie must not move the witness off the first of them
        a = ratfun(Poly.linear([Q(1, 9)]))
        assert float(Q(2, 9)) < Q(2, 9)
        key, pt, v = largest_value({"a": a, "b": -a}, [(1,), (2,), (-2,)], precision=128, margin=1e-6)
        assert (key, pt) == ("a", (2,)) and abs(v - Q(2, 9)) < 1e-30


# -- randomized structure, via hypothesis

small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, nvars=2, max_terms=4, max_exp=2):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[mono] = draw(small_fraction)
    return Poly(nvars, terms)


@st.composite
def rational_functions(draw):
    num = draw(polys())
    den = draw(polys(max_terms=2, max_exp=1))
    if den.is_zero():
        den = Poly.linear([Q(1), Q(1)], 1)
    return RationalFunction(num, [(den, 1)])


@st.composite
def scalar_exprs(draw):
    base = ScalarExpr.from_ratfun(draw(rational_functions()))
    if draw(st.booleans()):
        c0 = draw(small_fraction)
        c1 = draw(small_fraction)
        if c0 or c1:
            base = base + ScalarExpr.coth([c0, c1]) * ScalarExpr.from_ratfun(draw(rational_functions()))
    return base


@settings(max_examples=100, deadline=None)
@given(rational_functions())
def test_canonical_difference_is_zero(rf):
    diff = rf - rf
    assert diff.is_zero()
    assert diff.num.is_zero() and diff.den == ()


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions())
def test_ratfun_commutativity(a, b):
    assert (a + b) == (b + a)
    assert (a * b) == (b * a)


@settings(max_examples=40, deadline=None)
@given(scalar_exprs(), scalar_exprs(), scalar_exprs())
def test_scalar_ring_axioms(a, b, c):
    assert ((a + b) + c - (a + (b + c))).symbolically_zero()
    assert ((a * b) * c - (a * (b * c))).symbolically_zero()
    assert (a * (b + c) - (a * b + a * c)).symbolically_zero()


@settings(max_examples=40, deadline=None)
@given(scalar_exprs())
def test_sexpr_round_trip(f):
    assert (from_sexpr(to_sexpr(f), 2) - f).symbolically_zero()


@settings(max_examples=60, deadline=None)
@given(polys())
def test_poly_string_round_trip(p):
    assert poly_from_str(poly_to_str(p), 2) == p


def test_reduction_cancels_linear_factor():
    # (x0^2 - x1^2) / (x0 - x1) reduces to x0 + x1
    n = Poly(2, {(2, 0): Q(1), (0, 2): Q(-1)})
    d = Poly(2, {(1, 0): Q(1), (0, 1): Q(-1)})
    rf = RationalFunction(n, [(d, 1)])
    assert rf.den == ()
    assert rf.num == Poly(2, {(1, 0): Q(1), (0, 1): Q(1)})


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_integral_coefficients_stored_as_int(a, b):
    results = [a, a + b, a - b, a * b, a * Q(2, 3), a * 4, a.diff(0)]
    if not b.is_zero():
        results.append((a * b).exact_div(b))
    for p in results:
        assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())


# -- the n-ary sum: against a left fold of pairwise addition and exact values

# shared, disjoint and repeated factors come from this pool; the quadratic is
# a denominator factor of degree 2
LINEAR_FACTORS = [Poly.linear([1, 0]), Poly.linear([1, -1]), Poly.linear([0, 1], 2), Poly.linear([2, 1], -1)]
QUADRATIC = Poly(2, {(2, 0): 1, (0, 1): 1, (0, 0): 1})
SUM_FACTORS = [1, -1, Q(1, 2), Q(-3, 2), 2, Q(2, 3), Q(-1), Q(1)]
SUM_POINTS = [(Q(1, 3), Q(2, 7)), (Q(-5, 2), Q(3, 4)), (Q(7, 5), Q(-11, 3))]


@st.composite
def sum_terms(draw, linear_only=False):
    """num / prod(f^m) over factors of the pool."""
    num = draw(polys(max_terms=3, max_exp=2))
    dens = draw(st.lists(st.tuples(st.sampled_from(LINEAR_FACTORS), st.integers(1, 2)), max_size=2))
    term = RationalFunction(num, dens)
    if not linear_only and draw(st.booleans()):
        term = term * RationalFunction(Poly.const(2, 1), [(QUADRATIC, 1)])
    return term


@st.composite
def sum_pairs(draw, linear_only=False):
    """(factor, term) pairs; some totals cancel a factor, some cancel to zero."""
    terms = draw(st.lists(sum_terms(linear_only), min_size=1, max_size=5))
    pairs = [(draw(st.sampled_from(SUM_FACTORS)), t) for t in terms]
    kind = draw(st.sampled_from(["plain", "cancel-factor", "zero"]))
    if kind == "cancel-factor":
        # u/f + (f q - u)/f = q: the total's numerator is divisible by f
        f = draw(st.sampled_from(LINEAR_FACTORS))
        q, u = draw(polys(max_terms=2, max_exp=1)), draw(polys(max_terms=2, max_exp=1))
        pairs += [(1, RationalFunction(u, [(f, 1)])), (1, RationalFunction(f * q - u, [(f, 1)]))]
    elif kind == "zero":
        pairs += [(-factor, t) for factor, t in pairs]
    return draw(st.permutations(pairs))


def fold(pairs, zero):
    acc = zero
    for factor, term in pairs:
        acc = acc + term * factor
    return acc


def den_keys(rf: RationalFunction) -> list:
    return [(f.key(), m) for f, m in rf.den]


def assert_reduced(rf: RationalFunction):
    assert rf.den == () if rf.is_zero() else all(rf.num.exact_div(f) is None for f, _ in rf.den)


def exact_values(pairs, value):
    """(point, sum of factor * value(term, point)) at every pool point off the poles."""
    out = []
    for pt in SUM_POINTS:
        try:
            out.append((pt, sum((factor * value(term, pt) for factor, term in pairs), Q(0))))
        except PoleError:
            pass
    return out


@settings(max_examples=80, deadline=None)
@given(sum_pairs())
def test_ratfun_sum_matches_fold_and_values(pairs):
    total = RationalFunction.sum(pairs)
    assert total == fold(pairs, RationalFunction.zero(2))
    assert_reduced(total)
    for pt, expected in exact_values(pairs, lambda t, pt: t.eval_exact(pt)):
        assert total.eval_exact(pt) == expected


@settings(max_examples=50, deadline=None)
@given(sum_pairs(linear_only=True))
def test_ratfun_sum_is_the_folds_canonical_form(pairs):
    # prime factors only: num/den is unique, so the sum and the fold agree term for term
    total, folded = RationalFunction.sum(pairs), fold(pairs, RationalFunction.zero(2))
    assert (total.num, den_keys(total)) == (folded.num, den_keys(folded))


@settings(max_examples=40, deadline=None)
@given(sum_pairs())
def test_ratfun_sum_of_all_terms_and_negations_is_zero(pairs):
    total = RationalFunction.sum(pairs + [(-factor, term) for factor, term in pairs])
    assert total.is_zero() and total.den == ()


SUM_ATOMS = [ScalarExpr.coth([1, 0]), ScalarExpr.coth([1, -1], Q(1, 2)), ScalarExpr.coth([0, -1], 1)]


@st.composite
def sum_exprs(draw, linear_only=False):
    """A coth polynomial: a term of the pool times each of a few atom monomials."""
    expr = ScalarExpr.zero(2)
    for powers in draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(SUM_ATOMS)), min_size=1, max_size=3)):
        mono = ScalarExpr.from_ratfun(draw(sum_terms(linear_only)))
        for atom, power in zip(SUM_ATOMS, powers):
            for _ in range(power):
                mono = mono * atom
        expr = expr + mono
    return expr


@st.composite
def expr_pairs(draw, linear_only=False):
    exprs = draw(st.lists(sum_exprs(linear_only), min_size=1, max_size=4))
    pairs = [(draw(st.sampled_from(SUM_FACTORS)), e) for e in exprs]
    if draw(st.booleans()):
        pairs += [(-factor, e) for factor, e in pairs[: draw(st.integers(1, len(pairs)))]]
    return draw(st.permutations(pairs))


@settings(max_examples=50, deadline=None)
@given(expr_pairs())
def test_scalar_sum_matches_fold_and_values(pairs):
    total = ScalarExpr.sum(2, pairs)
    assert (total - fold(pairs, ScalarExpr.zero(2))).symbolically_zero()
    # monomials in canonical (sorted) order, whatever order the terms bring them in
    assert list(total.terms) == sorted(total.terms)
    # atoms as indeterminates: each monomial's coefficient sums on its own
    for mono in {m for _, e in pairs for m in e.terms}:
        coeff = lifted(total.terms.get(mono, 0), 2)
        assert_reduced(coeff)
        for pt, expected in exact_values(pairs, lambda e, pt: lifted(e.terms.get(mono, 0), 2).eval_exact(pt)):
            assert coeff.eval_exact(pt) == expected


@settings(max_examples=40, deadline=None)
@given(expr_pairs(linear_only=True))
def test_scalar_sum_is_the_folds_canonical_form(pairs):
    assert to_sexpr(ScalarExpr.sum(2, pairs)) == to_sexpr(fold(pairs, ScalarExpr.zero(2)))


@st.composite
def constant_coefficient_exprs(draw):
    """A constant plus constant multiples of coth atoms over two coordinates."""
    e = ScalarExpr.const(2, draw(small_fraction))
    for _ in range(draw(st.integers(0, 3))):
        c0, c1 = draw(small_fraction), draw(small_fraction)
        if c0 or c1:
            e = e + ScalarExpr.const(2, draw(small_fraction)) * ScalarExpr.coth([c0, c1])
    return e


@settings(max_examples=60, deadline=None)
@given(expr_pairs(), st.lists(st.tuples(st.sampled_from(SUM_FACTORS), constant_coefficient_exprs()), max_size=6))
def test_constant_coefficient_sums_match_the_general_path(mixed, pairs):
    """Constant coefficients added as numbers give the per-monomial sums of the lifted coefficients,
    stored alike: the same values and types of numbers, the same RationalFunctions."""
    for terms in (pairs, pairs + [(-f, e) for f, e in pairs[:2]], mixed + pairs):
        got, expected = ScalarExpr.sum(2, terms), ScalarExpr(2, reference_sum(2, terms))
        assert_same_form(got, expected)
        assert [type(c) for c in got.terms.values()] == [type(c) for c in expected.terms.values()]


NUMBERS = st.sampled_from([0, 1, -1]) | small_fraction
RAYS = st.tuples(st.integers(-3, 3), st.integers(-3, 3)) | st.tuples(small_fraction, small_fraction)


@st.composite
def constant_coefficient_products(draw):
    """A constant-coefficient expression, or the product of two, so atoms also come in powers."""
    e = draw(constant_coefficient_exprs())
    return e * draw(constant_coefficient_exprs()) if draw(st.booleans()) else e


def assert_same_form(got: ScalarExpr, expected: ScalarExpr):
    """Equal `stored_form`s: the same atom monomials in the same order, the same numbers with their
    types, the same numerator terms in the same order, and the same denominators."""
    assert stored_form(got) == stored_form(expected)


@settings(max_examples=80, deadline=None)
@given(constant_coefficient_products(), RAYS)
@example(ScalarExpr.coth([1, -1]) * 2 + 1, (1, 1))  # a zero slope
def test_ray_limit_matches_the_fraction_definition(f, w):
    try:
        expected = reference_ray_limit(f, w)
    except PoleError:
        with pytest.raises(PoleError, match="coth"):
            f.ray_limit(w)
    else:
        assert_same_form(f.ray_limit(w), ScalarExpr.const(2, expected))
    if f.terms:  # every coefficient over x0 + x1: not constant
        with pytest.raises(ValueError, match="constant coefficients"):
            (f * inv_linear([Q(1), Q(1)])).ray_limit(w)


@settings(max_examples=80, deadline=None)
@given(sum_exprs() | constant_coefficient_products(), NUMBERS)
def test_number_product_is_the_general_products_form(f, q):
    expected = ScalarExpr(2, reference_product(f, q))
    assert_same_form(f * q, expected)
    assert_same_form(q * f, expected)


@settings(max_examples=80, deadline=None)
@given(constant_coefficient_products(), constant_coefficient_products())
def test_constant_product_is_the_general_products_form(a, b):
    assert_same_form(a * b, ScalarExpr(2, reference_product(a, b)))


@st.composite
def mixed_pairs(draw):
    """(factor, expression) pairs with number and RationalFunction coefficients on shared atom
    monomials; optionally two rational terms on one monomial that add up to a number q."""
    exprs = draw(st.lists(sum_exprs() | constant_coefficient_products(), min_size=1, max_size=3))
    pairs = [(draw(st.sampled_from(SUM_FACTORS)), e) for e in exprs]
    if draw(st.booleans()):
        # u/f + (q f - u)/f = q
        f, u, q = draw(st.sampled_from(LINEAR_FACTORS)), draw(polys(max_terms=2, max_exp=1)), draw(small_fraction)
        mono = draw(st.sampled_from([ScalarExpr.const(2, 1)] + SUM_ATOMS))
        for num in (u, f * q - u):
            pairs.append((1, ScalarExpr.from_ratfun(RationalFunction(num, [(f, 1)])) * mono))
    return draw(st.permutations(pairs))


def assert_stored(f: ScalarExpr):
    """Every coefficient in its one stored form: a nonzero int, a Fraction that is not integral, or
    a RationalFunction that is not constant."""
    for c in f.terms.values():
        if isinstance(c, RationalFunction):
            assert c.den or not c.num.is_const()
        else:
            assert c and (type(c) is int or (type(c) is Q and c.denominator != 1))


@settings(max_examples=100, deadline=None)
@given(mixed_pairs(), NUMBERS, st.integers(0, 1), RAYS)
def test_mixed_coefficients_match_the_lifted_general_path(pairs, q, index, w):
    """Sum, products, negation and derivative against the general path on lifted coefficients, in
    form, stored types and s-expression; exact values and ray limits against theirs."""
    total = ScalarExpr.sum(2, pairs)
    a, b = pairs[0][1], pairs[-1][1]
    cases = [
        (total, reference_sum(2, pairs)),
        (a * b, reference_product(a, b)),
        (total * q, reference_product(total, q)),
        (-total, reference_sum(2, [(-1, total)])),
        (total.differentiate(index), reference_differentiate(total, index)),
    ]
    rational = [c for c in total.terms.values() if isinstance(c, RationalFunction)]
    if rational:  # c * (1/c) = 1: a product of RationalFunctions that is a number
        inverse = ScalarExpr.from_ratfun(RationalFunction(rational[0].den_poly(), [(rational[0].num, 1)]))
        cases.append((total * inverse, reference_product(total, inverse)))
    for got, expected_terms in cases:
        expected = ScalarExpr(2, expected_terms)
        assert_stored(got)
        assert_same_form(got, expected)
        assert [type(c) for c in got.terms.values()] == [type(c) for c in expected.terms.values()]
        assert to_sexpr(got) == reference_sexpr(expected_terms, 2)
    coth_free = ScalarExpr(2, {m: c for m, c in total.terms.items() if not m})
    for pt, value in exact_values(pairs, lambda e, pt: lifted(e.terms.get((), 0), 2).eval_exact(pt)):
        assert coth_free.eval_exact(pt) == value
    try:
        limit = reference_ray_limit(total, w)
    except (ValueError, PoleError) as exc:
        with pytest.raises(type(exc)):
            total.ray_limit(w)
    else:
        assert_same_form(total.ray_limit(w), ScalarExpr.const(2, limit))


@settings(max_examples=100, deadline=None)
@given(mixed_pairs(), NUMBERS, st.integers(0, 1))
def test_stored_content_and_form_are_the_references(pairs, q, index):
    """Built through sum, *, differentiate and scale by a number, an expression stores the
    (content, form) that `reference_primitive` computes on its value from the lifted general
    path, and its content times its form rebuilds that value."""
    total = ScalarExpr.sum(2, pairs)
    a, b = pairs[0][1], pairs[-1][1]
    cases = [
        (total, reference_sum(2, pairs)),
        (a * b, reference_product(a, b)),
        (total * q, reference_product(total, q)),
        (total.differentiate(index), reference_differentiate(total, index)),
    ]
    for got, expected in cases:
        assert in_reference_layout(got) == reference_primitive(expected)
        rebuilt = rebuilt_from_form(got)
        assert sorted(rebuilt) == sorted(expected)
        assert all(rebuilt[mono] == lifted(c, 2) for mono, c in expected.items())


def test_a_coefficient_moved_by_ten_to_the_minus_twenty_has_another_form():
    """Negative control of the representation oracle: moving one number or numerator coefficient
    by 1/10^20 gives another stored form, and another reference form."""
    x0 = Poly.var(2, 0)
    shared = ScalarExpr.coth([1, 0]) + ratfun(x0 + Poly.const(2, 2), x0 + Poly.const(2, 1))
    moved = [
        shared + Q(1, 10**20),
        shared + ScalarExpr.coth([1, 0]) * Q(1, 10**20),
        shared + ratfun(Poly.const(2, Q(1, 10**20)), x0 + Poly.const(2, 1)),
    ]
    for f in moved:
        assert f.form != shared.form
        assert in_reference_layout(f) == reference_primitive(f.terms) != reference_primitive(shared.terms)


def test_stored_numerator_order_does_not_depend_on_the_sum_path():
    """1 + 1/(x0^2 + x1 + 1): the sum path and the lifted general path store its numerator terms
    in one order, their sorted order (the sum path once kept (0,0), (2,0), (0,1))."""
    den = Poly(2, {(2, 0): 1, (0, 1): 1, (0, 0): 1})
    pairs = [(1, ScalarExpr.const(2, 1)), (1, ratfun(Poly.const(2, 1), den))]
    got = ScalarExpr.sum(2, pairs)
    assert_same_form(got, ScalarExpr(2, reference_sum(2, pairs)))
    assert list(got.terms[()].num.terms) == [(0, 0), (0, 1), (2, 0)]


REDUCIBLE = Poly(2, {(1, 1): 1})  # x0*x1: a stored factor that is not prime


def assert_constructors_form(a, b):
    # the constructor merges both denominators and tries every factor
    # against the product, in denominator order
    product, expected = a * b, RationalFunction(a.num * b.num, a.den + b.den)
    assert (product.num, den_keys(product)) == (expected.num, den_keys(expected))
    assert_reduced(product)


@settings(max_examples=60, deadline=None)
@given(sum_terms(), sum_terms())
def test_product_is_the_constructors_form(a, b):
    assert_constructors_form(a, b)


@settings(max_examples=100, deadline=None)
@given(sum_terms(), sum_terms())
@example(RationalFunction.const(2, 1), RationalFunction.const(2, 1))  # x0/(x0*x1) * x1/x0 = 1/x0
def test_product_with_a_reducible_factor_is_the_constructors_form(a, b):
    # x0 * num / (x0*x1 * den) keeps its x0 above the line, and the other
    # operand brings an x0 below the line that x0*x1 may claim first
    x0, x1 = Poly.var(2, 0), Poly.var(2, 1)
    a = RationalFunction(a.num * x0, a.den + ((REDUCIBLE, 1),))
    b = RationalFunction(b.num * x1, b.den + ((x0, 1),))
    assert_constructors_form(a, b)
    assert_constructors_form(b, a)


def test_constant_value():
    n = 2
    assert [(v, type(v)) for v in (ScalarExpr.const(n, 3).constant(), ScalarExpr.const(n, Q(4, 2)).constant())] == [
        (3, int),
        (2, int),
    ]
    assert ScalarExpr.const(n, Q(-2, 3)).constant() == Q(-2, 3)
    assert ScalarExpr.zero(n).constant() == 0
    x0 = Poly.var(n, 0)
    not_constant = [
        ratfun(Poly.const(n, 2), x0),  # a denominator
        ScalarExpr.coord(n, 0),  # a non-constant numerator
        ScalarExpr.coord(n, 0) + 1,  # and a constant term beside it
        ScalarExpr.coth([1, 0]),  # an atom
        ScalarExpr.coth([1, 0]) + 1,
    ]
    assert [e.constant() for e in not_constant] == [None] * len(not_constant)


@settings(max_examples=60, deadline=None)
@given(st.lists(sum_exprs(), min_size=1, max_size=3), st.sampled_from(SUM_FACTORS))
@example([ScalarExpr.coth([1, 0]) * Q(1, 2), ScalarExpr.coth([1, 0]) * Q(1, 3)], Q(2, 3))  # one numerator, two numbers
def test_equal_keys_are_equal_forms(exprs, factor):
    """Expressions of one primitive form differ only by the ratio of their contents."""
    a = exprs[0]
    reordered = ScalarExpr(2, dict(reversed(list(a.terms.items()))))
    assert (reordered.content, reordered.form) == (a.content, a.form)
    # a multiple has a's monomials and denominators, and other numerators; the
    # parsed text form can store a product of factors as one factor
    multiple = ScalarExpr.sum(2, [(factor, a)])
    assert not a.terms or multiple.form == a.form
    forms = exprs + [reordered, multiple, from_sexpr(to_sexpr(a), 2)]
    for x in forms:
        for y in forms:
            (cx, fx), (cy, fy) = (x.content, x.form), (y.content, y.form)
            if fx == fy and y.terms:
                assert to_sexpr(x) == to_sexpr(ScalarExpr.sum(2, [(Q(cx) / cy, y)]))


def test_scalar_sum_of_nothing_is_zero():
    assert ScalarExpr.sum(2, []).symbolically_zero()
    assert RationalFunction.sum([(1, RationalFunction.zero(2)), (Q(1, 2), RationalFunction.zero(2))]).is_zero()


# -- the sums memo of ScalarExpr.sum: one general-path sum per term vector, up to sign

_X0, _X1 = Poly.var(2, 0), Poly.var(2, 1)
_T, _U = inv_linear([1, -1]), ratfun(_X1, Poly.linear([1, 1], 2))
_OVER_X0 = ratfun(Poly.const(2, 1), _X0)  # 1/x0
_OVER_X0X1 = ratfun(Poly.const(2, 1), REDUCIBLE)  # 1/(x0*x1): its factor holds x0
_X1_OVER_X0X1 = ratfun(_X1, REDUCIBLE)  # stored as given: x0*x1 does not divide x1
# denominators from primes and the reducible x0*x1, which holds the prime x0
ORDER_FACTORS = [_X0, _X1, Poly.linear([1, -1]), REDUCIBLE]


def test_non_proportional_factors_get_their_own_sum():
    sums: dict = {}
    a = ScalarExpr.sum(2, [(1, _T), (2, _U)], sums=sums)
    b = ScalarExpr.sum(2, [(1, _T), (3, _U)], sums=sums)
    assert len(sums) == 2 and not (a - b).symbolically_zero()
    assert stored_form(b) == stored_form(ScalarExpr.sum(2, [(1, _T), (3, _U)]))


def test_a_negated_term_vector_gets_the_negated_sum():
    sums: dict = {}
    a = ScalarExpr.sum(2, [(1, _T), (2, _U)], sums=sums)
    negated = ScalarExpr.sum(2, [(-2, _U), (-1, _T)], sums=sums)
    assert len(sums) == 1
    assert (negated.content, negated.form) == (-a.content, a.form)
    assert stored_form(negated) == stored_form(ScalarExpr.sum(2, [(-2, _U), (-1, _T)]))


def test_a_zero_factor_term_stays_in_the_key():
    """A cancelled 1/(x0*x1) still brings x0*x1 into the lcm: 1/x0 comes out as x1/(x0*x1)."""
    sums: dict = {}
    with_zero = ScalarExpr.sum(2, [(1, _OVER_X0), (0, _OVER_X0X1)], sums=sums)
    alone = ScalarExpr.sum(2, [(1, _OVER_X0)], sums=sums)
    assert len(sums) == 2
    assert to_sexpr(with_zero) == '(ratfun "x1" "x0*x1")'
    assert stored_form(with_zero) == stored_form(ScalarExpr.sum(2, [(1, _OVER_X0), (0, _OVER_X0X1)]))
    assert stored_form(alone) == stored_form(_OVER_X0) != stored_form(with_zero)


@st.composite
def order_terms(draw):
    """num / prod(f) over ORDER_FACTORS, sometimes times a coth atom."""
    dens = draw(st.lists(st.sampled_from(ORDER_FACTORS), max_size=2))
    term = ratfun(draw(polys(max_terms=2, max_exp=1)), *dens)
    return term * SUM_ATOMS[0] if draw(st.booleans()) else term


@st.composite
def cells_over_shared_terms(draw):
    """Cells of (factor, term) pairs over one pool of term objects; some cells repeat an earlier
    one's terms in another order, with its factors negated or scaled."""
    pool = draw(st.lists(order_terms(), min_size=1, max_size=4))
    factors = st.sampled_from(SUM_FACTORS + [0])
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        if cells and draw(st.booleans()):
            scale = draw(st.sampled_from([1, -1, 2, Q(-1, 2)]))
            cells.append(draw(st.permutations([(f * scale, t) for f, t in draw(st.sampled_from(cells))])))
        else:
            picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique_by=id))
            cells.append([(draw(factors), t) for t in picked])
    return cells


@settings(max_examples=80, deadline=None)
@given(cells_over_shared_terms())
@example([[(1, _X1_OVER_X0X1), (0, _OVER_X0)], [(0, _OVER_X0), (1, _X1_OVER_X0X1)]])
def test_one_memo_gives_each_cells_own_sum(cells):
    """Sums through one memo store what each cell's own sum stores, whatever order its terms came
    in: a sum tries its lcm's factors in canonical order, so a reducible x0*x1 beside x0 gives
    one stored form for both orders of the example (before, x0*x1 tried first gave 1/x0)."""
    sums: dict = {}
    for pairs in cells:
        assert stored_form(ScalarExpr.sum(2, pairs, sums=sums)) == stored_form(ScalarExpr.sum(2, pairs))


def table_sizes() -> tuple[int, int, int]:
    return len(scalars._FACTOR_IDS), len(scalars._ATOMS), len(scalars._ATOM_IDS)


def assert_one_id_per_key():
    assert sorted(scalars._FACTOR_IDS.values()) == list(range(len(scalars._FACTOR_IDS)))
    assert len(scalars._ATOM_IDS) == len(scalars._ATOMS)
    assert all(scalars._ATOM_IDS[key] == atom for atom, key in enumerate(scalars._CLEARED))
    assert all(entries == tuple(Q(c, lcm) for c in cleared)
               for (entries, _), (cleared, lcm) in zip(scalars._ATOMS, scalars._CLEARED))


class TestInternTables:
    def test_output_order_follows_forms_not_ids(self):
        # forms no other test meets, so the form that sorts later gets the smaller id
        late, early = ([1, 0], Q(98, 89)), ([1, 0], Q(97, 89))
        b = ScalarExpr.coth(*late)
        a = ScalarExpr.coth(*early)
        assert make_atom(*late)[0] < make_atom(*early)[0]
        expected = "(+ (* 1 (coth 1 0 97/89)) (* 2 (coth 1 0 97/89) (coth 1 0 98/89)) (* 1 (coth 1 0 98/89)))"
        assert to_sexpr(b + b * a * 2 + a) == expected
        assert to_sexpr(from_sexpr(expected, 2)) == expected

    def test_zero_form_is_not_an_atom(self):
        with pytest.raises(ZeroDivisionError):
            make_atom([0, 0], 0)
        with pytest.raises(ZeroDivisionError):
            ScalarExpr.coth([Q(0), Q(0)], Q(0))

    def test_second_run_adds_no_entries(self, gl21):
        g, rd, _ = gl21
        doc = {"epsilon": "2/7", "nu": ["1/5", "2/5", "-3/5"], "X": "all",
               "D": [{"i": 0, "j": 1, "ratfun": '(ratfun "1" "x0 + x1 + 5/7")'}]}
        before = table_sizes()
        spec = spec_from_json(doc, g, rd)
        assert run_checks(g, rd, spec)[0]
        after = table_sizes()
        assert after[0] > before[0] and after[1] > before[1]
        assert run_checks(g, rd, spec)[0]
        assert table_sizes() == after
        assert_one_id_per_key()

    def test_concurrent_construction_interns_each_key_once(self, gl21):
        g, rd, _ = gl21
        doc = {"epsilon": "5/11", "nu": ["3/13", "-5/17", "2/19"], "X": "all",
               "D": [{"i": 0, "j": 1, "ratfun": '(ratfun "1" "x0 - x1 + 7/23")'}]}
        spec = spec_from_json(doc, g, rd)
        # forms no other test meets, each first met by all threads at once
        forms = [([1, Q(k, 31), 0], Q(1, 29)) for k in range(1, 201)]
        barrier = threading.Barrier(4)
        results: list = [None] * 4

        def work(k):
            barrier.wait()
            try:
                atoms = [next(iter(ScalarExpr.coth(*form).atoms())) for form in forms]
                results[k] = (atoms, construct(spec, g, rd))
            except Exception as exc:  # reported below, on the test's thread
                results[k] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert not [r for r in results if isinstance(r, Exception)]
        assert all(atoms == results[0][0] for atoms, _ in results)
        dumps = [tensor_dump(r) for _, r in results]
        assert all(d == dumps[0] for d in dumps)
        r_atoms = [set().union(*(c.atoms() for c in r.coeffs.values())) for _, r in results]
        assert r_atoms[0] and all(a == r_atoms[0] for a in r_atoms)
        assert_one_id_per_key()
