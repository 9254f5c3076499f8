"""Exact-arithmetic layer: rational functions, coth atoms, zero decisions."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdybe.scalars import (
    NotRationalError,
    PoleError,
    Poly,
    RationalFunction,
    ScalarExpr,
    from_sexpr,
    poly_from_str,
    poly_to_str,
    sample_points,
    to_sexpr,
)
from sdybe.verifier import VerifyConfig, decide_cells

from conftest import sampled_max_abs

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

    def test_margin_pole(self):
        f = inv_linear([Q(1)], -3)
        near = Q(3) + Q(1, 10**30)
        with pytest.raises(PoleError):
            f.eval_numeric([near], precision=64, margin=1e-6)

    def test_exact_numeric_agreement_on_rational(self):
        f = ratfun(Poly.linear([Q(2), Q(-1)], 7), Poly.linear([Q(1), Q(1)], 3))
        for pt in sample_points(2, 10, seed=5, avoid=f.singular_forms()):
            exact = f.eval_exact(pt)
            numeric = f.eval_numeric(pt, precision=64)
            assert abs(float(numeric) - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


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
