"""Koszul-sign machinery: twist, signed permutations, Alt_s, leg brackets.

The leg-bracket signs are locked against independently coded expansions of
the six s/Casimir cross brackets and the three [[r,r]] terms (the dominant
failure mode is a sign error, so the oracle rebuilds every display from the
structure constants without going through the bracket functions).
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdybe.scalars as scalars_mod
import sdybe.tensor as tensor_mod
from sdybe.rmatrix import RMatrixSpec, TwoForm, construct, shift_to_s, spec_from_json
from sdybe.scalars import (
    PoleError,
    Poly,
    RationalFunction,
    ScalarExpr,
    atom_form_poly,
    largest_value,
    sample_points,
)
from sdybe.superalgebra import DegenerateFormError, build_gl, build_sl, casimir, root_decomposition, sign_A
from sdybe.tensor import (
    OddActorError,
    Tensor2,
    Tensor3,
    ad_action,
    alt_s,
    collect,
    collect_tensor,
    cross_bracket,
    super_twist,
    tensor_dump,
    yb_bracket,
)
from sdybe.verifier import cdybe_lhs, decide_tensor_zero, differential_dr, unitarity_residual

from conftest import (
    SMALL_ALGEBRAS,
    ReferenceCells,
    bracket,
    bracket_12_13,
    bracket_12_23,
    bracket_13_23,
    cartan_gram,
    full_scan_leg_brackets,
    invert_matrix,
    lifted,
    mode_brackets,
    reference_leg_bracket,
    signed_permutation,
    solve_linear,
    stored_form,
)
from test_scalars import SUM_FACTORS, sum_exprs

Q = Fraction
RANK2 = build_sl(3, 0)  # an algebra for cells over the two coordinates of the scalar strategies


def basis_tensor2(g, i, j, coeff=1):
    return Tensor2(g, {(i, j): ScalarExpr.const(g.rank, coeff)})


def basis_tensor3(g, i, j, k, coeff=1):
    return Tensor3(g, {(i, j, k): ScalarExpr.const(g.rank, coeff)})


def triple_from_vectors(g, x, y, z, coeff):
    """sum coeff * x_a y_b z_c  e_a (x) e_b (x) e_c, an oracle-side helper."""
    out: dict = {}
    coeff = coeff if isinstance(coeff, ScalarExpr) else ScalarExpr.const(g.rank, coeff)
    for a, ca in x.items():
        for b, cb in y.items():
            for c, cc in z.items():
                key = (a, b, c)
                term = coeff * (ca * cb * cc)
                out[key] = term if key not in out else out[key] + term
    return Tensor3(g, out)


def random_tensor2(g, rng, cells=4):
    out = {}
    for _ in range(cells):
        i, j = rng.randrange(g.dim), rng.randrange(g.dim)
        out[(i, j)] = ScalarExpr.const(g.rank, Q(rng.randint(-5, 5), rng.randint(1, 3)))
    return Tensor2(g, out)


def random_tensor3(g, rng, cells=4):
    out = {}
    for _ in range(cells):
        key = tuple(rng.randrange(g.dim) for _ in range(3))
        out[key] = ScalarExpr.const(g.rank, Q(rng.randint(-5, 5), rng.randint(1, 3)))
    return Tensor3(g, out)


def dual_cartan(g):
    """{h^i} with (h_i, h^j) = delta, as vectors over the basis."""
    inv = invert_matrix(cartan_gram(g))
    cartan = list(g.cartan)
    return [
        {cartan[l]: inv[l][k] for l in range(len(cartan)) if inv[l][k]}
        for k in range(len(cartan))
    ]


class TestSuperTwist:
    def test_even_even_no_sign(self, sl2):
        g, _, _ = sl2
        e, f = g.basis_names.index("E12"), g.basis_names.index("E21")
        t = super_twist(basis_tensor2(g, e, f))
        assert (t - basis_tensor2(g, f, e)).is_zero()

    def test_odd_odd_sign(self, gl11):
        g, _, _ = gl11
        e, f = g.basis_names.index("E12"), g.basis_names.index("E21")
        t = super_twist(basis_tensor2(g, e, f, Q(3)))
        assert (t - basis_tensor2(g, f, e, Q(-3))).is_zero()

    def test_involution_50_random(self, gl21):
        g, _, _ = gl21
        rng = random.Random(42)
        for _ in range(50):
            t = random_tensor2(g, rng)
            assert (super_twist(super_twist(t)) - t).is_zero()

    def test_koszul_consistency_with_signed_permutation(self, gl21):
        # twist on g (x) g agrees with (12)_s acting on rank-3 embeddings t (x) x
        g, _, _ = gl21
        rng = random.Random(7)
        anchor = g.cartan[0]  # even third leg
        for _ in range(50):
            t = random_tensor2(g, rng)
            embedded = Tensor3(g, {(i, j, anchor): c for (i, j), c in t.coeffs.items()})
            swapped = signed_permutation(embedded, "12")
            direct = super_twist(t)
            back = Tensor3(g, {(i, j, anchor): c for (i, j), c in direct.coeffs.items()})
            assert (swapped - back).is_zero()


class TestSignedPermutations:
    def test_all_even(self, sl2):
        g, _, _ = sl2
        e, f, h = g.basis_names.index("E12"), g.basis_names.index("E21"), g.basis_names.index("H1")
        t = signed_permutation(basis_tensor3(g, e, f, h), "12")
        assert (t - basis_tensor3(g, f, e, h)).is_zero()

    def test_13_on_three_odd(self, gl21):
        g, _, _ = gl21
        odd = [i for i in range(g.dim) if g.parity[i] == 1]
        i, j, k = odd[0], odd[1], odd[2]
        t = signed_permutation(basis_tensor3(g, i, j, k), "13")
        assert (t - basis_tensor3(g, k, j, i, Q(-1))).is_zero()

    @pytest.mark.parametrize("which", ["12", "13", "23"])
    def test_involution(self, which, gl21):
        g, _, _ = gl21
        rng = random.Random(13)
        for _ in range(25):
            t = random_tensor3(g, rng)
            assert (signed_permutation(signed_permutation(t, which), which) - t).is_zero()


class TestAltS:
    def test_all_even_collapses(self, sl2):
        g, _, _ = sl2
        e, f, h = g.basis_names.index("E12"), g.basis_names.index("E21"), g.basis_names.index("H1")
        got = alt_s(basis_tensor3(g, e, f, h))
        expected = basis_tensor3(g, e, f, h) + basis_tensor3(g, f, h, e) + basis_tensor3(g, h, e, f)
        assert (got - expected).is_zero()

    def test_first_leg_odd_signs(self, gl21):
        g, _, _ = gl21
        odd = next(i for i in range(g.dim) if g.parity[i] == 1)
        ev = [i for i in range(g.dim) if g.parity[i] == 0]
        b, c = ev[0], ev[1]
        got = alt_s(basis_tensor3(g, odd, b, c))
        expected = basis_tensor3(g, odd, b, c) + basis_tensor3(g, b, c, odd) + basis_tensor3(g, c, odd, b)
        assert (got - expected).is_zero()

    def test_triples_signed_cyclic_invariants(self, gl21):
        g, _, _ = gl21
        rng = random.Random(3)
        for _ in range(20):
            u = random_tensor3(g, rng)
            t = alt_s(u)
            assert (alt_s(t) - (t + t + t)).is_zero()


class TestLegBrackets:
    def test_ee_bracket_vanishes(self, sl2):
        g, _, _ = sl2
        e, f = g.basis_names.index("E12"), g.basis_names.index("E21")
        r = basis_tensor2(g, e, f)
        assert bracket_12_13(r, r).is_zero()

    def test_ef_cross_bracket(self, sl2):
        g, _, _ = sl2
        e, f = g.basis_names.index("E12"), g.basis_names.index("E21")
        h1 = g.basis_names.index("H1")
        r = basis_tensor2(g, e, f)
        s = basis_tensor2(g, f, e)
        got = bracket_12_13(r, s)
        # [e, f] = 2 H1, legs f (x) e
        expected = basis_tensor3(g, h1, f, e, Q(2))
        assert (got - expected).is_zero()

    def test_yb_bracket_of_zero(self, sl2):
        g, _, _ = sl2
        assert yb_bracket(Tensor2.zero(g)).is_zero()

    def test_casimir_yb_bracket_nonzero_but_invariant(self, sl2):
        g, _, om = sl2
        t = yb_bracket(om)
        assert not t.is_zero()
        for c in g.cartan:
            assert ad_action({c: Q(1)}, t).is_zero()


def _random_unitary_pieces(g, rd, rng, with_coth=False):
    """Random antisymmetric D cells and phi respecting phi_{-a} = -(-1)^{|a|} phi_a."""
    n = g.rank
    dcells = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = Q(rng.randint(-3, 3), rng.randint(1, 2))
            if v:
                dcells[(i, j)] = ScalarExpr.const(n, v)
    phis = {}
    for i in rd.positive_indices():
        if with_coth and rng.random() < 0.5:
            coeffs = [Q(rng.randint(0, 2)) for _ in range(n)]
            if not any(coeffs):
                coeffs[rng.randrange(n)] = Q(1)
            f = ScalarExpr.coth(coeffs) * Q(rng.randint(1, 3))
        else:
            num = Poly.const(n, Q(rng.randint(-4, 4)))
            den = Poly.linear([Q(rng.randint(0, 2)) for _ in range(n)], rng.randint(1, 5))
            f = ScalarExpr.from_ratfun(RationalFunction(num, [(den, 1)] if not den.is_const() else []))
        phis[i] = f
        phis[rd.neg[i]] = f * Q(-((-1) ** rd.roots[i].parity))
    return dcells, phis


def build_zero_weight_tensor(g, rd, dcells, phis):
    cartan = list(g.cartan)
    cells = {}
    for (i, j), f in dcells.items():
        cells[(cartan[i], cartan[j])] = f
        cells[(cartan[j], cartan[i])] = -f
    t = Tensor2(g, cells)
    for i, f in phis.items():
        t = t + Tensor2.from_vectors(g, rd.e[i], rd.e[rd.neg[i]], f)
    return t


# on gl(3|1) and gl(2|2) most pairs of cells have a zero bracket, so the
# kernel's skipping of those pairs is exercised
COTH_ORACLE_ALGEBRAS = ["gl31", "gl22"]


class TestDisplayOracles:
    """Expansions of [s12,w13] ... [w13,s23] and the [[r,r]] terms, recoded.

    The expansions hold for any phi, so the coth cases rescale the phi of the
    negative roots: then the cross bracket is nonzero, and summing the six
    displays checks the product table cross_bracket shares between them.
    """

    def _setup(self, request, name, with_coth):
        g, rd, om = request.getfixturevalue(name)
        rng = random.Random(17)
        dcells, phis = _random_unitary_pieces(g, rd, rng, with_coth=with_coth)
        if with_coth:
            for i in rd.positive_indices():
                phis[rd.neg[i]] = phis[rd.neg[i]] * Q(rng.randint(2, 4))
        s = build_zero_weight_tensor(g, rd, dcells, phis)
        duals = dual_cartan(g)
        cartan_vecs = [{c: Q(1)} for c in g.cartan]
        return g, rd, om, s, dcells, phis, cartan_vecs, duals

    def test_six_cross_displays(self, request):
        self._six_cross_displays(request, "gl21", with_coth=False)

    @pytest.mark.parametrize("name", COTH_ORACLE_ALGEBRAS)
    def test_six_cross_displays_coth(self, request, name):
        self._six_cross_displays(request, name, with_coth=True)

    def test_three_rr_displays(self, request):
        self._three_rr_displays(request, "gl21", with_coth=False)

    @pytest.mark.parametrize("name", COTH_ORACLE_ALGEBRAS)
    def test_three_rr_displays_coth(self, request, name):
        self._three_rr_displays(request, name, with_coth=True)

    def _six_cross_displays(self, request, name, with_coth):
        g, rd, om, s, dcells, phis, hvec, hdual = self._setup(request, name, with_coth)
        n = g.rank
        one = ScalarExpr.const(n, 1)
        roots = range(len(rd))

        def D(i, j):
            if i == j:
                return ScalarExpr.zero(n)
            if i < j:
                return dcells.get((i, j), ScalarExpr.zero(n))
            return -dcells.get((j, i), ScalarExpr.zero(n))

        def br(x, y):
            return bracket(g, x, y)

        acc: dict[str, Tensor3] = {k: Tensor3.zero(g) for k in ("s12o13", "o12s13", "s12o23", "o12s23", "s13o23", "o13s23")}
        for a in roots:
            pa = rd.roots[a].parity
            Aa = sign_A(rd, a)
            ea, ena = rd.e[a], rd.e[rd.neg[a]]
            fa = phis[a]
            for k in range(n):
                acc["s12o13"] += triple_from_vectors(g, br(ea, hvec[k]), ena, hdual[k], fa)
                acc["o12s13"] += triple_from_vectors(g, br(hvec[k], ea), hdual[k], ena, fa)
                acc["s12o23"] += triple_from_vectors(g, ea, br(ena, hvec[k]), hdual[k], fa)
                acc["o12s23"] += triple_from_vectors(g, hvec[k], br(hdual[k], ea), ena, fa)
                acc["s13o23"] += triple_from_vectors(g, ea, hvec[k], br(ena, hdual[k]), fa)
                acc["o13s23"] += triple_from_vectors(g, hvec[k], ea, br(hdual[k], ena), fa)
            for b in roots:
                pb = rd.roots[b].parity
                Ab = sign_A(rd, b)
                eb, enb = rd.e[b], rd.e[rd.neg[b]]
                fb = phis[b]
                koszul = Q((-1) ** (pa * pb))
                acc["s12o13"] += triple_from_vectors(g, br(ea, eb), ena, enb, fa * (koszul * Ab))
                acc["o12s13"] += triple_from_vectors(g, br(ea, eb), ena, enb, fb * (koszul * Aa))
                acc["s12o23"] += triple_from_vectors(g, ea, br(ena, eb), enb, fa * Ab)
                acc["o12s23"] += triple_from_vectors(g, ea, br(ena, eb), enb, fb * Aa)
                acc["s13o23"] += triple_from_vectors(g, ea, eb, br(ena, enb), fa * (koszul * Ab))
                acc["o13s23"] += triple_from_vectors(g, ea, eb, br(ena, enb), fb * (koszul * Aa))
            for i in range(n):
                for j in range(n):
                    dij = D(i, j)
                    acc["s12o13"] += triple_from_vectors(g, br(hvec[i], ea), hvec[j], ena, dij * Aa)
                    acc["o12s13"] += triple_from_vectors(g, br(ea, hvec[i]), ena, hvec[j], dij * Aa)
                    acc["s12o23"] += triple_from_vectors(g, hvec[i], br(hvec[j], ea), ena, dij * Aa)
                    acc["o12s23"] += triple_from_vectors(g, ea, br(ena, hvec[i]), hvec[j], dij * Aa)
                    acc["s13o23"] += triple_from_vectors(g, hvec[i], ea, br(hvec[j], ena), dij * Aa)
                    acc["o13s23"] += triple_from_vectors(g, ea, hvec[i], br(ena, hvec[j]), dij * Aa)

        got = {
            "s12o13": bracket_12_13(s, om),
            "o12s13": bracket_12_13(om, s),
            "s12o23": bracket_12_23(s, om),
            "o12s23": bracket_12_23(om, s),
            "s13o23": bracket_13_23(s, om),
            "o13s23": bracket_13_23(om, s),
        }
        for key in acc:
            assert (got[key] - acc[key]).is_zero(), key
        total = sum(acc.values(), Tensor3.zero(g))
        assert (cross_bracket(s, om) - total).is_zero()
        assert total.is_zero() == (not with_coth)

    def _three_rr_displays(self, request, name, with_coth):
        g, rd, om, r, dcells, phis, hvec, hdual = self._setup(request, name, with_coth)
        n = g.rank
        roots = range(len(rd))

        def D(i, j):
            if i == j:
                return ScalarExpr.zero(n)
            if i < j:
                return dcells.get((i, j), ScalarExpr.zero(n))
            return -dcells.get((j, i), ScalarExpr.zero(n))

        exp_1213, exp_1223, exp_1323 = Tensor3.zero(g), Tensor3.zero(g), Tensor3.zero(g)
        for a in roots:
            ea, ena, fa = rd.e[a], rd.e[rd.neg[a]], phis[a]
            pa = rd.roots[a].parity
            for b in roots:
                eb, enb, fb = rd.e[b], rd.e[rd.neg[b]], phis[b]
                koszul = Q((-1) ** (pa * rd.roots[b].parity))
                exp_1213 += triple_from_vectors(g, bracket(g, ea, eb), ena, enb, fa * fb * koszul)
                exp_1223 += triple_from_vectors(g, ea, bracket(g, ena, eb), enb, fa * fb)
                exp_1323 += triple_from_vectors(g, ea, eb, bracket(g, ena, enb), fa * fb * koszul)
            for i in range(n):
                for j in range(n):
                    dij = D(i, j)
                    exp_1213 += triple_from_vectors(g, bracket(g, hvec[i], ea), hvec[j], ena, dij * fa)
                    exp_1213 += triple_from_vectors(g, bracket(g, ea, hvec[i]), ena, hvec[j], dij * fa)
                    exp_1223 += triple_from_vectors(g, hvec[i], bracket(g, hvec[j], ea), ena, dij * fa)
                    exp_1223 += triple_from_vectors(g, ea, bracket(g, ena, hvec[i]), hvec[j], dij * fa)
                    exp_1323 += triple_from_vectors(g, hvec[i], ea, bracket(g, hvec[j], ena), dij * fa)
                    exp_1323 += triple_from_vectors(g, ea, hvec[i], bracket(g, ena, hvec[j]), dij * fa)

        assert (bracket_12_13(r, r) - exp_1213).is_zero()
        assert (bracket_12_23(r, r) - exp_1223).is_zero()
        assert (bracket_13_23(r, r) - exp_1323).is_zero()
        assert (yb_bracket(r) - (exp_1213 + exp_1223 + exp_1323)).is_zero()


class TestAdAction:
    def test_weight_zero_tensor(self, sl2):
        g, _, _ = sl2
        e, f, h1 = g.basis_names.index("E12"), g.basis_names.index("E21"), g.basis_names.index("H1")
        t = basis_tensor2(g, e, f)
        assert ad_action({h1: Q(2)}, t).is_zero()

    def test_weights_add(self, sl2):
        g, _, _ = sl2
        e, h1 = g.basis_names.index("E12"), g.basis_names.index("H1")
        t = basis_tensor2(g, e, e)
        got = ad_action({h1: Q(2)}, t)
        assert (got - basis_tensor2(g, e, e, Q(4))).is_zero()

    def test_casimir_invariant_under_cartan(self, gl21):
        g, _, om = gl21
        for c in g.cartan:
            assert ad_action({c: Q(1)}, om).is_zero()

    def test_odd_actor_rejected(self, gl11):
        g, _, om = gl11
        odd = next(i for i in range(g.dim) if g.parity[i])
        with pytest.raises(OddActorError):
            ad_action({odd: Q(1)}, om)


class TestAltSOnDifferential:
    def test_generic_convention_locked_on_odd_roots(self, gl21):
        # dr = sum_i x_i (x) dphi/dx_i (e_a (x) e_{-a}); the generic Alt_s puts
        # +dphi on the (e_a, e_{-a}, x_i) cells and (-1)^{|a|} dphi on the
        # (e_{-a}, x_i, e_a) cells.  The exact cancellation for the rational
        # family on algebras with odd roots holds only with this convention.
        from sdybe.verifier import decide_tensor_zero, differential_dr

        g, rd, _ = gl21
        n = g.rank
        odd_i = next(i for i in rd.positive_indices() if rd.roots[i].parity == 1)
        coeffs = rd.coroot_table[odd_i]
        phi = ScalarExpr.from_ratfun(
            RationalFunction(Poly.const(n, 1), [(Poly.linear(coeffs, 0), 1)])
        )
        r = Tensor2.from_vectors(g, rd.e[odd_i], rd.e[rd.neg[odd_i]], phi)
        out = alt_s(differential_dr(r))
        (ia,) = rd.e[odd_i].keys()
        (ina,) = rd.e[rd.neg[odd_i]].keys()
        for k, c_idx in enumerate(g.cartan):
            dphi = phi.differentiate(k)
            if dphi.symbolically_zero():
                continue
            assert (out.coeffs[(ia, ina, c_idx)] - dphi).symbolically_zero()
            assert (out.coeffs[(ina, c_idx, ia)] + dphi).symbolically_zero()  # (-1)^{|a|} = -1

    def test_hhh_component_is_exterior_derivative(self, gl21):
        # Alt_s(dr) restricted to Cartan^3 must equal the cyclic-derivative sum
        from sdybe.verifier import decide_tensor_zero, differential_dr

        g, _, _ = gl21
        n = g.rank
        cartan = list(g.cartan)
        x0, x1, x2 = (ScalarExpr.coord(n, k) for k in range(3))
        entries = {(0, 1): x2 * x2 + x0, (0, 2): x1, (1, 2): x0 * x1}

        def D(i, j):
            if i == j:
                return ScalarExpr.zero(n)
            return entries[(i, j)] if i < j else -entries[(j, i)]

        cells = {}
        for i in range(n):
            for j in range(n):
                d = D(i, j)
                if not d.symbolically_zero():
                    cells[(cartan[i], cartan[j])] = d
        r = Tensor2(g, cells)
        got = alt_s(differential_dr(r))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    expected = D(i, j).differentiate(k) + D(j, k).differentiate(i) + D(k, i).differentiate(j)
                    cell = got.coeffs.get((cartan[i], cartan[j], cartan[k]), ScalarExpr.zero(n))
                    assert (cell - expected).symbolically_zero(), (i, j, k)


# ---------------------------------------------------------------------------
# shared evaluation at a point


def _independent_value(f: ScalarExpr, point, precision: int):
    """f at a rational point from exact coefficient values and mpmath's coth."""
    ctx = mpmath.mp.clone()
    ctx.prec = precision + 20

    def mpf(q):
        return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)

    total, scale = ctx.mpf(0), ctx.mpf(1)
    for mono, coeff in f.terms.items():
        term = mpf(lifted(coeff, f.nvars).eval_exact(point))
        for atom, power in mono:
            term *= ctx.coth(mpf(atom_form_poly(atom).eval_exact(point))) ** power
        total, scale = total + term, scale + abs(term)
    return total, scale


def _point_on(rd, hyperplanes, n):
    """A rational point on every (root index, nu) hyperplane (a, x - nu) = 0,
    with the remaining coordinates pinned to values off the other hyperplanes."""
    rows = [list(rd.coroot_table[i]) for i, _ in hyperplanes]
    rhs = [sum(c * v for c, v in zip(rows[k], nu)) for k, (_, nu) in enumerate(hyperplanes)]
    for k in range(n):
        if len(rows) == n:
            break
        trial = rows + [[Q(int(j == k)) for j in range(n)]]
        try:
            solve_linear(trial, rhs + [Q(7, 5) + k])
        except DegenerateFormError:
            continue
        rows, rhs = trial, rhs + [Q(7, 5) + k]
    return tuple(solve_linear(rows, rhs))


def _coth_and_rational(bundle, request):
    """r of the X = all coth family (nu1) plus r of the X = all rational family (nu2)."""
    g, rd, om = request.getfixturevalue(bundle)
    n = g.rank
    nu1 = [Q(k + 1, 3) for k in range(n)]
    nu2 = [Q(-k - 1, 2) for k in range(n)]
    coth = RMatrixSpec(X=frozenset(range(len(rd))), nu=nu1, D=TwoForm.zero(n), epsilon=Q(1, 2))
    rational = RMatrixSpec(X=frozenset(range(len(rd))), nu=nu2, D=TwoForm.zero(n))
    return g, rd, nu1, nu2, construct(coth, g, rd, omega=om) + construct(rational, g, rd, omega=om)


# the form each PoleError names, recorded before evaluation shared one
# MpPoint across the cells at a point: (bundle, hyperplanes) -> form
POLE_FORMS = {
    ("gl21", "coth"): "coth(1/4*x0 + 1/4*x2 - 1/3)",
    ("gl21", "denominator"): "x1 + x2 + 5/2",
    ("gl21", "both"): "x0 + x2 + 2",
    ("gl21", "both-swapped"): "coth(1/4*x0 + 1/4*x2 - 1/3)",
    ("sl3", "coth"): "coth(1/2*x0 + 1/4*x1 - 1/3)",
    ("sl3", "denominator"): "x0 + 2*x1 + 5/2",
    ("sl3", "both"): "x0 + 1/2*x1 + 1",
    ("sl3", "both-swapped"): "coth(1/2*x0 + 1/4*x1 - 1/3)",
}


def _scanned_witness(cells: dict, pts, precision: int):
    """(key, point, value) of the first largest |value|, every cell evaluated at every point."""
    best, max_abs = None, 0.0
    for pt in pts:
        for key, c in cells.items():
            v = c.eval_numeric(pt, precision=precision)
            if best is None or abs(v) > max_abs:
                best, max_abs = (key, pt, v), abs(v)
    return best


class TestSharedEvaluation:
    """Tensor.evaluate and largest_value share one MpPoint per point."""

    @pytest.mark.parametrize("precision", [64, 128])
    @pytest.mark.parametrize("bundle", ["gl21", "sl3"])
    def test_shared_state_equals_per_cell_evaluation(self, bundle, precision, request):
        g, _, _, _, t = _coth_and_rational(bundle, request)
        assert any(not c.is_rational() for c in t.coeffs.values())
        assert any(isinstance(f, RationalFunction) and f.den for c in t.coeffs.values() for f in c.terms.values())
        pts = sample_points(g.rank, 4, seed=3, avoid=t.singular_forms(), lattice=6)
        for pt in pts:
            shared = t.evaluate(pt, precision=precision)
            assert shared == {k: c.eval_numeric(pt, precision=precision) for k, c in t.coeffs.items()}
        assert largest_value(t.coeffs, pts, precision=precision, margin=1e-6) == _scanned_witness(t.coeffs, pts, precision)

    @pytest.mark.parametrize("precision", [64, 128])
    @pytest.mark.parametrize("bundle", ["gl21", "sl3"])
    def test_constants_are_evaluated_at_the_first_point_only(self, bundle, precision, request, monkeypatch):
        g, _, _, _, t = _coth_and_rational(bundle, request)
        _, _, omega = request.getfixturevalue(bundle)
        pts = sample_points(g.rank, 6, seed=3, avoid=t.singular_forms(), lattice=6)
        # Omega's constant cells, scaled past some values of r, between r's coth and rational cells
        mixed = {}
        for (key, c), (okey, o) in zip(t.coeffs.items(), omega.coeffs.items()):
            mixed["r", *key], mixed["omega", *okey] = c, o * Q(7, 3)
        # a coth cell whose first maximum |value| comes after the first point, above its value there
        f, vals = next(
            (f, vals)
            for f in t.coeffs.values()
            if f.atoms()
            for vals in [[f.eval_numeric(pt, precision=precision) for pt in pts]]
            if max(abs(v) for v in vals) > abs(vals[0])
        )
        top = max(range(len(pts)), key=lambda k: (abs(vals[k]), -k))
        exact = [Q(v.man_exp[0]) * Q(2) ** v.man_exp[1] for v in (abs(vals[0]), abs(vals[top]))]
        cases = [
            (mixed, None),
            # a constant tying the later maximum: the first point's constant stays the witness
            ({"constant": ScalarExpr.const(g.rank, exact[1]), "coth": f}, ("constant", pts[0], abs(vals[top]))),
            # negative control: a constant above the coth cell at the first point, below its maximum
            ({"constant": ScalarExpr.const(g.rank, sum(exact) / 2), "coth": f}, ("coth", pts[top], vals[top])),
        ]
        for cells, expected in cases:
            assert any(c.constant() is not None for c in cells.values())
            scanned = _scanned_witness(cells, pts, precision)
            assert expected is None or scanned == expected
            calls = []
            evaluate = ScalarExpr.eval_numeric
            monkeypatch.setattr(ScalarExpr, "eval_numeric", lambda c, *a, **k: calls.append(c) or evaluate(c, *a, **k))
            assert largest_value(cells, pts, precision=precision, margin=1e-6) == scanned
            monkeypatch.undo()
            varying = [c for c in cells.values() if c.constant() is None]
            assert len(calls) == len(cells) + (len(pts) - 1) * len(varying)

    @pytest.mark.parametrize("bundle", ["gl21", "sl3"])
    def test_values_belong_to_their_point(self, bundle, request):
        # an atom value kept from one point and reused at the next is caught here
        g, _, _, _, t = _coth_and_rational(bundle, request)
        pts = sample_points(g.rank, 3, seed=5, avoid=t.singular_forms(), lattice=6)
        for precision in (64, 128):
            for pt in pts:
                for key, v in t.evaluate(pt, precision=precision).items():
                    expected, scale = _independent_value(t.coeffs[key], pt, precision)
                    assert abs(v - expected) <= scale * 2.0 ** (16 - precision), (key, pt)

    @pytest.mark.parametrize("where", ["coth", "denominator", "both", "both-swapped"])
    @pytest.mark.parametrize("bundle", ["gl21", "sl3"])
    def test_pole_names_the_same_form(self, bundle, where, request):
        g, rd, nu1, nu2, t = _coth_and_rational(bundle, request)
        pos = rd.positive_indices()
        a, b = pos[0], pos[-1]
        hyperplanes = {
            "coth": [(a, nu1)],
            "denominator": [(b, nu2)],
            "both": [(b, nu1), (a, nu2)],
            "both-swapped": [(a, nu1), (b, nu2)],
        }[where]
        point = _point_on(rd, hyperplanes, g.rank)
        with pytest.raises(PoleError) as err:
            t.evaluate(point, precision=64)
        assert err.value.form == POLE_FORMS[(bundle, where)]
        assert err.value.point == point


# ---------------------------------------------------------------------------
# one reduction per cell against the per-term reference accumulator


MODES = ("12_13", "12_23", "13_23")


def _reference_alt_s(t):
    p, ref = t.g.parity, ReferenceCells()
    for (i, j, k), c in t.coeffs.items():
        ref.add((i, j, k), c)
        ref.add((j, k, i), c * (-1) ** (p[i] * (p[j] + p[k])))
        ref.add((k, i, j), c * (-1) ** (p[k] * (p[i] + p[j])))
    return ref


def _reference_ad_action(z, t):
    g, ref = t.g, ReferenceCells()
    for key, c in t.coeffs.items():
        for leg in range(t.rank):
            for b, cz in z.items():
                for k, sc in g.bracket_basis(b, key[leg]).items():
                    ref.add(key[:leg] + (k,) + key[leg + 1 :], c * (cz * sc))
    return ref


def _reference_yb_bracket(r):
    # leg by leg, then the legs added as tensors, in yb_bracket's order
    ref = ReferenceCells()
    for mode in MODES:
        ref.merge(reference_leg_bracket(r, r, mode))
    return ref


def _per_cell_case(bundle, kind):
    g, rd, om = bundle
    n = g.rank
    eps = Q(1, 3) if kind == "coth" else Q(0)
    nu = [Q(k, 2 * k + 1) for k in range(1, n + 1)]
    spec = RMatrixSpec(X=frozenset(range(len(rd))), nu=nu, D=TwoForm.zero(n), epsilon=eps)
    r = construct(spec, g, rd, omega=om)
    return g, om, r, shift_to_s(r, eps, om)


@st.composite
def repeated_terms(draw):
    """(factor, term) pairs in which term objects repeat; one term's factors may add up to 0."""
    exprs = draw(st.lists(sum_exprs(), min_size=1, max_size=3))
    pairs = [(draw(st.sampled_from(SUM_FACTORS)), draw(st.sampled_from(exprs))) for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        term = pairs[0][1]
        total = sum((f for f, t in pairs if t is term), Q(0))
        pairs.insert(draw(st.integers(1, len(pairs))), (-total, term))
    return pairs


# T cancels; its denominator x0 still joins the lcm, so U's numerator is
# multiplied by x0 and divided again, which leaves it in grlex order
_T = ScalarExpr.from_ratfun(RationalFunction(Poly.const(2, 1), [(Poly.var(2, 0), 1)]))
_U = ScalarExpr.from_ratfun(RationalFunction(Poly(2, {(0, 0): 1, (1, 0): 1})))


@settings(max_examples=80, deadline=None)
@given(repeated_terms())
@example([(1, _T), (1, _U), (-1, _T)])
def test_merged_factors_keep_the_orders_of_the_unmerged_sum(pairs):
    cells: dict = {}
    for factor, term in pairs:
        collect(cells, "cell", factor, term)
    assert len(cells["cell"]) == len({id(t) for _, t in pairs})
    merged = Tensor3.summed(RANK2, cells).coeffs.get("cell", ScalarExpr.zero(2))
    assert stored_form(merged) == stored_form(ScalarExpr.sum(2, pairs))


def assert_summed(t, ref):
    """t holds ref's sums, each cell where its first term arrived.

    That is ref's order on every cell whose running sum never cancelled.
    """
    assert tensor_dump(t) == tensor_dump(type(t)(t.g, ref.cells))
    assert list(t.coeffs) == ref.first_arrival_order()
    assert [k for k in t.coeffs if k not in ref.dropped] == [k for k in ref.cells if k not in ref.dropped]


class TestOneReductionPerCell:
    """Every builder's cells equal a per-term fold, in value and in order."""

    @pytest.fixture(scope="class", params=[
        (b, kind) for b in ("gl21", "sl3", "gl22") for kind in ("coth", "rational")
    ], ids=lambda p: f"{p[0]}-{p[1]}")
    def case(self, request):
        bundle, kind = request.param
        return _per_cell_case(request.getfixturevalue(bundle), kind)

    def test_yb_bracket(self, case):
        _, om, r, _ = case
        # the Casimir's cells are all constant: each cell reduces as one term
        for t in (r, om):
            assert_summed(yb_bracket(t), _reference_yb_bracket(t))

    def test_scale_is_the_per_cell_product(self, case):
        g, om, r, _ = case
        for t in (r, om, yb_bracket(r)):
            for factor in (Q(1, 3), -1, 2, Q(-5, 2), Q(4, 2)):
                products = {k: c * ScalarExpr.const(g.rank, factor) for k, c in t.coeffs.items()}
                scaled = t.scale(factor)
                assert [(k, stored_form(c)) for k, c in scaled.coeffs.items()] == [
                    (k, stored_form(c)) for k, c in products.items()
                ]
            assert t.scale(0).is_zero() and t.scale(Q(0)).is_zero()

    def test_cross_bracket(self, case):
        _, om, r, s = case
        # s cancels to zero (the lemma); r does not when eps != 0
        for t in (s, r):
            ref = ReferenceCells()
            for left, right in ((t, om), (om, t)):
                for mode in MODES:
                    ref.merge(reference_leg_bracket(left, right, mode))
            assert_summed(cross_bracket(t, om), ref)

    def test_alt_s(self, case):
        _, _, r, _ = case
        dr = differential_dr(r)
        assert_summed(alt_s(dr), _reference_alt_s(dr))

    def test_ad_action(self, case):
        g, om, r, _ = case
        # an actor with every Cartan component, so several terms meet in a cell
        z = {c: Q(k + 1, 2) for k, c in enumerate(g.cartan)}
        for t in (r, bracket_12_13(r, om)):
            assert_summed(ad_action(z, t), _reference_ad_action(z, t))

    def test_cells_that_cancel_and_return_keep_their_first_place(self, gl22):
        """[[r, r]] on gl(2|2) with coth cells: 24 cells cancel and come back.

        Per-term accumulation put such a cell back at the end; one sum per
        cell leaves it where its first term arrived.  The cells are tied in
        |value| and the first maximum is the witness, so deciding the cells
        from the first place where the two orders part names a returned cell
        in our order and a different cell in the per-term order, with the
        same max_abs.
        """
        g, _, r, _ = _per_cell_case(gl22, "coth")
        t, ref = yb_bracket(r), _reference_yb_bracket(r)
        returned = [k for k in ref.cells if k in ref.dropped]
        assert len(returned) == 24
        assert list(t.coeffs) != list(ref.cells)
        part = next(i for i, (a, b) in enumerate(zip(t.coeffs, ref.cells)) if a != b)
        ours = decide_tensor_zero(Tensor3(g, {k: t.coeffs[k] for k in list(t.coeffs)[part:]}), "yb")
        theirs = decide_tensor_zero(Tensor3(g, {k: t.coeffs[k] for k in list(ref.cells)[part:]}), "yb")
        assert ours.max_abs == theirs.max_abs
        assert tuple(ours.witness["indices"]) in returned
        assert ours.witness["indices"] != theirs.witness["indices"]


# cells of the split-free oracle test: shared shapes times rational contents, on gl(2|1)
_GL21 = build_gl(2, 1)
_SHAPES = (
    ScalarExpr.const(3, 1),
    ScalarExpr.from_ratfun(RationalFunction(Poly.const(3, 1), [(Poly.linear([1, -1, 0]), 1)])),
    ScalarExpr.from_ratfun(RationalFunction(Poly.linear([0, 2, 0], 1), [(Poly.linear([0, 1, 1]), 1)])),
    ScalarExpr.coth([1, -1, 0]) + ScalarExpr.coord(3, 2),
    ScalarExpr.coth([0, 1, -1], Q(1, 2)) * ScalarExpr.coth([1, 0, 1]),
)
_CONTENTS = (Q(1, 2), -3, Q(2, 3), 1, -1, 2)


@st.composite
def shared_shape_tensors(draw):
    """A Tensor2 on gl(2|1) whose cells are contents times a few shared shapes."""
    keys = draw(st.lists(st.tuples(st.integers(0, _GL21.dim - 1), st.integers(0, _GL21.dim - 1)),
                         min_size=1, max_size=8, unique=True))
    return Tensor2(_GL21, {
        key: ScalarExpr.sum(3, [(draw(st.sampled_from(_CONTENTS)), draw(st.sampled_from(_SHAPES)))]) for key in keys
    })


@settings(max_examples=60, deadline=None)
@given(shared_shape_tensors(), shared_shape_tensors(), st.sampled_from([(m,) for m in MODES] + [MODES]))
def test_shared_bases_match_the_split_free_full_scan(r, s, modes):
    """Int factors on shared bases give the cells, in the order, of each pair's own product."""
    got = mode_brackets(r, s, modes)
    want = full_scan_leg_brackets(r, s, modes, False)
    assert tensor_dump(got) == tensor_dump(want)
    assert list(got.coeffs) == list(want.coeffs)
    same = mode_brackets(r, r, modes)
    assert tensor_dump(same) == tensor_dump(full_scan_leg_brackets(r, r, modes, False))


# ---------------------------------------------------------------------------
# one general-path sum per term vector, one base product per unordered pair


def _rational_d_table():
    """RATIONAL_D and RATIONAL_D_ALGEBRAS of scripts/compare_reports.py; sys.path is left as it was."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("compare_reports", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module.RATIONAL_D, module.RATIONAL_D_ALGEBRAS


_RATIONAL_D, _RATIONAL_D_ALGEBRAS = _rational_d_table()
# eps = 0, X = all: each small algebra at nu_k = k/(2k+1) and D = 0, and every rational D of
# compare_reports at nu = 0 on each of its algebras whose rank has room for the entry's indices
RATIONAL_CASES = [(f, m, n, ()) for f, m, n in SMALL_ALGEBRAS] + [
    (f, m, n, entries)
    for f, m, n in _RATIONAL_D_ALGEBRAS
    for entries in _RATIONAL_D
    if max(j for _, j, _ in entries) < (m + n if f == "gl" else m + n - 1)
]


def _rational_r(family, m, n, entries):
    g = (build_gl if family == "gl" else build_sl)(m, n)
    rd = root_decomposition(g)
    doc = {"epsilon": "0", "X": "all", "D": [{"i": i, "j": j, "ratfun": f} for i, j, f in entries]}
    if not entries:
        doc["nu"] = [f"{k}/{2 * k + 1}" for k in range(1, g.rank + 1)]
    return g, construct(spec_from_json(doc, g, rd), g, rd, omega=casimir(g, rd))


def _each_cell_alone(g, cells: dict) -> dict:
    """Every cell summed by itself with `ScalarExpr.sum` and no memo; cancelled cells dropped."""
    out = {}
    for key, terms in cells.items():
        if any(f for f, _ in terms.values()):
            c = ScalarExpr.sum(g.rank, list(terms.values()))
            if c.form:
                out[key] = c
    return out


def _stored_cells(coeffs: dict) -> list:
    return [(k, c.content, type(c.content), c.form, stored_form(c)) for k, c in coeffs.items()]


@pytest.mark.parametrize(
    "family,m,n,entries", RATIONAL_CASES,
    ids=[f"{f}{m}{n}-D{k}" for k, (f, m, n, _) in enumerate(RATIONAL_CASES)],
)
def test_memoized_sums_are_each_cells_own_sum(family, m, n, entries, monkeypatch):
    """The cdybe and unitarity residuals of the rational family have the cells, the cell order and
    the stored (content, form) of summing each cell alone, and compute no more sums."""
    g, r = _rational_r(family, m, n, entries)
    om = casimir(g, root_decomposition(g))
    dr = differential_dr(r)
    cdybe: dict = {}
    alt_s(dr, into=cdybe)
    yb_bracket(r, into=cdybe)
    unitarity: dict = {}
    collect_tensor(unitarity, r)
    collect_tensor(unitarity, super_twist(r))
    computed = []
    sum_groups = scalars_mod._sum_groups
    monkeypatch.setattr(scalars_mod, "_sum_groups", lambda *a: computed.append(1) or sum_groups(*a))
    counts = []  # (sums of each cell alone, sums through the memo) per residual
    for cells, kind, residual in (
        (cdybe, Tensor3, cdybe_lhs(r, dr)),
        (unitarity, Tensor2, unitarity_residual(r, 0, om)[0]),
    ):
        computed.clear()
        want = _each_cell_alone(g, cells)
        alone = len(computed)
        computed.clear()
        got = kind.summed(g, cells)
        counts.append((alone, len(computed)))
        assert _stored_cells(got.coeffs) == _stored_cells(want)
        assert _stored_cells(residual.coeffs) == _stored_cells(want)
    assert all(memo <= alone for alone, memo in counts)
    if (family, m, n) == ("gl", 3, 2):  # many rational cells of cdybe share a term vector
        assert counts[0][1] < counts[0][0]


@pytest.mark.parametrize("kind", ["rational", "coth"])
def test_reversed_pairs_share_one_product(gl21, kind, monkeypatch):
    """In one yb_bracket call the product of bases (b2, b1) is the object of (b1, b2)."""
    g, _, r, _ = _per_cell_case(gl21, kind)
    tables = []
    leg_bracket = tensor_mod._leg_bracket

    def recording(r_cells, s, mode, g, products, cells):
        tables.append(products)
        return leg_bracket(r_cells, s, mode, g, products, cells)

    monkeypatch.setattr(tensor_mod, "_leg_bracket", recording)
    yb_bracket(r)
    products = tables[0]
    assert all(t is products for t in tables)
    reversed_pairs = [(b1, b2) for b1, row in products.items() for b2 in row if b1 != b2 and b1 in products.get(b2, {})]
    assert reversed_pairs
    assert all(products[b1][b2] is products[b2][b1] for b1, b2 in reversed_pairs)
