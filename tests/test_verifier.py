"""Residual checks: equation left sides, zero decisions, lemma, limits."""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import sdybe.rmatrix as rmatrix_mod
import sdybe.tensor as tensor_mod
import sdybe.verifier as verifier_mod
from sdybe import cli
from sdybe.rmatrix import (
    RMatrixSpec,
    TwoForm,
    ValidationError,
    constant_example,
    construct,
    shift_to_s,
    validate,
)
from sdybe.scalars import Poly, RationalFunction, ScalarExpr, to_sexpr
from sdybe.superalgebra import build_gl, build_sl, casimir, root_decomposition
from sdybe.tensor import (
    _MODES,
    Tensor2,
    Tensor3,
    _leg_brackets,
    ad_action,
    alt_s,
    cross_bracket,
    super_twist,
    tensor_dump,
    yb_bracket,
)
from sdybe.verifier import (
    ALL_CHECKS,
    PreconditionError,
    VerifyConfig,
    cdybe_lhs,
    cdybe_residual,
    decide_cells,
    differential_dr,
    dominant_vector,
    lemma_consistency_check,
    limit_behavior_check,
    mdybe_lhs,
    mdybe_residual,
    omega_bracket,
    run_checks,
    unitarity_residual,
    zero_weight_residual,
)

from conftest import (
    OMEGA_ALGEBRAS,
    SMALL_ALGEBRAS,
    full_scan_leg_brackets,
    mode_brackets,
    functional_equation_check,
    functional_equation_residual,
    ode_check,
    ode_residual,
    ray_deviations,
    reference_dominant_vector,
    sampled_max_abs,
    signed_permutation,
)
from test_tensor import _random_unitary_pieces, basis_tensor2, build_zero_weight_tensor

Q = Fraction

CFG64 = VerifyConfig(precision=64, seed=0)


def full_spec(rd, eps=Q(0), nu=None, D=None, choice=None):
    n = rd.g.rank
    return RMatrixSpec(
        X=frozenset(range(len(rd))),
        nu=nu or [0] * n,
        D=D or TwoForm.zero(n),
        epsilon=eps,
        sign_choice=choice or {},
    )


class TestDifferential:
    def test_constant_vanishes(self, sl2):
        g, rd, om = sl2
        assert differential_dr(om).is_zero()

    def test_explicit_cells(self, sl2):
        g, rd, _ = sl2
        e, f, h1 = g.basis_names.index("E12"), g.basis_names.index("E21"), g.basis_names.index("H1")
        inv = ScalarExpr.from_ratfun(RationalFunction(Poly.const(1, 1), [(Poly.var(1, 0), 1)]))
        r = Tensor2(g, {(e, f): inv})
        out = differential_dr(r)
        assert set(out.coeffs) == {(h1, e, f)}
        assert (out.coeffs[(h1, e, f)] - inv.differentiate(0)).symbolically_zero()

    def test_linearity(self, gl21):
        g, rd, om = gl21
        spec_a = full_spec(rd)
        spec_b = full_spec(rd, nu=[Q(1, 2), 0, 0])
        ra = construct(spec_a, g, rd, omega=om)
        rb = construct(spec_b, g, rd, omega=om)
        lhs = differential_dr(ra + rb)
        rhs = differential_dr(ra) + differential_dr(rb)
        assert (lhs - rhs).is_zero()


class TestCdybe:
    def test_rational_family_exact(self, sl2):
        g, rd, om = sl2
        r = construct(full_spec(rd), g, rd, omega=om)
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.status == "exact-zero"

    def test_coth_family_sl2_exact(self, sl2):
        # no root pairs need the addition law on sl(2), so even the coupled
        # family cancels symbolically
        g, rd, om = sl2
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.status == "exact-zero"

    def test_coth_family_gl21_numeric(self, gl21):
        # the cancellation needs the coth addition law; the sampler, as an
        # oracle, confirms that the cells it decides vanish numerically too
        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        lhs, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.status == "exact-zero"
        survivors = [c for c in lhs.coeffs.values() if not c.symbolically_zero()]
        assert survivors
        assert sampled_max_abs(survivors, g.rank, avoid=lhs.singular_forms(), precision=64) < 1e-12

    def test_perturbed_coth_cell_detected(self, gl21):
        # one coth cell scaled by 1 + 10^-30: every sampled value stays below
        # 1e-25, which a 128-bit sampled verdict would have passed, but the
        # exact decision still rejects it
        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        cell = next(k for k in sorted(r.coeffs) if not r.coeffs[k].is_rational())
        bumped = dict(r.coeffs)
        bumped[cell] = bumped[cell] * (1 + Q(1, 10**30))
        r = Tensor2(g, bumped)
        lhs, rep = cdybe_residual(r, differential_dr(r), VerifyConfig())
        assert rep.status == "nonzero"
        assert rep.witness is not None and tuple(rep.witness["indices"]) in lhs.coeffs
        assert rep.max_abs < 1e-25

    def test_bare_term_fails_with_witness(self, sl2):
        g, rd, om = sl2
        e, f = g.basis_names.index("E12"), g.basis_names.index("E21")
        r = basis_tensor2(g, e, f)
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.status == "nonzero"
        assert rep.witness is not None

    def test_valid_mixed_sign_choice_solves(self, gl21):
        # empirical resolution of the open question: theta against gamma2
        g, rd, om = gl21
        pos = rd.positive_indices()
        theta = next(i for i in pos if rd.roots[i].parity == 0)
        gamma1, gamma2 = (i for i in pos if rd.roots[i].parity == 1)
        spec = RMatrixSpec(
            X=frozenset(), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=1,
            sign_choice={theta: 1, gamma1: -1, gamma2: -1},
        )
        r = construct(spec, g, rd, omega=om)
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.is_zero

    def test_invalid_mixed_sign_choice_flagged(self, gl21):
        g, rd, om = gl21
        pos = rd.positive_indices()
        theta = next(i for i in pos if rd.roots[i].parity == 0)
        gamma1, gamma2 = (i for i in pos if rd.roots[i].parity == 1)
        spec = RMatrixSpec(
            X=frozenset(), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=1,
            sign_choice={theta: 1, gamma1: -1, gamma2: 1},
        )
        r = construct(spec, g, rd, omega=om)
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.status == "nonzero"
        assert rep.witness is not None


class TestUnitarity:
    def test_zero_coupling(self, sl2):
        g, rd, om = sl2
        r = construct(full_spec(rd), g, rd, omega=om)
        _, rep = unitarity_residual(r, 0, om)
        assert rep.status == "exact-zero"

    def test_coupled(self, gl21):
        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1, 3)), g, rd, omega=om)
        _, rep = unitarity_residual(r, Q(1, 3), om)
        assert rep.status == "exact-zero"

    def test_casimir_needs_eps_two(self, sl2):
        g, rd, om = sl2
        res1, rep1 = unitarity_residual(om, 1, om)
        assert rep1.status == "nonzero"
        assert (res1 - om).is_zero()  # T_s(Omega) = Omega, so residual = Omega
        _, rep2 = unitarity_residual(om, 2, om)
        assert rep2.status == "exact-zero"


class TestZeroWeight:
    def test_construct_outputs(self, gl21):
        g, rd, om = gl21
        for eps in (Q(0), Q(2)):
            choice = {i: 1 for i in rd.positive_indices()} if eps else {}
            spec = RMatrixSpec(X=frozenset() if eps else frozenset(range(len(rd))),
                               nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=eps, sign_choice=choice)
            r = construct(spec, g, rd, omega=om)
            assert zero_weight_residual(r).status == "exact-zero"

    def test_symmetric_pair_cancels(self, sl2):
        g, rd, _ = sl2
        e, f = g.basis_names.index("E12"), g.basis_names.index("E21")
        r = basis_tensor2(g, e, f) + basis_tensor2(g, f, e)
        assert zero_weight_residual(r).status == "exact-zero"

    def test_double_raising_term_fails(self, sl2):
        g, rd, _ = sl2
        e = g.basis_names.index("E12")
        rep = zero_weight_residual(basis_tensor2(g, e, e))
        assert rep.status == "nonzero"
        assert g.basis_names[rep.witness["indices"][0]] == "H1"

    def test_addition_law_cell_is_zero_weight(self, sl3):
        # E12 (x) E12 carries the coth addition law, which is zero although
        # its atoms do not cancel as indeterminates; the residual of every
        # Cartan vector is a multiple of it
        g, rd, _ = sl3
        e = g.basis_names.index("E12")
        law = _addition_law_sl3()
        assert not law.symbolically_zero()
        assert zero_weight_residual(Tensor2(g, {(e, e): law})).status == "exact-zero"
        rep = zero_weight_residual(Tensor2(g, {(e, e): law + Q(1, 10**20)}))
        assert rep.status == "nonzero"
        assert rep.witness["indices"][0] in g.cartan
        assert tuple(rep.witness["indices"][1:]) == (e, e)


def _addition_law_sl3() -> ScalarExpr:
    """coth(x0 + x1)(coth x0 + coth x1) - (coth x0 coth x1 + 1), zero."""
    c0, c1, c01 = (ScalarExpr.coth([Q(a), Q(b)]) for a, b in ((1, 0), (0, 1), (1, 1)))
    return c01 * (c0 + c1) - (c0 * c1 + 1)


class TestMdybe:
    def test_shifted_coupled_family(self, sl2):
        g, rd, om = sl2
        eps = Q(2)
        r = construct(full_spec(rd, eps=eps), g, rd, omega=om)
        s = shift_to_s(r, eps, om)
        _, rep = mdybe_residual(s, differential_dr(s), eps, om, CFG64)
        assert rep.is_zero

    def test_zero_s_leaves_casimir_term(self, sl2):
        g, rd, om = sl2
        _, rep = mdybe_residual(Tensor2.zero(g), Tensor3.zero(g), 2, om, CFG64)
        assert rep.status == "nonzero"

    def test_eps_zero_reduces_to_cdybe(self, gl21):
        g, rd, om = gl21
        rng = random.Random(23)
        dcells, phis = _random_unitary_pieces(g, rd, rng)
        s = build_zero_weight_tensor(g, rd, dcells, phis)
        ds = differential_dr(s)
        assert (mdybe_lhs(s, ds, 0, om) - cdybe_lhs(s, ds)).is_zero()


@pytest.mark.parametrize("family,m,n", OMEGA_ALGEBRAS, ids=[f"{f}{m}{n}" for f, m, n in OMEGA_ALGEBRAS])
def test_cached_omega_bracket_is_the_full_scan(family, m, n):
    """The cached [[Omega, Omega]] has the full scan's cells in the full scan's order, is built
    once per Omega, and its cells of equal value share one term."""
    g = (build_gl if family == "gl" else build_sl)(m, n)
    om = casimir(g, root_decomposition(g))
    got = omega_bracket(om)
    want = full_scan_leg_brackets(om, om, _MODES, False)
    assert got.coeffs and list(got.coeffs) == list(want.coeffs)
    assert [to_sexpr(c) for c in got.coeffs.values()] == [to_sexpr(c) for c in want.coeffs.values()]
    assert omega_bracket(om) is got
    terms: dict = {}
    assert all(terms.setdefault(c.constant(), c) is c for c in got.coeffs.values())


class TestLemma:
    def test_coupled_family_consistent(self, sl2, gl21):
        for bundle in (sl2, gl21):
            g, rd, _ = bundle
            ok, (rep,), _ = run_checks(g, rd, full_spec(rd, eps=Q(1)), checks=("lemma",), cfg=CFG64)
            assert ok and rep.is_zero
            assert rep.details["cross_bracket_status"] == "exact-zero"
            assert rep.details["consistent"]

    def test_random_unitary_cross_bracket_phi_independent(self, sl2, gl21):
        # the six-term cancellation never uses the functional equation
        for bundle, seed in ((sl2, 5), (gl21, 6)):
            g, rd, om = bundle
            rng = random.Random(seed)
            for trial in range(10):
                dcells, phis = _random_unitary_pieces(g, rd, rng, with_coth=(trial % 2 == 1))
                s = build_zero_weight_tensor(g, rd, dcells, phis)
                assert (s + super_twist(s)).is_zero()
                assert cross_bracket(s, om).is_zero(), (g.family, trial)

    @pytest.mark.parametrize("family,m,n", SMALL_ALGEBRAS, ids=[f"{f}{m}{n}" for f, m, n in SMALL_ALGEBRAS])
    def test_cross_bracket_vanishes_on_a_basis_of_the_super_skew_tensors(self, family, m, n):
        """The proof behind the lemma's cross bracket status.

        cross(s, Omega) is linear in s over the coefficients and takes no
        derivative, so it vanishes on every even super-skew s once it
        vanishes on the basis a (x) b - T_s(a (x) b), |a| = |b|.  The
        negative control: a (x) b alone, which is not skew, leaves cells.
        """
        g = (build_gl if family == "gl" else build_sl)(m, n)
        om = casimir(g, root_decomposition(g))
        pairs = [(a, b) for a in range(g.dim) for b in range(a, g.dim) if g.parity[a] == g.parity[b]]
        left = 0
        for a, b in pairs:
            t = basis_tensor2(g, a, b)
            assert not cross_bracket(t - super_twist(t), om).coeffs, (a, b)
            left += bool(cross_bracket(t, om).coeffs)
        assert left > 0

    def test_precondition_enforced(self, sl2):
        g, rd, om = sl2
        e = g.basis_names.index("E12")
        r = basis_tensor2(g, e, e)
        unit = unitarity_residual(r, 1, om, CFG64)[1]
        dr = differential_dr(r)
        cd, md = cdybe_residual(r, dr, CFG64)[1], mdybe_residual(shift_to_s(r, 1, om), dr, 1, om, CFG64)[1]
        assert unit.status == "nonzero"
        with pytest.raises(PreconditionError):
            lemma_consistency_check(unit, cd, md)


class TestComponentOrbits:
    def test_only_allowed_weight_patterns_survive(self, gl21):
        # before numeric decision, every cell of the symbolic residual sits in
        # the Cartan^3, (h, a, -a) orbit, or (a, b, -a-b) families
        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        lhs = cdybe_lhs(r, differential_dr(r))
        weight_by_index = {}
        for i, root in enumerate(rd.roots):
            (b,) = rd.e[i].keys()
            weight_by_index[b] = root.functional
        zero = tuple([Q(0)] * g.rank)
        for cell in lhs.coeffs:
            weights = [weight_by_index.get(b, zero) for b in cell]
            total = tuple(sum(c) for c in zip(*weights))
            assert total == zero, cell
            n_cartan = sum(1 for b in cell if b in g.cartan)
            assert n_cartan in (0, 1, 3), cell
            if n_cartan == 0:
                assert all(w != zero for w in weights), cell

    def test_skew_symmetry_of_lhs_at_samples(self, sl2, sl3, gl21):
        from sdybe.scalars import sample_points

        for bundle in (sl2, sl3, gl21):
            g, rd, om = bundle
            r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
            lhs = cdybe_lhs(r, differential_dr(r))
            for which in ("12", "23"):
                total = signed_permutation(lhs, which) + lhs
                forms = total.singular_forms()
                for pt in sample_points(g.rank, 5, seed=9, avoid=forms):
                    vals = total.evaluate(pt, precision=64)
                    assert all(abs(v) < 1e-12 for v in vals.values())


class TestNegativeControls:
    def test_wrong_koszul_sign_breaks_exactness(self, gl21, monkeypatch):
        g, rd, om = gl21
        r = construct(full_spec(rd), g, rd, omega=om)
        monkeypatch.setattr(tensor_mod, "_koszul", lambda p, q: 1)
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.status == "nonzero"
        assert rep.witness is not None

    def test_sign_injection_leaves_no_signs_behind(self, gl21, monkeypatch):
        """A `_koszul`-injected cdybe and mdybe fail, and the same r on the same algebra passes
        again once the hook is restored: the leg brackets read the sign rule in force per
        call, and the cached [[Omega, Omega]] is keyed on it, so nothing built under the
        injected rule outlives it (a sign table per algebra would)."""
        g, rd, om = gl21
        spec = full_spec(rd, eps=Q(1))
        r = construct(spec, g, rd, omega=om)
        verifier_mod._omega_bracket.cache_clear()  # the injected run builds [[Omega, Omega]] first
        checks = ("cdybe", "mdybe")
        with monkeypatch.context() as mp:
            mp.setattr(tensor_mod, "_koszul", lambda p, q: 1)
            assert cdybe_residual(r, differential_dr(r), CFG64)[1].status == "nonzero"
            ok, reports, _ = run_checks(g, rd, spec, checks=checks, cfg=CFG64)
            assert not ok and [rep.status for rep in reports] == ["nonzero", "nonzero"]
        assert cdybe_residual(r, differential_dr(r), CFG64)[1].status == "exact-zero"
        ok, reports, _ = run_checks(g, rd, spec, checks=checks, cfg=CFG64)
        assert ok and [rep.status for rep in reports] == ["exact-zero", "exact-zero"]

    def test_perturbed_phi_detected(self, sl3):
        g, rd, om = sl3
        r = construct(full_spec(rd), g, rd, omega=om)
        cell = next(k for k in sorted(r.coeffs) if k[0] not in g.cartan)
        bumped = dict(r.coeffs)
        bumped[cell] = bumped[cell] * Q(101, 100)
        r = Tensor2(g, bumped)
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.status == "nonzero"
        assert rep.witness is not None


class TestOdeAndFunctionalChecks:
    def test_ode_exact_for_families(self, sl3):
        g, rd, _ = sl3
        assert ode_check(full_spec(rd), rd).status == "exact-zero"
        assert ode_check(full_spec(rd, eps=Q(1, 3)), rd).status == "exact-zero"

    def test_functional_check_statuses(self, gl21):
        g, rd, _ = gl21
        exact = functional_equation_check(full_spec(rd), rd, CFG64)
        assert exact.status == "exact-zero"
        coupled = full_spec(rd, eps=Q(1))
        assert functional_equation_check(coupled, rd, CFG64).status == "exact-zero"
        residuals = [functional_equation_residual(i, j, coupled, rd) for i in range(len(rd)) for j in range(len(rd))]
        survivors = [f for f in residuals if f is not None and not f.symbolically_zero()]
        assert survivors
        avoid = [p for f in survivors for p in f.singular_forms()]
        assert sampled_max_abs(survivors, g.rank, avoid=avoid, precision=64) < 1e-12


def _partition_specs(g, rd):
    """(X, sign choices) of every ordered set partition B_1, ..., B_k of the labels:
    X holds e_a - e_b for a, b in one block, and a positive root e_a - e_b
    outside X is signed + iff the block of a comes first."""
    d = g.m + g.n
    labels = dict(enumerate(rd.labels))
    out = set()
    for k in range(1, d + 1):
        for block in itertools.product(range(k), repeat=d):
            if set(block) != set(range(k)):
                continue
            X = frozenset(i for i, (a, b) in labels.items() if block[a] == block[b])
            signs = {i: 1 if block[labels[i][0]] < block[labels[i][1]] else -1 for i in rd.positive_indices()}
            out.add((X, frozenset((i, v) for i, v in signs.items() if i not in X)))
    return out


class TestClassification:
    """At eps = 1/2, nu = 0, D = 0, every closed symmetric X with every sign
    pattern: validate accepts all 21 specs of d = 3, cdybe is exact-zero on
    exactly the 13 of ordered set partitions (the Fubini number), and the
    functional equation, which uses no tensor bracket, agrees with cdybe."""

    @pytest.mark.parametrize("bundle", ["sl3", "gl21"])
    def test_functional_equation_agrees_with_cdybe(self, request, bundle):
        g, rd, om = request.getfixturevalue(bundle)
        pos = rd.positive_indices()
        closed = []
        for k in range(len(pos) + 1):
            for subset in itertools.combinations(pos, k):
                X = frozenset(subset) | {rd.neg[i] for i in subset}
                sums = (rd.add_index(i, j) for i in X for j in X)
                if all(s is None or s in X for s in sums):
                    closed.append(X)
        solutions = set()
        count = 0
        for X in closed:
            outside = [i for i in pos if i not in X]
            for signs in itertools.product((1, -1), repeat=len(outside)):
                choice = dict(zip(outside, signs))
                spec = RMatrixSpec(X=X, nu=[0] * g.rank, D=TwoForm.zero(g.rank), epsilon=Q(1, 2), sign_choice=choice)
                assert validate(spec, g, rd).ok
                count += 1
                r = construct(spec, g, rd, omega=om)
                _, cd = cdybe_residual(r, differential_dr(r), CFG64)
                assert functional_equation_check(spec, rd, CFG64).is_zero == cd.is_zero
                if cd.is_zero:
                    solutions.add((X, frozenset(choice.items())))
        assert count == 21
        assert len(solutions) == 13
        assert solutions == _partition_specs(g, rd)


def _assert_witness(rep: dict, cell_at):
    """The one witness shape: a nonzero cell, a point and its value there; a residual whose
    nonzero cells are all constant draws no point, and its witness point is None."""
    assert rep["status"] == "nonzero"
    w = rep["witness"]
    assert set(w) == {"indices", "point", "value"}
    assert rep["max_abs"] == abs(w["value"])
    cell = cell_at(tuple(w["indices"]))
    assert not cell.identically_zero()
    if w["point"] is None:
        assert rep["points_used"] == 0 and cell.constant() is not None
        assert float(cell.constant()) == w["value"]
    else:
        assert rep["points_used"] == 20
        assert float(cell.eval_numeric(w["point"], precision=128)) == w["value"]


class TestSingleWitness:
    """Every residual check reports a nonzero residual through one decision."""

    CFG = VerifyConfig(precision=128, seed=3)

    @staticmethod
    def _doubled_coth_cell(gl21):
        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        cell = next(k for k in sorted(r.coeffs) if not r.coeffs[k].is_rational())
        bumped = dict(r.coeffs)
        bumped[cell] = bumped[cell] * 2
        return Tensor2(g, bumped)

    def test_unitarity(self, gl21):
        g, rd, om = gl21
        res, rep = unitarity_residual(self._doubled_coth_cell(gl21), 1, om, self.CFG)
        _assert_witness(rep.as_dict(), res.coeffs.__getitem__)

    def test_zero_weight(self, sl3):
        g, rd, _ = sl3
        e = g.basis_names.index("E12")
        r = Tensor2(g, {(e, e): ScalarExpr.coth([Q(1), Q(0)])})
        rep = zero_weight_residual(r, self.CFG)
        _assert_witness(rep.as_dict(), lambda k: ad_action({k[0]: Q(1)}, r).coeffs[k[1:]])

    def test_cdybe(self, gl21):
        r = self._doubled_coth_cell(gl21)
        lhs, rep = cdybe_residual(r, differential_dr(r), self.CFG)
        _assert_witness(rep.as_dict(), lhs.coeffs.__getitem__)

    def test_mdybe(self, gl21):
        g, rd, om = gl21
        s = shift_to_s(self._doubled_coth_cell(gl21), 1, om)
        lhs, rep = mdybe_residual(s, differential_dr(s), 1, om, self.CFG)
        _assert_witness(rep.as_dict(), lhs.coeffs.__getitem__)

    def test_lemma_refuses_a_non_unitary_r(self, gl21):
        # the doubled coth cell breaks unitarity, even where cdybe and mdybe agree
        g, rd, om = gl21
        r = self._doubled_coth_cell(gl21)
        unit = unitarity_residual(r, 1, om, self.CFG)[1]
        dr = differential_dr(r)
        cd, md = cdybe_residual(r, dr, self.CFG)[1], mdybe_residual(shift_to_s(r, 1, om), dr, 1, om, self.CFG)[1]
        assert unit.status == "nonzero" and cd.status == md.status == "nonzero"
        with pytest.raises(PreconditionError, match="unitarity"):
            lemma_consistency_check(unit, cd, md)

    def test_lemma_inconsistent_pair(self, sl3):
        # a unitary r passes the precondition; a nonzero mdybe report against its
        # exact-zero cdybe report is a disagreement, with both reports and the cross status as witness
        g, rd, om = sl3
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        unit, cd = unitarity_residual(r, 1, om, self.CFG)[1], cdybe_residual(r, differential_dr(r), self.CFG)[1]
        e12, e13 = g.basis_names.index("E12"), g.basis_names.index("E13")
        bad = Tensor2(g, {(e12, e13): ScalarExpr.coth([Q(1), Q(0)])})
        md = mdybe_residual(bad, differential_dr(bad), 1, om, self.CFG)[1]
        assert unit.is_zero and cd.is_zero and md.status == "nonzero"
        rep = lemma_consistency_check(unit, cd, md)
        assert rep.status == "nonzero"
        assert rep.details == {
            "cdybe_status": "exact-zero", "mdybe_status": "nonzero",
            "cross_bracket_status": "exact-zero", "consistent": False,
        }
        assert set(rep.witness) == {"cdybe", "mdybe", "cross"}
        assert rep.witness["cdybe"] == cd.as_dict() and rep.witness["mdybe"] == md.as_dict()
        _assert_witness(rep.witness["mdybe"], mdybe_lhs(bad, differential_dr(bad), 1, om).coeffs.__getitem__)
        assert rep.witness["cross"] == {
            "name": "lemma-cross-bracket", "status": "exact-zero", "max_abs": None, "tolerance": None,
            "points_used": 0, "witness": None, "seconds": 0.0,
        }

    def test_phi_ode(self, gl21):
        # a constant branch of sign 2 squares to eps^2, not eps^2/4
        g, rd, _ = gl21
        spec = RMatrixSpec(
            X=frozenset(), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=1,
            sign_choice={i: 2 for i in rd.positive_indices()},
        )
        rep = ode_check(spec, rd, self.CFG)
        _assert_witness(rep.as_dict(), lambda k: ode_residual(k[0], spec, rd)[k[1]])

    def test_functional_equation(self, gl21):
        # X = {+-gamma1} pairs a coth branch with constant ones that do not fit
        g, rd, _ = gl21
        pos = rd.positive_indices()
        # gamma1 = theta + gamma2, the odd positive root that is a sum
        gamma1 = next(
            i for i in pos if rd.roots[i].parity == 1 and any(rd.add_index(j, k) == i for j in pos for k in pos)
        )
        spec = RMatrixSpec(
            X=frozenset({gamma1, rd.neg[gamma1]}), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=1,
            sign_choice={i: 1 for i in pos if i != gamma1},
        )
        rep = functional_equation_check(spec, rd, self.CFG)
        _assert_witness(rep.as_dict(), lambda k: functional_equation_residual(k[0], k[1], spec, rd))
        assert not functional_equation_residual(*rep.witness["indices"], spec, rd).is_rational()


def _assert_ray_converges(spec, g, rd, r=None):
    """The numeric ray oracle's bounds: at t = 10, 20, 40 over |eps|, each
    deviation from the constant solutions is at least 10 times smaller than
    the one before, and the last is below 1e-15."""
    r = r if r is not None else construct(spec, g, rd)
    twisted, plain = (constant_example(g, rd, spec.epsilon, which=w) for w in ("Tsr", "r"))
    for seq in ray_deviations(r, twisted, plain, dominant_vector(rd), spec.epsilon).values():
        assert seq[1] < seq[0] / 10 and seq[2] < seq[1] / 10
        assert seq[-1] < 1e-15


class TestLimits:
    def test_dominant_vector_is_dominant(self, gl21):
        _, rd, _ = gl21
        v = dominant_vector(rd)
        for i in rd.positive_indices():
            assert sum(c * x for c, x in zip(rd.coroot_table[i], v)) >= 1

    def test_coth_asymptote_at_t40(self, sl2):
        _, rd, _ = sl2
        v = dominant_vector(rd)
        i = rd.positive_indices()[0]
        arg = Q(1, 2) * 40 * sum(c * x for c, x in zip(rd.coroot_table[i], v))
        val = ScalarExpr.coth([Q(1)]).eval_numeric([arg], precision=128)
        assert abs(float(val) - 1.0) < 1e-15

    def test_limits_converge_both_directions(self, sl2, gl21):
        for bundle in (sl2, gl21):
            g, rd, _ = bundle
            spec = full_spec(rd, eps=Q(1))
            rep = limit_behavior_check(construct(spec, g, rd), rd, spec.epsilon, VerifyConfig(precision=128, seed=0))
            assert rep.as_dict() | {"seconds": 0} == {
                "name": "limits", "status": "exact-zero", "max_abs": None, "tolerance": None,
                "points_used": 0, "witness": None, "seconds": 0,
                "details": {"dominant_vector": list(dominant_vector(rd))},
            }
            _assert_ray_converges(spec, g, rd)

    def test_precondition(self, sl2):
        g, rd, _ = sl2
        with pytest.raises(PreconditionError, match="limits check needs"):
            run_checks(g, rd, full_spec(rd), checks=("limits",))  # eps = 0

    @pytest.mark.parametrize("family,m,n", [("sl", 3, 0), ("sl", 2, 1), ("gl", 3, 3), ("sl", 6, 0)])
    def test_dominant_vector_strictly_dominant(self, family, m, n):
        rd = root_decomposition((build_gl if family == "gl" else build_sl)(m, n))
        v = dominant_vector(rd)
        assert all(isinstance(x, int) for x in v)
        for i in rd.positive_indices():
            assert sum(c * x for c, x in zip(rd.coroot_table[i], v)) >= 1

    @pytest.mark.parametrize("d", range(2, 12))
    def test_dominant_vector_matches_the_gauss_solve(self, d):
        """Forward substitution along the simple roots gives the vector of the Gaussian
        elimination over the simple coroots on every gl(m|n) and sl(m|n) with m + n = d."""
        for family in ("gl", "sl"):
            for m in range(d + 1):
                if family == "gl" or 2 * m != d:
                    rd = root_decomposition((build_gl if family == "gl" else build_sl)(m, d - m))
                    assert dominant_vector(rd) == reference_dominant_vector(rd), (family, m, d - m)

    @pytest.mark.parametrize("family,m,n", [("gl", 4, 3), ("sl", 8, 0)])
    def test_limits_at_rank_seven(self, family, m, n):
        # rank 7 puts any lattice search for the dominant vector out of reach
        g = (build_gl if family == "gl" else build_sl)(m, n)
        rd = root_decomposition(g)
        assert g.rank == 7
        start = time.monotonic()
        spec = full_spec(rd, eps=Q(1, 2))
        rep = limit_behavior_check(construct(spec, g, rd), rd, spec.epsilon, VerifyConfig(precision=128, seed=0))
        assert time.monotonic() - start < 30
        assert rep.status == "exact-zero"
        _assert_ray_converges(spec, g, rd)

    @pytest.mark.parametrize("bundle", ["sl2", "gl21", "sl3"])
    def test_a_cell_moved_by_1e_20_is_the_witness(self, request, bundle):
        """The ray oracle stays within its bounds, but the exact limit is off."""
        g, rd, om = request.getfixturevalue(bundle)
        spec = full_spec(rd, eps=Q(1))
        r = construct(spec, g, rd, omega=om)
        cell = sorted(r.coeffs)[len(r.coeffs) // 2]
        moved = dict(r.coeffs)
        moved[cell] = moved[cell] + ScalarExpr.const(g.rank, Q(1, 10**20))
        moved = Tensor2(g, moved)
        _assert_ray_converges(spec, g, rd, moved)
        rep = limit_behavior_check(moved, rd, spec.epsilon, VerifyConfig(precision=128))
        assert rep.status == "nonzero"
        # both directions are off by the same amount; the first maximum wins
        assert rep.witness["indices"] == [1, *cell]
        assert abs(rep.witness["value"] - 1e-20) < 1e-30
        assert rep.details == {"dominant_vector": list(dominant_vector(rd))}
        # every limits cell is a constant: the witness depends on no point, so none is drawn
        assert rep.points_used == 0 and rep.witness["point"] is None

    @pytest.mark.parametrize("bundle", ["sl2", "gl21", "sl3"])
    def test_a_cell_with_flipped_sign_is_nonzero(self, request, bundle):
        g, rd, om = request.getfixturevalue(bundle)
        spec = full_spec(rd, eps=Q(1))
        r = construct(spec, g, rd, omega=om)
        # a cell whose limit is not 0, so flipping it moves the limit
        v = dominant_vector(rd)
        cell = next(k for k in sorted(r.coeffs) if r.coeffs[k].ray_limit(v).terms)
        flipped = dict(r.coeffs)
        flipped[cell] = -flipped[cell]
        rep = limit_behavior_check(Tensor2(g, flipped), rd, spec.epsilon, CFG64)
        assert rep.status == "nonzero" and rep.witness["indices"][1:] == list(cell)

    def test_ladder_statuses_are_exact(self):
        """Every limits-ray rung, as `verify` runs it: no status but exact-zero or nonzero."""
        ladder = [("sl", 3, 0), ("gl", 2, 1), ("sl", 4, 0), ("gl", 3, 1), ("gl", 2, 2), ("sl", 5, 0),
                  ("gl", 3, 2), ("gl", 4, 1), ("sl", 6, 0)]
        for k, (family, m, n) in enumerate(ladder):
            g = (build_gl if family == "gl" else build_sl)(m, n)
            rd = root_decomposition(g)
            eps = (Q(1, 3), Q(1, 2), Q(2, 3), Q(1), Q(3, 2))[k % 5]
            ok, reports, _ = run_checks(g, rd, full_spec(rd, eps=eps), checks=("validate", "limits"))
            assert ok and [rep.name for rep in reports] == ["validate", "limits"]
            assert {rep.status for rep in reports} <= {"exact-zero", "nonzero"}


class TestConcurrency:
    def test_parallel_point_evaluation_matches_serial(self, gl21):
        # tensors are immutable and evaluation is pure, so fanning the same
        # residual out over threads at different points must agree with the
        # serial pass bit for bit
        from concurrent.futures import ThreadPoolExecutor

        from sdybe.scalars import sample_points

        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        lhs = cdybe_lhs(r, differential_dr(r))
        pts = sample_points(g.rank, 12, seed=4, avoid=lhs.singular_forms())
        serial = [lhs.evaluate(pt, precision=64) for pt in pts]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda pt: lhs.evaluate(pt, precision=64), pts))
        for a, b in zip(serial, parallel):
            assert a.keys() == b.keys()
            assert all(a[k] == b[k] for k in a)


class TestRankTwoCartan:
    def test_any_antisymmetric_D_is_closed_on_rank_two(self, sl3):
        # a 3-form on a 2-dimensional space vanishes, so the hhh component
        # cancels for every antisymmetric D; the non-closed control therefore
        # lives on a rank-3 Cartan (see the gl(2|1) validation tests)
        g, rd, om = sl3
        d = TwoForm(2, {(0, 1): RationalFunction(
            Poly(2, {(2, 0): Q(1), (1, 1): Q(-3), (0, 0): Q(1, 2)})
        )})
        spec = full_spec(rd, D=d)
        assert d.closedness_residuals() == []
        r = construct(spec, g, rd, omega=om)
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.status == "exact-zero"

    def test_rational_function_D_with_pole(self, sl3):
        g, rd, om = sl3
        den = Poly.linear([Q(1), Q(1)], 7)
        d = TwoForm(2, {(0, 1): RationalFunction(Poly.const(2, 1), [(den, 1)])})
        spec = full_spec(rd, eps=Q(1), D=d)
        r = construct(spec, g, rd, omega=om)
        _, un = unitarity_residual(r, 1, om)
        assert un.status == "exact-zero"
        _, rep = cdybe_residual(r, differential_dr(r), CFG64)
        assert rep.is_zero


def _without_seconds(doc):
    if isinstance(doc, dict):
        return {k: _without_seconds(v) for k, v in doc.items() if k != "seconds"}
    return doc


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(verifier_mod, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(verifier_mod, name, counted)
    return calls


def _count_validate(monkeypatch) -> list:
    """Counts validate calls through both its bindings: run_checks' and construct's."""
    calls = []
    original = rmatrix_mod.validate

    def counted(*args, **kwargs):
        calls.append("validate")
        return original(*args, **kwargs)

    monkeypatch.setattr(verifier_mod, "validate", counted)
    monkeypatch.setattr(rmatrix_mod, "validate", counted)
    return calls


def _bad_signs_spec(rd):
    """X = none with a, b signed + and a + b signed -: validate accepts it,
    but it is no solution (the negative control of the compute-once test)."""
    pos = rd.positive_indices()
    composite = next(k for k in pos if any(rd.add_index(i, j) == k for i in pos for j in pos))
    signs = {i: (-1 if i == composite else 1) for i in pos}
    n = rd.g.rank
    return RMatrixSpec(X=frozenset(), nu=[0] * n, D=TwoForm.zero(n), epsilon=Q(1, 2), sign_choice=signs)


class TestComputeOnce:
    """run_checks builds each residual once and the lemma reuses it."""

    CHECKS = tuple(c for c in ALL_CHECKS if c != "limits")

    @pytest.mark.parametrize(
        "bundle,kind",
        [("gl21", "eps0"), ("gl21", "coth"), ("sl3", "bad-signs")],
    )
    def test_counts_and_reports_match_standalone(self, request, monkeypatch, bundle, kind):
        g, rd, om = request.getfixturevalue(bundle)
        if kind == "eps0":
            spec = full_spec(rd, nu=[1, 2, 3])
        elif kind == "coth":
            spec = full_spec(rd, eps=Q(1))
        else:
            spec = _bad_signs_spec(rd)
        verifier_mod._omega_bracket.cache_clear()
        yb = _count_calls(monkeypatch, "yb_bracket")
        cross = _count_calls(monkeypatch, "cross_bracket")
        shift = _count_calls(monkeypatch, "shift_to_s")
        decide = _count_calls(monkeypatch, "decide_tensor_zero")
        dr = _count_calls(monkeypatch, "differential_dr")
        ok, reports, _ = run_checks(g, rd, spec, checks=self.CHECKS, cfg=CFG64)
        # unitarity, cdybe and mdybe, each decided once, one dr for both, and
        # no cross bracket: the lemma reads it off unitarity; at eps = 0 mdybe
        # is cdybe's residual, so s is not formed, [[r, r]] is built and
        # decided once, and there is no [[Omega, Omega]] term; at eps != 0 the
        # first run builds [[Omega, Omega]] and a second run reads it
        counts = (len(yb), len(cross), len(shift), len(decide), len(dr))
        assert counts == ((1, 0, 0, 2, 1) if kind == "eps0" else (3, 0, 1, 3, 1))
        yb.clear()
        dr.clear()
        assert run_checks(g, rd, spec, checks=self.CHECKS, cfg=CFG64)[0] == ok
        assert (len(yb), len(dr)) == ((1, 1) if kind == "eps0" else (2, 1))
        monkeypatch.undo()

        r = construct(spec, g, rd, omega=om)
        s = shift_to_s(r, spec.epsilon, om)
        unit, cd = unitarity_residual(r, spec.epsilon, om, CFG64)[1], cdybe_residual(r, differential_dr(r), CFG64)[1]
        md = mdybe_residual(s, differential_dr(s), spec.epsilon, om, CFG64)[1]
        standalone = [unit, zero_weight_residual(r, CFG64), cd, md, lemma_consistency_check(unit, cd, md)]
        assert reports[0].name == "validate" and reports[0].status == "exact-zero"
        assert [_without_seconds(rep.as_dict()) for rep in reports[1:]] == [
            _without_seconds(rep.as_dict()) for rep in standalone
        ]
        statuses = {rep.name: rep.status for rep in reports}
        if kind == "bad-signs":
            assert not ok
            assert statuses["cdybe"] == statuses["mdybe"] == "nonzero"
            assert statuses["lemma"] == "exact-zero"  # both sides agree
        else:
            assert ok
            assert statuses["cdybe"] == statuses["mdybe"] == statuses["lemma"] == "exact-zero"

    def test_lemma_alone_still_builds_residuals_once(self, sl2, monkeypatch):
        g, rd, _ = sl2
        verifier_mod._omega_bracket.cache_clear()
        yb = _count_calls(monkeypatch, "yb_bracket")
        cross = _count_calls(monkeypatch, "cross_bracket")
        decide = _count_calls(monkeypatch, "decide_tensor_zero")
        dr = _count_calls(monkeypatch, "differential_dr")
        ok, reports, _ = run_checks(g, rd, full_spec(rd, eps=Q(1)), checks=("lemma",), cfg=CFG64)
        assert ok and [rep.name for rep in reports] == ["lemma"]
        assert (len(yb), len(cross), len(decide), len(dr)) == (3, 0, 3, 1)

    @pytest.mark.parametrize("checks", [("mdybe",), ("cdybe", "mdybe")])
    def test_mdybe_at_eps0_is_cdybe_when_both_run(self, gl21, monkeypatch, checks):
        """Called without cdybe (or the lemma), mdybe at eps = 0 builds its own residual."""
        g, rd, _ = gl21
        yb = _count_calls(monkeypatch, "yb_bracket")
        decide = _count_calls(monkeypatch, "decide_tensor_zero")
        ok, reports, _ = run_checks(g, rd, full_spec(rd, nu=[1, 2, 3]), checks=checks, cfg=CFG64)
        assert ok and [rep.name for rep in reports] == list(checks)
        assert (len(yb), len(decide)) == (1, 1)

    @pytest.mark.parametrize(
        "checks,names",
        [
            (None, list(ALL_CHECKS)),
            ("lemma", ["lemma"]),
            ("validate,limits", ["validate", "limits"]),
        ],
    )
    def test_verify_validates_once(self, tmp_path, monkeypatch, checks, names):
        # X = all coth with nu = 0 and D = 0, so the default checks include limits
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"algebra": "gl", "m": 2, "n": 1, "epsilon": "1", "X": "all"}))
        out = tmp_path / "report.json"
        argv = ["verify", "--spec", str(spec), "--precision", "64", "--out", str(out)]
        calls = _count_validate(monkeypatch)
        assert cli.main(argv + (["--checks", checks] if checks else [])) == 0
        assert calls == ["validate"]
        assert [c["name"] for c in json.loads(out.read_text())["checks"]] == names

    def test_validate_report_records_its_time(self, gl21):
        g, rd, _ = gl21
        _, reports, _ = run_checks(g, rd, full_spec(rd, eps=Q(1)), checks=("validate",), cfg=CFG64)
        assert reports[0].name == "validate" and reports[0].seconds > 0

    def test_public_construct_still_rejects_open_x(self, gl21):
        g, rd, _ = gl21
        pos = rd.positive_indices()
        a, b = next((i, j) for i in pos for j in pos if rd.add_index(i, j) is not None)
        n = g.rank
        spec = RMatrixSpec(X={a, rd.neg[a], b, rd.neg[b]}, nu=[0] * n, D=TwoForm.zero(n))
        with pytest.raises(ValidationError, match="X not closed under root addition"):
            construct(spec, g, rd)

    def test_standalone_limits_still_validates(self, gl21, monkeypatch):
        """limits selected alone: run_checks validates the spec once before it builds r."""
        g, rd, _ = gl21
        calls = _count_validate(monkeypatch)
        ok, reports, _ = run_checks(g, rd, full_spec(rd, eps=Q(1)), checks=("limits",), cfg=CFG64)
        assert ok and [(rep.name, rep.status) for rep in reports] == [("limits", "exact-zero")]
        assert calls == ["validate"]
        # nu = 0 with one coordinate too many: limits applies, validate refuses it
        too_long = full_spec(rd, eps=Q(1), nu=[0] * (g.rank + 1))
        assert verifier_mod.limits_applicable(too_long, rd)
        ok, reports, extras = run_checks(g, rd, too_long, checks=("limits",), cfg=CFG64)
        assert not ok and reports == []
        assert [f["reason"] for f in extras["validation"]["failures"]] == ["nu has 4 coordinates, expected 3"]


# the algebras and specs of the per-form tests
KIND_BUNDLES = [(b, kind) for b in ("gl21", "sl3", "gl22") for kind in ("coth", "rational", "bad-signs")]


def _kind_spec(rd, kind):
    """X = all with nu_k = k/(2k+1) at eps = 1/3 (coth) or eps = 0 (rational), or `_bad_signs_spec`."""
    if kind == "bad-signs":
        return _bad_signs_spec(rd)
    nu = [Q(k, 2 * k + 1) for k in range(1, rd.g.rank + 1)]
    return full_spec(rd, eps=Q(1, 3) if kind == "coth" else Q(0), nu=nu)


def _form(c: ScalarExpr) -> tuple:
    """The memo key of `decide_cells`: c's stored form."""
    return c.form


class _Forgetful(dict):
    """A verdict memo that never returns a verdict: every cell is decided on its own."""

    def get(self, key, default=None):
        return default


def _each_cell_alone(monkeypatch):
    """Every cell decided on its own within `decide_cells`: each call gets a memo that never hits."""
    decide = verifier_mod.decide_cells

    def alone(*args, **kwargs):
        kwargs["verdicts"] = _Forgetful()
        return decide(*args, **kwargs)

    monkeypatch.setattr(verifier_mod, "decide_cells", alone)


def _count_decisions(monkeypatch) -> list:
    """The forms `ScalarExpr.identically_zero` is called on, in order."""
    calls = []
    original = ScalarExpr.identically_zero
    monkeypatch.setattr(ScalarExpr, "identically_zero", lambda c: calls.append(_form(c)) or original(c))
    return calls


class TestOneDecisionPerForm:
    """decide_cells decides each distinct cell form once, with the verdicts of deciding every cell."""

    @pytest.fixture(scope="class", params=KIND_BUNDLES, ids=lambda p: f"{p[0]}-{p[1]}")
    def residuals(self, request):
        bundle, kind = request.param
        g, rd, om = request.getfixturevalue(bundle)
        spec = _kind_spec(rd, kind)
        eps = spec.epsilon
        r = construct(spec, g, rd, omega=om)
        s = shift_to_s(r, eps, om)
        return kind, {
            "cdybe": cdybe_lhs(r, differential_dr(r)),
            "mdybe": mdybe_lhs(s, differential_dr(s), eps, om),
            "unitarity": r + super_twist(r) - om.scale(eps),
        }

    def test_verdicts_equal_per_cell_decisions(self, residuals, monkeypatch):
        kind, tensors = residuals
        statuses = {}
        for name, t in tensors.items():
            calls = _count_decisions(monkeypatch)
            shared = decide_cells(t.coeffs, name, CFG64)
            monkeypatch.undo()
            assert len(calls) == len(set(calls)) == len({_form(c) for c in t.coeffs.values()})
            _each_cell_alone(monkeypatch)
            alone = verifier_mod.decide_cells(t.coeffs, name, CFG64)
            monkeypatch.undo()
            assert _without_seconds(shared.as_dict()) == _without_seconds(alone.as_dict())
            statuses[name] = shared.status
            if kind == "coth" and name in ("cdybe", "mdybe"):
                assert shared.status == "exact-zero" and len(calls) < len(t.coeffs)
        if kind == "bad-signs":
            assert statuses["cdybe"] == statuses["mdybe"] == "nonzero"

    def test_rational_multiples_share_one_decision(self, gl21, monkeypatch):
        """c, 2c and -c have one form: one `identically_zero` call, one verdict for all three."""
        g, rd, om = gl21
        n = g.rank
        r = construct(full_spec(rd, eps=Q(1, 3), nu=[Q(k, 2 * k + 1) for k in range(1, n + 1)]), g, rd, omega=om)
        # a cdybe cell with coth atoms: zero only by the addition law
        zero = next(c for c in cdybe_lhs(r, differential_dr(r)).coeffs.values() if c.atoms())
        for c, status in ((zero, "exact-zero"), (ScalarExpr.coth([1, 0, 0]) + 1, "nonzero")):
            cells = {(0, 0, 0): c, (0, 0, 1): ScalarExpr.sum(n, [(2, c)]), (0, 0, 2): -c}
            assert len({_form(x) for x in cells.values()}) == 1
            calls = _count_decisions(monkeypatch)
            verdicts: dict = {}
            rep = decide_cells(cells, "multiples", CFG64, verdicts=verdicts)
            monkeypatch.undo()
            assert len(calls) == 1 and list(verdicts.values()) == [status == "exact-zero"]
            assert rep.status == status
            assert [x.identically_zero() for x in cells.values()] == [status == "exact-zero"] * 3

    def test_a_perturbed_cell_of_a_shared_form_is_the_witness(self, gl22):
        """Cells of one form, one of them moved by 10^-20: only that cell is nonzero."""
        g, rd, om = gl22
        n = g.rank
        r = construct(full_spec(rd, eps=Q(1, 3), nu=[Q(k, 2 * k + 1) for k in range(1, n + 1)]), g, rd, omega=om)
        forms: dict = {}
        for k, c in cdybe_lhs(r, differential_dr(r)).coeffs.items():
            forms.setdefault(_form(c), {})[k] = c
        # a form with a coth-free term, so the perturbation changes a numerator only
        cells = next(group for form, group in forms.items() if len(group) > 2 and form[0][0] == ())
        assert decide_cells(cells, "shared", CFG64).status == "exact-zero"
        moved = list(cells)[len(cells) // 2]
        cells[moved] = cells[moved] + ScalarExpr.const(n, Q(1, 10**20))
        assert sorted(cells[moved].terms) == sorted(next(iter(cells.values())).terms)
        rep = decide_cells(cells, "perturbed", VerifyConfig(precision=128))
        assert rep.status == "nonzero" and rep.witness["indices"] == list(moved)
        assert abs(rep.witness["value"] - 1e-20) < 1e-30


class TestOneAccumulatorPerResidual:
    """The partner-indexed leg brackets and the one-accumulator residuals give the
    cells of the full scan and of the tensor sums they replace."""

    @pytest.fixture(scope="class", params=KIND_BUNDLES, ids=lambda p: f"{p[0]}-{p[1]}")
    def tensors(self, request):
        bundle, kind = request.param
        g, rd, om = request.getfixturevalue(bundle)
        spec = _kind_spec(rd, kind)
        r = construct(spec, g, rd, omega=om)
        return spec.epsilon, r, shift_to_s(r, spec.epsilon, om), om

    def test_indexed_leg_brackets_match_the_full_scan(self, tensors):
        """Same keys in the same order and the same coefficients, mode by mode and all modes at once."""
        _, *operands = tensors
        for modes in [(mode,) for mode in _MODES] + [_MODES]:
            for a, b in itertools.product(operands, repeat=2):
                got = mode_brackets(a, b, modes).coeffs
                want = full_scan_leg_brackets(a, b, modes, False).coeffs
                assert list(got) == list(want)
                assert [to_sexpr(c) for c in got.values()] == [to_sexpr(c) for c in want.values()]

    def test_fused_residuals_equal_the_tensor_sums(self, tensors):
        eps, r, s, om = tensors
        cdybe_sum = alt_s(differential_dr(r)) + yb_bracket(r)
        mdybe_sum = alt_s(differential_dr(s)) + yb_bracket(s) + yb_bracket(om).scale(eps * eps / 4)
        assert tensor_dump(cdybe_lhs(r, differential_dr(r))) == tensor_dump(cdybe_sum)
        assert tensor_dump(mdybe_lhs(s, differential_dr(s), eps, om)) == tensor_dump(mdybe_sum)

    def test_cancelled_cells_skip_the_sum(self, tensors, monkeypatch):
        """The cross bracket's cells, equal up to int factors on shared bases, all cancel in
        `collect`, so summing them calls `ScalarExpr.sum` for none."""
        _, _, s, om = tensors
        cells: dict = {}
        _leg_brackets(s, om, into=cells)
        _leg_brackets(om, s, into=cells)
        factors = [f for terms in cells.values() for f, _ in terms.values()]
        assert cells and all(f.__class__ is int for f in factors) and not any(factors)
        calls = []
        original = ScalarExpr.sum
        monkeypatch.setattr(ScalarExpr, "sum", staticmethod(lambda n, pairs: calls.append(pairs) or original(n, pairs)))
        assert Tensor3.summed(s.g, cells).is_zero() and not calls
        monkeypatch.undo()
        assert full_scan_leg_brackets(s, om, _MODES, True).is_zero()

    def test_omega_scale_is_applied_once(self, tensors):
        """mdybe's Omega-by-Omega term at eps^2/4 (eps = 1 for the eps = 0 specs) is the full
        scan's Fraction recording at that scale, not at its square: alone (s = 0, in cell
        order) and as mdybe's residual less cdybe's on the same s."""
        eps, _, s, om = tensors
        eps = Q(eps or 1)
        g = om.g
        want = full_scan_leg_brackets(om, om, _MODES, False, eps * eps / 4)
        alone = mdybe_lhs(Tensor2.zero(g), Tensor3.zero(g), eps, om)
        assert list(alone.coeffs) == list(want.coeffs)
        assert [to_sexpr(c) for c in alone.coeffs.values()] == [to_sexpr(c) for c in want.coeffs.values()]
        ds = differential_dr(s)
        term = mdybe_lhs(s, ds, eps, om) - cdybe_lhs(s, ds)
        assert tensor_dump(term) == tensor_dump(want)
        squared = full_scan_leg_brackets(om, om, _MODES, False, (eps * eps / 4) ** 2)
        assert term.coeffs and tensor_dump(term) != tensor_dump(squared)


class TestOneMemoPerRun:
    """run_checks decides each distinct cell form once across all of its residuals."""

    @pytest.mark.parametrize("bundle,kind", KIND_BUNDLES, ids=[f"{b}-{k}" for b, k in KIND_BUNDLES])
    def test_one_decision_per_form_per_run(self, request, monkeypatch, bundle, kind):
        g, rd, om = request.getfixturevalue(bundle)
        spec = _kind_spec(rd, kind)
        calls = _count_decisions(monkeypatch)
        _, shared, _ = run_checks(g, rd, spec, cfg=CFG64)
        monkeypatch.undo()
        assert [rep.name for rep in shared] == [c for c in ALL_CHECKS if c != "limits"]
        eps = spec.epsilon
        r = construct(spec, g, rd, omega=om)
        s = shift_to_s(r, eps, om)
        residuals = [
            r + super_twist(r) - om.scale(eps),
            cdybe_lhs(r, differential_dr(r)),
            mdybe_lhs(s, differential_dr(s), eps, om),
        ] + [ad_action({c: Q(1)}, r) for c in g.cartan]
        assert len(calls) == len(set(calls)) == len({_form(c) for t in residuals for c in t.coeffs.values()})
        _each_cell_alone(monkeypatch)
        _, alone, _ = run_checks(g, rd, spec, cfg=CFG64)
        monkeypatch.undo()
        assert [_without_seconds(rep.as_dict()) for rep in shared] == [_without_seconds(rep.as_dict()) for rep in alone]
        statuses = {rep.name: rep.status for rep in shared}
        assert statuses["cdybe"] == statuses["mdybe"] == ("nonzero" if kind == "bad-signs" else "exact-zero")

    def test_sign_injected_mdybe_at_eps0_is_cdybe(self, gl21, monkeypatch):
        """Wrong Koszul signs in the leg brackets: at eps = 0 both residuals fail with one witness.

        The super twist keeps its true signs, so generalized unitarity, the
        lemma's precondition, still holds.
        """
        g, rd, om = gl21
        spec = full_spec(rd, nu=[1, 2, 3])
        true_koszul, true_twist = tensor_mod._koszul, verifier_mod.super_twist

        def twist(t):
            with monkeypatch.context() as mp:
                mp.setattr(tensor_mod, "_koszul", true_koszul)
                return true_twist(t)

        monkeypatch.setattr(verifier_mod, "super_twist", twist)
        monkeypatch.setattr(tensor_mod, "_koszul", lambda p, q: 1)
        ok, reports, _ = run_checks(g, rd, spec, cfg=CFG64)
        r = construct(spec, g, rd, omega=om)
        standalone = mdybe_residual(shift_to_s(r, 0, om), differential_dr(r), 0, om, CFG64)[1]
        statuses = {rep.name: rep for rep in reports}
        cd, md, lemma = statuses["cdybe"], statuses["mdybe"], statuses["lemma"]
        assert not ok and statuses["unitarity"].status == "exact-zero"
        assert cd.status == md.status == "nonzero" and cd.witness is not None
        assert md.witness == cd.witness == standalone.witness
        assert lemma.details["consistent"] and lemma.details["mdybe_status"] == "nonzero"

    def test_a_shared_memo_keeps_the_perturbed_cell(self, gl22):
        """A memo that has decided a form exact-zero still sees a cell moved by 10^-20 as nonzero."""
        g, rd, om = gl22
        n = g.rank
        r = construct(full_spec(rd, eps=Q(1, 3), nu=[Q(k, 2 * k + 1) for k in range(1, n + 1)]), g, rd, omega=om)
        cells = dict(cdybe_lhs(r, differential_dr(r)).coeffs)
        verdicts: dict = {}
        assert decide_cells(cells, "cdybe", CFG64, verdicts=verdicts).status == "exact-zero"
        assert verdicts and all(verdicts.values())
        moved = list(cells)[len(cells) // 2]
        cells[moved] = cells[moved] + ScalarExpr.const(n, Q(1, 10**20))
        rep = decide_cells(cells, "perturbed", VerifyConfig(precision=128), verdicts=verdicts)
        assert rep.status == "nonzero" and rep.witness["indices"] == list(moved)
        assert abs(rep.witness["value"] - 1e-20) < 1e-30


class TestVerifyConfig:
    @pytest.mark.parametrize("precision", [0, -3, 8, 53, 63])
    def test_rejects_precision_below_64_bits(self, precision):
        # 64 bits is the floor for witness values
        with pytest.raises(ValueError, match="precision"):
            VerifyConfig(precision=precision)


class TestRunChecks:
    @pytest.mark.parametrize(
        "eps,checks,message",
        [
            (Q(1), (), "no checks selected"),
            (Q(1), [], "no checks selected"),
            (Q(1), ("bogus",), r"unknown checks \['bogus'\]"),
            (Q(1), ("cdybe", "bogus"), r"unknown checks \['bogus'\]"),
            (Q(0), ("limits",), "limits check needs"),
        ],
    )
    def test_bad_selection_raises_before_any_report(self, sl21, monkeypatch, eps, checks, message):
        """No vacuous pass: a selection that runs no check, or names one that does not exist or
        does not apply, raises before the spec is validated or r is built."""
        g, rd, _ = sl21
        spec = full_spec(rd, eps=eps)
        assert validate(spec, g, rd).ok
        calls = _count_validate(monkeypatch)
        assembled = []
        monkeypatch.setattr(verifier_mod, "_assemble", lambda *args, **kwargs: assembled.append(args))
        with pytest.raises(PreconditionError, match=message):
            run_checks(g, rd, spec, checks=checks, cfg=CFG64)
        assert calls == [] and assembled == []

    def test_validation_short_circuits(self, gl21):
        g, rd, _ = gl21
        bad = RMatrixSpec(
            X=frozenset(range(len(rd))), nu=[0, 0, 0],
            D=TwoForm(3, {(0, 1): RationalFunction(Poly.var(3, 2))}),
        )
        ok, reports, extras = run_checks(g, rd, bad, cfg=CFG64)
        assert not ok
        assert reports[0].name == "validate" and reports[0].status == "nonzero"
        assert not extras["validation"]["ok"]

    def test_default_checks_skip_inapplicable_limits(self, gl21):
        g, rd, _ = gl21
        for spec in (full_spec(rd), full_spec(rd, eps=Q(1), nu=[Q(1, 2), 0, 0])):
            assert not verifier_mod.limits_applicable(spec, rd)
            ok, reports, _ = run_checks(g, rd, spec, cfg=CFG64)
            assert ok and [rep.name for rep in reports] == [c for c in ALL_CHECKS if c != "limits"]
            with pytest.raises(PreconditionError):
                run_checks(g, rd, spec, checks=("limits",), cfg=CFG64)
        applicable = full_spec(rd, eps=Q(1))
        assert verifier_mod.limits_applicable(applicable, rd)
        _, reports, _ = run_checks(g, rd, applicable, cfg=VerifyConfig(seed=1))
        assert [rep.name for rep in reports] == list(ALL_CHECKS)

    def test_full_pass(self, sl2):
        g, rd, _ = sl2
        ok, reports, _ = run_checks(
            g, rd, full_spec(rd, eps=Q(1)),
            checks=("validate", "unitarity", "zero-weight", "cdybe", "mdybe", "lemma", "limits"),
            cfg=VerifyConfig(precision=128, seed=1),
        )
        assert ok
        assert {rep.name for rep in reports} == {
            "validate", "unitarity", "zero-weight", "cdybe", "mdybe", "lemma", "limits"
        }
