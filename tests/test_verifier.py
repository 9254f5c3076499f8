"""Residual checks: equation left sides, zero decisions, lemma, limits."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

import sdybe.tensor as tensor_mod
import sdybe.verifier as verifier_mod
from sdybe.rmatrix import (
    RMatrixSpec,
    TwoForm,
    construct,
    functional_equation_residual,
    ode_residual,
    shift_to_s,
)
from sdybe.scalars import Poly, RationalFunction, ScalarExpr
from sdybe.superalgebra import build_gl, build_sl, root_decomposition
from sdybe.tensor import Tensor2, ad_action, cross_bracket, signed_permutation, super_twist
from sdybe.verifier import (
    ALL_CHECKS,
    PreconditionError,
    VerifyConfig,
    cdybe_lhs,
    cdybe_residual,
    differential_dr,
    dominant_vector,
    functional_equation_check,
    lemma_consistency_check,
    limit_behavior_check,
    mdybe_lhs,
    mdybe_residual,
    ode_check,
    run_checks,
    unitarity_residual,
    zero_weight_residual,
)

from conftest import sampled_max_abs
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
        _, rep = cdybe_residual(r, CFG64)
        assert rep.status == "exact-zero"

    def test_coth_family_sl2_exact(self, sl2):
        # no root pairs need the addition law on sl(2), so even the coupled
        # family cancels symbolically
        g, rd, om = sl2
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        _, rep = cdybe_residual(r, CFG64)
        assert rep.status == "exact-zero"

    def test_coth_family_gl21_numeric(self, gl21):
        # the cancellation needs the coth addition law; the sampler, as an
        # oracle, confirms that the cells it decides vanish numerically too
        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        lhs, rep = cdybe_residual(r, CFG64)
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
        cell = next(k for k in sorted(r.coeffs) if r.coeffs[k].has_coth())
        bumped = dict(r.coeffs)
        bumped[cell] = bumped[cell] * (1 + Q(1, 10**30))
        lhs, rep = cdybe_residual(Tensor2(g, bumped), VerifyConfig())
        assert rep.status == "nonzero"
        assert rep.witness is not None and tuple(rep.witness["indices"]) in lhs.coeffs
        assert rep.max_abs < 1e-25

    def test_bare_term_fails_with_witness(self, sl2):
        g, rd, om = sl2
        e, f = g.basis_names.index("E12"), g.basis_names.index("E21")
        r = basis_tensor2(g, e, f)
        _, rep = cdybe_residual(r, CFG64)
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
        _, rep = cdybe_residual(r, CFG64)
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
        _, rep = cdybe_residual(r, CFG64)
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
        _, rep = mdybe_residual(s, eps, om, CFG64)
        assert rep.is_zero

    def test_zero_s_leaves_casimir_term(self, sl2):
        g, rd, om = sl2
        _, rep = mdybe_residual(Tensor2.zero(g), 2, om, CFG64)
        assert rep.status == "nonzero"

    def test_eps_zero_reduces_to_cdybe(self, gl21):
        g, rd, om = gl21
        rng = random.Random(23)
        dcells, phis = _random_unitary_pieces(g, rd, rng)
        s = build_zero_weight_tensor(g, rd, dcells, phis)
        assert (mdybe_lhs(s, 0, om) - cdybe_lhs(s)).is_zero()


class TestLemma:
    def test_coupled_family_consistent(self, sl2, gl21):
        for bundle in (sl2, gl21):
            g, rd, om = bundle
            spec = full_spec(rd, eps=Q(1))
            r = construct(spec, g, rd, omega=om)
            rep = lemma_consistency_check(r, 1, om, CFG64)
            assert rep.is_zero
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

    def test_precondition_enforced(self, sl2):
        g, rd, om = sl2
        e = g.basis_names.index("E12")
        r = basis_tensor2(g, e, e)
        with pytest.raises(PreconditionError):
            lemma_consistency_check(r, 1, om, CFG64)


class TestComponentOrbits:
    def test_only_allowed_weight_patterns_survive(self, gl21):
        # before numeric decision, every cell of the symbolic residual sits in
        # the Cartan^3, (h, a, -a) orbit, or (a, b, -a-b) families
        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        lhs = cdybe_lhs(r)
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
            lhs = cdybe_lhs(r)
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
        _, rep = cdybe_residual(r, CFG64)
        assert rep.status == "nonzero"
        assert rep.witness is not None

    def test_perturbed_phi_detected(self, sl3):
        g, rd, om = sl3
        r = construct(full_spec(rd), g, rd, omega=om)
        cell = next(k for k in sorted(r.coeffs) if k[0] not in g.cartan)
        bumped = dict(r.coeffs)
        bumped[cell] = bumped[cell] * Q(101, 100)
        _, rep = cdybe_residual(Tensor2(g, bumped), CFG64)
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


def _assert_witness(rep: dict, cell_at):
    """The one witness shape: a nonzero cell, a point and its value there."""
    assert rep["status"] == "nonzero"
    w = rep["witness"]
    assert set(w) == {"indices", "point", "value"}
    assert rep["points_used"] == 20 and rep["max_abs"] == abs(w["value"])
    cell = cell_at(tuple(w["indices"]))
    assert not cell.identically_zero()
    assert float(cell.eval_numeric(w["point"], precision=128)) == w["value"]


class TestSingleWitness:
    """Every residual check reports a nonzero residual through one decision."""

    CFG = VerifyConfig(precision=128, seed=3)

    @staticmethod
    def _doubled_coth_cell(gl21):
        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        cell = next(k for k in sorted(r.coeffs) if r.coeffs[k].has_coth())
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
        lhs, rep = cdybe_residual(self._doubled_coth_cell(gl21), self.CFG)
        _assert_witness(rep.as_dict(), lhs.coeffs.__getitem__)

    def test_mdybe(self, gl21):
        g, rd, om = gl21
        s = shift_to_s(self._doubled_coth_cell(gl21), 1, om)
        lhs, rep = mdybe_residual(s, 1, om, self.CFG)
        _assert_witness(rep.as_dict(), lhs.coeffs.__getitem__)

    def test_lemma_cross_bracket(self, sl3):
        # a unitary r passes the precondition; the s handed in is not skew
        g, rd, om = sl3
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        e12, e13 = g.basis_names.index("E12"), g.basis_names.index("E13")
        s = Tensor2(g, {(e12, e13): ScalarExpr.coth([Q(1), Q(0)])})
        rep = lemma_consistency_check(r, 1, om, self.CFG, s=s)
        assert rep.status == "nonzero" and rep.details["cross_bracket_status"] == "nonzero"
        _assert_witness(rep.witness["cross"], cross_bracket(s, om).coeffs.__getitem__)

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
        assert functional_equation_residual(*rep.witness["indices"], spec, rd).has_coth()


class TestLimits:
    def test_dominant_vector_is_dominant(self, gl21):
        _, rd, _ = gl21
        v = dominant_vector(rd)
        for i in rd.positive_indices():
            assert sum(c * x for c, x in zip(rd.coroot_coords(i), v)) >= 1

    def test_coth_asymptote_at_t40(self, sl2):
        _, rd, _ = sl2
        v = dominant_vector(rd)
        i = rd.positive_indices()[0]
        arg = Q(1, 2) * 40 * sum(c * x for c, x in zip(rd.coroot_coords(i), v))
        val = ScalarExpr.coth([Q(1)]).eval_numeric([arg], precision=128)
        assert abs(float(val) - 1.0) < 1e-15

    def test_limits_converge_both_directions(self, sl2, gl21):
        for bundle in (sl2, gl21):
            g, rd, _ = bundle
            spec = full_spec(rd, eps=Q(1))
            rep = limit_behavior_check(spec, g, rd, VerifyConfig(precision=128, seed=0))
            assert rep.status == "numeric-zero"
            up = rep.details["deviation_to_twisted_constant"]
            down = rep.details["deviation_to_constant"]
            for seq in (up, down):
                assert seq[-1] < 1e-15
                assert seq[1] < seq[0] / 10 and seq[2] < seq[1] / 10

    def test_precondition(self, sl2):
        g, rd, _ = sl2
        with pytest.raises(PreconditionError):
            limit_behavior_check(full_spec(rd), g, rd)  # eps = 0

    @pytest.mark.parametrize("family,m,n", [("sl", 3, 0), ("sl", 2, 1), ("gl", 3, 3), ("sl", 6, 0)])
    def test_dominant_vector_strictly_dominant(self, family, m, n):
        rd = root_decomposition((build_gl if family == "gl" else build_sl)(m, n))
        v = dominant_vector(rd)
        assert all(isinstance(x, int) for x in v)
        for i in rd.positive_indices():
            assert sum(c * x for c, x in zip(rd.coroot_coords(i), v)) >= 1

    @pytest.mark.parametrize("family,m,n", [("gl", 4, 3), ("sl", 8, 0)])
    def test_limits_at_rank_seven(self, family, m, n):
        # rank 7 puts any lattice search for the dominant vector out of reach
        g = (build_gl if family == "gl" else build_sl)(m, n)
        rd = root_decomposition(g)
        assert g.rank == 7
        start = time.monotonic()
        rep = limit_behavior_check(full_spec(rd, eps=Q(1, 2)), g, rd, VerifyConfig(precision=128, seed=0))
        assert time.monotonic() - start < 30
        assert rep.status == "numeric-zero"
        for seq in (rep.details["deviation_to_twisted_constant"], rep.details["deviation_to_constant"]):
            assert seq[-1] < 1e-15


class TestConcurrency:
    def test_parallel_point_evaluation_matches_serial(self, gl21):
        # tensors are immutable and evaluation is pure, so fanning the same
        # residual out over threads at different points must agree with the
        # serial pass bit for bit
        from concurrent.futures import ThreadPoolExecutor

        from sdybe.scalars import sample_points

        g, rd, om = gl21
        r = construct(full_spec(rd, eps=Q(1)), g, rd, omega=om)
        lhs = cdybe_lhs(r)
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
        _, rep = cdybe_residual(r, CFG64)
        assert rep.status == "exact-zero"

    def test_rational_function_D_with_pole(self, sl3):
        g, rd, om = sl3
        den = Poly.linear([Q(1), Q(1)], 7)
        d = TwoForm(2, {(0, 1): RationalFunction(Poly.const(2, 1), [(den, 1)])})
        spec = full_spec(rd, eps=Q(1), D=d)
        r = construct(spec, g, rd, omega=om)
        _, un = unitarity_residual(r, 1, om)
        assert un.status == "exact-zero"
        _, rep = cdybe_residual(r, CFG64)
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
        yb = _count_calls(monkeypatch, "yb_bracket")
        decide = _count_calls(monkeypatch, "decide_tensor_zero")
        ok, reports, _ = run_checks(g, rd, spec, checks=self.CHECKS, cfg=CFG64)
        # unitarity, cdybe, mdybe and the cross bracket, each decided once
        assert (len(yb), len(decide)) == (3, 4)
        monkeypatch.undo()

        r = construct(spec, g, rd, omega=om)
        s = shift_to_s(r, spec.epsilon, om)
        standalone = [
            unitarity_residual(r, spec.epsilon, om, CFG64)[1],
            zero_weight_residual(r, CFG64),
            cdybe_residual(r, CFG64)[1],
            mdybe_residual(s, spec.epsilon, om, CFG64)[1],
            lemma_consistency_check(r, spec.epsilon, om, CFG64),
        ]
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
        yb = _count_calls(monkeypatch, "yb_bracket")
        decide = _count_calls(monkeypatch, "decide_tensor_zero")
        ok, reports, _ = run_checks(g, rd, full_spec(rd, eps=Q(1)), checks=("lemma",), cfg=CFG64)
        assert ok and [rep.name for rep in reports] == ["lemma"]
        assert (len(yb), len(decide)) == (3, 4)


class TestVerifyConfig:
    @pytest.mark.parametrize("precision", [0, -3, 8, 53, 63])
    def test_rejects_precision_below_64_bits(self, precision):
        # below 64 bits the limits deviations round to 0 and pass vacuously
        with pytest.raises(ValueError, match="precision"):
            VerifyConfig(precision=precision)


class TestRunChecks:
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
