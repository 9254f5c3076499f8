"""Solution families: validation, phi tables, assembly, coefficient identities."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sdybe.rmatrix import (
    MissingSignChoiceError,
    RMatrixSpec,
    TwoForm,
    ValidationError,
    constant_example,
    construct,
    phi,
    phi_coupled,
    phi_zero_coupling,
    shift_to_s,
    spec_from_json,
    spec_to_json,
    validate,
)
from sdybe.scalars import Poly, RationalFunction, ScalarExpr
from sdybe.superalgebra import build_gl, build_sl, root_decomposition
from sdybe.tensor import Tensor2, super_twist, yb_bracket

from conftest import (
    OMEGA_ALGEBRAS,
    full_scan_closedness_residuals,
    functional_equation_residual,
    ode_residual,
    reference_closure_failures,
    reference_constant_cells,
    reference_phi_atom,
    sampled_max_abs,
)

Q = Fraction


def full_X(rd):
    return frozenset(range(len(rd)))


def all_plus(rd, X=frozenset()):
    return {i: 1 for i in rd.positive_indices() if i not in X}


def all_minus(rd, X=frozenset()):
    return {i: -1 for i in rd.positive_indices() if i not in X}


class TestValidate:
    def test_full_root_set_passes(self, sl3):
        g, rd, _ = sl3
        spec = RMatrixSpec(X=full_X(rd), nu=[0, 0], D=TwoForm.zero(2))
        assert validate(spec, g, rd).ok

    def test_missing_negative_fails(self, sl3):
        g, rd, _ = sl3
        alpha = rd.positive_indices()[0]
        spec = RMatrixSpec(X={alpha}, nu=[0, 0], D=TwoForm.zero(2))
        report = validate(spec, g, rd)
        assert not report.ok
        assert any("negation" in f["reason"] for f in report.failures)

    def test_addition_closure_fails(self, sl3):
        g, rd, _ = sl3
        # two positive roots whose sum is a root, taken without that sum
        a, b = next(
            (i, j)
            for i in rd.positive_indices()
            for j in rd.positive_indices()
            if rd.add_index(i, j) is not None
        )
        X = {a, rd.neg[a], b, rd.neg[b]}
        spec = RMatrixSpec(X=X, nu=[0, 0], D=TwoForm.zero(2))
        report = validate(spec, g, rd)
        assert not report.ok
        assert any("addition" in f["reason"] for f in report.failures)

    @pytest.mark.parametrize("family,m,n", [("sl", 3, 0), ("gl", 2, 1), ("sl", 4, 0), ("gl", 3, 1), ("gl", 2, 2)])
    def test_closure_matches_the_pair_scan_on_every_X(self, family, m, n):
        """validate's report equals the pair-by-pair reference on every subset X of the roots;
        the closed X are the set partitions of the labels (Bell numbers 5 and 15)."""
        g = (build_gl if family == "gl" else build_sl)(m, n)
        rd = root_decomposition(g)
        closed = 0
        for bits in range(2 ** len(rd)):
            X = frozenset(i for i in range(len(rd)) if bits >> i & 1)
            spec = RMatrixSpec(X=X, nu=[0] * g.rank, D=TwoForm.zero(g.rank))
            failures = reference_closure_failures(spec, rd)
            assert validate(spec, g, rd).as_dict() == {"ok": not failures, "failures": failures}, sorted(X)
            closed += not failures
        assert closed == {3: 5, 4: 15}[m + n]

    def test_nonclosed_D_fails_with_witness(self, gl21):
        g, rd, _ = gl21
        d = TwoForm(3, {(0, 1): RationalFunction(Poly.var(3, 2))})  # D01 = x2
        spec = RMatrixSpec(X=full_X(rd), nu=[0, 0, 0], D=d)
        report = validate(spec, g, rd)
        assert not report.ok
        fails = [f for f in report.failures if f["reason"] == "D is not closed"]
        assert fails and fails[0]["witness"]["component"] == [0, 1, 2]

    def test_closed_D_passes(self, gl21):
        g, rd, _ = gl21
        d = TwoForm(3, {(0, 1): RationalFunction(Poly.linear([Q(1), Q(-1), Q(0)])),
                        (1, 2): RationalFunction(Poly.linear([Q(0), Q(1), Q(0)], 5))})
        spec = RMatrixSpec(X=full_X(rd), nu=[0, 0, 0], D=d)
        assert validate(spec, g, rd).ok

    def test_missing_sign_choice_flagged(self, sl2):
        g, rd, _ = sl2
        spec = RMatrixSpec(X=frozenset(), nu=[0], D=TwoForm.zero(1), epsilon=1)
        report = validate(spec, g, rd)
        assert not report.ok
        assert any("sign choice" in f["reason"] for f in report.failures)


class TestPhiZeroCoupling:
    def test_sl2_positive_root(self, sl2):
        g, rd, _ = sl2
        i = rd.positive_indices()[0]
        spec = RMatrixSpec(X=full_X(rd), nu=[0], D=TwoForm.zero(1))
        f = phi_zero_coupling(i, spec, rd)
        # (alpha, lambda) = 2 x0 in the H1 coordinate, so phi = 1/(2 x0)
        expected = ScalarExpr.from_ratfun(RationalFunction(Poly.const(1, 1), [(Poly.linear([Q(2)]), 1)]))
        assert (f - expected).symbolically_zero()

    def test_odd_positive_gets_minus(self, gl21):
        g, rd, _ = gl21
        spec = RMatrixSpec(X=full_X(rd), nu=[0, 0, 0], D=TwoForm.zero(3))
        i = next(i for i in rd.positive_indices() if rd.roots[i].parity == 1)
        f = phi_zero_coupling(i, spec, rd)
        coeffs = rd.coroot_table[i]
        expected = ScalarExpr.from_ratfun(
            RationalFunction(Poly.const(3, -1), [(Poly.linear(coeffs), 1)])
        )
        assert (f - expected).symbolically_zero()

    @pytest.mark.parametrize("nu", [(0, 0, 0), (Q(1, 2), Q(-1, 3), Q(2))])
    def test_negation_consistency(self, gl21, nu):
        g, rd, _ = gl21
        spec = RMatrixSpec(X=full_X(rd), nu=list(nu), D=TwoForm.zero(3))
        for i in range(len(rd)):
            fa = phi_zero_coupling(i, spec, rd)
            fna = phi_zero_coupling(rd.neg[i], spec, rd)
            parity = rd.roots[i].parity
            assert (fna + fa * Q((-1) ** parity)).symbolically_zero()


class TestPhiCoupled:
    def test_even_in_X(self, sl2):
        g, rd, _ = sl2
        eps = Q(2)
        spec = RMatrixSpec(X=full_X(rd), nu=[0], D=TwoForm.zero(1), epsilon=eps)
        i = rd.positive_indices()[0]
        f = phi_coupled(i, spec, rd)
        expected = ScalarExpr.coth([eps / 2 * c for c in rd.coroot_table[i]]) * (eps / 2)
        assert (f - expected).symbolically_zero()

    def test_constant_branches(self, gl21):
        g, rd, _ = gl21
        eps = Q(1)
        even_pos = next(i for i in rd.positive_indices() if rd.roots[i].parity == 0)
        spec = RMatrixSpec(
            X=frozenset(), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=eps, sign_choice=all_plus(rd)
        )
        neg = rd.neg[even_pos]
        assert phi_coupled(neg, spec, rd) == ScalarExpr.const(3, eps / 2)
        assert phi_coupled(even_pos, spec, rd) == ScalarExpr.const(3, -eps / 2)
        odd_pos = next(i for i in rd.positive_indices() if rd.roots[i].parity == 1)
        assert phi_coupled(odd_pos, spec, rd) == ScalarExpr.const(3, eps / 2)

    def test_missing_choice_raises(self, sl2):
        g, rd, _ = sl2
        spec = RMatrixSpec(X=frozenset(), nu=[0], D=TwoForm.zero(1), epsilon=1)
        with pytest.raises(MissingSignChoiceError):
            phi_coupled(rd.positive_indices()[0], spec, rd)

    @pytest.mark.parametrize(
        "family, m, n", [("sl", 2, 0), ("sl", 3, 0), ("gl", 1, 1), ("gl", 2, 1), ("sl", 2, 1), ("gl", 3, 1), ("gl", 2, 2), ("sl", 4, 0)]
    )
    def test_atom_matches_the_fraction_scaled_form(self, family, m, n):
        """On every root, over several (eps, nu): the atom built from the cleared coroot row and
        the scale A_a eps/2 is the atom of the Fraction-scaled form, with the same sign, and the
        coefficient is sign * eps/2."""
        g = (build_gl if family == "gl" else build_sl)(m, n)
        rd = root_decomposition(g)
        nus = ([0] * g.rank, [Q(k, 2 * k + 1) for k in range(1, g.rank + 1)], [Q(-3, 2)] + [Q(5)] * (g.rank - 1))
        for eps in (Q(1, 3), Q(-2), Q(7, 4), Q(1)):
            for nu in nus:
                spec = RMatrixSpec(X=full_X(rd), nu=nu, D=TwoForm.zero(g.rank), epsilon=eps)
                for i in range(len(rd)):
                    f = phi_coupled(i, spec, rd)
                    ((mono, k),), content = f.form, f.content
                    atom, sign = reference_phi_atom(i, spec, rd)
                    assert (mono, k, content) == (((atom, 1),), 1, sign * eps / 2)

    def test_atom_oracle_sees_a_moved_scale(self, gl21):
        """Negative control: the oracle's atom for eps differs from the one for eps scaled by 3/2."""
        g, rd, _ = gl21
        nu = [Q(1, 3), 0, Q(2)]
        i = rd.positive_indices()[0]
        atoms = [reference_phi_atom(i, RMatrixSpec(X=full_X(rd), nu=nu, D=TwoForm.zero(3), epsilon=eps), rd)[0]
                 for eps in (Q(1, 3), Q(1, 2))]
        assert atoms[0] != atoms[1]

    @pytest.mark.parametrize("eps", [Q(1), Q(1, 3)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_negation_consistency_all_branches(self, gl21, eps, sign):
        g, rd, _ = gl21
        X = {i for i in range(len(rd)) if rd.roots[i].parity == 0}  # even pair in X
        spec = RMatrixSpec(
            X=X, nu=[Q(1, 2), 0, 0], D=TwoForm.zero(3), epsilon=eps,
            sign_choice={i: sign for i in rd.positive_indices() if i not in X},
        )
        for i in range(len(rd)):
            fa = phi_coupled(i, spec, rd)
            fna = phi_coupled(rd.neg[i], spec, rd)
            assert (fna + fa * Q((-1) ** rd.roots[i].parity)).symbolically_zero()


class TestConstruct:
    def test_sl2_zero_coupling_matches_closed_form(self, sl2):
        g, rd, _ = sl2
        spec = RMatrixSpec(X=full_X(rd), nu=[0], D=TwoForm.zero(1))
        r = construct(spec, g, rd)
        e, f = g.basis_names.index("E12"), g.basis_names.index("E21")
        inv = RationalFunction(Poly.const(1, Q(1, 2)), [(Poly.var(1, 0), 1)])  # 1/(2 x0)
        expected = Tensor2(g, {
            (e, f): ScalarExpr.from_ratfun(inv),
            (f, e): ScalarExpr.from_ratfun(-inv),
        })
        assert (r - expected).is_zero()

    def test_constant_family_agrees_with_construct(self, gl21):
        g, rd, om = gl21
        eps = Q(2)
        for which, choice in (("r", all_plus(rd)), ("Tsr", all_minus(rd))):
            spec = RMatrixSpec(
                X=frozenset(), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=eps, sign_choice=choice
            )
            built = construct(spec, g, rd, omega=om)
            direct = constant_example(g, rd, eps, which=which)
            assert (built - direct).is_zero(), which

    def test_generalized_unitarity_identity(self, gl21):
        g, rd, om = gl21
        d = TwoForm(3, {(0, 1): RationalFunction(Poly.linear([Q(1), Q(1), Q(0)]))})
        for eps, X, choice in [
            (Q(0), full_X(rd), {}),
            (Q(1), full_X(rd), {}),
            (Q(1, 3), frozenset(), all_plus(rd)),
        ]:
            spec = RMatrixSpec(X=X, nu=[Q(1, 2), 0, Q(-1)], D=d, epsilon=eps, sign_choice=choice)
            r = construct(spec, g, rd, omega=om)
            residual = r + super_twist(r) - om.scale(eps)
            assert residual.is_zero(), (eps, sorted(X))

    def test_invalid_spec_raises(self, gl21):
        g, rd, _ = gl21
        d = TwoForm(3, {(0, 1): RationalFunction(Poly.var(3, 2))})
        spec = RMatrixSpec(X=full_X(rd), nu=[0, 0, 0], D=d)
        with pytest.raises(ValidationError):
            construct(spec, g, rd)


class TestConstantExample:
    def test_sl2_explicit_cells(self, sl2):
        g, rd, _ = sl2
        r = constant_example(g, rd, 1, which="r")
        e, f, h1 = g.basis_names.index("E12"), g.basis_names.index("E21"), g.basis_names.index("H1")
        # (1/2) x (x) x* with tr(H1^2) = 1/2 gives H1 (x) H1 = (1/4) h (x) h
        expected = Tensor2.from_constant_cells(g, {(h1, h1): Q(1), (f, e): Q(1)})
        assert (r - expected).is_zero()

    def test_solves_constant_yang_baxter(self, sl2):
        g, rd, _ = sl2
        for which in ("r", "Tsr"):
            r = constant_example(g, rd, 1, which=which)
            assert yb_bracket(r).is_zero()

    def test_twist_relation(self, gl21):
        g, rd, _ = gl21
        r = constant_example(g, rd, Q(3, 2), which="r")
        tsr = constant_example(g, rd, Q(3, 2), which="Tsr")
        assert (super_twist(r) - tsr).is_zero()


@pytest.mark.parametrize("which", ["r", "Tsr"])
@pytest.mark.parametrize("family,m,n", OMEGA_ALGEBRAS, ids=[f"{f}{m}{n}" for f, m, n in OMEGA_ALGEBRAS])
def test_constant_example_is_the_double_loop_build(family, m, n, which):
    g = (build_gl if family == "gl" else build_sl)(m, n)
    rd = root_decomposition(g)
    got = constant_example(g, rd, Q(3, 2), which=which)
    assert {k: c.constant() for k, c in got.coeffs.items()} == reference_constant_cells(g, rd, Q(3, 2), which)


class TestShift:
    def test_shift_of_casimir_multiple(self, sl2):
        g, rd, om = sl2
        assert shift_to_s(om.scale(Q(1, 2)), 1, om).is_zero()

    def test_shift_kills_casimir_part(self, sl2):
        g, rd, om = sl2
        eps = Q(1)
        spec = RMatrixSpec(X=full_X(rd), nu=[0], D=TwoForm.zero(1), epsilon=eps)
        r = construct(spec, g, rd, omega=om)
        s = shift_to_s(r, eps, om)
        expected = Tensor2.zero(g)
        for i in range(len(rd)):
            expected = expected + Tensor2.from_vectors(g, rd.e[i], rd.e[rd.neg[i]], phi(i, spec, rd))
        assert (s - expected).is_zero()

    def test_shifted_unitarity(self, gl21):
        g, rd, om = gl21
        spec = RMatrixSpec(
            X=frozenset(), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=2, sign_choice=all_plus(rd)
        )
        r = construct(spec, g, rd, omega=om)
        s = shift_to_s(r, 2, om)
        assert (s + super_twist(s)).is_zero()


class TestCoefficientIdentities:
    @pytest.mark.parametrize("eps", [Q(0), Q(1), Q(1, 3)])
    def test_ode_identity(self, gl21, eps):
        g, rd, _ = gl21
        choice = all_plus(rd) if eps else {}
        spec = RMatrixSpec(
            X=full_X(rd) if eps == 0 else frozenset(),
            nu=[Q(1, 3), 0, Q(-1, 2)],
            D=TwoForm.zero(3),
            epsilon=eps,
            sign_choice=choice,
        )
        indices = range(len(rd)) if eps else sorted(spec.X)
        for i in indices:
            for res in ode_residual(i, spec, rd):
                assert res.symbolically_zero(), rd.roots[i].functional

    def test_ode_identity_coth_branch(self, gl21):
        g, rd, _ = gl21
        spec = RMatrixSpec(X=full_X(rd), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=Q(1, 3))
        for i in range(len(rd)):
            for res in ode_residual(i, spec, rd):
                assert res.symbolically_zero()

    def test_functional_equation_zero_coupling_exact(self, gl21):
        g, rd, _ = gl21
        spec = RMatrixSpec(X=full_X(rd), nu=[Q(1, 2), 0, 0], D=TwoForm.zero(3))
        pairs = 0
        for i in range(len(rd)):
            for j in range(len(rd)):
                res = functional_equation_residual(i, j, spec, rd)
                if res is not None:
                    pairs += 1
                    assert res.symbolically_zero()
        assert pairs == 12

    def test_functional_equation_coupled_numeric(self, gl21):
        g, rd, _ = gl21
        spec = RMatrixSpec(X=full_X(rd), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=1)
        for i in range(len(rd)):
            for j in range(len(rd)):
                res = functional_equation_residual(i, j, spec, rd)
                if res is None or res.symbolically_zero():
                    continue
                assert res.identically_zero()
                assert sampled_max_abs([res], 3, avoid=res.singular_forms(), precision=64, seed=2) < 1e-12

    def _count_violated_pairs(self, rd, choice):
        spec = RMatrixSpec(X=frozenset(), nu=[0, 0, 0], D=TwoForm.zero(3), epsilon=1, sign_choice=choice)
        bad = 0
        for i in range(len(rd)):
            for j in range(len(rd)):
                res = functional_equation_residual(i, j, spec, rd)
                if res is None:
                    continue
                if not res.identically_zero():
                    bad += 1
        return bad

    def test_mixed_signs_decided_empirically(self, gl21):
        # ordering on gl(2|1): positive roots are gamma1 = e1-d1, theta = e1-e2,
        # gamma2 = e2-d1 with theta + gamma2 = gamma1.  Flipping only gamma1
        # against matching theta/gamma2 breaks the pair relation; flipping
        # gamma2 against theta happens to remain a genuine solution.
        g, rd, _ = gl21
        pos = rd.positive_indices()
        theta = next(i for i in pos if rd.roots[i].parity == 0)
        gamma1, gamma2 = (i for i in pos if rd.roots[i].parity == 1)
        assert rd.add_index(theta, gamma2) == gamma1
        assert self._count_violated_pairs(rd, {theta: 1, gamma1: -1, gamma2: 1}) > 0
        assert self._count_violated_pairs(rd, {theta: 1, gamma1: -1, gamma2: -1}) == 0


class TestEpsilonDegeneration:
    def test_coupled_family_approaches_rational_family(self, sl2):
        g, rd, om = sl2
        spec0 = RMatrixSpec(X=full_X(rd), nu=[0], D=TwoForm.zero(1))
        r0 = construct(spec0, g, rd)
        omega_max = max(abs(float(v.eval_numeric((1,), precision=64))) for v in om.coeffs.values())
        C = 2 * omega_max
        points = [(1,), (2,), (-3,)]
        for k in range(3, 7):
            eps = Q(1, 10**k)
            spec = RMatrixSpec(X=full_X(rd), nu=[0], D=TwoForm.zero(1), epsilon=eps)
            r = construct(spec, g, rd, omega=om)
            for pt in points:
                dev = 0.0
                keys = set(r.coeffs) | set(r0.coeffs)
                for key in keys:
                    a = r.coeffs.get(key)
                    b = r0.coeffs.get(key)
                    va = a.eval_numeric(pt, precision=128) if a is not None else 0
                    vb = b.eval_numeric(pt, precision=128) if b is not None else 0
                    dev = max(dev, abs(float(va - vb)))
                assert dev <= C * float(eps), (k, pt, dev)


class TestSpecJson:
    def test_round_trip(self, gl21):
        g, rd, _ = gl21
        d = TwoForm(3, {(0, 1): RationalFunction(Poly.linear([Q(1), Q(1), Q(0)], Q(1, 2)))})
        spec = RMatrixSpec(
            X={0, rd.neg[0]}, nu=[Q(1, 2), 0, Q(-1, 3)], D=d, epsilon=Q(1, 3),
            sign_choice={i: (-1) ** k for k, i in enumerate(p for p in rd.positive_indices() if p not in {0, rd.neg[0]})},
        )
        doc = spec_to_json(spec, g)
        back = spec_from_json(doc, g, rd)
        assert back.X == spec.X
        assert back.nu == spec.nu
        assert back.epsilon == spec.epsilon
        assert back.sign_choice == spec.sign_choice
        for key in set(spec.D.entries) | set(back.D.entries):
            assert (spec.D.entries[key] - back.D.entries[key]).is_zero()

    def test_x_shorthands(self, sl2):
        g, rd, _ = sl2
        base = {"algebra": "sl", "m": 2, "n": 0, "epsilon": "0", "nu": ["0"]}
        full = spec_from_json({**base, "X": "all"}, g, rd)
        assert full.X == frozenset(range(len(rd)))
        none = spec_from_json({**base, "X": "none"}, g, rd)
        assert none.X == frozenset()

    def test_d_entry_forms_agree(self, sl3):
        g, rd, _ = sl3
        base = {"algebra": "sl", "m": 3, "n": 0, "epsilon": "0", "nu": ["0", "0"], "X": "all"}
        sexpr = spec_from_json(
            {**base, "D": [{"i": 0, "j": 1, "ratfun": '(ratfun "x0 - 3*x1" "x0 + 7")'}]}, g, rd
        )
        fields = spec_from_json(
            {**base, "D": [{"i": 0, "j": 1, "num": "x0 - 3*x1", "den": "x0 + 7"}]}, g, rd
        )
        assert (sexpr.D.entry(0, 1) - fields.D.entry(0, 1)).is_zero()
        assert not sexpr.D.entry(0, 1).is_zero()

    def test_d_entry_rejects_coth(self, sl3):
        from sdybe.scalars import NotRationalError

        g, rd, _ = sl3
        base = {"algebra": "sl", "m": 3, "n": 0, "epsilon": "0", "nu": ["0", "0"], "X": "all"}
        # a malformed field is a ValueError naming it, raised from the parse error
        with pytest.raises(ValueError, match="^D entry 0: ") as info:
            spec_from_json({**base, "D": [{"i": 0, "j": 1, "ratfun": "(coth 1 0 0)"}]}, g, rd)
        assert isinstance(info.value.__cause__, NotRationalError)


class TestClosednessResiduals:
    """`TwoForm.closedness_residuals` visits only the triples holding both indices of a nonzero
    entry; the full triple scan in conftest is its reference, witness order included."""

    @staticmethod
    def _poly(rng, n) -> Poly:
        """A random polynomial of degree at most 2 with small rational coefficients."""
        p = Poly.const(n, Q(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            term = Poly.const(n, rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(1, 2)):
                term = term * Poly.var(n, rng.randrange(n))
            p = p + term
        return p

    def _form(self, rng, n, kind: str) -> TwoForm:
        """open: random entries, sometimes over a linear denominator; exact: da for a random
        polynomial 1-form a (closed); constant: random numbers (closed).  Sparse forms touch
        one or two pairs (exact: one or two components of a), dense ones all of them."""
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        sparse = rng.random() < 0.5
        if kind == "exact":
            support = rng.sample(range(n), rng.randint(1, 2)) if sparse else range(n)
            a = {k: self._poly(rng, n) for k in support}
            zero = Poly.const(n, 0)
            upper = {
                (i, j): RationalFunction(a.get(j, zero).diff(i) - a.get(i, zero).diff(j)) for i, j in pairs
            }
            return TwoForm(n, upper)
        chosen = rng.sample(pairs, min(len(pairs), rng.randint(1, 2))) if sparse else pairs
        if kind == "constant":
            return TwoForm(n, {ij: RationalFunction(Poly.const(n, Q(rng.randint(-5, 5), 2))) for ij in chosen})
        upper = {}
        for ij in chosen:
            num = self._poly(rng, n)
            den = [(Poly.linear([rng.randint(0, 2) for _ in range(n)], 1), 1)] if rng.random() < 0.3 else []
            upper[ij] = RationalFunction(num, den)
        return TwoForm(n, upper)

    @pytest.mark.parametrize("kind", ["open", "exact", "constant"])
    def test_matches_full_triple_scan(self, kind):
        rng = random.Random(f"closedness-{kind}")
        nonzero = 0
        for _ in range(60):
            d = self._form(rng, rng.randint(2, 6), kind)
            out = d.closedness_residuals()
            assert [(t, str(res)) for t, res in out] == [
                (t, str(res)) for t, res in full_scan_closedness_residuals(d)
            ]
            nonzero += bool(out)
        if kind == "open":
            assert nonzero > 20  # most random forms are not closed
        else:
            assert nonzero == 0

    def test_one_entry_visits_its_triples_only(self):
        d = TwoForm(6, {(1, 4): RationalFunction(Poly.var(6, 0) * Poly.var(6, 5))})
        assert [t for t, _ in d.closedness_residuals()] == [(0, 1, 4), (1, 4, 5)]
        assert [t for t, _ in full_scan_closedness_residuals(d)] == [(0, 1, 4), (1, 4, 5)]
