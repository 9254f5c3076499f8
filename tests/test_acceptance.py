"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; exact-zero statuses satisfy numeric
criteria a fortiori.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import sdybe.tensor as tensor_mod
from sdybe.rmatrix import RMatrixSpec, TwoForm, constant_example, construct, validate
from sdybe.scalars import Poly, RationalFunction
from sdybe.tensor import Tensor2, cross_bracket, super_twist
from sdybe.verifier import (
    VerifyConfig,
    cdybe_residual,
    differential_dr,
    dominant_vector,
    lemma_consistency_check,
    limit_behavior_check,
    mdybe_residual,
    unitarity_residual,
    zero_weight_residual,
)

from conftest import (
    ad_signed_oracle,
    check_jacobi,
    functional_equation_residual,
    ode_check,
    ray_deviations,
    sampled_max_abs,
    structure_constant_identity_report,
    validate_algebra,
)
from test_tensor import _random_unitary_pieces, build_zero_weight_tensor

Q = Fraction

CFG64 = VerifyConfig(precision=64, seed=0)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def full_X(rd):
    return frozenset(range(len(rd)))


def even_pair_not_a_sum(rd):
    """{a, -a} for a positive even root that is not a sum of two positives."""
    pos = rd.positive_indices()
    for i in pos:
        if rd.roots[i].parity:
            continue
        if any(rd.add_index(a, b) == i for a in pos for b in pos):
            continue
        return frozenset({i, rd.neg[i]})
    raise AssertionError("no suitable even root pair")


def zero_coupling_specs(g, rd):
    """Base family plus the two nontrivial variants for one algebra."""
    n = g.rank
    specs = [RMatrixSpec(X=full_X(rd), nu=[0] * n, D=TwoForm.zero(n))]
    if n == 1:
        # rank-1 Cartan: every antisymmetric D vanishes, and the only proper
        # closed subset is empty; exercise rational nu and X = {} instead
        specs.append(RMatrixSpec(X=full_X(rd), nu=[Q(1, 3)], D=TwoForm.zero(1)))
        specs.append(RMatrixSpec(X=frozenset(), nu=[0], D=TwoForm.zero(1)))
        return specs
    proper = even_pair_not_a_sum(rd)
    nu = [Q(1, 2), Q(-1, 3)] + [Q(0)] * (n - 2)
    specs.append(RMatrixSpec(X=proper, nu=nu, D=TwoForm.zero(n)))
    if n == 2:
        d = TwoForm(2, {(0, 1): RationalFunction(Poly.linear([Q(1), Q(-3)], Q(1, 2)))})
    else:
        d = TwoForm(n, {
            (0, 1): RationalFunction(Poly.linear([Q(1), Q(-1)] + [Q(0)] * (n - 2))),
            (1, 2): RationalFunction(Poly.linear([Q(0), Q(1)] + [Q(0)] * (n - 2), 5)),
        })
    specs.append(RMatrixSpec(X=full_X(rd), nu=[0] * n, D=d))
    return specs


class TestAcceptance:
    def test_criterion_1_exact_zero_coupling(self, sl2, sl3, gl21):
        with criterion(1, "exact zero-coupling verification on sl(2), sl(3), gl(2|1)"):
            for bundle, label in ((sl2, "sl(2)"), (sl3, "sl(3)"), (gl21, "gl(2|1)")):
                g, rd, om = bundle
                start = time.monotonic()
                for spec in zero_coupling_specs(g, rd):
                    assert validate(spec, g, rd).ok
                    r = construct(spec, g, rd, omega=om)
                    _, cd = cdybe_residual(r, differential_dr(r), CFG64)
                    assert cd.status == "exact-zero", (label, sorted(spec.X))
                    _, un = unitarity_residual(r, 0, om)
                    assert un.status == "exact-zero", label
                    assert zero_weight_residual(r).status == "exact-zero", label
                elapsed = time.monotonic() - start
                assert elapsed < 10.0, (label, elapsed)

    def test_criterion_2_coupled_family(self, sl2, sl3, gl21):
        with criterion(2, "coupled-family verification across eps, X, and sign choices"):
            for bundle, label in ((sl2, "sl(2)"), (sl3, "sl(3)"), (gl21, "gl(2|1)")):
                g, rd, om = bundle
                n = g.rank
                start = time.monotonic()
                combos = [(Q(1), full_X(rd), None), (Q(2), full_X(rd), None), (Q(1, 3), full_X(rd), None)]
                for sign in (1, -1):
                    combos.append((Q(1), frozenset(), sign))
                if n > 1:
                    proper = even_pair_not_a_sum(rd)
                    for sign in (1, -1):
                        combos.append((Q(1), proper, sign))
                for eps, X, sign in combos:
                    choice = {i: sign for i in rd.positive_indices() if i not in X} if sign else {}
                    spec = RMatrixSpec(X=X, nu=[0] * n, D=TwoForm.zero(n), epsilon=eps, sign_choice=choice)
                    r = construct(spec, g, rd, omega=om)
                    cd_lhs, cd = cdybe_residual(r, differential_dr(r), CFG64)
                    assert cd.status == "exact-zero", (label, eps, sorted(X), sign)
                    s = r - om.scale(eps / 2)
                    md_lhs, md = mdybe_residual(s, differential_dr(s), eps, om, CFG64)
                    assert md.status == "exact-zero", (label, eps, sorted(X), sign)
                    # the sampler, as an oracle for the exact verdicts
                    for lhs in (cd_lhs, md_lhs):
                        survivors = [c for c in lhs.coeffs.values() if not c.symbolically_zero()]
                        assert sampled_max_abs(survivors, n, avoid=lhs.singular_forms(), precision=64) < 1e-12
                    assert ode_check(spec, rd).status == "exact-zero"
                    for i in range(len(rd)):
                        for j in range(len(rd)):
                            res = functional_equation_residual(i, j, spec, rd)
                            if res is None or res.symbolically_zero():
                                continue
                            assert res.identically_zero(), (label, eps, sorted(X))
                            assert sampled_max_abs([res], n, avoid=res.singular_forms(), precision=64) < 1e-12
                elapsed = time.monotonic() - start
                assert elapsed < 60.0, (label, elapsed)

    def test_criterion_3_lemma_cross_bracket(self, sl2, gl21):
        with criterion(3, "six-term cross bracket vanishes for 10 random unitary tensors"):
            for bundle, seed in ((sl2, 101), (gl21, 202)):
                g, rd, om = bundle
                rng = random.Random(seed)
                for trial in range(10):
                    dcells, phis = _random_unitary_pieces(g, rd, rng, with_coth=(trial % 2 == 1))
                    s = build_zero_weight_tensor(g, rd, dcells, phis)
                    assert (s + super_twist(s)).is_zero()
                    assert cross_bracket(s, om).is_zero(), (g.family, trial)

    def test_criterion_4_negative_controls(self, gl21, sl3, monkeypatch):
        with criterion(4, "bad D, bad X, wrong Koszul sign, perturbed phi are all caught"):
            g, rd, om = gl21
            # (i) non-closed D
            bad_d = RMatrixSpec(
                X=full_X(rd), nu=[0, 0, 0],
                D=TwoForm(3, {(0, 1): RationalFunction(Poly.var(3, 2))}),
            )
            rep = validate(bad_d, g, rd)
            assert not rep.ok and any(f["reason"] == "D is not closed" and f["witness"] for f in rep.failures)
            # (ii) X without closure
            pos = rd.positive_indices()
            a, b = next((i, j) for i in pos for j in pos if rd.add_index(i, j) is not None)
            bad_x = RMatrixSpec(
                X={a, rd.neg[a], b, rd.neg[b]}, nu=[0, 0, 0], D=TwoForm.zero(3)
            )
            rep = validate(bad_x, g, rd)
            assert not rep.ok and any("addition" in f["reason"] for f in rep.failures)
            # (iii) wrong Koszul sign, injected through the hook
            r = construct(RMatrixSpec(X=full_X(rd), nu=[0, 0, 0], D=TwoForm.zero(3)), g, rd, omega=om)
            with monkeypatch.context() as mp:
                mp.setattr(tensor_mod, "_koszul", lambda p, q: 1)
                _, broken = cdybe_residual(r, differential_dr(r), CFG64)
            assert broken.status == "nonzero" and broken.witness is not None
            # (iv) one phi scaled by 1.01
            g3, rd3, om3 = sl3
            r3 = construct(RMatrixSpec(X=full_X(rd3), nu=[0, 0], D=TwoForm.zero(2)), g3, rd3, omega=om3)
            cell = next(k for k in sorted(r3.coeffs) if k[0] not in g3.cartan)
            bumped = dict(r3.coeffs)
            bumped[cell] = bumped[cell] * Q(101, 100)
            r4 = Tensor2(g3, bumped)
            _, rep4 = cdybe_residual(r4, differential_dr(r4), CFG64)
            assert rep4.status == "nonzero" and rep4.witness is not None

    def test_criterion_5_limits(self, sl2, gl21):
        with criterion(5, "coth family degenerates exactly onto both constant solutions; error < 1e-15 at t = 40"):
            for bundle in (sl2, gl21):
                g, rd, _ = bundle
                spec = RMatrixSpec(
                    X=full_X(rd), nu=[0] * g.rank, D=TwoForm.zero(g.rank), epsilon=1
                )
                r = construct(spec, g, rd)
                rep = limit_behavior_check(r, rd, spec.epsilon, VerifyConfig(precision=128, seed=0))
                assert rep.status == "exact-zero", g.family
                targets = (constant_example(g, rd, 1, which=w) for w in ("Tsr", "r"))
                for seq in ray_deviations(r, *targets, dominant_vector(rd), 1).values():
                    assert seq[-1] < 1e-15
                    assert seq[0] > seq[1] > seq[2]

    def test_criterion_6_algebra_substrate(self, sl3, gl21):
        with criterion(6, "algebra axioms, Casimir invariance, structure-constant identities"):
            start = time.monotonic()
            for bundle, label in ((gl21, "gl(2|1)"), (sl3, "sl(3)")):
                g, rd, om = bundle
                assert validate_algebra(g) == [], label
                assert check_jacobi(g) == [], label
                for z in range(g.dim):
                    assert ad_signed_oracle(g, z, om) == {}, (label, g.basis_names[z])
                report = structure_constant_identity_report(g, rd)
                assert report["pairs_checked"] > 0 and report["violations"] == [], label
            assert time.monotonic() - start < 5.0

    def test_criterion_7_epsilon_degeneration(self, sl2, gl21):
        with criterion(7, "coupled family converges to the rational family at rate O(eps)"):
            for bundle in (sl2, gl21):
                g, rd, om = bundle
                n = g.rank
                base = RMatrixSpec(X=full_X(rd), nu=[0] * n, D=TwoForm.zero(n))
                r0 = construct(base, g, rd, omega=om)
                probe = (1,) * n
                omega_max = max(abs(float(v.eval_numeric(probe, precision=64))) for v in om.coeffs.values())
                C = 2 * omega_max
                points = [tuple(range(1, n + 1)), tuple(range(2, n + 2)), tuple(-(k + 1) for k in range(n))]
                for k in range(3, 7):
                    eps = Q(1, 10**k)
                    spec = RMatrixSpec(X=full_X(rd), nu=[0] * n, D=TwoForm.zero(n), epsilon=eps)
                    r = construct(spec, g, rd, omega=om)
                    # coth arguments scale with eps, so the pole margin must
                    # sit below (eps/2) * min |(a, lambda)| at these points
                    for pt in points:
                        keys = set(r.coeffs) | set(r0.coeffs)
                        dev = 0.0
                        for key in keys:
                            va = r.coeffs[key].eval_numeric(pt, precision=128, margin=1e-9) if key in r.coeffs else 0
                            vb = r0.coeffs[key].eval_numeric(pt, precision=128, margin=1e-9) if key in r0.coeffs else 0
                            dev = max(dev, abs(float(va - vb)))
                        assert dev <= C * float(eps), (g.family, k, pt, dev)
