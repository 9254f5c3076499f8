"""Seeded spec files and expected verdict tables for the `sdybe verify` bench.

Root indices are worked out here from the matrix-unit picture of gl(m|n) and
sl(m|n) (the root of E_ij is e_i - e_j, restricted to the first d - 1
coordinates for sl; roots are listed in lexicographically decreasing order,
so E_ij is positive iff i < j and the simple roots are E_{k,k+1}).  They are
not read from the package, so a change to its root ordering shows up as a
verdict mismatch rather than being followed silently.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

Q = Fraction

# rungs roughly by size; the last one is the top rung
LADDER = (("sl", 3, 0), ("gl", 2, 1), ("gl", 3, 1), ("sl", 4, 0), ("gl", 2, 2), ("sl", 5, 0), ("gl", 3, 2))
# the three rank-4 rungs put several ~0.5 s specs at the median latency
LIMITS_LADDER = (
    ("sl", 3, 0), ("gl", 2, 1), ("sl", 4, 0), ("gl", 3, 1), ("gl", 2, 2), ("sl", 5, 0),
    ("gl", 3, 2), ("gl", 4, 1), ("sl", 6, 0),
)
# algebras on which both negative controls were confirmed to be rejected
CONTROL_ALGEBRAS = (("sl", 3, 0), ("gl", 2, 1))

EPSILONS = (Q(1, 3), Q(1, 2), Q(2, 3), Q(1), Q(3, 2))
SHIFT_SCALES = (Q(-2, 3), Q(-1, 2), Q(1, 3), Q(1, 2), Q(3, 2))
D_VALUES = (Q(-2), Q(-1, 2), Q(1, 3), Q(1), Q(3, 2))

DEFAULT_CHECKS = ("validate", "unitarity", "zero-weight", "cdybe", "mdybe", "lemma")
STRENGTH = {"nonzero": 0, "numeric-zero": 1, "exact-zero": 2}


def label(alg) -> str:
    family, m, n = alg
    return f"{family}({m})" if n == 0 else f"{family}({m}|{n})"


class Roots:
    """Root indices of gl(m|n) / sl(m|n) in the package's spec ordering."""

    def __init__(self, family: str, m: int, n: int):
        d = m + n
        self.d = d
        self.rank = d if family == "gl" else d - 1
        pairs = [(i, j) for i in range(d) for j in range(d) if i != j]

        def functional(ij):
            i, j = ij
            v = [0] * d
            v[i], v[j] = 1, -1
            return tuple(v[: self.rank])

        pairs.sort(key=functional, reverse=True)
        self.index = {ij: k for k, ij in enumerate(pairs)}
        self.positive = [k for (i, j), k in self.index.items() if i < j]

    def simple_pair(self, k: int) -> list[int]:
        return sorted((self.index[(k, k + 1)], self.index[(k + 1, k)]))

    def levi(self, simple: set[int]) -> list[int]:
        """Roots in the span of the given simple roots (a closed subsystem)."""
        return sorted(
            k for (i, j), k in self.index.items() if all(s in simple for s in range(min(i, j), max(i, j)))
        )


@dataclass
class Spec:
    """One `sdybe verify` invocation and the verdicts it must reach.

    expected maps each check the report must contain to its status today; a
    report may be stronger (numeric-zero -> exact-zero), never weaker.
    """

    name: str
    doc: dict
    expected: dict
    exit_code: int
    checks: str | None = None
    control: bool = False
    top: bool = False
    path: str = ""

    def argv(self, seed: int, out: str) -> list[str]:
        args = ["verify", "--spec", self.path, "--seed", str(seed), "--out", out]
        if self.checks:
            args += ["--checks", self.checks]
        return args


def _doc(alg, roots: Roots, *, eps=Q(0), nu=None, X="none", D=(), sign=None) -> dict:
    family, m, n = alg
    doc = {
        "algebra": family,
        "m": m,
        "n": n,
        "epsilon": str(eps),
        "nu": [str(v) for v in (nu or [Q(0)] * roots.rank)],
        "X": X,
        "D": [{"i": i, "j": j, "num": str(v)} for i, j, v in D],
    }
    if sign is not None:
        x_set = set(range(len(roots.index))) if X == "all" else set(X if X != "none" else ())
        doc["sign_choice"] = {str(k): sign for k in sorted(roots.positive) if k not in x_set}
    return doc


def _shift(rng: random.Random, rank: int) -> list:
    """nu = c * (a permutation of 1..rank), with a seeded scale c.

    The coordinates are always distinct, so the cost of a spec does not hinge
    on which pole shifts (a, nu) a seed happens to make equal or zero.
    """
    c = rng.choice(SHIFT_SCALES)
    return [c * k for k in rng.sample(range(1, rank + 1), rank)]


def _constant_d(rng: random.Random, rank: int) -> list:
    i, j = sorted(rng.sample(range(rank), 2))
    return [(i, j, rng.choice(D_VALUES))]


def _seeded_levi(rng: random.Random, roots: Roots) -> list[int]:
    """The A2 subsystem of two adjacent simple roots a, b: X holds a, b and a + b."""
    start = rng.randrange(roots.d - 2)
    return roots.levi({start, start + 1})


def _member(name, alg, doc, expected, **kw) -> Spec:
    return Spec(name=f"{label(alg)}/{name}", doc=doc, expected=expected, exit_code=0, **kw)


def exact_ladder(rng: random.Random) -> list[Spec]:
    exact = {c: "exact-zero" for c in DEFAULT_CHECKS}
    specs = []
    for alg in LADDER:
        roots = Roots(*alg)
        nu = _shift(rng, roots.rank)
        levi = roots.levi(set(rng.sample(range(roots.d - 1), max(1, (roots.d - 1) // 2))))
        eps = rng.choice(EPSILONS)
        sign = rng.choice("+-")
        pair = roots.simple_pair(rng.randrange(roots.d - 1))
        top = alg == LADDER[-1]
        specs += [
            _member("eps0-all", alg, _doc(alg, roots, nu=nu, X="all", D=_constant_d(rng, roots.rank)), exact, top=top),
            _member("eps0-levi", alg, _doc(alg, roots, nu=nu, X=levi, D=_constant_d(rng, roots.rank)), exact),
            _member("const-none", alg, _doc(alg, roots, eps=eps, X="none", sign=sign), exact),
            _member("coth-pair", alg, _doc(alg, roots, eps=eps, nu=nu, X=pair, sign=sign), exact),
        ]
    return specs


def coth_sampled(rng: random.Random) -> list[Spec]:
    expected = {c: "exact-zero" for c in ("validate", "unitarity", "zero-weight")}
    expected.update({c: "numeric-zero" for c in ("cdybe", "mdybe", "lemma")})
    specs = []
    for alg in LADDER:
        roots = Roots(*alg)
        eps = rng.choice(EPSILONS)
        nu = _shift(rng, roots.rank)
        sign = rng.choice("+-")
        levi = _seeded_levi(rng, roots)
        specs.append(_member("coth-levi", alg, _doc(alg, roots, eps=eps, nu=nu, X=levi, sign=sign), expected))
    # X = all only on the top rung: it is the heaviest spec, 5 s at gl(3|2)
    alg = LADDER[-1]
    roots = Roots(*alg)
    doc = _doc(alg, roots, eps=rng.choice(EPSILONS), nu=_shift(rng, roots.rank), X="all")
    specs.append(_member("coth-all", alg, doc, expected, top=True))
    return specs


def limits_ray(rng: random.Random) -> list[Spec]:
    expected = {"validate": "exact-zero", "limits": "numeric-zero"}
    specs = []
    for alg in LIMITS_LADDER:
        roots = Roots(*alg)
        doc = _doc(alg, roots, eps=rng.choice(EPSILONS), X="all")
        specs.append(
            _member("limits", alg, doc, expected, checks="validate,limits", top=alg == LIMITS_LADDER[-1])
        )
    return specs


def negative_controls(rng: random.Random) -> list[Spec]:
    """Two rejected specs per control algebra.

    open-X: X = {+-a, +-b} for adjacent simple roots a, b, without a + b;
    validate must reject it.  bad-signs: X = none with a and b signed '+' and
    a + b signed '-'; validate accepts the sign pattern, but cdybe and mdybe
    must come out nonzero.
    """
    specs = []
    for alg in CONTROL_ALGEBRAS:
        roots = Roots(*alg)
        eps = rng.choice(EPSILONS)
        open_x = roots.simple_pair(0) + roots.simple_pair(1)
        specs.append(
            Spec(
                name=f"{label(alg)}/control-open-X",
                doc=_doc(alg, roots, eps=eps, X=sorted(open_x), sign="+"),
                expected={"validate": "nonzero"},
                exit_code=1,
                control=True,
            )
        )
        doc = _doc(alg, roots, eps=eps, X="none", sign="+")
        doc["sign_choice"][str(roots.index[(0, 2)])] = "-"
        specs.append(
            Spec(
                name=f"{label(alg)}/control-bad-signs",
                doc=doc,
                expected={"cdybe": "nonzero", "mdybe": "nonzero"},
                exit_code=1,
                control=True,
            )
        )
    return specs


WORKLOADS = {"exact-ladder": exact_ladder, "coth-sampled": coth_sampled, "limits-ray": limits_ray}


def generate(workload: str, seed: int, outdir: str) -> list[Spec]:
    """Write the workload's spec files under outdir; the same seed gives the same files."""
    rng = random.Random(f"{workload}:{seed}")
    specs = WORKLOADS[workload](rng) + negative_controls(rng)
    os.makedirs(outdir, exist_ok=True)
    for k, spec in enumerate(specs):
        spec.path = os.path.join(outdir, f"{k:02d}.json")
        with open(spec.path, "w") as fh:
            json.dump(spec.doc, fh, indent=1, sort_keys=True)
    return specs


def mismatches(spec: Spec, code: int, report: dict | None) -> list[str]:
    """Differences between a verify outcome and the spec's expected verdicts."""
    problems = []
    if code != spec.exit_code:
        problems.append(f"exit code {code}, expected {spec.exit_code}")
    if report is None:
        return problems + ["no report written"]
    if report.get("passed") != (code == 0):
        problems.append(f"report passed={report.get('passed')} disagrees with exit code {code}")
    statuses = {c["name"]: c["status"] for c in report.get("checks", [])}
    if not spec.control and set(statuses) != set(spec.expected):
        problems.append(f"checks {sorted(statuses)}, expected {sorted(spec.expected)}")
    for check, want in spec.expected.items():
        got = statuses.get(check)
        if got is None:
            problems.append(f"{check} missing")
        elif spec.control and got != want:
            problems.append(f"{check}: {got}, expected {want}")
        elif not spec.control and STRENGTH.get(got, -1) < STRENGTH[want]:
            problems.append(f"{check}: {got}, weaker than {want}")
    return problems
