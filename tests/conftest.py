"""Shared fixtures and independent oracles.

The oracles here deliberately do not reuse the package's tensor machinery:
matrix arithmetic is redone on sparse {(row, col): Fraction} dicts, and the
graded Leibniz action is written out with explicit Koszul signs, so that sign
conventions are checked against a second implementation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from sdybe.scalars import sample_points
from sdybe.superalgebra import build_gl, build_sl, casimir, root_decomposition

Q = Fraction


class AlgebraBundle:
    def __init__(self, g):
        self.g = g
        self.rd = root_decomposition(g)
        self.omega = casimir(g, self.rd)

    def __iter__(self):
        return iter((self.g, self.rd, self.omega))


@pytest.fixture(scope="session")
def sl2():
    return AlgebraBundle(build_sl(2, 0))


@pytest.fixture(scope="session")
def sl3():
    return AlgebraBundle(build_sl(3, 0))


@pytest.fixture(scope="session")
def gl11():
    return AlgebraBundle(build_gl(1, 1))


@pytest.fixture(scope="session")
def gl21():
    return AlgebraBundle(build_gl(2, 1))


@pytest.fixture(scope="session")
def sl21():
    return AlgebraBundle(build_sl(2, 1))


@pytest.fixture(scope="session")
def gl31():
    return AlgebraBundle(build_gl(3, 1))


@pytest.fixture(scope="session")
def gl22():
    return AlgebraBundle(build_gl(2, 2))


# ---------------------------------------------------------------------------
# matrix-unit oracle (independent of the package's structure constants)


def unit_matrix(i: int, j: int) -> dict:
    return {(i, j): Q(1)}


def mat_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (r, c), v in a.items():
        for (r2, c2), w in b.items():
            if c == r2:
                out[(r, c2)] = out.get((r, c2), Q(0)) + v * w
    return {k: v for k, v in out.items() if v}


def mat_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Q(0)) + sign * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def supercommutator(a: dict, b: dict, pa: int, pb: int) -> dict:
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return mat_add(ab, ba, sign=-(1 if not (pa and pb) else -1))


def supertrace(mat: dict, m: int) -> Fraction:
    return sum((v if r < m else -v) for (r, c), v in mat.items() if r == c) or Q(0)


def gl_matrix_of(g, vec: dict) -> dict:
    """Realize a gl(m|n) basis vector dict as an explicit matrix."""
    d = g.m + g.n
    units = [(i, j) for i in range(d) for j in range(d)]
    out: dict = {}
    for idx, c in vec.items():
        key = units[idx]
        out[key] = out.get(key, Q(0)) + c
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# graded Leibniz oracle: z . (a1 (x) ... (x) ak) with Koszul signs


def ad_signed_oracle(g, z_idx: int, t):
    """Independent [z (x) 1 ... + ... 1 (x) z, t] with the sign
    (-1)^{|z| * (parities left of the acted leg)}; returns surviving cells."""
    p = g.parity
    out: dict = {}
    for key, coeff in t.coeffs.items():
        for leg in range(len(key)):
            exponent = p[z_idx] * sum(p[key[l]] for l in range(leg))
            for k2, sc in g.bracket_basis(z_idx, key[leg]).items():
                nk = key[:leg] + (k2,) + key[leg + 1 :]
                term = coeff * (sc * ((-1) ** exponent))
                out[nk] = term if nk not in out else out[nk] + term
    return {k: v for k, v in out.items() if not v.symbolically_zero()}


# ---------------------------------------------------------------------------
# sampling oracle for the exact zero decision


def sampled_max_abs(exprs, nvars: int, *, avoid=(), points: int = 20, precision: int = 128, seed: int = 0) -> float:
    """Largest |value| of the expressions at seeded lattice points.

    Numeric evaluation shares no code with `ScalarExpr.identically_zero`, so
    it is an independent check of each exact verdict.
    """
    pts = sample_points(nvars, points, seed=seed, avoid=avoid)
    return max((abs(float(f.eval_numeric(pt, precision=precision))) for pt in pts for f in exprs), default=0.0)
