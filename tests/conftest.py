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


def _stored(value):
    value = Q(value)
    return value.numerator if value.denominator == 1 else value


def sl_by_matrix_products(m: int, n: int) -> tuple[dict, tuple]:
    """sl(m|n) structure constants and form from explicit matrix products.

    The basis and its order are those of `build_sl`: off-diagonal units,
    then h_t = E_tt - s_t/(m-n) Id.  Each bracket is a supercommutator of
    basis matrices, its diagonal part written in the h_t, and each form entry
    a supertrace of a product, so the closed-form rules are checked against
    the construction they replace, inner key order included.
    """
    d = m + n
    s = [Q(1) if i < m else Q(-1) for i in range(d)]
    mats, parity, offdiag = [], [], {}
    for i in range(d):
        for j in range(d):
            if i != j:
                offdiag[(i, j)] = len(mats)
                mats.append(unit_matrix(i, j))
                parity.append(int((i < m) != (j < m)))
    h0 = len(mats)
    for t in range(d - 1):
        mat = {(k, k): -s[t] / (m - n) for k in range(d)}
        mat[(t, t)] += 1
        mats.append({k: v for k, v in mat.items() if v})
        parity.append(0)
    structure = {}
    for a in range(len(mats)):
        for b in range(len(mats)):
            res = supercommutator(mats[a], mats[b], parity[a], parity[b])
            out = {offdiag[k]: _stored(v) for k, v in res.items() if k[0] != k[1]}
            diag = [res.get((k, k), Q(0)) for k in range(d)]
            out.update({h0 + t: _stored(diag[t] - diag[-1]) for t in range(d - 1) if diag[t] != diag[-1]})
            if out:
                structure[(a, b)] = out
    form = tuple(tuple(_stored(supertrace(mat_mul(x, y), m)) for y in mats) for x in mats)
    return structure, form


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
# per-term reference accumulation (the package sums each cell once instead)


def accumulate(out: dict, key, term) -> None:
    """out[key] += term, dropping the cell when the sum cancels exactly."""
    if key in out:
        acc = out[key] + term
        if acc.symbolically_zero():
            del out[key]
        else:
            out[key] = acc
    else:
        out[key] = term


class ReferenceCells:
    """Cells summed term by term with `accumulate`, and the order of their terms.

    `cells` has the order `accumulate` leaves: a cell whose running sum
    cancels is dropped, and a later term puts it back at the end.  `first`
    holds every key in the order its first term arrived, and `dropped` the
    keys whose running sum cancelled at some point.
    """

    def __init__(self):
        self.cells: dict = {}
        self.first: dict = {}
        self.dropped: set = set()

    def add(self, key, term) -> None:
        self.first.setdefault(key)
        accumulate(self.cells, key, term)
        if key not in self.cells:
            self.dropped.add(key)

    def merge(self, other: ReferenceCells) -> None:
        """Add other's cells, as two-operand tensor `+` does; its terms arrived after ours."""
        self.first.update(other.first)
        self.dropped |= other.dropped
        for key, c in other.cells.items():
            self.add(key, c)

    def first_arrival_order(self) -> list:
        return [k for k in self.first if k in self.cells]


def reference_leg_bracket(r, s, mode: str) -> ReferenceCells:
    """One leg bracket of r and s, accumulated term by term from the expansion rules

    [r12, s13] = sum (-1)^{|b||a'|} [a,a'] (x) b (x) b'
    [r12, s23] = sum a (x) [b,a'] (x) b'
    [r13, s23] = sum (-1)^{|b||a'|} a (x) a' (x) [b,b']
    """
    g, p = r.g, r.g.parity
    out = ReferenceCells()
    for (a, b), c1 in r.coeffs.items():
        for (a2, b2), c2 in s.coeffs.items():
            koszul = (-1) ** (p[b] * p[a2])
            if mode == "12_13":
                cells = {(k, b, b2): koszul * sc for k, sc in g.bracket_basis(a, a2).items()}
            elif mode == "12_23":
                cells = {(a, k, b2): sc for k, sc in g.bracket_basis(b, a2).items()}
            else:
                cells = {(a, a2, k): koszul * sc for k, sc in g.bracket_basis(b, b2).items()}
            for key, f in cells.items():
                out.add(key, (c1 * c2) * f)
    return out


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


# ---------------------------------------------------------------------------
# ray oracle for the exact limits check


def ray_deviations(r, target_plus, target_minus, v, eps, *, scales=(10, 20, 40), precision: int = 128) -> dict:
    """Largest coefficient deviation of r(t v) from target_plus and of r(-t v)
    from target_minus, at each t = scale / |eps|; {1: [...], -1: [...]}.

    Numeric evaluation along the ray shares no code with
    `ScalarExpr.ray_limit`, so it is an independent check of each exact limit.
    """
    out = {}
    for direction, target in ((1, target_plus), (-1, target_minus)):
        target_vals = target.evaluate((0,) * len(v), precision=precision)
        devs = []
        for scale in scales:
            t = Q(scale) / abs(Q(eps))
            vals = r.evaluate(tuple(direction * t * x for x in v), precision=precision)
            devs.append(max(float(abs(vals.get(k, 0) - target_vals.get(k, 0))) for k in vals.keys() | target_vals.keys()))
        out[direction] = devs
    return out
