"""Shared fixtures and independent oracles.

The oracles here deliberately do not reuse the package's tensor machinery:
matrix arithmetic is redone on sparse {(row, col): Fraction} dicts, and the
graded Leibniz action is written out with explicit Koszul signs, so that sign
conventions are checked against a second implementation.

Beside them sit the checks that only tests run: the bracket of two vectors
and the algebra axioms, the Fraction Gauss solve, the pair-by-pair X closure
scan and the Gauss-solved dominant vector, the full-scan D closedness, the
signed transpositions, the single leg brackets and the full-scan leg
brackets, the phi ODE and functional equation, and the general-path
references for number coefficients (every number lifted to a
RationalFunction).  These use the package's types; the functional equation
decides a spec without the tensor brackets that cdybe is built from.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import sdybe.tensor as tensor_mod
from sdybe.rmatrix import RMatrixSpec, phi
from sdybe.scalars import (
    PoleError,
    Poly,
    RationalFunction,
    ScalarExpr,
    _mono_mul,
    _shown_key,
    atom_entries,
    make_atom,
    poly_to_str,
    sample_points,
)
from sdybe.superalgebra import (
    EVEN,
    DegenerateFormError,
    LieSuperalgebra,
    RootDatum,
    Vector,
    build_gl,
    build_sl,
    casimir,
    root_decomposition,
    sign_A,
)
from sdybe.tensor import Tensor2, Tensor3, _leg_brackets
from sdybe.verifier import ResidualReport, VerifyConfig, decide_cells

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


# every gl(m|n), and every sl(m|n) with m != n, with 2 <= m + n <= 4
SMALL_ALGEBRAS = [("gl", m, d - m) for d in (2, 3, 4) for m in range(d + 1)] + [
    ("sl", m, d - m) for d in (2, 3, 4) for m in range(d + 1) if 2 * m != d
]


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


def form_value(g: LieSuperalgebra, x: Vector, y: Vector) -> Fraction:
    """(x, y) for the invariant form of g."""
    acc = Q(0)
    for i, cx in x.items():
        row = g.form[i]
        for j, cy in y.items():
            acc += cx * cy * row[j]
    return acc


def coroot(rd: RootDatum, i: int) -> Vector:
    """The coroot h_i as a Cartan vector, read off its coordinates `RootDatum.coroot_table[i]`."""
    return {c: x for c, x in zip(rd.g.cartan, rd.coroot_table[i]) if x}


def cartan_gram(g: LieSuperalgebra) -> list[list[Fraction]]:
    """The form on the Cartan basis."""
    return [[g.form[i][j] for j in g.cartan] for i in g.cartan]


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve matrix @ x = rhs over Fraction; raises DegenerateFormError if singular."""
    n = len(matrix)
    aug = [[Q(v) for v in row] + [Q(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise DegenerateFormError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def invert_matrix(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """The inverse by Gaussian elimination, column by column: the oracle of the closed-form
    `LieSuperalgebra.cartan_gram_inverse`."""
    n = len(matrix)
    cols = [solve_linear(matrix, [Q(int(i == j)) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """The determinant by Gaussian elimination: the nondegeneracy check of `validate_algebra`."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Q(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _stored(value):
    value = Q(value)
    return value.numerator if value.denominator == 1 else value


def by_matrix_products(family: str, m: int, n: int) -> tuple[dict, tuple]:
    """gl(m|n) or sl(m|n) structure constants and form from explicit matrix products.

    The basis and its order are those of `build_gl` and `build_sl`: on gl
    every unit E_ij, row by row; on sl the off-diagonal units, then
    h_t = E_tt - s_t/(m-n) Id.  Each bracket is a supercommutator of basis
    matrices, on sl its diagonal part written in the h_t, and each form entry
    a supertrace of a product, so the closed-form rules are checked against
    the construction they replace, inner key order included.
    """
    d = m + n
    s = [Q(1) if i < m else Q(-1) for i in range(d)]
    mats, parity, units = [], [], {}
    for i in range(d):
        for j in range(d):
            if i != j or family == "gl":
                units[(i, j)] = len(mats)
                mats.append(unit_matrix(i, j))
                parity.append(int((i < m) != (j < m)))
    h0 = len(mats)
    for t in range(d - 1 if family == "sl" else 0):
        mat = {(k, k): -s[t] / (m - n) for k in range(d)}
        mat[(t, t)] += 1
        mats.append({k: v for k, v in mat.items() if v})
        parity.append(0)
    structure = {}
    for a in range(len(mats)):
        for b in range(len(mats)):
            res = supercommutator(mats[a], mats[b], parity[a], parity[b])
            out = {units[k]: _stored(v) for k, v in res.items() if family == "gl" or k[0] != k[1]}
            if family == "sl":
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
# algebra axiom oracles (exact, brute force over basis triples)


def bracket(g: LieSuperalgebra, x: Vector, y: Vector) -> Vector:
    """[x, y] of two sparse vectors, from the structure constants."""
    out: Vector = {}
    for i, cx in x.items():
        for j, cy in y.items():
            for k, c in g.bracket_basis(i, j).items():
                s = out.get(k, Q(0)) + cx * cy * c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


def validate_algebra(g: LieSuperalgebra) -> list[str]:
    """Exhaustive exact checks of the algebra axioms; returns violations."""
    bad: list[str] = []
    p = g.parity

    def name(i):
        return g.basis_names[i]

    for (i, j), v in g.structure.items():
        for k, c in v.items():
            if c and (p[i] + p[j]) % 2 != p[k]:
                bad.append(f"parity: [{name(i)},{name(j)}] hits {name(k)}")

    for i in range(g.dim):
        for j in range(g.dim):
            lhs = g.bracket_basis(i, j)
            rhs = g.bracket_basis(j, i)
            sign = -1 if p[i] and p[j] else 1
            keys = set(lhs) | set(rhs)
            for k in keys:
                if lhs.get(k, Q(0)) != -sign * rhs.get(k, Q(0)):
                    bad.append(f"skew: [{name(i)},{name(j)}] vs [{name(j)},{name(i)}]")
                    break

    for i in range(g.dim):
        for j in range(g.dim):
            if g.form[i][j] != ((-1) ** (p[i] * p[j])) * g.form[j][i]:
                bad.append(f"supersymmetry: ({name(i)},{name(j)})")
            if p[i] != p[j] and g.form[i][j] != 0:
                bad.append(f"evenness: ({name(i)},{name(j)}) != 0")

    ei = {i: {i: Q(1)} for i in range(g.dim)}
    for i in range(g.dim):
        for j in range(g.dim):
            bij = g.bracket_basis(i, j)
            for k in range(g.dim):
                lhs = sum((c * g.form[l][k] for l, c in bij.items()), Q(0))
                rhs = form_value(g, ei[i], g.bracket_basis(j, k))
                if lhs != rhs:
                    bad.append(f"invariance: ([{name(i)},{name(j)}],{name(k)})")

    gram = [[g.form[i][j] for j in range(g.dim)] for i in range(g.dim)]
    if determinant(gram) == 0:
        bad.append("form is degenerate")

    for c in g.cartan:
        if p[c] != EVEN:
            bad.append(f"cartan vector {name(c)} is odd")
        for c2 in g.cartan:
            if g.bracket_basis(c, c2):
                bad.append(f"cartan not abelian: [{name(c)},{name(c2)}]")

    return bad


def check_jacobi(g: LieSuperalgebra) -> list[tuple[int, int, int]]:
    """Super Jacobi over all basis triples; returns offending triples.

    (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0
    """
    p = g.parity
    bad = []
    for i in range(g.dim):
        xi = {i: Q(1)}
        for j in range(g.dim):
            xj = {j: Q(1)}
            for k in range(g.dim):
                xk = {k: Q(1)}
                acc: Vector = {}
                for vec, sign in (
                    (bracket(g, xi, bracket(g, xj, xk)), (-1) ** (p[i] * p[k])),
                    (bracket(g, xj, bracket(g, xk, xi)), (-1) ** (p[j] * p[i])),
                    (bracket(g, xk, bracket(g, xi, xj)), (-1) ** (p[k] * p[j])),
                ):
                    for l, c in vec.items():
                        s = acc.get(l, Q(0)) + sign * c
                        if s:
                            acc[l] = s
                        else:
                            acc.pop(l, None)
                if acc:
                    bad.append((i, j, k))
    return bad


def structure_constant_identity_report(g: LieSuperalgebra, rd: RootDatum) -> dict:
    """Check the three derived identities relating opposite-root structure
    constants to (h_a, h_b), for every root pair with C_{a,b}^{a+b} != 0.

    Returns {"violations": [...], "zero_h_pairings": [...], "pairs_checked": n};
    pairs where (h_a, h_b) = 0 are recorded, not asserted against.
    """

    def c_coeff(i: int, j: int, k: int) -> Fraction:
        # coefficient of e_k in [e_i, e_j]
        v = bracket(g, rd.e[i], rd.e[j])
        ek = rd.e[k]
        (bk, ck), = ek.items()
        return v.get(bk, Q(0)) / ck

    violations = []
    zero_h = []
    checked = 0
    nroots = len(rd)
    for i in range(nroots):
        for j in range(nroots):
            k = rd.add_index(i, j)
            if k is None:
                continue
            c_top = c_coeff(i, j, k)
            if c_top == 0:
                continue
            checked += 1
            pa, pb = rd.roots[i].parity, rd.roots[j].parity
            hh = form_value(g, coroot(rd, i), coroot(rd, j))
            if hh == 0:
                zero_h.append((rd.roots[i].functional, rd.roots[j].functional))
            ni, nj, nk = rd.neg[i], rd.neg[j], rd.neg[k]
            s_ab = (-1) ** (pa * pb)
            checks = (
                (
                    "C(-b,a+b)^a",
                    c_coeff(nj, k, i),
                    s_ab * ((-1) ** pb) * sign_A(rd, nj) * hh / c_top,
                ),
                (
                    "C(-a,a+b)^b",
                    c_coeff(ni, k, j),
                    -((-1) ** pa) * sign_A(rd, ni) * hh / c_top,
                ),
                (
                    "C(-a,-b)^(-a-b)",
                    c_coeff(ni, nj, nk),
                    s_ab * ((-1) ** (pa + pb)) * sign_A(rd, k) * sign_A(rd, ni) * sign_A(rd, nj) * hh / c_top,
                ),
            )
            for label, got, expected in checks:
                if got != expected:
                    violations.append(
                        {
                            "identity": label,
                            "alpha": [str(c) for c in rd.roots[i].functional],
                            "beta": [str(c) for c in rd.roots[j].functional],
                            "got": str(got),
                            "expected": str(expected),
                        }
                    )
    return {"violations": violations, "zero_h_pairings": zero_h, "pairs_checked": checked}


# ---------------------------------------------------------------------------
# signed transpositions and single leg brackets


_PERM_RULES = {
    "12": lambda i, j, k, p: ((j, i, k), p[i] * p[j]),
    "13": lambda i, j, k, p: ((k, j, i), p[i] * p[j] + p[i] * p[k] + p[j] * p[k]),
    "23": lambda i, j, k, p: ((i, k, j), p[j] * p[k]),
}


def signed_permutation(t: Tensor3, which: str) -> Tensor3:
    """The signed transpositions (12)_s, (13)_s, (23)_s on g (x) g (x) g."""
    if which not in _PERM_RULES:
        raise ValueError(f"permutation must be one of 12/13/23, got {which!r}")
    rule = _PERM_RULES[which]
    p = t.g.parity
    out: dict = {}
    for (i, j, k), c in t.coeffs.items():
        key, exponent = rule(i, j, k, p)
        out[key] = c if exponent % 2 == 0 else -c
    return Tensor3(t.g, out)


def mode_brackets(r: Tensor2, s: Tensor2, modes, into: dict | None = None):
    """`tensor._leg_brackets` with `tensor._MODES` narrowed to modes for the call."""
    saved = tensor_mod._MODES
    tensor_mod._MODES = tuple(modes)
    try:
        return _leg_brackets(r, s, into)
    finally:
        tensor_mod._MODES = saved


def bracket_12_13(r: Tensor2, s: Tensor2) -> Tensor3:
    """[r^12, s^13] = sum (-1)^{|b||a'|} [a, a'] (x) b (x) b'."""
    return mode_brackets(r, s, ("12_13",))


def bracket_12_23(r: Tensor2, s: Tensor2) -> Tensor3:
    """[r^12, s^23] = sum a (x) [b, a'] (x) b'."""
    return mode_brackets(r, s, ("12_23",))


def bracket_13_23(r: Tensor2, s: Tensor2) -> Tensor3:
    """[r^13, s^23] = sum (-1)^{|b||a'|} a (x) a' (x) [b, b']."""
    return mode_brackets(r, s, ("13_23",))


def full_scan_leg_brackets(r: Tensor2, s: Tensor2, modes, both_orders: bool, scale=1) -> Tensor3:
    """scale times `tensor._leg_brackets` by the full scan, without its shared bases.

    The reference for the partner-indexed pairing and the int factors on
    shared bases: every cell of r meets every cell of s, a pair whose
    bracket is zero is skipped, and each other pair records the product of
    its two cell values with the Fraction factor scale * sign * sc.
    """
    g = r.g
    p = g.parity
    scale = Fraction(scale)
    cells: dict = {}
    for mode in modes:
        for left, right in ((r, s), (s, r)) if both_orders else ((r, s),):
            for (i1, j1), c1 in left.coeffs.items():
                for (i2, j2), c2 in right.coeffs.items():
                    if mode == "12_13":
                        basis, sign = g.bracket_basis(i1, i2), tensor_mod._koszul(p[j1], p[i2])
                    elif mode == "12_23":
                        basis, sign = g.bracket_basis(j1, i2), 1
                    else:
                        basis, sign = g.bracket_basis(j1, j2), tensor_mod._koszul(p[j1], p[i2])
                    if not basis:
                        continue
                    c = c1 * c2
                    for idx, sc in basis.items():
                        key = {"12_13": (idx, j1, j2), "12_23": (i1, idx, j2), "13_23": (i1, i2, idx)}[mode]
                        tensor_mod.collect(cells, key, scale * sign * sc, c)
    return Tensor3.summed(g, cells)


# ---------------------------------------------------------------------------
# root data oracles: X closure pair by pair, and the dominant vector by a Gauss solve


def reference_closure_failures(spec: RMatrixSpec, rd: RootDatum) -> list[dict]:
    """The X closure failures of `validate` by its negation and pair loops run on every X,
    with negatives and root sums found on the functionals: the reference of the block test."""
    nroots = len(rd)
    index = {r.functional: k for k, r in enumerate(rd.roots)}
    failures: list[dict] = []
    X = {i for i in spec.X if 0 <= i < nroots}

    for i in X:
        if index[tuple(-c for c in rd.roots[i].functional)] not in X:
            failures.append(
                {
                    "reason": "X not closed under negation",
                    "witness": {"root": [str(c) for c in rd.roots[i].functional]},
                }
            )
    for i in X:
        for j in X:
            k = index.get(tuple(x + y for x, y in zip(rd.roots[i].functional, rd.roots[j].functional)))
            if k is not None and k not in X:
                failures.append(
                    {
                        "reason": "X not closed under root addition",
                        "witness": {
                            "alpha": [str(c) for c in rd.roots[i].functional],
                            "beta": [str(c) for c in rd.roots[j].functional],
                            "sum": [str(c) for c in rd.roots[k].functional],
                        },
                    }
                )
    return failures


def reference_dominant_vector(rd: RootDatum) -> tuple[int, ...]:
    """(a_k, v) = 1 solved by Gaussian elimination for the simple roots a_k, the positive
    roots that are no sum of two positive roots, with v_0 = 0 on gl; scaled to clear
    denominators."""
    n = rd.g.rank
    pos = [rd.roots[i].functional for i in rd.positive_indices()]
    sums = {tuple(x + y for x, y in zip(a, b)) for a in pos for b in pos}
    rows = [rd.coroot_table[i] for i, a in zip(rd.positive_indices(), pos) if a not in sums]
    rhs = [Q(1)] * len(rows)
    for k in range(n - len(rows)):
        rows.append([Q(int(j == k)) for j in range(n)])
        rhs.append(Q(0))
    v = solve_linear(rows, rhs)
    scale = math.lcm(*(x.denominator for x in v))
    return tuple(int(x * scale) for x in v)


# ---------------------------------------------------------------------------
# D closedness by the full triple scan


def full_scan_closedness_residuals(D) -> list[tuple[tuple[int, int, int], RationalFunction]]:
    """dD components d_i D_jk + d_j D_ki + d_k D_ij over every i < j < k, nonzero only: the
    reference of `TwoForm.closedness_residuals`, which visits only the triples of nonzero entries."""
    out = []
    n = D.nvars
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = D.entry(j, k).diff(i) + D.entry(k, i).diff(j) + D.entry(i, j).diff(k)
                if not res.is_zero():
                    out.append(((i, j, k), res))
    return out


# ---------------------------------------------------------------------------
# phi identities: exact residuals of the phi ODE and the functional equation


def ode_residual(i: int, spec: RMatrixSpec, rd: RootDatum) -> list[ScalarExpr]:
    """Per-coordinate residual of d(phi_a) + A_a (phi_a^2 - eps^2/4) d(h_a).

    For eps = 0 this is the zero-coupling equation d(phi) + A phi^2 dh.
    Identically zero componentwise for every constructed phi with a in X (and
    for the constant branches, whose square is exactly eps^2/4).
    """
    f = phi(i, spec, rd)
    a = sign_A(rd, i)
    coeffs = rd.coroot_table[i]
    quad = f * f - ScalarExpr.const(rd.g.rank, spec.epsilon**2 / 4)
    return [f.differentiate(j) + quad * (a * c) for j, c in enumerate(coeffs)]


def functional_equation_residual(i: int, j: int, spec: RMatrixSpec, rd: RootDatum) -> ScalarExpr | None:
    """A_{a+b} phi_a phi_b + (eps^2/4) A_{a+b} A_a A_b
       - phi_{a+b} (A_a phi_b + A_b phi_a), or None if a+b is not a root."""
    k = rd.add_index(i, j)
    if k is None:
        return None
    fa, fb, fs = phi(i, spec, rd), phi(j, spec, rd), phi(k, spec, rd)
    aa, ab, asum = sign_A(rd, i), sign_A(rd, j), sign_A(rd, k)
    n = rd.g.rank
    res = fa * fb * asum - fs * (fb * aa + fa * ab)
    res = res + ScalarExpr.const(n, spec.epsilon**2 / 4 * asum * aa * ab)
    return res


# ---------------------------------------------------------------------------
# phi-identity checks (ODE, functional equation), decided by decide_cells


def ode_check(spec: RMatrixSpec, rd: RootDatum, cfg: VerifyConfig | None = None) -> ResidualReport:
    """d(phi_a) + A_a (phi_a^2 - eps^2/4) d(h_a) = 0 for every root, exactly.

    Cells are keyed (root index, coordinate).
    """
    indices = range(len(rd)) if spec.epsilon != 0 else sorted(spec.X)
    cells = {(i, j): res for i in indices for j, res in enumerate(ode_residual(i, spec, rd))}
    return decide_cells(cells, "phi-ode", cfg)


def functional_equation_check(
    spec: RMatrixSpec, rd: RootDatum, cfg: VerifyConfig | None = None
) -> ResidualReport:
    """The pairwise phi relation over every root pair with a + b a root, exactly.

    Cells are keyed (alpha index, beta index).
    """
    cells = {}
    for i in range(len(rd)):
        for j in range(len(rd)):
            res = functional_equation_residual(i, j, spec, rd)
            if res is not None:
                cells[(i, j)] = res
    return decide_cells(cells, "functional-equation", cfg)


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


# ---------------------------------------------------------------------------
# general-path oracles for the number coefficients: every number is lifted to a
# RationalFunction, and sums and products take the RationalFunction path


def lifted(c, nvars: int) -> RationalFunction:
    """A stored coefficient as a RationalFunction; a number through the constructor."""
    return c if isinstance(c, RationalFunction) else RationalFunction(Poly.const(nvars, c))


def as_stored(coeffs: dict) -> dict:
    """The RationalFunction coefficients {monomial: rf} as stored coefficients: zeros dropped, and a
    constant as its value, an int when integral."""
    terms = {}
    for mono, rf in coeffs.items():
        if rf.is_zero():
            continue
        if not rf.den and rf.num.is_const():
            value = rf.num.const_value()
            rf = value.numerator if value.denominator == 1 else value
        terms[mono] = rf
    return terms


def _reference_groups(groups: dict) -> dict:
    return as_stored({mono: RationalFunction.sum(terms) for mono, terms in groups.items()})


def reference_sum(nvars: int, pairs) -> dict:
    """sum(factor * term) as stored coefficients: each atom monomial's lifted coefficients through
    `RationalFunction.sum`."""
    groups: dict = {}
    for factor, term in pairs:
        for mono, c in term.terms.items():
            groups.setdefault(mono, []).append((factor, lifted(c, nvars)))
    return _reference_groups(groups)


def reference_product(a: ScalarExpr, b) -> dict:
    """a * b as stored coefficients: every pair of lifted coefficients through
    `RationalFunction.__mul__`, each atom monomial's products through `RationalFunction.sum`.  A
    number b is a constant coefficient."""
    b_terms = b.terms if isinstance(b, ScalarExpr) else ({(): b} if b else {})
    groups: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b_terms.items():
            groups.setdefault(_mono_mul(m1, m2), []).append((1, lifted(c1, a.nvars) * lifted(c2, a.nvars)))
    return _reference_groups(groups)


def reference_differentiate(f: ScalarExpr, index: int) -> dict:
    """d f / d x_index as stored coefficients: `RationalFunction.diff` of each lifted coefficient,
    and d coth(u)^p = p coth(u)^(p-1) (1 - coth(u)^2) du for each atom."""
    groups: dict = {}
    for mono, c in f.terms.items():
        rf = lifted(c, f.nvars)
        if not rf.diff(index).is_zero():
            groups.setdefault(mono, []).append((1, rf.diff(index)))
        for k, (atom, power) in enumerate(mono):
            u = atom_entries(atom)[index]
            if u:
                rest = dict(mono)
                rest[atom] -= 1
                low = tuple(sorted((a, p) for a, p in rest.items() if p))
                groups.setdefault(low, []).append((u * power, rf))
                groups.setdefault(_mono_mul(low, ((atom, 2),)), []).append((-u * power, rf))
    return _reference_groups(groups)


def reference_primitive(terms: dict) -> tuple:
    """(content, form) of the stored coefficients {atom monomial: coefficient}, as `ScalarExpr`
    computed it on every call before it stored the two: terms = content * P, where P's number and
    numerator coefficients, in canonical order, are coprime ints and the first is positive; zero is
    (0, ()).  The form is (shape, values): per sorted monomial, (monomial,) for a number and
    (monomial, numerator monomials, (factor id, multiplicity) pairs) for a RationalFunction, and
    the ints in that order."""
    if not terms:
        return 0, ()
    shape = []
    values: list = []
    for mono in sorted(terms):
        c = terms[mono]
        if isinstance(c, RationalFunction):
            num = c.num.key()
            shape.append((mono, tuple([m for m, _ in num]), tuple([(f._fid, m) for f, m in c.den])))
            values += [v for _, v in num]
        else:
            shape.append((mono,))
            values.append(c)
    if len(values) == 1:
        return values[0], (tuple(shape), (1,))
    lcm = math.lcm(*[v.denominator for v in values])
    if lcm != 1:
        values = [v.numerator * (lcm // v.denominator) for v in values]
    g = math.gcd(*values)
    if values[0] < 0:
        g = -g
    return (g if lcm == 1 else Q(g, lcm)), (tuple(shape), tuple([v // g for v in values]))


def rebuilt_from_form(f: ScalarExpr) -> dict:
    """{atom monomial: RationalFunction}: f's content times each entry of its form, read off the
    form itself, not through `ScalarExpr.terms`."""
    return {
        mono: RationalFunction(Poly.const(f.nvars, f.content * k)) if isinstance(k, int) else RationalFunction(k[0] * f.content, k[1])
        for mono, k in f.form
    }


def in_reference_layout(f: ScalarExpr) -> tuple:
    """f's stored (content, form), the form in `reference_primitive`'s (shape, values) layout."""
    shape = []
    values: list = []
    for mono, k in f.form:
        if isinstance(k, int):
            shape.append((mono,))
            values.append(k)
        else:
            num, den = k
            shape.append((mono, tuple([m for m, _ in num.key()]), tuple([(g._fid, m) for g, m in den])))
            values += [v for _, v in num.key()]
    return f.content, ((tuple(shape), tuple(values)) if shape else ())


def reference_sexpr(terms: dict, nvars: int) -> str:
    """The s-expression of the stored coefficients with lifted coefficients: a constant prints as
    its value, any other coefficient as (ratfun "NUM" "DEN")."""
    parts = []
    for mono in sorted(terms, key=_shown_key):
        rf = lifted(terms[mono], nvars)
        if not rf.den and rf.num.is_const():
            head = str(rf.num.const_value())
        else:
            head = f'(ratfun "{poly_to_str(rf.num)}" "{poly_to_str(rf.den_poly())}")'
        factors = []
        for atom, power in sorted(mono, key=lambda ap: atom_entries(ap[0])):
            a = "(coth " + " ".join(str(c) for c in atom_entries(atom)) + ")"
            factors.append(a if power == 1 else f"(^ {a} {power})")
        parts.append(f"(* {head} {' '.join(factors)})" if factors else head)
    if not parts:
        return "0"
    return parts[0] if len(parts) == 1 else f"(+ {' '.join(parts)})"


def stored_form(f: ScalarExpr) -> list:
    """Monomials and coefficients of f in their stored order: a number with its type, a
    RationalFunction as its numerator terms in order (each value with its type) and denominator
    factors."""
    return [
        (m, ([(n, v, type(v)) for n, v in c.num.terms.items()], [(g.key(), k) for g, k in c.den]))
        if isinstance(c, RationalFunction)
        else (m, (c, type(c)))
        for m, c in f.terms.items()
    ]


def reference_ray_limit(f: ScalarExpr, w) -> Fraction:
    """The limit of f at t*w, t -> +infinity, for constant coefficients, in Fractions: each coth
    atom tends to the sign of its slope sum(c_i * w_i), raised to its power; PoleError on a
    zero slope, ValueError on a coefficient that is not constant."""
    total = Q(0)
    for mono, c in f.terms.items():
        coeff = lifted(c, f.nvars)
        if coeff.den or not coeff.num.is_const():
            raise ValueError("not a constant coefficient")
        value = coeff.num.const_value()
        for atom, power in mono:
            slope = sum((Q(c) * Q(x) for c, x in zip(atom_entries(atom)[:-1], w)), Q(0))
            if slope == 0:
                raise PoleError(f"coth atom {atom}", w)
            value *= (1 if slope > 0 else -1) ** power
        total += value
    return total


def reference_phi_atom(i: int, spec: RMatrixSpec, rd: RootDatum) -> tuple:
    """(atom, sign) of the coth atom of an X-root i at eps != 0, built as `phi_coupled` built it
    before it cleared the scale: every coroot coordinate and the shift (a, -nu) multiplied by the
    Fraction scale A_a * eps / 2, and the products handed to `make_atom`."""
    scale = sign_A(rd, i) * spec.epsilon / 2
    coeffs = rd.coroot_table[i]
    shift = -sum((c * v for c, v in zip(coeffs, spec.nu)), Q(0))
    return make_atom([scale * c for c in coeffs], scale * shift)
