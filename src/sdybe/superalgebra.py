"""Concrete matrix Lie superalgebras with invariant form and root data.

Algebras are gl(m|n) (matrix units, supercommutator, supertrace form) and its
supertraceless subalgebra sl(m|n) for m != n, both built from the closed-form
matrix-unit rules.  Elements are sparse vectors {basis index: Fraction}.  All
arithmetic is exact; structure constants, form entries, root functionals and
coroots are int where they are integral.

Root data follow the normalization [e_a, e_{-a}] = (e_a, e_{-a}) h_a with
(e_a, e_{-a}) = 1 for positive roots, and the sign bookkeeping
A_a = (-1)^{|a|} for positive a, A_a = 1 for negative a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .scalars import _coeff

Q = Fraction

EVEN, ODD = 0, 1

Vector = dict  # basis index -> Fraction


class DegenerateFormError(ValueError):
    """The invariant bilinear form is degenerate for the requested algebra."""


class NonDiagonalizableError(ValueError):
    """The Cartan does not act diagonally on the given basis."""


# ---------------------------------------------------------------------------
# exact linear algebra helpers


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


def determinant(matrix: list[list[Fraction]]) -> Fraction:
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


# ---------------------------------------------------------------------------
# the algebra container


@dataclass
class LieSuperalgebra:
    """Basis-indexed Lie superalgebra with invariant form.

    structure[(i, j)] is the sparse expansion of [b_i, b_j]; form[i][j] is
    (b_i, b_j); cartan lists the indices of the Cartan basis (even, abelian).
    Immutable after construction by convention.
    """

    dim: int
    parity: tuple[int, ...]
    structure: dict
    form: tuple
    cartan: tuple[int, ...]
    basis_names: tuple[str, ...]
    family: str = ""
    m: int = 0
    n: int = 0

    @property
    def rank(self) -> int:
        return len(self.cartan)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.structure.get((i, j), {})

    @cached_property
    def bracket_partners(self) -> dict:
        """i -> the basis indices j with [b_i, b_j] != 0, computed once per algebra."""
        out: dict = {}
        for i, j in self.structure:
            out.setdefault(i, []).append(j)
        return out

    def form_value(self, x: Vector, y: Vector) -> Fraction:
        acc = Q(0)
        for i, cx in x.items():
            row = self.form[i]
            for j, cy in y.items():
                acc += cx * cy * row[j]
        return acc

    def cartan_gram(self) -> list[list[Fraction]]:
        return [[self.form[i][j] for j in self.cartan] for i in self.cartan]

    @cached_property
    def cartan_gram_inverse(self) -> list[list[int]]:
        """The inverse Cartan Gram matrix in closed form, with s_i = +1 on even rows and -1 on odd:
        diag(s_i) on gl(m|n), and s_a delta_ab + s_{d-1} on sl(m|n) (d = m + n)."""
        d = self.m + self.n
        s = [1 if i < self.m else -1 for i in range(d)]
        if self.family == "gl":
            return [[s[a] if a == b else 0 for b in range(d)] for a in range(d)]
        return [[s[a] * (a == b) + s[-1] for b in range(d - 1)] for a in range(d - 1)]


def build_gl(m: int, n: int) -> LieSuperalgebra:
    """gl(m|n): matrix units E_ij, supercommutator, supertrace form.

    Rows/columns 1..m are even, m+1..m+n odd; |E_ij| = |i| + |j| mod 2;
    the Cartan is spanned by the diagonal units.
    """
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be non-negative, got m = {m}, n = {n}")
    if m + n < 2:
        raise ValueError("need m + n >= 2")
    d = m + n
    units = [(i, j) for i in range(d) for j in range(d)]
    index = {u: k for k, u in enumerate(units)}
    row_parity = [EVEN if i < m else ODD for i in range(d)]
    parity = tuple((row_parity[i] + row_parity[j]) % 2 for i, j in units)
    names = tuple(f"E{i + 1}{j + 1}" for i, j in units)

    structure: dict = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            out: Vector = {}
            if j == k:
                out[index[(i, l)]] = out.get(index[(i, l)], 0) + 1
            if l == i:
                sign = -1 if parity[a] and parity[b] else 1
                key = index[(k, j)]
                out[key] = out.get(key, 0) - sign
            out = {kk: vv for kk, vv in out.items() if vv}
            if out:
                structure[(a, b)] = out

    s = [1 if i < m else -1 for i in range(d)]
    form = tuple(tuple(s[i] if (j == k and i == l) else 0 for (k, l) in units) for (i, j) in units)
    cartan = tuple(index[(i, i)] for i in range(d))
    return LieSuperalgebra(
        dim=d * d,
        parity=parity,
        structure=structure,
        form=form,
        cartan=cartan,
        basis_names=names,
        family="gl",
        m=m,
        n=n,
    )


def build_sl(m: int, n: int) -> LieSuperalgebra:
    """sl(m|n), m != n: supertraceless matrices with the restricted str form.

    Basis: off-diagonal units E_ij plus the supertraceless diagonals
    h_t = E_tt - s_t/(m-n) * Id for t < m+n-1, where s_i = +1 on even rows
    and -1 on odd ones.  The brackets follow the matrix-unit rules

      [E_ij, E_kl] = d_jk E_il - (-1)^{|E_ij||E_kl|} d_li E_kj
      [h_t, E_kl]  = (d_tk - d_tl) E_kl,    [h_a, h_b] = 0

    with a diagonal bracket sum_x c_x E_xx (supertraceless) written as
    sum_t (c_t - c_{d-1}) h_t, and the form those of the supertrace,
    (E_ij, E_kl) = d_jk d_il s_i and (h_a, h_b) = s_a d_ab - s_a s_b/(m-n).
    """
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be non-negative, got m = {m}, n = {n}")
    if m == n:
        raise DegenerateFormError("the supertrace form degenerates on sl(n|n)")
    if m + n < 2:
        raise ValueError("need m + n >= 2")
    d = m + n
    s = [1 if i < m else -1 for i in range(d)]
    units = [(i, j) for i in range(d) for j in range(d) if i != j]
    index = {u: k for k, u in enumerate(units)}
    h0 = len(units)  # index of h_0
    dim = h0 + d - 1
    parity = tuple([int(s[i] != s[j]) for i, j in units] + [EVEN] * (d - 1))

    def bracket(a: int, b: int) -> Vector:
        if a >= h0 and b >= h0:
            return {}
        if a >= h0 or b >= h0:
            t, u, sign = (a - h0, b, 1) if a >= h0 else (b - h0, a, -1)
            k, l = units[u]
            c = sign * ((t == k) - (t == l))
            return {u: c} if c else {}
        (i, j), (k, l) = units[a], units[b]
        sign = -1 if parity[a] and parity[b] else 1
        if j == k and l == i:
            diag = [0] * d
            diag[i] += 1
            diag[j] -= sign
            return {h0 + t: diag[t] - diag[-1] for t in range(d - 1) if diag[t] != diag[-1]}
        out: Vector = {}
        if j == k:
            out[index[(i, l)]] = 1
        if l == i:
            out[index[(k, j)]] = -sign
        return out

    structure = {(a, b): v for a in range(dim) for b in range(dim) if (v := bracket(a, b))}
    form = [[0] * dim for _ in range(dim)]
    for a, (i, j) in enumerate(units):
        form[a][index[(j, i)]] = s[i]
    for x in range(d - 1):
        for y in range(d - 1):
            form[h0 + x][h0 + y] = _coeff(s[x] * (x == y) - Q(s[x] * s[y], m - n))
    # E_ij pairs only with E_ji, so the form is nondegenerate iff its Cartan block is
    if determinant([row[h0:] for row in form[h0:]]) == 0:
        raise DegenerateFormError("restricted supertrace form is degenerate")

    return LieSuperalgebra(
        dim=dim,
        parity=parity,
        structure=structure,
        form=tuple(map(tuple, form)),
        cartan=tuple(range(h0, dim)),
        basis_names=tuple([f"E{i + 1}{j + 1}" for i, j in units] + [f"H{t + 1}" for t in range(d - 1)]),
        family="sl",
        m=m,
        n=n,
    )


# ---------------------------------------------------------------------------
# roots


@dataclass(frozen=True)
class Root:
    """A root as a functional on the Cartan basis, with parity and sign."""

    functional: tuple
    parity: int
    positive: bool


@dataclass
class RootDatum:
    """Roots of g with normalized root vectors and coroots.

    Roots are ordered by lexicographically decreasing functional, so positive
    roots come first; this ordering is the stable index space used by
    serialized r-matrix specs.  For every root i: e[i] is the root vector,
    h_coroot[i] the Cartan element with (h_i, x) = root_i(x), pairing[i] the
    value (e_i, e_{-i}), neg[i] the index of the opposite root, and
    index[functional] the index of the root with that functional.
    """

    g: LieSuperalgebra
    roots: list[Root]
    e: list[Vector]
    h_coroot: list[Vector]
    pairing: list[Fraction]
    neg: list[int] = field(default_factory=list)
    index: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.roots)

    def positive_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.roots) if r.positive]

    def coroot_coords(self, i: int) -> list[Fraction]:
        """h_alpha in Cartan-basis coordinates: the linear form (alpha, .)."""
        h = self.h_coroot[i]
        return [h.get(c, Q(0)) for c in self.g.cartan]

    def add_index(self, i: int, j: int) -> int | None:
        """Index of root_i + root_j if it is a root, else None."""
        a, b = self.roots[i].functional, self.roots[j].functional
        return self.index.get(tuple(x + y for x, y in zip(a, b)))


def sign_A(rd: RootDatum, i: int) -> int:
    """A_alpha: (-1)^{|alpha|} for positive alpha, +1 for negative."""
    r = rd.roots[i]
    if r.positive:
        return -1 if r.parity else 1
    return 1


def root_decomposition(g: LieSuperalgebra) -> RootDatum:
    """Split the non-Cartan part into one-dimensional simultaneous ad-eigenspaces.

    Positivity is lexicographic in the Cartan coordinates of the functional
    (the distinguished Borel for matrix-unit bases).  For each positive root
    the opposite vector is rescaled so that (e_a, e_{-a}) = 1, and coroots
    solve (h_a, x) = a(x): the inverse Cartan Gram matrix times a.
    """
    cartan = list(g.cartan)
    non_cartan = [b for b in range(g.dim) if b not in g.cartan]
    weight_of: dict[int, tuple] = {}
    for b in non_cartan:
        weight = []
        for c in cartan:
            v = g.bracket_basis(c, b)
            extra = {k for k in v if k != b and v[k]}
            if extra:
                raise NonDiagonalizableError(f"[{g.basis_names[c]}, {g.basis_names[b]}] not diagonal")
            weight.append(v.get(b, 0))
        if all(w == 0 for w in weight):
            raise NonDiagonalizableError(f"non-Cartan basis vector {g.basis_names[b]} has zero weight")
        weight_of[b] = tuple(weight)

    spaces: dict[tuple, list[int]] = {}
    for b, w in weight_of.items():
        spaces.setdefault(w, []).append(b)
    for w, vs in spaces.items():
        if len(vs) != 1:
            raise NonDiagonalizableError(f"root space of weight {w} has dimension {len(vs)}")
        if tuple(-c for c in w) not in spaces:
            raise NonDiagonalizableError(f"root {w} has no opposite")

    ordered = sorted(spaces, reverse=True)  # lex-descending: positives first
    roots: list[Root] = []
    vectors: list[Vector] = []
    for w in ordered:
        b = spaces[w][0]
        positive = next(c for c in w if c != 0) > 0
        roots.append(Root(functional=w, parity=g.parity[b], positive=positive))
        vectors.append({b: Q(1)})

    index = {r.functional: i for i, r in enumerate(roots)}
    neg = [index[tuple(-c for c in roots[i].functional)] for i in range(len(roots))]

    # normalize (e_a, e_{-a}) = 1 for positive a by rescaling e_{-a}
    for i, r in enumerate(roots):
        if r.positive:
            j = neg[i]
            val = g.form_value(vectors[i], vectors[j])
            if val == 0:
                raise DegenerateFormError(f"form does not pair root {r.functional} with its opposite")
            vectors[j] = {k: v / val for k, v in vectors[j].items()}

    gram_inv = g.cartan_gram_inverse
    coroots: list[Vector] = []
    pairings: list[Fraction] = []
    for i, r in enumerate(roots):
        coeffs = [sum(a * w for a, w in zip(row, r.functional)) for row in gram_inv]
        coroots.append({c: coeffs[k] for k, c in enumerate(cartan) if coeffs[k]})
        pairings.append(g.form_value(vectors[i], vectors[neg[i]]))

    return RootDatum(g=g, roots=roots, e=vectors, h_coroot=coroots, pairing=pairings, neg=neg, index=index)


def cartan_casimir_cells(g: LieSuperalgebra, scale=1) -> dict:
    """scale * sum_k x_k (x) x^k as {(x_k, x_l): value}, {x^k} the form-dual Cartan basis."""
    gram_inv = g.cartan_gram_inverse
    return {
        (ck, cl): gram_inv[l][k] * scale
        for k, ck in enumerate(g.cartan)
        for l, cl in enumerate(g.cartan)
        if gram_inv[l][k]
    }


def casimir(g: LieSuperalgebra, rd: RootDatum):
    """The invariant element of g (x) g for the form.

    Omega = sum_k x_k (x) x^k  +  sum_a A_a e_a (x) e_{-a}, with {x^k} the
    form-dual Cartan basis.
    """
    from . import tensor

    cells = cartan_casimir_cells(g)
    for i in range(len(rd)):
        a = sign_A(rd, i)
        for bi, ci in rd.e[i].items():
            for bj, cj in rd.e[rd.neg[i]].items():
                key = (bi, bj)
                cells[key] = cells.get(key, Q(0)) + a * ci * cj
    return tensor.Tensor2.from_constant_cells(g, cells)


# ---------------------------------------------------------------------------
# descriptor export


def export_descriptor(g: LieSuperalgebra, rd: RootDatum | None = None) -> dict:
    """JSON-ready description of the algebra and its deterministic root order."""
    out = {
        "family": g.family,
        "m": g.m,
        "n": g.n,
        "dim": g.dim,
        "basis": list(g.basis_names),
        "parities": list(g.parity),
        "cartan_indices": list(g.cartan),
        "structure": [
            {"i": i, "j": j, "k": k, "c": str(c)}
            for (i, j), v in sorted(g.structure.items())
            for k, c in sorted(v.items())
        ],
        "form": [[str(v) for v in row] for row in g.form],
    }
    if rd is not None:
        out["roots"] = [
            {
                "index": i,
                "functional": [str(c) for c in r.functional],
                "parity": r.parity,
                "positive": r.positive,
                "vector": {str(b): str(c) for b, c in sorted(rd.e[i].items())},
                "coroot": {str(b): str(c) for b, c in sorted(rd.h_coroot[i].items())},
                "pairing": str(rd.pairing[i]),
                "negative_index": rd.neg[i],
            }
            for i, r in enumerate(rd.roots)
        ]
    return out
