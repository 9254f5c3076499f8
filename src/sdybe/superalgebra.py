"""Concrete matrix Lie superalgebras with invariant form and root data.

Algebras are gl(m|n) (matrix units, supercommutator, supertrace form) and its
supertraceless subalgebra sl(m|n) for m != n, both built by one construction
from the closed-form matrix-unit rules.  Elements are sparse vectors
{basis index: Fraction}.  All arithmetic is exact; structure constants, form
entries, root functionals, root vectors, pairings and coroots are int where
they are integral.

The root data are read off the units: the off-diagonal E_ij spans the root
space of e_i - e_j, positive iff i < j, and (i, j) is the root's label.  They
follow the normalization [e_a, e_{-a}] = (e_a, e_{-a}) h_a with
(e_a, e_{-a}) = 1 for positive roots, and the sign bookkeeping
A_a = (-1)^{|a|} for positive a, A_a = 1 for negative a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache

from .scalars import _coeff

Q = Fraction

EVEN, ODD = 0, 1

Vector = dict  # basis index -> Fraction


class DegenerateFormError(ValueError):
    """The invariant bilinear form is degenerate for the requested algebra."""


# ---------------------------------------------------------------------------
# the algebra container


@dataclass(eq=False)
class LieSuperalgebra:
    """Basis-indexed Lie superalgebra with invariant form.

    structure[(i, j)] is the sparse expansion of [b_i, b_j]; form[i][j] is
    (b_i, b_j); cartan lists the indices of the Cartan basis (even, abelian);
    row_signs[i] is s_i, +1 on the even rows 1..m and -1 on the odd ones.
    `build_gl` and `build_sl` return one shared instance per size for the
    life of the process, so it is immutable: no caller may change it or
    anything it holds.  Equality and hashing are by identity, the keys of
    the `root_decomposition` and `casimir` caches.
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
    row_signs: tuple[int, ...] = ()

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

    @cached_property
    def cartan_gram_inverse(self) -> list[list[int]]:
        """The inverse Cartan Gram matrix in closed form, with s_i = +1 on even rows and -1 on odd:
        diag(s_i) on gl(m|n), and s_a delta_ab + s_{d-1} on sl(m|n) (d = m + n)."""
        s, d = self.row_signs, self.m + self.n
        if self.family == "gl":
            return [[s[a] if a == b else 0 for b in range(d)] for a in range(d)]
        return [[s[a] * (a == b) + s[-1] for b in range(d - 1)] for a in range(d - 1)]


def _units(family: str, d: int) -> list[tuple[int, int]]:
    """The matrix unit (i, j) at each basis index, row by row: every E_ij on gl(m|n); on
    sl(m|n) the off-diagonal E_ij, then h_t at (t, t) for t < d - 1, as h_t brackets like
    E_tt (Id is central)."""
    if family == "gl":
        return [(i, j) for i in range(d) for j in range(d)]
    return [(i, j) for i in range(d) for j in range(d) if i != j] + [(t, t) for t in range(d - 1)]


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 or True is not served the algebra built for 2 or 1
def _build(family: str, m: int, n: int) -> LieSuperalgebra:
    """gl(m|n) or sl(m|n) from the matrix-unit rules on the `_units` basis, built once per
    (family, m, n) in a process and shared; a size it rejects raises again on every call.

    Rows 1..m are even, m+1..m+n odd, s_i = +1 on even rows and -1 on odd;
    |E_ij| = |i| + |j| mod 2.  On sl(m|n), m != n, h_t = E_tt - s_t/(m-n) Id.
    Brackets and form are

      [E_ij, E_kl] = d_jk E_il - (-1)^{|E_ij||E_kl|} d_li E_kj,    (E_ij, E_kl) = d_jk d_il s_i,

    where on sl a diagonal bracket sum_x c_x E_xx (supertraceless) is written
    as sum_t (c_t - c_{d-1}) h_t, and (h_a, h_b) = s_a d_ab - s_a s_b/(m-n).
    """
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be non-negative, got m = {m}, n = {n}")
    if family == "sl" and m == n:
        raise DegenerateFormError("the supertrace form degenerates on sl(n|n)")
    if m + n < 2:
        raise ValueError("need m + n >= 2")
    d = m + n
    s = tuple(1 if i < m else -1 for i in range(d))
    units = _units(family, d)
    index = {u: a for a, u in enumerate(units)}
    dim = len(units)
    h0 = dim - (d - 1)  # sl: index of h_0
    parity = tuple(int(s[i] != s[j]) for i, j in units)

    def bracket(a: int, b: int) -> Vector:  # units a = E_ij and b = E_kl with k = j or l = i
        (i, j), (k, l) = units[a], units[b]
        sign = -1 if parity[a] and parity[b] else 1
        if l != i:
            return {index[i, l]: 1}
        if j != k:
            return {index[k, j]: -sign}
        if i == j:
            return {}
        if family == "gl":  # [E_ij, E_ji] = E_ii - sign E_jj
            return {index[i, i]: 1, index[j, j]: -sign}
        c = [0] * d
        c[i], c[j] = 1, -sign
        return {h0 + t: c[t] - c[-1] for t in range(d - 1) if c[t] != c[-1]}

    # only units sharing an index bracket: E_kl with k = j (row j of `rows`) or l = i (column i of `cols`)
    rows = [[b for b, (k, _) in enumerate(units) if k == t] for t in range(d)]
    cols = [[b for b, (_, l) in enumerate(units) if l == t] for t in range(d)]
    structure = {
        (a, b): v for a, (i, j) in enumerate(units) for b in sorted({*rows[j], *cols[i]}) if (v := bracket(a, b))
    }
    form = [[0] * dim for _ in range(dim)]
    for a, (i, j) in enumerate(units):
        form[a][index[j, i]] = s[i]
    if family == "sl":
        for x in range(d - 1):
            for y in range(d - 1):
                form[h0 + x][h0 + y] = _coeff(form[h0 + x][h0 + y] - Q(s[x] * s[y], m - n))
    unit_name = "E{}{}" if d < 10 else "E{},{}"
    return LieSuperalgebra(
        dim=dim,
        parity=parity,
        structure=structure,
        form=tuple(map(tuple, form)),
        cartan=tuple(index[t, t] for t in range(d if family == "gl" else d - 1)),
        basis_names=tuple(
            f"H{i + 1}" if family == "sl" and i == j else unit_name.format(i + 1, j + 1) for i, j in units
        ),
        family=family,
        m=m,
        n=n,
        row_signs=s,
    )


def build_gl(m: int, n: int) -> LieSuperalgebra:
    """gl(m|n): every matrix unit E_ij, supercommutator, supertrace form; the Cartan is spanned by the diagonal units.

    Every call with the same sizes returns the same shared instance: do not mutate it."""
    return _build("gl", m, n)


def build_sl(m: int, n: int) -> LieSuperalgebra:
    """sl(m|n), m != n: the off-diagonal E_ij and h_t = E_tt - s_t/(m-n) Id, t < m+n-1, with the restricted form.

    Every call with the same sizes returns the same shared instance: do not mutate it."""
    return _build("sl", m, n)


# ---------------------------------------------------------------------------
# roots


@dataclass(frozen=True)
class Root:
    """A root as a functional on the Cartan basis, with parity and sign."""

    functional: tuple
    parity: int
    positive: bool


@dataclass(eq=False)
class RootDatum:
    """Roots of g with normalized root vectors and coroots.

    Roots are ordered by lexicographically decreasing functional, so positive
    roots come first; this ordering is the stable index space used by
    serialized r-matrix specs.  For every root i: e[i] is the root vector,
    coroot_table[i] the Cartan-basis coordinates of the coroot h_i, the
    element with (h_i, x) = root_i(x), pairing[i] the value (e_i, e_{-i}),
    neg[i] the index of the opposite root, and labels[i] the matrix unit
    (a, b) of the root e_a - e_b;
    label_index[(a, b)] is the index of that root.  `root_decomposition`
    shares one datum per algebra, so it and its lists are never mutated;
    equality and hashing are by identity.
    """

    g: LieSuperalgebra
    roots: list[Root]
    e: list[Vector]
    pairing: list[int]
    neg: list[int] = field(default_factory=list)
    labels: list = field(default_factory=list)
    label_index: dict = field(default_factory=dict)
    coroot_table: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.roots)

    def positive_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.roots) if r.positive]

    def add_index(self, i: int, j: int) -> int | None:
        """Index of root_i + root_j if it is a root, else None: (a, b) + (b, e) = (a, e)."""
        (a, b), (c, e) = self.labels[i], self.labels[j]
        if b == c:
            return self.label_index.get((a, e))
        return self.label_index.get((c, b)) if e == a else None


def sign_A(rd: RootDatum, i: int) -> int:
    """A_alpha: (-1)^{|alpha|} for positive alpha, +1 for negative."""
    r = rd.roots[i]
    if r.positive:
        return -1 if r.parity else 1
    return 1


@cache
def root_decomposition(g: LieSuperalgebra) -> RootDatum:
    """The root data read off the matrix units, read once per algebra and shared by every
    caller for the life of the process: do not mutate it.

    Each off-diagonal unit E_ij spans the root space of e_i - e_j (restricted
    to the Cartan, where h_t acts as E_tt), positive iff i < j: positivity is
    lexicographic in the Cartan coordinates (the distinguished Borel).  For a
    positive root a = e_i - e_j, e_a = E_ij and e_{-a} = E_ji / s_i, so that
    (e_a, e_{-a}) = 1 and (e_{-a}, e_a) = s_i s_j.  Coroots solve
    (h_a, x) = a(x): the coroot of e_i - e_j is column i minus column j of the
    inverse Cartan Gram matrix.
    """
    s = g.row_signs
    units = _units(g.family, g.m + g.n)
    found = sorted(  # (functional, basis index, i, j) of each E_ij, i != j, lex-descending: positives first
        ((tuple((t == i) - (t == j) for t in range(g.rank)), b, i, j) for b, (i, j) in enumerate(units) if i != j),
        reverse=True,
    )
    roots = [Root(functional=w, parity=g.parity[b], positive=i < j) for w, b, i, j in found]
    # e_a = E_ij for i < j; for i > j, E_ij / s_j = s_j E_ij
    vectors = [{b: 1 if i < j else s[j]} for _, b, i, j in found]
    pairings = [1 if i < j else s[i] * s[j] for _, _, i, j in found]
    labels = [(i, j) for _, _, i, j in found]
    label_index = {u: k for k, u in enumerate(labels)}
    neg = [label_index[j, i] for i, j in labels]

    gram_inv = [row + [0] for row in g.cartan_gram_inverse]  # column d - 1: e_{d-1} is 0 on the sl Cartan
    table = [tuple([row[i] - row[j] for row in gram_inv]) for _, _, i, j in found]
    return RootDatum(g, roots, vectors, pairings, neg, labels, label_index, coroot_table=table)


def cartan_casimir_cells(g: LieSuperalgebra, scale=1) -> dict:
    """scale * sum_k x_k (x) x^k as {(x_k, x_l): value}, {x^k} the form-dual Cartan basis."""
    gram_inv = g.cartan_gram_inverse
    return {
        (ck, cl): gram_inv[l][k] * scale
        for k, ck in enumerate(g.cartan)
        for l, cl in enumerate(g.cartan)
        if gram_inv[l][k]
    }


@cache
def casimir(g: LieSuperalgebra, rd: RootDatum):
    """The invariant element of g (x) g for the form.

    Omega = sum_k x_k (x) x^k  +  sum_a A_a e_a (x) e_{-a}, with {x^k} the
    form-dual Cartan basis.  Built once per root datum and shared by every
    caller for the life of the process: do not mutate it.
    """
    from . import tensor

    cells = cartan_casimir_cells(g)
    for i in range(len(rd)):
        a = sign_A(rd, i)
        for bi, ci in rd.e[i].items():
            for bj, cj in rd.e[rd.neg[i]].items():
                key = (bi, bj)
                cells[key] = cells.get(key, 0) + a * ci * cj
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
                "coroot": {str(b): str(c) for b, c in sorted(zip(g.cartan, rd.coroot_table[i])) if c},
                "pairing": str(rd.pairing[i]),
                "negative_index": rd.neg[i],
            }
            for i, r in enumerate(rd.roots)
        ]
    return out
