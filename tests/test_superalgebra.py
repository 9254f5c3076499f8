"""Algebra substrate: builders, axioms, roots, Casimir, sign bookkeeping."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from sdybe import cli
from sdybe.superalgebra import (
    DegenerateFormError,
    _units,
    build_gl,
    build_sl,
    casimir,
    root_decomposition,
    sign_A,
)
from sdybe.tensor import ad_action

from conftest import (
    ad_signed_oracle,
    bracket,
    by_matrix_products,
    cartan_gram,
    check_jacobi,
    coroot,
    form_value,
    gl_matrix_of,
    invert_matrix,
    mat_mul,
    solve_linear,
    structure_constant_identity_report,
    supercommutator,
    supertrace,
    unit_matrix,
    validate_algebra,
)

Q = Fraction


class TestBuildGl:
    def test_gl2_bracket_is_classical(self):
        g = build_gl(2, 0)
        e12 = g.basis_names.index("E12")
        e21 = g.basis_names.index("E21")
        e11 = g.basis_names.index("E11")
        e22 = g.basis_names.index("E22")
        assert g.bracket_basis(e12, e21) == {e11: Q(1), e22: Q(-1)}

    def test_gl11_odd_bracket_matches_matrix_oracle(self):
        g = build_gl(1, 1)
        e12 = g.basis_names.index("E12")
        e21 = g.basis_names.index("E21")
        # both odd: the supercommutator is the anticommutator E12 E21 + E21 E12
        oracle = supercommutator(unit_matrix(0, 1), unit_matrix(1, 0), 1, 1)
        assert oracle == {(0, 0): Q(1), (1, 1): Q(1)}
        assert g.bracket_basis(e12, e21) == {
            g.basis_names.index("E11"): Q(1),
            g.basis_names.index("E22"): Q(1),
        }

    def test_gl21_supertrace_form_oracle(self):
        g = build_gl(2, 1)
        e11 = g.basis_names.index("E11")
        e33 = g.basis_names.index("E33")
        assert g.form[e11][e11] == Q(1)
        assert g.form[e33][e33] == Q(-1)
        # full form matrix against independent matrix arithmetic
        d = 3
        units = [(i, j) for i in range(d) for j in range(d)]
        for a in range(g.dim):
            for b in range(g.dim):
                prod = mat_mul({units[a]: Q(1)}, {units[b]: Q(1)})
                assert g.form[a][b] == supertrace(prod, g.m)

    def test_whole_structure_tensor_matches_matrix_oracle(self):
        for m, n in [(2, 0), (1, 1), (2, 1)]:
            g = build_gl(m, n)
            d = m + n
            units = [(i, j) for i in range(d) for j in range(d)]
            for a in range(g.dim):
                for b in range(g.dim):
                    oracle = supercommutator(
                        {units[a]: Q(1)}, {units[b]: Q(1)}, g.parity[a], g.parity[b]
                    )
                    got = gl_matrix_of(g, g.bracket_basis(a, b))
                    assert got == oracle, (g.basis_names[a], g.basis_names[b])


class TestBuildSl:
    def test_sl2_shape(self):
        g = build_sl(2, 0)
        assert g.dim == 3
        assert validate_algebra(g) == []

    def test_sl21_dimension_and_parity_split(self):
        g = build_sl(2, 1)
        assert g.dim == 8
        assert sum(1 for p in g.parity if p == 0) == 4
        assert sum(g.parity) == 4
        rd = root_decomposition(g)
        assert sum(r.parity for r in rd.roots) == 4

    def test_sl11_rejected(self):
        with pytest.raises(DegenerateFormError):
            build_sl(1, 1)

    @pytest.mark.parametrize(
        "family,m,n",
        [
            pytest.param("sl", m, n, id=f"{m}-{n}")
            for m, n in [(2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (1, 2), (2, 1), (3, 1), (3, 2), (2, 3), (4, 1)]
        ]
        + [pytest.param("gl", m, n, id=f"gl-{m}-{n}") for m, n in [(2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]],
    )
    def test_closed_form_matches_matrix_products(self, family, m, n):
        g = (build_gl if family == "gl" else build_sl)(m, n)
        structure, form = by_matrix_products(family, m, n)
        # inner key order too: it is the order in which leg brackets meet their terms
        assert [(k, list(v.items())) for k, v in g.structure.items()] == [
            (k, list(v.items())) for k, v in structure.items()
        ]
        assert g.form == form
        assert [type(v) for row in g.form for v in row] == [type(v) for row in form for v in row]

    def test_sl2_textbook_relations(self):
        g = build_sl(2, 0)
        e = g.basis_names.index("E12")
        f = g.basis_names.index("E21")
        h1 = g.basis_names.index("H1")
        # h = E11 - E22 = 2 H1
        assert bracket(g, {h1: Q(2)}, {e: Q(1)}) == {e: Q(2)}
        assert bracket(g, {h1: Q(2)}, {f: Q(1)}) == {f: Q(-2)}
        assert bracket(g, {e: Q(1)}, {f: Q(1)}) == {h1: Q(2)}


@pytest.mark.parametrize("build", [build_gl, build_sl])
@pytest.mark.parametrize("m,n", [(-1, 4), (4, -1), (-1, -1), (-2, 4)])
def test_negative_size_rejected(build, m, n):
    # gl(-1|4) used to build a 9-dimensional algebra with every basis vector even
    with pytest.raises(ValueError, match="non-negative"):
        build(m, n)


@pytest.mark.parametrize("build,m,n,dim", [(build_gl, 0, 2, 4), (build_sl, 0, 3, 8)])
def test_zero_even_block_stays_legal(build, m, n, dim):
    g = build(m, n)
    assert g.dim == dim and all(g.parity[i] == 0 for i in g.cartan)


@pytest.mark.parametrize(
    "build,m,n", [(build_gl, 10, 1), (build_gl, 5, 5), (build_sl, 14, 0), (build_sl, 6, 4), (build_gl, 5, 4), (build_sl, 9, 0)]
)
def test_basis_names_unambiguous(build, m, n):
    # from ten rows on, units are named E{i},{j}: E{i}{j} names E_{1,11} and E_{11,1} alike
    g = build(m, n)
    d = m + n
    name = "E{},{}" if d >= 10 else "E{}{}"
    units = {g.basis_names.index(name.format(i + 1, j + 1)) for i in range(d) for j in range(d) if i != j}
    assert len(set(g.basis_names)) == g.dim
    assert units == set(range(g.dim)) - set(g.cartan)


class TestSharedSetup:
    """One algebra, root datum and Casimir per (family, m, n) in a process, shared by every caller."""

    def test_one_algebra_per_size(self):
        assert build_gl(2, 1) is build_gl(2, 1)
        assert build_sl(3, 0) is build_sl(3, 0)
        algebras = [build_gl(2, 1), build_gl(1, 2), build_gl(3, 0), build_sl(2, 1), build_sl(3, 0)]
        assert len({id(g) for g in algebras}) == len(algebras)
        sizes = [(g.family, g.m, g.n) for g in algebras]
        assert sizes == [("gl", 2, 1), ("gl", 1, 2), ("gl", 3, 0), ("sl", 2, 1), ("sl", 3, 0)]

    def test_sizes_of_another_type_are_not_served_a_cached_algebra(self):
        g = build_gl(1, 1)
        with pytest.raises(TypeError):
            build_gl(1.0, 1)
        assert build_gl(True, 1) is not g

    def test_root_datum_and_casimir_shared(self):
        g = build_gl(2, 1)
        rd = root_decomposition(g)
        assert rd is root_decomposition(g) and rd.g is g
        assert casimir(g, rd) is casimir(g, rd)
        other = build_sl(2, 1)
        assert root_decomposition(other) is not rd
        assert casimir(other, root_decomposition(other)) is not casimir(g, rd)

    def test_rejected_sizes_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(DegenerateFormError):
                build_sl(2, 2)
            for build, m, n in ((build_gl, 1, 0), (build_sl, 0, 1), (build_gl, 0, 0)):
                with pytest.raises(ValueError, match="m \\+ n >= 2"):
                    build(m, n)


class TestAxioms:
    @pytest.mark.parametrize("builder,m,n", [
        (build_gl, 1, 1),
        (build_gl, 2, 1),
        (build_sl, 3, 0),
        (build_sl, 2, 1),
    ])
    def test_axioms_and_jacobi(self, builder, m, n):
        g = builder(m, n)
        assert validate_algebra(g) == []
        assert check_jacobi(g) == []

    def test_even_bracket_with_self_vanishes(self, gl21):
        g, _, _ = gl21
        for i in range(g.dim):
            if g.parity[i] == 0:
                assert g.bracket_basis(i, i) == {}

    def test_gl11_odd_self_bracket_vanishes(self, gl11):
        g, _, _ = gl11
        e12 = g.basis_names.index("E12")
        assert g.bracket_basis(e12, e12) == {}


class TestRoots:
    def test_gl21_root_census(self, gl21):
        _, rd, _ = gl21
        assert len(rd.roots) == 6
        assert sum(1 for r in rd.roots if r.parity == 0) == 2
        assert sum(1 for r in rd.roots if r.parity == 1) == 4
        assert sum(1 for r in rd.roots if r.positive) == 3

    def test_sl2_root_census(self, sl2):
        _, rd, _ = sl2
        assert len(rd.roots) == 2
        assert all(r.parity == 0 for r in rd.roots)

    @pytest.mark.parametrize(
        "family,m,n",
        [
            pytest.param(family, m, d - m, id=f"{family}{m}{d - m or ''}")
            for family in ("gl", "sl")
            for d in range(2, 7)
            for m in range(d + 1)
            if family == "gl" or 2 * m != d
        ],
    )
    def test_normalization_postconditions(self, family, m, n):
        """On every gl(m|n) and sl(m|n) with m + n <= 6, sl taken with m > n and with m < n."""
        g = (build_gl if family == "gl" else build_sl)(m, n)
        rd = root_decomposition(g)
        for i, root in enumerate(rd.roots):
            j = rd.neg[i]
            if root.positive:
                assert rd.pairing[i] == 1
            # [e_a, e_{-a}] = (e_a, e_{-a}) h_a
            lhs = bracket(g, rd.e[i], rd.e[j])
            expected = {k: rd.pairing[i] * v for k, v in coroot(rd, i).items()}
            assert lhs == expected
            # (h_a, x) = a(x) on the Cartan
            for k, c in enumerate(g.cartan):
                assert form_value(g, coroot(rd, i), {c: Q(1)}) == root.functional[k]
            # [x, e_a] = a(x) e_a
            for k, c in enumerate(g.cartan):
                got = bracket(g, {c: Q(1)}, rd.e[i])
                expected_vec = {b: root.functional[k] * v for b, v in rd.e[i].items() if root.functional[k] * v}
                assert got == expected_vec
        # each non-Cartan basis vector is the vector of exactly one root, whose functional
        # is the weight read from its brackets with the Cartan
        assert len(rd) == g.dim - g.rank
        for b in sorted(set(range(g.dim)) - set(g.cartan)):
            images = [g.bracket_basis(c, b) for c in g.cartan]
            assert all(set(v) <= {b} for v in images), g.basis_names[b]
            weight = tuple(v.get(b, 0) for v in images)
            owners = [i for i, e in enumerate(rd.e) if set(e) == {b}]
            assert any(weight) and len(owners) == 1, g.basis_names[b]
            assert rd.roots[owners[0]].functional == weight

    def test_root_spaces_one_dimensional_small_members(self):
        cases = [(build_gl, 2, 0), (build_gl, 2, 1), (build_gl, 3, 1), (build_gl, 2, 2),
                 (build_sl, 2, 0), (build_sl, 3, 0), (build_sl, 2, 1), (build_sl, 3, 1)]
        for builder, m, n in cases:
            g = builder(m, n)
            rd = root_decomposition(g)
            assert len(rd.roots) == len({r.functional for r in rd.roots})

    def test_root_ordering_deterministic(self, gl21):
        g, rd, _ = gl21
        functionals = [r.functional for r in rd.roots]
        assert functionals == sorted(functionals, reverse=True)


class TestSignA:
    def test_parity_sign_table(self, gl21):
        _, rd, _ = gl21
        for i, r in enumerate(rd.roots):
            if r.positive and r.parity:
                assert sign_A(rd, i) == -1
            if not r.positive:
                assert sign_A(rd, i) == 1

    def test_negation_identity(self, gl21):
        _, rd, _ = gl21
        for i, r in enumerate(rd.roots):
            assert sign_A(rd, rd.neg[i]) == ((-1) ** r.parity) * sign_A(rd, i)

    def test_pairing_equals_A_minus_alpha(self, gl21):
        _, rd, _ = gl21
        for i in range(len(rd)):
            assert rd.pairing[i] == sign_A(rd, rd.neg[i])


class TestCasimir:
    def test_sl2_explicit(self, sl2):
        g, _, om = sl2
        e = g.basis_names.index("E12")
        f = g.basis_names.index("E21")
        h1 = g.basis_names.index("H1")
        # tr(H1^2) = 1/2, so the Cartan block is 2 H1 (x) H1 = h (x) h / 2
        # every cell a constant, stored as its int value
        expected = {(h1, h1): (2, int), (e, f): (1, int), (f, e): (1, int)}
        got = {k: (v.constant(), type(v.terms[()])) for k, v in om.coeffs.items()}
        assert got == expected

    @pytest.mark.parametrize("bundle", ["sl2", "gl11", "gl21", "sl3"])
    def test_full_ad_invariance_signed_oracle(self, bundle, request):
        g, _, om = request.getfixturevalue(bundle)
        for z in range(g.dim):
            assert ad_signed_oracle(g, z, om) == {}, g.basis_names[z]

    def test_zero_weight(self, gl21):
        g, _, om = gl21
        for c in g.cartan:
            assert ad_action({c: Q(1)}, om).is_zero()


class TestStructureConstantIdentities:
    @pytest.mark.parametrize("bundle", ["gl21", "sl3", "sl21"])
    def test_derived_identities(self, bundle, request):
        g, rd, _ = request.getfixturevalue(bundle)
        report = structure_constant_identity_report(g, rd)
        assert report["pairs_checked"] > 0
        assert report["violations"] == []
        # recorded, not asserted: no degenerate (h_a, h_b) pairings occur here
        assert report["zero_h_pairings"] == []


# sha256 of `sdybe algebra --family F --m M --n N` output, taken before the
# root data moved to integer tables; the descriptors must not change
DESCRIPTOR_SHA256 = {
    ("sl", 3, 0): "e270d2849481a446175ad3ab6595390efaceb03a3a39c2cefb792012cc51732e",
    ("gl", 2, 1): "ba19ad67abd6d05559290c995a025c5366bd46803b7cdb7e90a0656c232d97d2",
    ("gl", 2, 2): "9ba885c86f0cc60ac9a2f9440e531ff91486bcc3a3ea17ec83bfda929a080c7e",
    ("sl", 5, 0): "c29a5267fb3c04f1bd0e8310d75c78c7e3544d688862c3d50bc8e80cacd94c38",
    ("gl", 3, 2): "cd4cadcd73e1dc129f4a3b6e11c1c84971b8ff54eb69922181544f19c48cf24c",
    ("sl", 2, 1): "28aa9d21e7726b75a6ab2a8179379104cd2bb11d814a7b71edf0cb2158dc35ae",
    ("sl", 3, 1): "90a65cd4c6a31f3f18ebe5a46b6c1b7ceff146f8f84f7cc4ecfedadee673eae4",
    ("sl", 3, 2): "9afd59d4218315b0ca08252b8af8db3a4406a5118f6c067810d4b65da44735a6",
    ("sl", 4, 1): "257cecd11dd2414196059b70e61df46a9d98dc1e75914b4b5626aa275b699386",
    ("sl", 6, 0): "df57a7bc97fa9ea39f8b052b50a31ac0477fb9d20365bd43a9dcd2e3fa51b06c",
}


def _stored_exactly(value) -> bool:
    """An integral value is stored as int, any other as Fraction."""
    return type(value) is int if Q(value).denominator == 1 else type(value) is Fraction


class TestRootLabels:
    """Each root e_a - e_b carries the label (a, b) of its matrix unit, and root sums follow labels."""

    @pytest.fixture(
        scope="class",
        params=[("sl", 2, 0), ("sl", 3, 0), ("gl", 1, 1), ("gl", 2, 1), ("sl", 2, 1), ("gl", 3, 1), ("gl", 2, 2),
                ("gl", 6, 4), ("sl", 7, 4)],
        ids=lambda a: f"{a[0]}{a[1]}{a[2]}",
    )
    def algebra(self, request):
        family, m, n = request.param
        g = (build_gl if family == "gl" else build_sl)(m, n)
        return g, root_decomposition(g)

    def test_labels_match_functionals_and_units(self, algebra):
        g, rd = algebra
        units = _units(g.family, g.m + g.n)
        assert rd.label_index == {u: i for i, u in enumerate(rd.labels)}
        assert len(rd.label_index) == len(rd) == (g.m + g.n) * (g.m + g.n - 1)
        for i, (a, b) in enumerate(rd.labels):
            assert rd.roots[i].functional == tuple((t == a) - (t == b) for t in range(g.rank))
            assert rd.roots[i].positive == (a < b)
            assert [units[k] for k in rd.e[i]] == [(a, b)]
            assert rd.labels[rd.neg[i]] == (b, a)

    def test_add_index_matches_functional_scan(self, algebra):
        _, rd = algebra
        index = {r.functional: k for k, r in enumerate(rd.roots)}
        for i, a in enumerate(rd.roots):
            for j, b in enumerate(rd.roots):
                assert rd.add_index(i, j) == index.get(tuple(x + y for x, y in zip(a.functional, b.functional))), (i, j)


class TestIntegerRootData:
    """The integer root tables against brute force and the Gram system."""

    @pytest.fixture(scope="class", params=sorted(DESCRIPTOR_SHA256), ids=lambda a: f"{a[0]}{a[1]}{a[2]}")
    def algebra(self, request):
        family, m, n = request.param
        g = (build_gl if family == "gl" else build_sl)(m, n)
        return request.param, g, root_decomposition(g)

    def test_add_index_matches_functional_scan(self, algebra):
        _, _, rd = algebra
        for i, a in enumerate(rd.roots):
            for j, b in enumerate(rd.roots):
                total = tuple(x + y for x, y in zip(a.functional, b.functional))
                scan = next((k for k, r in enumerate(rd.roots) if r.functional == total), None)
                assert rd.add_index(i, j) == scan, (i, j)

    def test_coroots_solve_the_gram_system(self, algebra):
        _, g, rd = algebra
        gram = cartan_gram(g)
        for i, r in enumerate(rd.roots):
            assert list(rd.coroot_table[i]) == solve_linear(gram, list(r.functional))

    def test_integral_values_are_int(self, algebra):
        _, g, rd = algebra
        values = [c for v in g.structure.values() for c in v.values()]
        values += [c for r in rd.roots for c in r.functional]
        values += [c for h in rd.coroot_table for c in h]
        values += [c for v in rd.e for c in v.values()] + list(rd.pairing)
        values += [c for row in g.cartan_gram_inverse for c in row]
        assert values and all(_stored_exactly(c) for c in values)

    def test_descriptor_bytes_unchanged(self, algebra, capsys):
        (family, m, n), _, _ = algebra
        assert cli.main(["algebra", "--family", family, "--m", str(m), "--n", str(n)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == DESCRIPTOR_SHA256[(family, m, n)]

    @pytest.mark.parametrize(
        "family,m,n",
        [("gl", m, d - m) for d in range(2, 7) for m in range(d + 1)]
        + [("sl", m, d - m) for d in range(2, 7) for m in range(d + 1) if 2 * m != d],
    )
    def test_closed_form_gram_inverse(self, family, m, n):
        """The closed-form inverse is the Gaussian-elimination inverse on every gl(m|n) and
        sl(m|n) with m + n <= 6, sl taken with m > n and with m < n."""
        g = (build_gl if family == "gl" else build_sl)(m, n)
        assert g.cartan_gram_inverse == invert_matrix(cartan_gram(g))
