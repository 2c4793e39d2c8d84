"""Fibre invariants: factor counts, nondegeneracy, genus, branches."""

import importlib.util
import os
import random
import sys
from collections import Counter
from math import gcd

import pytest

from jaccoord import (
    BiPoly,
    absolute_factor_count,
    branches_at_infinity,
    fibre_report,
    genus,
    newton_polygon,
    nondegenerate,
    parse_poly,
    rat,
    special_value_candidates,
    substitute,
)
from jaccoord import audit, fibre, gen_random_coordinate, theorem3_scan
from jaccoord.coordinate import _rand_linear
from jaccoord.elim import bipoly_squarefree_part
from jaccoord.fibre import ConstantInputError, NotSquarefreeError, Unknown
from jaccoord.newton import edge_faces, lattice_counts, support_polygon
from jaccoord.qpoly import InputTooLarge
from test_newton import ref_contains

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# an affine image of x^5 + y^5 + 1, whose one critical point has mu = 16
FERMAT5_IMAGE = substitute(
    parse_poly("x^5 + y^5 + 1"), parse_poly("x + 2*y - 1"), parse_poly("x - y + 1/2")
)
FERMAT4_IMAGE = substitute(
    parse_poly("x^4 + y^4 + 1"), parse_poly("2*x - y + 1/3"), parse_poly("x + y - 2")
)



# ---------------------------------------------------------------------------
# the Ruppert matrix as it was built before the graded order: one column per
# unknown, g then h, accumulated term by term, and rows in ascending lex
# order of their monomials


def _ref_unknowns(m, n):
    return [("g", u, v) for u in range(m) for v in range(n + 1)] + [
        ("h", u, v) for u in range(m + 1) for v in range(n)
    ]


def _ref_ruppert_columns(f_terms, m, n):
    columns = []
    for kind, u, v in _ref_unknowns(m, n):
        col = {}

        def acc(i, j, coeff):
            if i < 0 or j < 0:
                return
            cur = col.get((i, j))
            col[(i, j)] = coeff if cur is None else cur + coeff

        for (i, j), c in sorted(f_terms.items()):
            if kind == "g":
                # g_y * f  -  g * f_y
                if v > 0:
                    acc(i + u, j + v - 1, c * v)
                if j > 0:
                    acc(i + u, j - 1 + v, c * -j)
            else:
                # -(h_x * f - h * f_x) = -h_x f + h f_x
                if u > 0:
                    acc(i + u - 1, j + v, c * -u)
                if i > 0:
                    acc(i - 1 + u, j + v, c * i)
        columns.append(col)
    return columns


def ref_ruppert_rows(f_terms, m, n):
    columns = _ref_ruppert_columns(f_terms, m, n)
    monomials = sorted({e for col in columns for e in col})
    return [[col.get(e, 0) for col in columns] for e in monomials], len(columns)


def _int_system(P):
    """The integer term map of P and its largest exponents of x and y, the
    arguments of ref_ruppert_rows."""
    return P.nums, P.degx, P.degy


def scan_ruppert_rows(f_terms):
    """ruppert_rows as it was built before the y-ranges: every point of the
    degree box tested for membership in the polygon, and each row read from
    the columns with dict.get."""
    N = support_polygon(f_terms)
    m, n = max(i for i, _ in f_terms), max(j for _, j in f_terms)
    columns = [
        {(i + u, j + v - 1): c * (v - j) for (i, j), c in f_terms.items() if v or j}
        for u in range(m) for v in range(n + 1) if ref_contains(N, (u + 1, v))
    ] + [
        {(i + u - 1, j + v): c * (i - u) for (i, j), c in f_terms.items() if u or i}
        for u in range(m + 1) for v in range(n) if ref_contains(N, (u, v + 1))
    ]
    monomials = sorted({e for col in columns for e in col}, key=lambda e: (-e[0] - e[1], -e[0]))
    index = {e: k for k, e in enumerate(monomials)}
    columns.sort(key=lambda col: min(map(index.__getitem__, col), default=len(index)))
    return [[col.get(e, 0) for col in columns] for e in monomials], len(columns)


def _pencil_halves(P):
    """The term maps of the pencil's base and unit rows: P without its
    constant term, and 1, both on the support of P plus the origin."""
    nums = {e: n for e, n in P.nums.items() if e != (0, 0)}
    return {**nums, (0, 0): 0}, {**dict.fromkeys(nums, 0), (0, 0): 1}


def _count_p(rows, ncols, p=None):
    return ncols - fibre.rank_mod_p(rows, p or fibre.MODULAR_PRIME)


def _count_q(rows, ncols):
    return ncols - fibre.rat_eliminate(rows)


def _squarefree_terms(f_terms):
    f = BiPoly({e: rat(c) for e, c in f_terms.items() if c})
    return not f.is_constant() and bipoly_squarefree_part(f)[1]


def _mod_p_updates(rows, p):
    """(rank, updates) of the elimination that rank_mod_p runs, counting one
    update per entry of a pivot row's tail and per row below it with a
    nonzero entry in the pivot column."""
    mat = [[int(x) % p for x in row] for row in rows]
    n, rank, updates = len(mat), 0, 0
    for col in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(rank, n) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        prow = mat[rank]
        inv = pow(prow[col], -1, p)
        ptail = [(k, x * inv % p) for k, x in enumerate(prow[col + 1:], col + 1) if x]
        for ri in mat[rank + 1:]:
            c = ri[col]
            if c:
                updates += len(ptail)
                for k, x in ptail:
                    ri[k] = (ri[k] - c * x) % p
        rank += 1
    return rank, updates


# fibre-workload families at small size: y^m - h(x), products of lines and
# of coordinates, and small univariate and monomial cases
RUPPERT_TEXTS = [
    "y^2 - x^5 + 3*x^2 - x - 2", "y^3 - 2*x^4 - x^3 + x - 1",
    "y^2 - x^7 - x^3 + 2*x - 5", "y^3 - x^5 - 4*x + 1",
    "(x + 2*y - 1)*(3*x - y + 2)", "(x + 2*y - 1)*(3*x - y + 2)*(x - y + 1/2)",
    "(x + 2*y - 1)*(3*x - y + 2)*(x - y + 1/2)*(2*x + 5*y - 3)",
    "(y - x^2 + 1)*(x + y^3 + 2*y - 1)", "(x + 2*y)*(y - x^2 + 1)*(x - y^2 + 3)",
    "x^3 - x", "x*y", "y - x^2", "x^2*y^2 + x + y + 1",
]


def _small_generator_coordinates():
    """The first four generator coordinates with degree 3 or 4 in x or y."""
    out = []
    for s in range(100):
        P = gen_random_coordinate(s, 2, 3, 3)[0]
        if max(P.degx, P.degy) in (3, 4):
            out.append(P)
        if len(out) == 4:
            return out
    raise AssertionError("too few small generator coordinates")


def _graded(e):
    return -e[0] - e[1], -e[0]


class TestRuppertOrder:
    """The columns of ruppert_rows are the columns of ref_ruppert_rows whose
    unknowns lie in the Newton polygon, with the rows in graded order; on a
    squarefree f its count ncols - rank is that of the box, and elimination
    fills it in less."""

    @staticmethod
    def _random_systems():
        """Random integer term maps, zero values included, and their largest
        exponents."""
        rng, systems = random.Random(15), []
        for _ in range(40):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            terms = {(i, j): rng.choice([-9, -2, -1, 0, 1, 3, 8])
                     for i in range(a + 1) for j in range(b + 1) if rng.random() < 0.4}
            if terms:
                systems.append((terms, max(i for i, _ in terms), max(j for _, j in terms)))
        return systems

    @classmethod
    def _corpus(cls):
        polys = _small_generator_coordinates() + [FERMAT5_IMAGE]
        polys += [parse_poly(t) for t in RUPPERT_TEXTS]
        return [_int_system(P) for P in polys] + cls._random_systems()

    @staticmethod
    def _sub_pair(f_terms, m, n):
        """The matrices of ruppert_rows and ref_ruppert_rows with their column
        counts, once the first is checked to be the columns of the second
        whose unknowns lie in the polygon, a sub-multiset of them, with the
        rows in graded order."""
        rows, ncols = fibre.ruppert_rows(f_terms)
        ref, ref_ncols = ref_ruppert_rows(f_terms, m, n)
        columns = _ref_ruppert_columns(f_terms, m, n)
        N = support_polygon(f_terms)
        kept = [col for (kind, u, v), col in zip(_ref_unknowns(m, n), columns)
                if ref_contains(N, (u + 1, v) if kind == "g" else (u, v + 1))]
        graded = sorted({e for col in columns for e in col}, key=_graded)
        at = sorted({e for col in kept for e in col}, key=_graded)
        assert len(ref) == len(graded) and len(rows) == len(at)
        padded = Counter(
            tuple(dict(zip(at, (r[k] for r in rows))).get(e, 0) for e in graded)
            for k in range(ncols)
        )
        assert padded == Counter(tuple(col.get(e, 0) for e in graded) for col in kept)
        assert padded <= Counter(tuple(col.get(e, 0) for e in graded) for col in columns)
        return (rows, ncols), (ref, ref_ncols)

    def test_sub_matrix_and_counts(self):
        # equal counts where f is squarefree; elsewhere the polygon kernel is
        # still a subspace of the box kernel
        squarefree = 0
        for f_terms, m, n in self._corpus():
            system, ref = self._sub_pair(f_terms, m, n)
            if _squarefree_terms(f_terms):
                squarefree += 1
                assert _count_p(*system) == _count_p(*ref), (f_terms, m, n)
                assert _count_q(*system) == _count_q(*ref), (f_terms, m, n)
            else:
                assert _count_p(*system) <= _count_p(*ref), (f_terms, m, n)
                assert _count_q(*system) <= _count_q(*ref), (f_terms, m, n)
        assert squarefree >= 40

    def test_unipoly_terms(self):
        # the entries in Q[c] of P - c, as _rational_rank_drop_det builds them
        from jaccoord.qpoly import UniPoly

        probe = rat(17, 3)
        for text in TestPolarLimits.INPUTS:
            P = parse_poly(text)
            terms = {e: UniPoly.const(c) for e, c in P.items()}
            terms[(0, 0)] = terms.get((0, 0), UniPoly.zero()) + UniPoly([0, -1])
            pair = self._sub_pair(terms, P.degx, P.degy)
            at = [([[u.eval(probe) if isinstance(u, UniPoly) else u for u in r] for r in mat], ncols)
                  for mat, ncols in pair]
            assert _count_q(*at[0]) == _count_q(*at[1]), text

    def test_fill_in_at_most_half(self):
        # the mod-p elimination of the graded matrices needs at most half the
        # inner updates of the lex-ordered ones on the fibre families
        polys = _small_generator_coordinates() + [FERMAT4_IMAGE, FERMAT5_IMAGE]
        polys += [parse_poly(t) for t in RUPPERT_TEXTS]
        p = fibre.MODULAR_PRIME
        graded = reference = 0
        for P in polys:
            f_terms, m, n = _int_system(P)
            ref, ref_ncols = ref_ruppert_rows(f_terms, m, n)
            rows, ncols = fibre.ruppert_rows(f_terms)
            rank, updates = _mod_p_updates(rows, p)
            ref_rank, ref_updates = _mod_p_updates(ref, p)
            assert ref_rank == fibre.rank_mod_p(ref, p)
            assert ncols - rank == ref_ncols - ref_rank
            graded, reference = graded + updates, reference + ref_updates
        assert reference > 10_000
        assert 2 * graded <= reference, (graded, reference)

    def test_rows_of_the_membership_scan(self):
        # the y-range builder gives the rows and the column order of the
        # membership scan it replaced, on this corpus, the polygon corpus,
        # and the base and unit halves of their pencils
        maps = [f_terms for f_terms, _, _ in self._corpus()]
        polys = _small_generator_coordinates() + TestRuppertPolygon._polys() + [FERMAT4_IMAGE, FERMAT5_IMAGE]
        maps += [_int_system(P)[0] for P in polys]
        maps += [half for P in polys for half in _pencil_halves(P)]
        assert len(maps) >= 150
        for f_terms in maps:
            assert fibre.ruppert_rows(f_terms) == scan_ruppert_rows(f_terms), f_terms


class TestRuppertPolygon:
    """The count of ruppert_rows on the Newton polygon against the count of
    the degree box of ref_ruppert_rows, on squarefree f."""

    TEXTS = [
        "y^2 - x^2", "(x + 2*y - 1)*(3*x - y + 2)*(x - y + 1/2)",
        "x*y*(x + y - 1)", "x*(y - x^2)", "x^2 + y^2",
        "x^3 - x", "x*y - 1", "(x*y)^2 + x*y + 1", "x^2*y^2 - 1", "y^3 - y",
    ]

    @staticmethod
    def _polys():
        """Reducible fibres and segments, generator coordinates and their
        products, each also with its constant term removed."""
        coords = [gen_random_coordinate(s, 1 + s % 2, 2, 3)[0] for s in range(4)]
        polys = [parse_poly(t) for t in TestRuppertPolygon.TEXTS] + coords + [FERMAT4_IMAGE]
        big = _small_generator_coordinates()
        polys += [coords[0] * coords[1], coords[2] * coords[3], coords[0] * parse_poly("x - y")]
        polys += [big[0] * big[1], big[2] * parse_poly("x + y + 1")]
        polys += [P - BiPoly.const(P.constant_term()) for P in polys if P.constant_term()]
        return [P for P in polys if bipoly_squarefree_part(P)[1]]

    def test_corpus(self):
        polys = self._polys()
        segments = sum(newton_polygon(P).dim < 2 for P in polys)
        reducible = sum(absolute_factor_count(P) > 1 for P in polys)
        zero_constant = sum(P.constant_term() == 0 for P in polys)
        assert (len(polys), segments, reducible, zero_constant) == (32, 7, 16, 19)

    def test_counts_equal_the_box(self):
        systems = [_int_system(P) for P in self._polys()]
        systems += [s for s in TestRuppertOrder._random_systems() if _squarefree_terms(s[0])]
        for f_terms, m, n in systems:
            box = ref_ruppert_rows(f_terms, m, n)
            system = fibre.ruppert_rows(f_terms)
            count = _count_q(*box)
            assert _count_q(*system) == count >= 1, f_terms
            assert _count_p(*system) == _count_p(*box), f_terms
            for p in (2, 3):
                assert count <= _count_p(*system, p) <= _count_p(*box, p), (f_terms, p)

    def test_segments_take_their_polygon(self):
        # a segment keeps the columns of the box whose unknowns lie on it, as
        # a polygon does: 2 of 4 at x*y - 1 and 4 of 12 at x^2*y^2 - 1, with
        # the counts of the box on these squarefree f
        systems = [s for s in map(_int_system, self._polys()) if support_polygon(s[0]).dim < 2]
        fewer = 0
        for f_terms, m, n in systems:
            system, box = TestRuppertOrder._sub_pair(f_terms, m, n)
            assert _count_q(*system) == _count_q(*box), f_terms
            fewer += system[1] < box[1]
        assert (len(systems), fewer) == (7, 5)

    def test_pencil_at_the_constant_term(self):
        # c = P(0, 0): the fibre has no constant term, the pencil keeps the
        # polygon of P.  Only squarefree fibres count factors: at c = -1 of
        # x^2*y^2 - 1 the pencil counts 3 and the box 5
        squarefree = 0
        for P in self._polys():
            c = P.constant_term()
            if c == 0 or not bipoly_squarefree_part(P - BiPoly.const(c))[1]:
                continue
            squarefree += 1
            box = ref_ruppert_rows(*_int_system(P - BiPoly.const(c)))
            assert fibre._ruppert_pencil(P)(c) == _count_p(*box) == _count_q(*box), P
        assert squarefree == 12


class TestAbsoluteFactorCount:
    def test_fixed_triple(self):
        assert absolute_factor_count(parse_poly("y^2 - x^2")) == 2
        assert absolute_factor_count(parse_poly("y - x^2")) == 1
        # irreducible over Q but splits over C
        assert absolute_factor_count(parse_poly("x^2 + y^2")) == 2

    def test_univariate_inputs(self):
        assert absolute_factor_count(parse_poly("x^3 - x")) == 3
        assert absolute_factor_count(parse_poly("x*y")) == 2

    def test_rejects_non_squarefree(self):
        with pytest.raises(NotSquarefreeError):
            absolute_factor_count(parse_poly("(y - x)^2"))

    def test_additivity_on_coprime_products(self):
        rng = random.Random(40)
        parts = [
            parse_poly("y - x^2"),
            parse_poly("y + x + 1"),
            parse_poly("x*y - 1"),
            parse_poly("y^2 - x^3 - x - 1"),
        ]
        for _ in range(10):
            chosen = rng.sample(parts, rng.randint(1, 3))
            prod = BiPoly.const(1)
            total = 0
            for f in chosen:
                prod = prod * f
                total += absolute_factor_count(f)
            assert absolute_factor_count(prod) == total

    @pytest.mark.parametrize("prime", [2, 3])
    def test_exact_path_answers_when_the_prime_divides(self, monkeypatch, prime):
        # a small prime divides Ruppert minors, so count_p > count_Q occurs
        # and only the exact elimination can give the counts asserted here
        monkeypatch.setattr(fibre, "MODULAR_PRIME", prime)
        rank_p, rank_q = fibre.rank_mod_p, fibre.rat_eliminate
        last, drops = [], []

        def counted_rank_p(rows, p):
            last.append(rank_p(rows, p))
            return last[-1]

        def counted_rank_q(rows):
            out = rank_q(rows)
            drops.append(out > last[-1])
            return out

        monkeypatch.setattr(fibre, "rank_mod_p", counted_rank_p)
        monkeypatch.setattr(fibre, "rat_eliminate", counted_rank_q)
        self.test_fixed_triple()
        self.test_univariate_inputs()
        self.test_additivity_on_coprime_products()
        assert any(drops)

    def test_exact_elimination_only_above_one(self, monkeypatch):
        calls = []
        rank_q = fibre.rat_eliminate
        monkeypatch.setattr(fibre, "rat_eliminate", lambda rows: calls.append(1) or rank_q(rows))
        assert absolute_factor_count(parse_poly("y - x^2")) == 1
        assert calls == []
        assert absolute_factor_count(parse_poly("y^2 - x^2")) == 2
        assert calls == [1]

    def test_pencil_matches_rows_of_each_fibre(self):
        # the pencil's count at c is that of the Ruppert rows of P - c, for
        # constant terms zero and nonzero, c = P(0, 0) and denominators 1-4
        rng = random.Random(42)
        polys = [gen_random_coordinate(s, 1 + s % 2, 2, 3)[0] for s in range(4)]
        polys += [parse_poly("x^2*y^2 + x + y"), parse_poly("(x^2 + y)^2 + (x^2 + y)")]
        polys += [FERMAT5_IMAGE]
        assert {P.constant_term() == 0 for P in polys} == {True, False}
        for P in polys:
            pencil = fibre._ruppert_pencil(P)
            cs = [rat(rng.randint(-9, 9), b) for b in (1, 2, 3, 4)] + [P.constant_term()]
            for c in cs:
                f = P - BiPoly.const(c)
                rows, ncols = fibre.ruppert_rows(f.nums)
                assert pencil(c) == ncols - fibre.rank_mod_p(rows, fibre.MODULAR_PRIME)

    def test_pencil_refuses_denominators_divisible_by_the_prime(self, monkeypatch):
        monkeypatch.setattr(fibre, "MODULAR_PRIME", 3)
        pencil = fibre._ruppert_pencil(parse_poly("y - x^2 + 1/2"))
        assert pencil(rat(1, 3)) is None
        assert pencil(rat(1, 2)) == 1

    def test_linear_change_invariance(self):
        rng = random.Random(41)
        f = parse_poly("y^2 - x^2 + 1")
        n = absolute_factor_count(f)
        for _ in range(5):
            L = _rand_linear(rng, 3)
            lx, ly = L.components()
            assert absolute_factor_count(substitute(f, lx, ly)) == n


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py as a module, imported without writing
    bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench/workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return workloads


def _constant_term_rows(P):
    """The number of rows of the Ruppert system of P - c that its constant
    term reaches, the nonzero rows of the pencil's unit half, and the
    number of rows of that system."""
    unit = fibre.ruppert_rows(_pencil_halves(P)[1])[0]
    return sum(any(row) for row in unit), len(unit)


class TestSchurPencil:
    """The pencil ranks, per sample, only the rows that the constant term
    reaches, reduced modulo the c-free rows once per P; its count is that of
    the full Ruppert rows of P - c."""

    @staticmethod
    def _polys():
        """Seeded random P of degree 1-6, coefficients a/b with |a| <= 4 and
        b <= 3, each monomial kept with probability 1/2; two-step generator
        coordinates; a reducible pencil and a reducible fibre."""
        rng, polys = random.Random(28), []
        while len(polys) < 300:
            d = rng.randint(1, 6)
            P = BiPoly({(i, j): rat(rng.randint(-4, 4), rng.randint(1, 3))
                        for i in range(d + 1) for j in range(d + 1 - i) if rng.random() < 0.5})
            if not P.is_constant():
                polys.append(P)
        polys += [gen_random_coordinate(s, 2, 3, 3)[0] for s in range(40)]
        return polys + [parse_poly("x*y"), parse_poly("(y - x^2)*(y + x^3 + 1)")]

    def test_count_is_that_of_the_full_rows(self):
        rng, samples, above = random.Random(29), 0, 0
        for P in self._polys():
            pencil = fibre._ruppert_pencil(P)
            cs = {P.constant_term(), rat(0), rat(1), rat(-1, 2), rat(rng.randint(-9, 9), rng.randint(1, 4))}
            for c in sorted(cs):
                rows, ncols = fibre.ruppert_rows((P - BiPoly.const(c)).nums)
                count = pencil(c)
                assert count == ncols - fibre.rank_mod_p(rows, fibre.MODULAR_PRIME), (P, c)
                samples, above = samples + 1, above + (count > 1)
        assert samples >= 1400 and above >= 100, (samples, above)

    def test_blocks_are_the_rows_the_constant_term_reaches(self, monkeypatch):
        # the matrices the pencil ranks on the benchmark's audit families,
        # seed 11: never more rows than the constant term reaches, and on the
        # generator coordinates under a third of the rows of the full system
        items = _perfbench_workloads(monkeypatch).audit_items(11)
        blocks, sampling, rank_p, pencil_of = [], [], fibre.rank_mod_p, audit._ruppert_pencil

        def rank(rows, p):
            if sampling:
                blocks.append((sampling[-1], len(rows)))
            return rank_p(rows, p)

        def pencil(P):
            count = pencil_of(P)

            def sampled(c):
                sampling.append(P)
                try:
                    return count(c)
                finally:
                    sampling.pop()

            return sampled

        monkeypatch.setattr(fibre, "rank_mod_p", rank)
        monkeypatch.setattr(audit, "_ruppert_pencil", pencil)
        generators = 0
        for item in items:
            P, blocks[:] = parse_poly(item.texts[0]), []
            theorem3_scan(P, *item.args)
            reached, full = _constant_term_rows(P)
            assert len(blocks) >= 8 and all(Q is P for Q, _ in blocks), item.label
            assert all(n <= reached for _, n in blocks), (item.label, blocks, reached)
            if item.label.startswith("gen"):
                generators += 1
                assert all(3 * n < full for _, n in blocks), (item.label, blocks, full)
        assert (len(items), generators) == (10, 5)


class TestFibrePencil:
    """For c != P(0, 0), the Newton polygon of P - c is that of P, so
    _fibre_pencil reads the genus, the branches and the faces away from the
    origin once per P.  With the factor count held at 1, so that any P and c
    qualify, its report at c must be _fibre_tail's on P - c, whose face
    verdict, polygon, genus and branches are computed on P - c itself."""

    TEXTS = [
        "x^2 + 2*x + 1 + x*y^2 + y^3",  # the face on the x-axis is (x + 1)^2 at c = 0
        "(y - x^2)^2 + x + 1",  # the top face is a square for every c
        "x*y + x^3 + y^2",  # no constant term
        "x^2*y + 2*x^4*y^2",  # a segment without a constant term
        "3*x*y^2 + x^2*y^4 + 1",  # a segment
        "(x*y - 1)^2",  # a segment whose origin face is (t - 1)^2 at c = 0
        "y^2 - x^3 - x",
        "x",
    ]

    @staticmethod
    def _random(rng):
        if rng.random() < 0.2:  # a segment: terms along one ray from the origin
            p, q = rng.choice([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 3)])
            keys = rng.sample(range(1, 5), rng.randint(1, 3)) + [0] * rng.randint(0, 1)
            terms = {(k * p, k * q): rat(rng.randint(-5, 5) or 1, rng.randint(1, 3)) for k in keys}
        else:
            d = rng.randint(2, 5)
            mons = [(i, j) for i in range(d + 1) for j in range(d + 1 - i) if (i, j) != (0, 0) or rng.random() < 0.5]
            terms = {e: rat(rng.randint(-5, 5) or 1, rng.randint(1, 3)) for e in rng.sample(mons, rng.randint(2, min(6, len(mons))))}
        return BiPoly(terms)

    @staticmethod
    def _square_face_values(P):
        """The c that make a length-2 face through the origin a square."""
        out = []
        for face in edge_faces(P, newton_polygon(P)):
            e = face["e"]
            if face["full_length"] == 2 and e[1] != 0 and (0, 0) in (face["v0"], face["v1"]):
                far = e[2] if face["v0"] == (0, 0) else e[0]
                out.append(P.constant_term() - e[1] ** 2 / (4 * far))
        return out

    def test_matches_each_fibre(self):
        rng = random.Random(67)
        polys = [parse_poly(t) for t in self.TEXTS] + [self._random(rng) for _ in range(200)]
        seen = Counter()
        for P in polys:
            if P.is_constant():
                continue
            report = fibre._fibre_pencil(P, lambda c: 1)
            cs = {rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)} | {rat(0)}
            for c in (cs | set(self._square_face_values(P))) - {P.constant_term()}:
                f = P - BiPoly.const(c)
                N = newton_polygon(f)
                assert N == newton_polygon(P), (P, c)
                got = report(c)
                assert got == fibre._fibre_tail(c, f, True, 1, fibre._faces_nondegenerate), (P, c)
                assert got.nondegenerate == fibre._faces_nondegenerate(f, N), (P, c)
                if got.nondegenerate:
                    assert got.branches_at_infinity == fibre._branches_tail(N), (P, c)
                    assert got.genus == (lattice_counts(N)[0] if N.dim == 2 else Unknown("SegmentPolygon"))
                seen["segment"] += N.dim == 1
                seen["no_constant"] += P.constant_term() == 0
                seen[got.nondegenerate] += 1
                seen["origin_face"] += c in self._square_face_values(P) and not got.nondegenerate
        assert min(seen[k] for k in ("segment", "no_constant", True, False, "origin_face")) >= 20, seen

    def test_counts_other_than_one_take_the_general_path(self):
        # a reducible count, and c = P(0, 0), read fibre_report's gates
        P = parse_poly("(x^2 + y)^2 + (x^2 + y) + 1/2")
        report = fibre._fibre_pencil(P, fibre._ruppert_pencil(P))
        for c in (rat(7, 3), rat(1, 2), rat(0)):
            assert report(c) == fibre_report(P, c)
        assert report(rat(7, 3)).abs_factor_count == 2
        P = parse_poly("y^2 - x^3 - x + 1/2")
        s = fibre._fibre_pencil(P, fibre._ruppert_pencil(P))(rat(1, 2))
        assert s == fibre_report(P, rat(1, 2))
        assert s.genus == 1 and s.branches_at_infinity == Unknown("ZeroConstantTerm")


class TestNondegenerate:
    def test_smooth_elliptic(self):
        assert nondegenerate(parse_poly("y^2 - x^3 - x - 1")) is True

    def test_cusp_missing_endpoint(self):
        assert nondegenerate(parse_poly("y^2 - x^3")) is False

    def test_square_face_fails(self):
        # hypotenuse face (y - x)^2 has a repeated torus root
        assert nondegenerate(parse_poly("(y - x)^2 + x")) is False

    def test_parabola(self):
        assert nondegenerate(parse_poly("y - x^2 + 1")) is True


class TestGenus:
    def test_elliptic(self):
        assert genus(parse_poly("y^2 - x^3 - x - 1")) == 1

    def test_parabola(self):
        assert genus(parse_poly("y - x^2 + 1")) == 0

    def test_cusp_is_unknown(self):
        g = genus(parse_poly("y^2 - x^3"))
        assert isinstance(g, Unknown)

    def test_shift_handles_zero_constant_term(self):
        # smooth curve through the origin; the shift supplies a constant term
        g = genus(parse_poly("y - x^2"))
        assert g == 0

    def test_hyperelliptic(self):
        # y^2 = degree-5 squarefree: interior points of the (5,2) triangle
        g = genus(parse_poly("y^2 - x^5 - x - 2"))
        assert g == 2

    # degenerate and reducible: fibre_report's gates name Reducible first
    DEGENERATE_REDUCIBLE = ["-3*x*y", "-3*x^3 - 3/2*x^2*y + 2*x^2 + x*y"]

    @staticmethod
    def _random(rng):
        """Degree <= 3, small coefficients, a zero constant term half of the
        time: reducible, degenerate and shifted fibres all occur."""
        terms = {(i, j): rat(rng.randint(-3, 3), rng.choice([1, 2]))
                 for i in range(4) for j in range(4 - i) if rng.random() < 0.5}
        if rng.random() < 0.5:
            terms.pop((0, 0), None)
        return BiPoly(terms)

    def test_shares_the_gates_of_fibre_report(self):
        rng = random.Random(7)
        polys = [parse_poly(t) for t in self.DEGENERATE_REDUCIBLE] + [self._random(rng) for _ in range(150)]
        polys = [f for f in polys if not f.is_constant() and bipoly_squarefree_part(f)[1]]
        genera = [genus(f) for f in polys]
        assert genera == [fibre_report(f, rat(0)).genus for f in polys]
        assert genera[:2] == [Unknown("Reducible")] * 2
        reasons = Counter(g.reason for g in genera if isinstance(g, Unknown))
        assert len(polys) == 146 and set(reasons) == {"Reducible", "Degenerate", "SegmentPolygon"}, reasons

    def test_not_squarefree(self):
        assert genus(parse_poly("(y - x^2)^2")) == Unknown("NotSquarefree")


def _ref_branches_tail(f):
    """Reference count of the places at infinity: a polygon's edges by
    their outward normal, and a segment f = e(x^p y^q) as the degree of the
    squarefree part of e, doubled off the axes."""
    N = newton_polygon(f)
    if N.dim == 2:
        total = 0
        for v0, v1 in N.edges():
            ux, uy = v1[0] - v0[0], v1[1] - v0[1]
            if uy > 0 or -ux > 0:
                total += gcd(abs(ux), abs(uy))
        return total
    face = edge_faces(f, N)[0]
    e, (p, q) = face["e"], face["dir"]
    return (e.deg - e.gcd(e.derivative()).deg) * (2 if p >= 1 and q >= 1 else 1)


class TestBranches:
    # h(x^a y^b) on both axes and on slanted directions
    DIRECTIONS = [(1, 0), (2, 0), (0, 1), (0, 3), (1, 1), (1, 2), (3, 1), (2, 2), (2, 3)]

    @staticmethod
    def _segment(rng, a, b):
        """h(x^a y^b) for a random h of degree 1-3 with h(0) != 0."""
        h = [rat(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))]
        h += [rat(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(rng.randint(1, 3))]
        h[-1] = h[-1] or rat(1)
        return BiPoly({(a * k, b * k): c for k, c in enumerate(h) if c})

    def test_vertex_cycle_matches_the_segment_formula(self):
        rng = random.Random(11)
        polys = [self._segment(rng, a, b) for _ in range(12) for a, b in self.DIRECTIONS]
        polys += [TestGenus._random(rng) for _ in range(500)]
        polys = [f for f in polys if not f.is_constant() and f.constant_term() != 0 and nondegenerate(f)]
        kinds = Counter(
            "polygon" if N.dim == 2 else "slanted" if min(N.vertices[1]) else "axis"
            for N in map(newton_polygon, polys)
        )
        assert kinds == {"axis": 55, "slanted": 65, "polygon": 97}, kinds
        for f in polys:
            assert fibre._branches_tail(newton_polygon(f)) == _ref_branches_tail(f) == branches_at_infinity(f), f

    @pytest.mark.parametrize(
        "text, h", [("x^2 - 3*x + 2", 2), ("x^2*y^2 - 3*x*y + 2", 4), ("y^3 - 1", 3)]
    )
    def test_no_irreducibility_gate(self, text, h):
        f = parse_poly(text)
        assert branches_at_infinity(f) == h
        r = fibre_report(f, rat(0))
        assert r.genus == r.branches_at_infinity == Unknown("Reducible")

    def test_elliptic_one_branch(self):
        assert branches_at_infinity(parse_poly("y^2 - x^3 - x - 1")) == 1

    def test_hyperbola_two_branches(self):
        assert branches_at_infinity(parse_poly("x*y - 1")) == 2

    def test_parabola_one_branch(self):
        assert branches_at_infinity(parse_poly("y - x^2 + 1")) == 1

    def test_zero_constant_term_unknown(self):
        b = branches_at_infinity(parse_poly("x*y"))
        assert isinstance(b, Unknown)

    def test_line(self):
        assert branches_at_infinity(parse_poly("y - x - 1")) == 1

    def test_degenerate_top_face(self):
        # the top face (y - x)^2 is not squarefree, so the face count is refused
        P = parse_poly("x^2 - 2*x*y + y^2 + x + 1")
        assert branches_at_infinity(P) == Unknown("Degenerate")
        r = fibre_report(P, rat(0))
        assert r.genus == r.branches_at_infinity == Unknown("Degenerate")


class TestFibreReport:
    def test_constant_rejected(self):
        with pytest.raises(ConstantInputError):
            fibre_report(parse_poly("5"), rat(0))

    def test_reducible_fibre(self):
        r = fibre_report(parse_poly("x*y"), rat(0))
        assert r.abs_factor_count == 2
        assert isinstance(r.genus, Unknown)

    def test_irreducible_hyperbola_fibre(self):
        r = fibre_report(parse_poly("x*y"), rat(1))
        assert r.abs_factor_count == 1
        # segment polygon: the lattice genus formula does not apply
        assert r.genus == Unknown("SegmentPolygon")
        assert r.branches_at_infinity == 2

    def test_elliptic_fibre(self):
        r = fibre_report(parse_poly("y^2 - x^3 - x"), rat(1))
        assert r.abs_factor_count == 1
        assert r.genus == 1
        assert r.branches_at_infinity == 1

    def test_multiplicity_flag(self):
        r = fibre_report(parse_poly("(y - x)^2 + 1"), rat(1))
        assert not r.multiplicity_reduced

    def test_relation_on_coordinate_fibre(self):
        r = fibre_report(parse_poly("y + x^3"), rat(2))
        assert r.genus == 0
        assert r.branches_at_infinity == 1

    def test_each_invariant_computed_once(self, monkeypatch):
        # c = 1 reads genus and branches from one polynomial; c = 0 shifts;
        # the one squarefree test is the squarefree part itself
        names = ("bipoly_squarefree_part", "_factor_count", "nondegenerate")
        for c in (rat(1), rat(0)):
            calls = dict.fromkeys(names, 0)
            for name in calls:

                def counted(f, *rest, _orig=getattr(fibre, name), _name=name):
                    calls[_name] += 1
                    return _orig(f, *rest)

                monkeypatch.setattr(fibre, name, counted)
            fibre_report(parse_poly("y^2 - x^3 - x"), c)
            monkeypatch.undo()
            assert calls == dict.fromkeys(names, 1)

    def test_dense_degree_twelve(self):
        # all 91 monomials of degree <= 12: a smooth curve of genus 55 with
        # 12 points at infinity; its torus pre-test takes the gcd of two
        # coprime resultants of degree 132 with 147- and 152-bit numerators
        rng = random.Random(0)
        P = BiPoly({(i, d - i): rat(rng.randint(1, 9)) for d in range(13) for i in range(d + 1)})
        r = fibre_report(P, rat(1, 3))
        assert (r.abs_factor_count, r.multiplicity_reduced, r.nondegenerate) == (1, True, True)
        assert (r.genus, r.branches_at_infinity) == (55, 12)


class TestSpecialValues:
    def test_cusp_names_zero(self):
        sv = special_value_candidates(parse_poly("y^2 - x^3"))
        assert rat(0) in sv.rational_candidates

    def test_product_names_zero(self):
        sv = special_value_candidates(parse_poly("x*y"))
        assert rat(0) in sv.rational_candidates

    def test_coordinate_x_has_no_candidates(self):
        sv = special_value_candidates(parse_poly("x"))
        assert sv.rational_candidates == ()
        assert sv.irrational_witnesses == ()

    def test_value_at_infinity_route(self):
        # x + x^2*y has no critical point, yet its fibre at c = 0 splits as
        # x*(1 + x*y): 0 is a value at infinity
        sv = special_value_candidates(parse_poly("x + x^2*y"))
        assert rat(0) in sv.rational_candidates

    def test_fermat_quintic_critical_value(self):
        # x^5 + y^5 + 1 has one critical point, (0, 0), so c = 1 is its only
        # critical value, and an affine image keeps it; about 0.02 s
        assert special_value_candidates(FERMAT5_IMAGE).rational_candidates == (rat(1),)

    def test_irrational_witnesses_reported(self):
        sv = special_value_candidates(parse_poly("y^2 - x^3 - x - 1"))
        assert sv.rational_candidates == ()
        assert len(sv.irrational_witnesses) >= 1
        from jaccoord.elim import rational_roots

        for m in sv.irrational_witnesses:
            assert rational_roots(m) == []

    def test_determinism(self):
        P = parse_poly("y^2 - x^3 - x")
        assert special_value_candidates(P) == special_value_candidates(P)

    @pytest.mark.parametrize(
        "text, rational, irrational",
        [
            # critical lines: the chain ends on G = gcd(Q_x, Q_y) = Q_y (the
            # first two are sheared with t = 1), and the values are those of
            # Q on G over x = 0
            ("x^3 - 3*x", ["-2", "2"], []),
            ("x^3 + x", [], ["c^2 + 4/27"]),
            ("y^3 - 3*y", ["-2", "2"], []),
            ("y^2 - 1", ["-1"], []),
            # one piece with k = 3: three critical points over one x0
            ("x^2*y^2 + x + y + 1", [], ["c^3 - 3*c^2 + 3*c + 11/16"]),
            # shape position, k = 1 only
            ("y^2 - x^3 - x", [], ["c^2 + 4/27"]),
            ("(y - x^2)*(y + x^3 + 1)", ["-961/2916", "-1/4", "0"], []),
        ],
    )
    def test_exact_outputs(self, text, rational, irrational):
        from jaccoord.cli import _j

        assert _j(special_value_candidates(parse_poly(text))) == {
            "rational_candidates": rational,
            "irrational_witnesses": irrational,
        }

    @staticmethod
    def _routes(P, monkeypatch):
        """(deg G, [(deg T_k, k) for each piece]) of the critical values."""
        calls = []
        values_over = fibre._values_over

        def counted(T, S, Q):
            calls.append((T.deg, len(S) - 1))
            return values_over(T, S, Q)

        monkeypatch.setattr(fibre, "_values_over", counted)
        special_value_candidates(P)
        Q = fibre._shear(P)
        return len(fibre._chain(Q.diff_y(), Q.diff_x())[1][-1][0]) - 1, calls

    def test_shape_position_route(self, monkeypatch):
        # one piece, k = 1: both critical points have their own x
        assert self._routes(parse_poly("y^2 - x^3 - x"), monkeypatch) == (0, [(2, 1)])

    @pytest.mark.parametrize(
        "P, piece",
        [(FERMAT5_IMAGE, (1, 4)), (parse_poly("x^2*y^2 + x + y + 1"), (1, 3))],
    )
    def test_split_piece_route(self, P, piece, monkeypatch):
        # the gcd over one x0 has degree k >= 2: at the Fermat point for
        # every shear, since the point is degenerate, not two points on a line
        assert self._routes(P, monkeypatch) == (0, [piece])

    @pytest.mark.parametrize(
        "text, deg_g", [("y^2 - 1", 1), ("x^3 - 3*x", 2), ("(x + y)^2", 1), ("x^2*y^2", 2)]
    )
    def test_non_isolated_route(self, text, deg_g, monkeypatch):
        # Q_x and Q_y share G; its values are read over x = 0, the first
        # piece; x^2*y^2 also has an isolated critical point
        g, calls = self._routes(parse_poly(text), monkeypatch)
        assert g == deg_g and calls[0] == (1, deg_g)

    def test_degree_budget(self):
        import time

        P, _ = gen_random_coordinate(14, 3, 3, 3)
        assert P.total_degree() > fibre.MAX_SPECIAL_DEGREE
        start = time.perf_counter()
        with pytest.raises(InputTooLarge, match="deg P"):
            special_value_candidates(P)
        assert time.perf_counter() - start < 1

    def test_critical_point_budget(self):
        # 36 isolated critical points, (7 - 1)^2, refused after the chain
        P = parse_poly("x^7 + y^7 + x^3*y^2 - 2*x*y + x + 3*y")
        with pytest.raises(InputTooLarge, match="critical points"):
            special_value_candidates(P)


def _rational_rank_drop_det(P):
    """Reference: the rank-drop determinant on the rational matrix of P - c,
    entries in Q[c], evaluated at each point with rational arithmetic: det(c)
    of a maximal square submatrix that is nonsingular at one of three probes.
    Its roots flag factor-count jumps, and some more.  Which submatrix comes
    first depends on the order of the matrix, and so do the spurious roots,
    so this builds the lex-ordered matrix of ref_ruppert_rows; the pivot
    columns of the matrix and of its transpose at a probe, from sympy's
    reduced row echelon form, pick a submatrix of its rank."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    from jaccoord.elim import rat_det
    from jaccoord.qpoly import UniPoly

    def pivots(M):
        """(rank, pivot rows, pivot columns) of the rational matrix M."""
        D = DomainMatrix([[QQ(v.numerator, v.denominator) for v in r] for r in M], (len(M), len(M[0])), QQ)
        pcol = D.rref()[1]
        return len(pcol), D.transpose().rref()[1], pcol

    terms = {e: UniPoly.const(c) for e, c in P.items()}
    terms[(0, 0)] = terms.get((0, 0), UniPoly.zero()) + UniPoly([0, -1])
    rows, _ = ref_ruppert_rows(terms, P.degx, P.degy)
    rows = [[u if isinstance(u, UniPoly) else UniPoly.zero() for u in r] for r in rows]
    if not rows:
        return None
    probes = [
        pivots([[u.eval(probe) for u in r] for r in rows])
        for probe in (rat(17, 3), rat(-19, 5), rat(23, 7))
    ]
    rank, prow, pcol = max(probes, key=lambda b: b[0])  # the first of maximal rank
    if rank == 0:
        return None
    sub = [[rows[i][j] for j in pcol] for i in prow]
    degbound = sum(max((u.deg for u in r if not u.is_zero()), default=0) for r in sub)
    pts = [(rat(k), rat_det([[u.eval(rat(k)) for u in r] for r in sub])) for k in range(degbound + 1)]
    return _lagrange_interp(pts)


def _lagrange_interp(pts):
    """Reference: the interpolating polynomial through pts in Lagrange form."""
    from jaccoord.qpoly import UniPoly

    out = UniPoly.zero()
    for k, (xk, yk) in enumerate(pts):
        if yk == 0:
            continue
        num = UniPoly.const(1)
        den = rat(1)
        for j, (xj, _) in enumerate(pts):
            if j == k:
                continue
            num = num * UniPoly([-xj, rat(1)])
            den = den * (xk - xj)
        out = out + num * (yk / den)
    return out


class TestPolarLimits:
    INPUTS = [
        "y^2 - x^3", "x*y", "x", "x + x^2*y", "y^2 - x^3 - x - 1", "y^2 - x^3 - x",
        "x^3 - 3*x", "x^3 + x", "y^3 - 3*y", "y^2 - 1", "x^2*y^2 + x + y + 1",
        "(y - x^2)*(y + x^3 + 1)",
    ]

    @staticmethod
    def _random(rng):
        """Degree <= 3, coefficients with mixed denominators, and a zero
        constant term half of the time."""
        terms = {(i, j): rat(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 10]))
                 for i in range(4) for j in range(4 - i) if rng.random() < 0.6}
        if rng.random() < 0.5:
            terms.pop((0, 0), None)
        return BiPoly(terms)

    @pytest.mark.parametrize(
        "text", ["x + x^2*y", "x*(x*y - 1)*(x*y - 2)", "y + x^2*y^2", "x*y^2 + y"]
    )
    def test_names_zero_at_infinity(self, text):
        # none of these has a critical point, so 0 comes from the polar route
        sv = special_value_candidates(parse_poly(text))
        assert sv.rational_candidates == (rat(0),)

    def test_coordinates_have_no_value_at_infinity(self):
        # a coordinate is a trivial fibration, so B-infinity is empty
        for seed in range(20):
            P, _ = gen_random_coordinate(seed, 2, 3, 3)
            limits = fibre._polar_limits(fibre._shear(P))
            assert limits.is_constant() and not limits.is_zero(), seed

    def test_reference_rank_drop_roots_are_generic(self):
        """Each rational root of the rank-drop determinant that the
        candidates leave out has the generic fibre report; the branches
        differ only by the refusal at c = P(0, 0)."""
        from jaccoord.elim import rational_roots

        rng = random.Random(91)
        polys = [parse_poly(t) for t in self.INPUTS]
        polys += [self._random(rng) for _ in range(40)]
        dropped = 0
        for P in polys:
            if P.is_constant():
                continue
            det = _rational_rank_drop_det(P)
            roots = [] if det is None or det.is_constant() else rational_roots(det)
            named = special_value_candidates(P).rational_candidates
            generic_c = next(
                c for c in (rat(k, 7919) for k in range(1, 20))
                if c not in roots and c not in named and c != P.constant_term()
            )
            generic = fibre_report(P, generic_c)
            for c in roots:
                if c in named:
                    continue
                dropped += 1
                rep = fibre_report(P, c)
                assert (rep.abs_factor_count, rep.multiplicity_reduced, rep.genus) == (
                    generic.abs_factor_count, generic.multiplicity_reduced, generic.genus
                ), (P, c)
                if c == P.constant_term():
                    assert rep.branches_at_infinity == Unknown("ZeroConstantTerm"), (P, c)
                else:
                    assert rep.branches_at_infinity == generic.branches_at_infinity, (P, c)
        assert dropped >= 10


def _elimination_critical_factors(P):
    """Reference: the critical factors by elimination, y twice and then x.

    sympy's Res_y(P - c, P_y) and Res_y(P - c, P_x) over Q[x, c] give their
    c-contents, then Res_x of their primitive parts, taken again on the
    cofactors of their gcd when it vanishes; a y-free P is eliminated with x
    and y swapped.  Every critical value is a root, and some more."""
    import sympy

    from jaccoord.elim import bipoly_to_sympy
    from jaccoord.qpoly import UniPoly

    x, y, c = sympy.symbols("x y c")

    def in_c(expr):
        return UniPoly([rat(v.p, v.q) for v in reversed(sympy.Poly(expr, c).all_coeffs())])

    f = bipoly_to_sympy(P)
    if P.degy == 0:
        f = f.subs({x: y, y: x}, simultaneous=True)
    factors, pps = [], []
    for D in (f.diff(y), f.diff(x)):
        R = sympy.resultant(f - c, D, y)
        if R == 0:
            return factors
        cont = sympy.gcd_list(sympy.Poly(R, x).all_coeffs())
        factors.append(in_c(cont))
        pps.append(sympy.cancel(R / cont))
    ppA, ppB = pps
    if sympy.degree(ppA, x) == 0 or sympy.degree(ppB, x) == 0:
        return factors
    R = sympy.resultant(ppA, ppB, x)
    if R == 0:
        G = sympy.gcd(ppA, ppB)
        R = sympy.resultant(sympy.cancel(ppA / G), sympy.cancel(ppB / G), x)
    factors.append(in_c(R))
    return factors


def _product(factors):
    from jaccoord.qpoly import UniPoly

    out = UniPoly.const(1)
    for f in factors:
        out = out * f
    return out


def _critical_product(P):
    """The squarefree part of the product of the critical factors of P."""
    from jaccoord.qpoly import squarefree_part

    return squarefree_part(_product(fibre._critical_factors(fibre._shear(P))))


class TestCriticalValues:
    """The subresultant route against the elimination it replaced, and
    against a lex Groebner basis, which shares no code with either."""

    def test_roots_lie_among_the_reference_roots(self):
        """Every root of the critical factors is a root of the reference,
        and each rational root of the reference that the candidates leave
        out has the generic fibre report."""
        from jaccoord.elim import rational_roots
        from jaccoord.qpoly import squarefree_part

        rng = random.Random(57)
        polys = [parse_poly(t) for t in TestPolarLimits.INPUTS]
        polys += [TestPolarLimits._random(rng) for _ in range(40)]
        polys += [FERMAT4_IMAGE, FERMAT5_IMAGE]
        dropped = tighter = 0
        for P in polys:
            if P.is_constant():
                continue
            reference = _elimination_critical_factors(P)
            exact, superset = _critical_product(P), squarefree_part(_product(reference))
            assert superset.divmod(exact)[1].is_zero(), P
            tighter += superset.deg > exact.deg
            named = special_value_candidates(P).rational_candidates
            roots = sorted({c for f in reference if not f.is_constant() for c in rational_roots(f)})
            generic_c = next(
                c for c in (rat(k, 7919) for k in range(1, 20))
                if c not in roots and c not in named and c != P.constant_term()
            )
            generic = fibre_report(P, generic_c)
            for c in roots:
                if c in named:
                    continue
                dropped += 1
                rep = fibre_report(P, c)
                assert (rep.abs_factor_count, rep.multiplicity_reduced, rep.genus) == (
                    generic.abs_factor_count, generic.multiplicity_reduced, generic.genus
                ), (P, c)
                if c == P.constant_term():
                    assert rep.branches_at_infinity == Unknown("ZeroConstantTerm"), (P, c)
                else:
                    assert rep.branches_at_infinity == generic.branches_at_infinity, (P, c)
        assert dropped >= 1 and tighter >= 20, (dropped, tighter)

    def test_groebner_oracle(self):
        """The c-generator of the lex Groebner basis of {P - c, P_x, P_y}
        has the critical values as roots: its squarefree part is the
        squarefree product of the critical factors, up to a scalar."""
        import sympy
        from jaccoord.elim import bipoly_to_sympy
        from test_elim import unipoly_to_sympy

        x, y, c = sympy.symbols("x y c")
        rng = random.Random(23)
        polys = [parse_poly(t) for t in TestPolarLimits.INPUTS if parse_poly(t).total_degree() <= 4]
        polys += [TestPolarLimits._random(rng) for _ in range(30)]
        for P in polys:
            if P.is_constant():
                continue
            f = bipoly_to_sympy(P)
            basis = sympy.groebner([f - c, f.diff(x), f.diff(y)], x, y, c, order="lex")
            (gen,) = [g for g in basis.exprs if g.free_symbols <= {c}]
            expected = sympy.Poly(sympy.sqf_part(sympy.Poly(gen, c)), c)
            got = unipoly_to_sympy(_critical_product(P), c)
            assert got.monic() == expected.monic(), P
