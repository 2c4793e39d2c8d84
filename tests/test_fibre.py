"""Fibre invariants: factor counts, nondegeneracy, genus, branches."""

import random

import pytest

from jaccoord import (
    BiPoly,
    absolute_factor_count,
    branches_at_infinity,
    fibre_report,
    genus,
    nondegenerate,
    parse_poly,
    rat,
    special_value_candidates,
    substitute,
)
from jaccoord import fibre, gen_random_coordinate
from jaccoord.coordinate import _rand_linear
from jaccoord.fibre import ConstantInputError, NotSquarefreeError, Unknown


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
        monkeypatch.setattr(fibre, "RUPPERT_PRIME", prime)
        rank_p, rank_q = fibre.rank_mod_p, fibre.rat_eliminate
        last, drops = [], []

        def counted_rank_p(rows, p):
            last.append(rank_p(rows, p))
            return last[-1]

        def counted_rank_q(rows):
            out = rank_q(rows)
            drops.append(out[0] > last[-1])
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

    def test_linear_change_invariance(self):
        rng = random.Random(41)
        f = parse_poly("y^2 - x^2 + 1")
        n = absolute_factor_count(f)
        for _ in range(5):
            L = _rand_linear(rng, 3)
            lx, ly = L.components()
            assert absolute_factor_count(substitute(f, lx, ly)) == n


class TestNondegenerate:
    def test_smooth_elliptic(self):
        assert nondegenerate(parse_poly("y^2 - x^3 - x - 1")).ok

    def test_cusp_missing_endpoint(self):
        nd = nondegenerate(parse_poly("y^2 - x^3"))
        assert not nd.ok

    def test_square_face_fails(self):
        # hypotenuse face (y - x)^2 has a repeated torus root
        nd = nondegenerate(parse_poly("(y - x)^2 + x"))
        assert not nd.ok

    def test_parabola(self):
        assert nondegenerate(parse_poly("y - x^2 + 1")).ok


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


class TestBranches:
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

                def counted(f, _orig=getattr(fibre, name), _name=name):
                    calls[_name] += 1
                    return _orig(f)

                monkeypatch.setattr(fibre, name, counted)
            fibre_report(parse_poly("y^2 - x^3 - x"), c)
            monkeypatch.undo()
            assert calls == dict.fromkeys(names, 1)


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
        # critical value, and an affine image keeps it; about 1.5 s
        F = parse_poly("x^5 + y^5 + 1")
        P = substitute(F, parse_poly("x + 2*y - 1"), parse_poly("x - y + 1/2"))
        assert rat(1) in special_value_candidates(P).rational_candidates

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
            # univariate in x: eliminated with x and y swapped
            ("x^3 - 3*x", ["-2", "2"], []),
            ("x^3 + x", [], ["c^2 + 4/27"]),
            # P_x = 0: the critical path ends at Res_y(P - c, P_x) = 0
            ("y^3 - 3*y", ["-2", "2"], []),
            ("y^2 - 1", ["-1"], []),
            # Res_x of the primitive parts vanishes: one gcd retry
            ("x^2*y^2 + x + y + 1", [], ["c^3 - 3*c^2 + 3*c + 11/16"]),
            # generic: Res_x of the two primitive parts
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


def _rational_rank_drop_det(P):
    """Reference: the rank-drop determinant on the rational matrix of P - c,
    entries in Q[c], evaluated at each point with rational arithmetic: det(c)
    of a maximal square submatrix that is nonsingular at one of three probes.
    Its roots flag factor-count jumps, and some more."""
    from jaccoord.elim import rat_det, rat_eliminate
    from jaccoord.qpoly import UniPoly

    terms = {e: UniPoly.const(c) for e, c in P.items()}
    terms[(0, 0)] = terms.get((0, 0), UniPoly.zero()) + UniPoly([0, -1])
    rows, _ = fibre.ruppert_rows(terms, P.degx, P.degy)
    rows = [[u if isinstance(u, UniPoly) else UniPoly.zero() for u in r] for r in rows]
    if not rows:
        return None
    probes = [
        tuple(rat_eliminate([[u.eval(probe) for u in r] for r in rows]))
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
    def test_names_zero_at_infinity(self, text, monkeypatch):
        # the critical path names 0 here too, through its spurious
        # elimination, so it is switched off to test the polar route alone
        monkeypatch.setattr(fibre, "_critical_factors", lambda P: [])
        sv = special_value_candidates(parse_poly(text))
        assert sv.rational_candidates == (rat(0),)

    def test_coordinates_have_no_value_at_infinity(self):
        # a coordinate is a trivial fibration, so B-infinity is empty
        for seed in range(20):
            P, _ = gen_random_coordinate(seed, 2, 3, 3)
            limits = fibre._polar_limits(P)
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
