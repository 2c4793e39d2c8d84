"""Theorem audits: the 2g = 1 - h relation and the fibre scanner."""

import random

import pytest

from jaccoord import (
    BiPoly,
    Coordinate,
    NotCoordinate,
    audit,
    elim,
    fibre,
    fibre_report,
    gen_random_coordinate,
    parse_poly,
    rat,
    relation_check,
    special_value_candidates,
    substitute,
    theorem3_scan,
)
from jaccoord.audit import GenusJump, Inconclusive, ReducibleFibre
from jaccoord.elim import bipoly_squarefree_part, has_common_torus_zero
from jaccoord.fibre import ConstantInputError, Unknown

# non-coordinates: genus 1, genus 3, two top forms that are not powers of a
# linear form, and a product whose fibre at 0 has two components
NAMED = [
    "y^2 - x^3 - x",
    "y^3 + x^4 + x*y + 1",
    "x^2*y^2 + x + y + 1",
    "(y - x^2)*(y + x^3 + 1)",
    "x^4 + x^2*y^2 - y^4 - y^2 + x - y - 1",
]
FERMAT5_IMAGE = substitute(
    parse_poly("x^5 + y^5 + 1"), parse_poly("x + 2*y - 1"), parse_poly("x - y + 1/2")
)
# (x^2 + y)^2 + (x^2 + y) = u*(u + 1): two components over every
# non-critical value
COMPOSITE = "(x^2 + y)^2 + (x^2 + y)"


class TestRelationCheck:
    def test_rational_curve_values(self):
        assert relation_check(0, 1)

    def test_violations(self):
        assert not relation_check(1, 1)
        assert not relation_check(0, 2)
        assert not relation_check(2, 1)


class TestScanNonCoordinates:
    def test_product_flags_reducible_fibre(self):
        r = theorem3_scan(parse_poly("x*y"), n_random=4, seed=0)
        assert isinstance(r.verdict, NotCoordinate)
        assert isinstance(r.violation, ReducibleFibre)
        assert r.violation.c == rat(0)
        assert not r.theorem_violation_suspected

    def test_degenerate_vertex_case(self):
        r = theorem3_scan(parse_poly("x + x^2*y"), n_random=4, seed=0)
        assert isinstance(r.verdict, NotCoordinate)
        assert isinstance(r.violation, ReducibleFibre)
        assert r.violation.c == rat(0)

    def test_cusp_inconclusive_at_zero(self):
        r = theorem3_scan(parse_poly("y^2 - x^3"), n_random=6, seed=0)
        assert isinstance(r.verdict, NotCoordinate)
        assert r.generic_genus == 1
        assert isinstance(r.violation, (GenusJump, Inconclusive))
        if isinstance(r.violation, Inconclusive):
            assert rat(0) in r.violation.unknown_cs
        assert not r.theorem_violation_suspected

    def test_elliptic_generic_genus(self):
        r = theorem3_scan(parse_poly("y^2 - x^3 - x - 1"), n_random=6, seed=0)
        assert isinstance(r.verdict, NotCoordinate)
        assert r.generic_genus == 1
        assert not r.theorem_violation_suspected


class TestScanCoordinates:
    def test_generated_coordinate_consistent(self):
        P, _ = gen_random_coordinate(4, 1, 2, 3)
        r = theorem3_scan(P, n_random=4, seed=0)
        assert isinstance(r.verdict, Coordinate)
        assert r.violation is None
        assert r.relation_holds_on_known
        assert not r.theorem_violation_suspected

    def test_known_samples_are_rational_curves(self):
        P, _ = gen_random_coordinate(6, 1, 2, 3)
        r = theorem3_scan(P, n_random=6, seed=1)
        for s in r.samples:
            if isinstance(s.genus, Unknown):
                continue
            assert s.genus == 0
            if not isinstance(s.branches_at_infinity, Unknown):
                assert s.branches_at_infinity == 1

    def test_closed_loop_many_seeds(self):
        for seed in range(30):
            P, _ = gen_random_coordinate(seed, 1 + seed % 2, 2, 3)
            r = theorem3_scan(P, n_random=2, seed=0)
            assert isinstance(r.verdict, Coordinate), P.to_str()
            assert r.violation is None
            assert r.relation_holds_on_known
            assert not r.theorem_violation_suspected


class TestScanMechanics:
    def test_constant_rejected(self):
        with pytest.raises(ConstantInputError):
            theorem3_scan(parse_poly("3"), n_random=2, seed=0)

    def test_sample_count(self):
        P = parse_poly("y + x^2")
        r = theorem3_scan(P, n_random=5, seed=0)
        n_special = len(r.special_values.rational_candidates)
        assert len(r.samples) == 5 + n_special

    def test_samples_sorted(self):
        r = theorem3_scan(parse_poly("y^2 - x^3"), n_random=6, seed=2)
        cs = [s.c for s in r.samples]
        assert cs == sorted(cs)

    def test_determinism(self):
        P = parse_poly("y^2 - x^3 - x")
        assert theorem3_scan(P, 4, 7) == theorem3_scan(P, 4, 7)

    def test_seed_changes_samples(self):
        P = parse_poly("y + x^2")
        a = theorem3_scan(P, 6, 0)
        b = theorem3_scan(P, 6, 1)
        assert {s.c for s in a.samples} != {s.c for s in b.samples}


class TestScanSharedWork:
    """theorem3_scan decides non-candidate samples from the critical values
    and one Ruppert pencil; its samples must be fibre_report's."""

    @staticmethod
    def _assert_samples_are_reports(P, n_random, seed):
        r = theorem3_scan(P, n_random, seed)
        assert r.samples == tuple(fibre_report(P, s.c) for s in r.samples)
        return r

    def test_generator_coordinates(self):
        for seed in range(20):
            P, _ = gen_random_coordinate(seed, 1 + seed % 3, 2, 3)
            self._assert_samples_are_reports(P, 4, seed)

    @pytest.mark.parametrize(
        "text",
        NAMED + ["x*y", "x + x^2*y", "y^2 - x^3", pytest.param(FERMAT5_IMAGE.to_str(), id="fermat5")],
    )
    def test_named(self, text):
        self._assert_samples_are_reports(parse_poly(text), 6, 11)

    def test_composite_takes_exact_fallback(self):
        r = self._assert_samples_are_reports(parse_poly(COMPOSITE), 6, 11)
        cands = r.special_values.rational_candidates
        assert all(s.abs_factor_count == 2 for s in r.samples if s.c not in cands)

    def test_exact_count_starts_from_the_pencil(self, monkeypatch):
        # a pencil count above 1 goes straight to the exact elimination,
        # without a second rank of the same rows modulo the prime
        P = parse_poly(COMPOSITE)
        c = rat(7, 3)
        assert c not in special_value_candidates(P).rational_candidates
        calls = []
        for name in ("rank_mod_p", "rat_eliminate"):
            real = getattr(fibre, name)
            monkeypatch.setattr(
                fibre, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a)
            )
        pencil = fibre._ruppert_pencil(P)
        s = fibre._fibre_tail(c, P - BiPoly.const(c), True, pencil(c), fibre._faces_nondegenerate)
        assert calls == ["rank_mod_p", "rat_eliminate"]
        assert s == fibre_report(P, c) and s.abs_factor_count == 2

    def test_pencil_read_only_at_squarefree_fibres(self, monkeypatch):
        # the pencil's count is a factor count only where P - c is
        # squarefree: at c = -1 of x^2*y^2 - 1 it counts 3 on the polygon
        # and 5 on the degree box, and the scan reads fibre_report there
        read, real = [], audit._ruppert_pencil

        def pencil(P):
            count = real(P)
            return lambda c: read.append((P, c)) or count(c)

        monkeypatch.setattr(audit, "_ruppert_pencil", pencil)
        texts = ["x^2*y^2 - 1", "x*y", "y^2 - x^3", COMPOSITE] + NAMED
        scans = [theorem3_scan(parse_poly(t), 8, 11) for t in texts]
        assert len(read) >= 8 * len(texts)
        assert all(bipoly_squarefree_part(P - BiPoly.const(c))[1] for P, c in read)
        assert rat(-1) in [s.c for s in scans[0].samples]
        assert not bipoly_squarefree_part(parse_poly("x^2*y^2"))[1]

    def test_small_prime_falls_back_to_exact_counts(self, monkeypatch):
        # modulo 3 the pencil refuses c = a/3 and overcounts some fibres
        monkeypatch.setattr(fibre, "MODULAR_PRIME", 3)
        for text in ["y^2 - x^3 - x", "x + x^2*y", COMPOSITE]:
            self._assert_samples_are_reports(parse_poly(text), 8, 12)

    def test_constant_term_sample_is_shifted(self):
        # seed 3 draws c = P(0, 0) = 1/2, not a candidate, so P - c is shifted
        P = parse_poly("y^2 - x^3 - x + 1/2")
        r = self._assert_samples_are_reports(P, 4, 3)
        assert P.constant_term() not in r.special_values.rational_candidates
        (s,) = [s for s in r.samples if s.c == P.constant_term()]
        assert s.genus == 1 and s.branches_at_infinity == Unknown("ZeroConstantTerm")


def _random_poly(rng, deg, terms):
    mons = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
    return BiPoly({e: rat(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for e in rng.sample(mons, terms)})


class TestNonCandidateFibresAreSmooth:
    """A rational c outside the special value candidates is not a critical
    value, so P - c is squarefree and P - c, P_x, P_y share no zero."""

    def _polys(self):
        rng = random.Random(5)
        polys = [_random_poly(rng, 2 + i % 4, rng.randint(3, 6)) for i in range(8)]
        return polys + [parse_poly(t) for t in NAMED + ["x*y", "y^2 - x^3", COMPOSITE]]

    def test_lemma(self):
        rng = random.Random(6)
        for P in self._polys():
            cands = special_value_candidates(P).rational_candidates
            cs = {rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)} - set(cands)
            for c in sorted(cs) + ([P.constant_term()] if P.constant_term() not in cands else []):
                f = P - BiPoly.const(c)
                assert bipoly_squarefree_part(f)[1], (P.to_str(), c)
                assert not has_common_torus_zero([f, P.diff_x(), P.diff_y()]), (P.to_str(), c)

    @pytest.mark.parametrize("text", ["y^2 - x^3", "x*y"])
    def test_control_singular_at_candidate(self, text):
        # the fibre at the candidate 0 is singular at the origin
        P = parse_poly(text)
        assert rat(0) in special_value_candidates(P).rational_candidates
        assert all(g.eval(rat(0), rat(0)) == 0 for g in (P, P.diff_x(), P.diff_y()))

    @pytest.mark.parametrize("text", ["(y - 1)^2 - (x - 1)^3", "x*(y - 1)^2"])
    def test_control_tests_fire(self, text):
        # both tests see the singular point (1, 1) on the torus; the second
        # fibre also has a repeated factor
        P = parse_poly(text)
        assert rat(0) in special_value_candidates(P).rational_candidates
        assert has_common_torus_zero([P, P.diff_x(), P.diff_y()])
        assert bipoly_squarefree_part(P)[1] == (text == "(y - 1)^2 - (x - 1)^3")


class _NoSympy:
    def __getattr__(self, name):
        raise AssertionError(f"sympy.{name} was touched")


class TestScanWithoutSympy:
    """In the package, sympy serves only the Groebner fallback of
    has_common_torus_zero: the scans of the benchmark's inputs, generator
    coordinates of two steps and the named non-coordinates, never reach it."""

    def test_stub_refuses(self, monkeypatch):
        monkeypatch.setattr(elim, "sympy", _NoSympy())
        # the common zeros (+-sqrt(2), 1) lie over irrational x only
        with pytest.raises(AssertionError, match="sympy"):
            elim.has_common_torus_zero([parse_poly("x^2 - 2"), parse_poly("y - 1")])

    def test_scan_does_not_touch_sympy(self, monkeypatch):
        monkeypatch.setattr(elim, "sympy", _NoSympy())
        polys = [gen_random_coordinate(s, 2, 3, 3)[0] for s in range(10)]
        polys += [parse_poly(t) for t in NAMED]
        for k, P in enumerate(polys):
            r = theorem3_scan(P, 8, k)
            assert isinstance(r.verdict, Coordinate) == (k < 10)
