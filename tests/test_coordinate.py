"""Coordinate decision: reduction, witnesses, obstructions, closed loop."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from jaccoord import (
    BiPoly,
    Coordinate,
    InputTooLarge,
    InternalVerificationFailure,
    Linear,
    NotCoordinate,
    TriangularX,
    TriangularY,
    UniPoly,
    Witness,
    apply_witness,
    apply_witness_to,
    check,
    fibre_report,
    gen_random_coordinate,
    invert,
    jacobian_det,
    parse_poly,
    rat,
    reduce_step,
    substitute,
)
from jaccoord.coordinate import ReduceSuccess, _rand_linear


X, Y = BiPoly.var_x(), BiPoly.var_y()


def ref_apply_witness(W):
    """The pair fold that apply_witness replaced: the growing pair (X, Y) is
    substituted into the components of each step, the last step first."""
    Xc, Yc = X, Y
    for step in reversed(W.steps):
        A, B = step.components()
        Xc, Yc = substitute(A, Xc, Yc), substitute(B, Xc, Yc)
    return Xc, Yc


class TestElementarySteps:
    def test_linear_inverse(self):
        rng = random.Random(20)
        for _ in range(20):
            L = _rand_linear(rng, 5)
            W = Witness((L, L.inverse()))
            assert apply_witness(W) == (X, Y)

    def test_triangular_inverses(self):
        phi = parse_poly("x^3 - 2*x").y_coeffs()[0]
        for step in (TriangularY(phi), TriangularX(phi)):
            W = Witness((step, step.inverse()))
            assert apply_witness(W) == (X, Y)

    def test_witness_invert_round_trip(self):
        rng = random.Random(21)
        for seed in range(10):
            _, W = gen_random_coordinate(seed, 2, 2, 3)
            Xc, Yc = apply_witness(W)
            Xi, Yi = apply_witness(invert(W))
            assert substitute(Xc, Xi, Yi) == X
            assert substitute(Yc, Xi, Yi) == Y

    def test_apply_witness_matches_the_pair_fold(self):
        shapes = [(1, 4), (2, 3), (3, 2)]
        for seed in range(9):
            steps, deg = shapes[seed % 3]
            _, W = gen_random_coordinate(seed, steps, deg, 5)
            for w in (W, invert(W)):
                assert apply_witness(w) == ref_apply_witness(w)
        rng = random.Random(23)
        for n in range(1, 5):
            W = Witness(tuple(_rand_linear(rng, 5) for _ in range(n)))
            assert apply_witness(W) == ref_apply_witness(W)

    def test_apply_witness_to_matches_components(self):
        _, W = gen_random_coordinate(3, 2, 2, 3)
        P = parse_poly("x*y + x - 2")
        Xc, Yc = apply_witness(W)
        assert apply_witness_to(P, W) == substitute(P, Xc, Yc)


class TestReduceStep:
    def test_drops_degree(self):
        P = parse_poly("y + x^3")
        r = reduce_step(P)
        assert isinstance(r, ReduceSuccess)
        assert r.next.degx + r.next.degy < P.degx + P.degy

    def test_tie_takes_triangular_y(self):
        # p = q = 1: the deterministic branch
        P = parse_poly("(y - 2*x)^2 + x + y")
        r = reduce_step(P)
        assert isinstance(r, ReduceSuccess)
        assert isinstance(r.step, TriangularY)

    def test_face_data_plumbed(self):
        r = reduce_step(parse_poly("(y - 2*x)^3 + x"))
        assert isinstance(r, ReduceSuccess)
        assert (r.face.p, r.face.q, r.face.m) == (1, 1, 3)
        assert r.face.a == rat(2)


class TestCheck:
    def test_x_is_a_coordinate(self):
        v = check(parse_poly("x"))
        assert isinstance(v, Coordinate)
        assert v.complement == Y
        assert v.jac == rat(1)

    def test_simple_triangular(self):
        v = check(parse_poly("y + x^3"))
        assert isinstance(v, Coordinate)
        assert apply_witness_to(parse_poly("y + x^3"), v.witness) == X
        assert jacobian_det(parse_poly("y + x^3"), v.complement).is_constant()

    def test_affine_line(self):
        v = check(parse_poly("2*x + 3*y - 5"))
        assert isinstance(v, Coordinate)

    def test_obstruction_corpus(self):
        expected = {
            "x*y": "PolygonNotTriangle",
            "x + x^2*y": "PolygonNotTriangle",
            "x^2 + y^3": "FaceExponentsBothExceedOne",
            "y^2 - x^3": "FaceExponentsBothExceedOne",
            "x^3 + y^3": "FaceNotBinomialPower",
            "x^2": "UnivariateNonlinear",
            "7": "ConstantPolynomial",
        }
        for expr, kind in expected.items():
            v = check(parse_poly(expr))
            assert isinstance(v, NotCoordinate), expr
            assert v.obstruction.kind == kind, expr

    def test_exponent_details(self):
        v = check(parse_poly("x^2 + y^3"))
        assert (v.obstruction.p, v.obstruction.q) == (2, 3)
        v = check(parse_poly("y^2 - x^3"))
        assert (v.obstruction.p, v.obstruction.q) == (3, 2)

    def test_univariate_detail(self):
        v = check(parse_poly("x^2"))
        assert v.obstruction.var == "x" and v.obstruction.deg == 2
        v = check(parse_poly("y^3 - y"))
        assert v.obstruction.var == "y" and v.obstruction.deg == 3

    def test_determinism(self):
        P = parse_poly("y + x^3 - 2*x")
        assert check(P) == check(P)


class TestClosedLoop:
    def test_generated_coordinates_verify(self):
        for seed in range(20):
            P, W_truth = gen_random_coordinate(seed, 2, 2, 4)
            assert apply_witness_to(P, W_truth) == X
            v = check(P)
            assert isinstance(v, Coordinate), P.to_str()
            assert apply_witness_to(P, v.witness) == X
            jac = jacobian_det(P, v.complement)
            assert jac.is_constant() and not jac.is_zero()

    def test_pair_is_automorphism(self):
        P, _ = gen_random_coordinate(5, 2, 2, 3)
        v = check(P)
        # (P, complement) has polynomial inverse given by the witness pair
        Xi, Yi = apply_witness(v.witness)
        assert substitute(P, Xi, Yi) == X
        assert substitute(v.complement, Xi, Yi) == Y

    def test_stability_under_linear_change(self):
        rng = random.Random(22)
        P, _ = gen_random_coordinate(7, 2, 2, 3)
        for _ in range(5):
            L = _rand_linear(rng, 3)
            lx, ly = L.components()
            assert isinstance(check(substitute(P, lx, ly)), Coordinate)

    def test_generator_is_the_first_component_of_the_inverse(self):
        # the generator folds x alone through the inverse witness
        shapes = [(1, 4), (2, 3), (3, 2)]
        for seed in range(30):
            steps, deg = shapes[seed % 3]
            P, W = gen_random_coordinate(seed, steps, deg, 5)
            assert P == apply_witness(invert(W))[0]

    def test_generator_determinism(self):
        a = gen_random_coordinate(11, 3, 2, 4)
        b = gen_random_coordinate(11, 3, 2, 4)
        assert a[0] == b[0] and a[1] == b[1]

    def test_generator_validates_args(self):
        with pytest.raises(ValueError):
            gen_random_coordinate(0, 0, 2, 3)
        with pytest.raises(ValueError):
            gen_random_coordinate(0, 1, 0, 3)


class TestCertificate:
    def test_wrong_step_is_refused(self, monkeypatch):
        # a wrong step with the true next polynomial still ends in a linear
        # form, so only the certificate x o Phi^-1 = P can catch it
        from jaccoord import coordinate

        true_reduce_step = coordinate.reduce_step

        def wrong_reduce_step(P):
            r = true_reduce_step(P)
            return ReduceSuccess(step=r.step.inverse(), next=r.next, face=r.face)

        polys = [parse_poly(t) for t in ("y + x^3", "x + (y + x^2)^3")]
        assert all(isinstance(check(P), Coordinate) for P in polys)
        monkeypatch.setattr(coordinate, "reduce_step", wrong_reduce_step)
        for P in polys:
            with pytest.raises(InternalVerificationFailure):
                check(P)


class TestDegreeGuard:
    def test_guard_triggers(self, monkeypatch):
        from jaccoord import coordinate

        P = parse_poly("x + (y + x^2)^3")  # degx + degy = 9
        assert isinstance(check(P), Coordinate)
        monkeypatch.setattr(coordinate, "DEGREE_GUARD", 4)
        with pytest.raises(InputTooLarge):
            check(P)

    def test_guard_default(self):
        from jaccoord.coordinate import DEGREE_GUARD

        assert DEGREE_GUARD == 512


# ---------------------------------------------------------------------------
# metamorphic property: P is a coordinate iff P o sigma is one, for every
# automorphism sigma; negative verdicts rest on this alone

COORDINATE_TEXTS = ["x", "y + x^3", "x + (y + x^2)^3", "2/3*x - 5*y + 1"] + [
    gen_random_coordinate(s, s % 2 + 1, 2, 3)[0].to_str() for s in range(4)
]
# the known non-coordinates the benchmark composes its negative items from
NON_COORDINATE_TEXTS = ["x*y", "y^2 - x^3", "x^2 + y^2 - 1", "y^3 + x^4 + x*y + 1", "x + x^2*y"]

small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=4).map(
    lambda f: rat(f.numerator, f.denominator)
)


@st.composite
def automorphisms(draw):
    """The polynomial pair of sigma = linear o (TriangularX or TriangularY)."""
    a, b, c, d, e, f = (draw(small_rats) for _ in range(6))
    assume(a * d - b * c != 0)
    phi = UniPoly([draw(small_rats) for _ in range(draw(st.integers(1, 4)))])
    tri = TriangularX(phi) if draw(st.booleans()) else TriangularY(phi)
    return apply_witness(Witness((Linear(a, b, c, d, e, f), tri)))


class TestMetamorphic:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(text=st.sampled_from(COORDINATE_TEXTS + NON_COORDINATE_TEXTS), sigma=automorphisms())
    def test_verdict_invariant_under_automorphism(self, text, sigma):
        P = parse_poly(text)
        assert check(P).outcome == check(substitute(P, *sigma)).outcome

    # products whose fibre at c = 0 has a known number of absolutely
    # irreducible components
    PRODUCTS = [
        ("x*y", 2),
        ("y^2 - x^3", 1),
        ("x^2 + y^2", 2),
        ("(y - x^2)*(y + x^3 + 1)", 2),
        ("x*(x*y - 1)*(x*y - 2)", 3),
        ("(x + y)*(x - y)*(x + 2*y - 1)", 3),
    ]

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(product=st.sampled_from(PRODUCTS), sigma=automorphisms())
    def test_factor_count_invariant_under_automorphism(self, product, sigma):
        text, k = product
        P = parse_poly(text)
        assert fibre_report(P, rat(0)).abs_factor_count == k
        assert fibre_report(substitute(P, *sigma), rat(0)).abs_factor_count == k
