"""Newton polygon, lattice counts, and the triangle / face gates."""

import math
import random

from jaccoord import (
    BiPoly,
    FaceForm,
    face_binomial_power,
    lattice_counts,
    newton_polygon,
    parse_poly,
    rat,
    triangle_face,
)
from jaccoord.newton import (
    FaceNotBinomialPower,
    PolygonNotTriangle,
    TriangleFace,
    edge_faces,
    support_polygon,
)


def enumerated_interior(N):
    """Interior lattice points counted over the bounding box, independently
    of Pick's formula, as the oracle for lattice_counts."""
    xs = [p[0] for p in N.vertices]
    ys = [p[1] for p in N.vertices]
    count = 0
    for px in range(min(xs) + 1, max(xs)):
        for py in range(min(ys) + 1, max(ys)):
            count += all(
                (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0
                for (ax, ay), (bx, by) in N.edges()
            )
    return count


def rand_polygon(rng, max_coord=8, npts=6):
    t = {}
    for _ in range(npts):
        t[(rng.randint(0, max_coord), rng.randint(0, max_coord))] = rat(1)
    return newton_polygon(BiPoly(t))


def ref_contains(N, point):
    """Whether the lattice point lies in the closed polygon N: on the inner
    side of every edge.  A segment runs from (0,0) to its lexicographically
    larger end, and the points of its line between the two ends in that
    order are its points.  The membership rule the y-ranges are checked
    against."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    if N.dim < 2:
        lo, hi = N.vertices[0], N.vertices[-1]
        return cross(lo, hi, point) == 0 and lo <= point <= hi
    return all(cross(a, b, point) >= 0 for a, b in N.edges())


class TestPolygon:
    def test_triangle_example(self):
        N = newton_polygon(parse_poly("x^2*y + x"))
        assert N.dim == 2
        assert N.vertices == ((0, 0), (1, 0), (2, 1))

    def test_origin_always_included(self):
        # no constant term, origin still a vertex
        N = newton_polygon(parse_poly("x*y"))
        assert (0, 0) in N.vertices

    def test_segment(self):
        N = newton_polygon(parse_poly("x*y - 1"))
        assert N.dim == 1
        assert N.vertices == ((0, 0), (1, 1))

    def test_point(self):
        N = newton_polygon(parse_poly("7"))
        assert N.dim == 0
        assert N.vertices == ((0, 0),)

    def test_ccw_orientation(self):
        rng = random.Random(10)
        for _ in range(50):
            N = rand_polygon(rng)
            if N.dim < 2:
                continue
            v = N.vertices
            n = len(v)
            area2 = sum(
                v[k][0] * v[(k + 1) % n][1] - v[(k + 1) % n][0] * v[k][1]
                for k in range(n)
            )
            assert area2 > 0
            assert v[0] == (0, 0)

    def test_contains_triangle(self):
        N = newton_polygon(parse_poly("y^2 + x^4 + 1"))
        assert N.vertices == ((0, 0), (4, 0), (0, 2))
        inside = [(0, 0), (4, 0), (0, 2), (2, 0), (0, 1), (2, 1), (1, 1)]
        outside = [(3, 1), (1, 2), (5, 0), (0, 3), (-1, 0), (1, -1)]
        assert all(ref_contains(N, p) for p in inside)
        assert not any(ref_contains(N, p) for p in outside)

    def test_contains_segment_and_point(self):
        N = newton_polygon(parse_poly("x^2*y^2 - 1"))
        assert N.dim == 1
        assert all(ref_contains(N, p) for p in [(0, 0), (1, 1), (2, 2)])
        assert not any(ref_contains(N, p) for p in [(3, 3), (-1, -1), (1, 0), (1, 2), (0, 2)])
        N = newton_polygon(parse_poly("7"))
        assert ref_contains(N, (0, 0)) and not ref_contains(N, (1, 0))

    def test_contains_counts_the_lattice_points(self):
        rng = random.Random(12)
        for _ in range(100):
            N = rand_polygon(rng)
            interior, boundary, _ = lattice_counts(N)
            box = [(i, j) for i in range(-1, 10) for j in range(-1, 10)]
            assert sum(ref_contains(N, p) for p in box) == interior + boundary


class TestYRanges:
    """The lattice points read off y_ranges are those of the cross-product
    rule, on general, collinear, one-point and vertical-edge supports."""

    @staticmethod
    def _supports():
        rng, out = random.Random(28), [[], [(0, 0)]]
        for k in range(3200):
            shape = k % 4
            if shape == 0:  # general: 1-7 points
                pts = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(rng.randint(1, 7))]
            elif shape == 1:  # collinear through the origin, axis lines included
                a, b = rng.choice([(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (3, 2), (1, 3)])
                pts = [(a * t, b * t) for t in rng.sample(range(0, 6), rng.randint(1, 3))]
            elif shape == 2:  # a vertical edge at the largest x
                x0 = rng.randint(1, 7)
                ys = rng.sample(range(0, 8), 2)
                pts = [(x0, y) for y in ys] + [(rng.randint(0, x0 - 1), rng.randint(0, 7)) for _ in range(3)]
            else:  # a vertical edge at x = 0, off the origin
                pts = [(0, rng.randint(1, 7))] + [(rng.randint(1, 7), rng.randint(0, 7)) for _ in range(2)]
            out.append(pts)
        return out

    def test_against_the_cross_product_rule(self):
        kinds = dict.fromkeys([(0, True), (1, False), (1, True), (2, True)], 0)  # (dim, vertical)
        supports = self._supports()
        for pts in supports:
            N = support_polygon(pts)
            ranges = N.y_ranges()
            top = max(x for x, _ in N.vertices)
            assert [x for x, _, _ in ranges] == list(range(top + 1))
            got = {(x, y) for x, lo, hi in ranges for y in range(lo, hi + 1)}
            high = max(y for _, y in N.vertices)
            box = [(x, y) for x in range(-1, top + 2) for y in range(-1, high + 2)]
            assert got == {p for p in box if ref_contains(N, p)}, pts
            vertical = top == 0 or any(a[0] == b[0] for a, b in N.edges())
            if (N.dim, vertical) in kinds:
                kinds[N.dim, vertical] += 1
        assert len(supports) >= 3000
        assert min(kinds.values()) >= 50, kinds


class TestLatticeCounts:
    def test_cusp_triangle(self):
        N = newton_polygon(parse_poly("y^2 - x^3"))
        assert lattice_counts(N) == (1, 6, 6)

    def test_small_triangle(self):
        N = newton_polygon(parse_poly("y + x^2"))
        assert lattice_counts(N) == (0, 4, 2)

    def test_segment_and_point(self):
        assert lattice_counts(newton_polygon(parse_poly("x*y - 1"))) == (0, 2, 0)
        assert lattice_counts(newton_polygon(parse_poly("5"))) == (0, 1, 0)

    def test_pick_identity(self):
        # 2A = 2I + B - 2, with the library's interior count checked against
        # direct enumeration
        rng = random.Random(11)
        checked = 0
        for _ in range(300):
            N = rand_polygon(rng)
            if N.dim != 2:
                continue
            interior, boundary, a2 = lattice_counts(N)
            assert interior == enumerated_interior(N)
            assert a2 == 2 * interior + boundary - 2
            checked += 1
        assert checked >= 200

    def test_high_degree_triangle(self):
        N = newton_polygon(parse_poly("x^2000 + y^2000 + 1"))
        assert lattice_counts(N) == (1997001, 6000, 4000000)

    def test_scaling(self):
        # doubling a triangle: area x4, structured boundary growth
        N1 = newton_polygon(parse_poly("y + x"))
        N2 = newton_polygon(parse_poly("y^2 + x^2"))
        _, b1, a1 = lattice_counts(N1)
        _, b2, a2 = lattice_counts(N2)
        assert a2 == 4 * a1
        assert b2 == 2 * b1


class TestTriangleGate:
    def test_coordinate_shape(self):
        tf = triangle_face(parse_poly("y + x^3"))
        assert tf.dx == 3 and tf.dy == 1
        assert tf.E == parse_poly("y + x^3")

    def test_missing_vertex(self):
        ob = triangle_face(parse_poly("x*y"))
        assert isinstance(ob, PolygonNotTriangle)
        assert ob.missing_vertex is not None

    def test_point_above_hypotenuse(self):
        ob = triangle_face(parse_poly("x^2 + y + x^2*y"))
        assert isinstance(ob, PolygonNotTriangle)
        assert ob.point == (2, 1)

    def test_missing_pure_power(self):
        ob = triangle_face(parse_poly("x + y + x*y^2"))
        assert isinstance(ob, PolygonNotTriangle)

    def test_edge_collects_only_face_terms(self):
        tf = triangle_face(parse_poly("y^2 - x^3 + x + 1"))
        assert tf.E == parse_poly("y^2 - x^3")

    def test_point_is_the_smallest_above(self):
        # the first point above the hypotenuse in a scan of the sorted terms
        rng = random.Random(5)
        seen = 0
        for _ in range(200):
            dx, dy = rng.randint(1, 6), rng.randint(1, 6)
            terms = {(dx, 0): 1, (0, dy): 1}
            for _ in range(rng.randint(0, 8)):
                terms[(rng.randint(0, dx), rng.randint(0, dy))] = rng.randint(1, 9)
            P = BiPoly(terms)
            above = [(i, j) for i, j in sorted(P.support()) if dy * i + dx * j > dx * dy]
            got = triangle_face(P)
            if above:
                seen += 1
                assert got == PolygonNotTriangle(point=above[0])
            else:
                assert got.E == BiPoly({e: P.coeff(*e) for e in P.support() if dy * e[0] + dx * e[1] == dx * dy})
        assert seen >= 50, seen


class TestFaceGate:
    def test_binomial_cube(self):
        tf = triangle_face(parse_poly("(y - 2*x)^3 + x"))
        ff = face_binomial_power(tf)
        assert isinstance(ff, FaceForm)
        assert (ff.p, ff.q, ff.m) == (1, 1, 3)
        assert ff.C == rat(1) and ff.a == rat(2)

    def test_expand_round_trip(self):
        rng = random.Random(12)
        for _ in range(40):
            p, q = rng.choice([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 1)])
            m = rng.randint(1, 3)
            a = rat(rng.randint(1, 5), rng.randint(1, 3))
            C = rat(rng.choice([-3, -1, 1, 2]), 1)
            base = BiPoly({(0, q): rat(1), (p, 0): -a})
            E = base ** m * C
            tf = triangle_face(E + BiPoly.const(0) + BiPoly({(0, 0): rat(1)}))
            if isinstance(tf, PolygonNotTriangle):
                continue
            ff = face_binomial_power(tf)
            assert isinstance(ff, FaceForm)
            assert ff.expand() == E

    def test_sum_of_cubes_fails(self):
        tf = triangle_face(parse_poly("x^3 + y^3"))
        ff = face_binomial_power(tf)
        assert isinstance(ff, FaceNotBinomialPower)
        assert ff.k == 1

    def test_cusp_face_form(self):
        tf = triangle_face(parse_poly("y^2 - x^3"))
        ff = face_binomial_power(tf)
        assert isinstance(ff, FaceForm)
        assert (ff.p, ff.q, ff.m) == (3, 2, 1)

    def test_sparse_face_of_huge_degree(self):
        # e_(m-1) = 0: the first absent slot is read off the face's terms,
        # without a list of its m + 1 slots, m = 10^9
        n = 10 ** 9
        cases = (
            (f"x^{n} + y^{n} + 1", 1),
            (f"x^{n} + x^{n - 1}*y + y^{n}", 2),
            (f"x^{n} + x^{n - 1}*y^2 + y^{2 * n}", 2),  # q = 2
        )
        for text, k in cases:
            assert face_binomial_power(triangle_face(parse_poly(text))) == FaceNotBinomialPower(k=k)


def ref_face_binomial_power(F):
    """The face gate on rationals: every edge coefficient against
    C * C(m, k) * (-a)^(m - k), the first mismatch reported."""
    m = math.gcd(F.dx, F.dy)
    p, q = F.dx // m, F.dy // m
    C = F.E.coeff(0, F.dy)
    a = -F.E.coeff(p, q * (m - 1)) / (C * m)
    if a == 0:
        return FaceNotBinomialPower(k=min(k for k in range(m) if F.E.coeff(p * (m - k), q * k) == 0))
    for k in range(m + 1):
        if F.E.coeff(p * (m - k), q * k) != C * math.comb(m, k) * (-a) ** (m - k):
            return FaceNotBinomialPower(k=k)
    return FaceForm(C=C, a=a, p=p, q=q, m=m)


class TestFaceGateOracle:
    """face_binomial_power against the rational reference on seeded faces
    C*(y^q - a*x^p)^m, m <= 12, with large numerators, and on variants with
    one slot perturbed, one slot zeroed, two slots perturbed, and u1 = 0."""

    @staticmethod
    def big_rat(rng):
        return rat(rng.choice([-1, 1]) * rng.randint(1, 10**12), rng.randint(1, 10**9))

    def faces(self, rng):
        for _ in range(300):
            q, p = rng.choice([(q, p) for q in range(1, 5) for p in range(1, 5) if math.gcd(p, q) == 1])
            m = rng.randint(1, 12)
            E = FaceForm(C=self.big_rat(rng), a=self.big_rat(rng), p=p, q=q, m=m).expand()
            slot = lambda k: (p * (m - k), q * k)  # noqa: E731
            face = lambda terms: TriangleFace(p * m, q * m, E + BiPoly(terms))  # noqa: E731
            yield "exact", face({})
            yield "perturbed", face({slot(rng.randint(0, m)): self.big_rat(rng)})
            if m >= 3:
                k1, k2 = rng.sample(range(m - 1), 2)
                yield "two perturbed", face({slot(k1): self.big_rat(rng), slot(k2): rat(1, 7)})
            if m >= 2:
                k = rng.randint(1, m - 1)
                yield "zeroed", face({slot(k): -E.coeff(*slot(k))})
                ks = {m - 1, rng.randint(1, m - 1)} if rng.random() < 0.5 else {m - 1}
                yield "u1 = 0", face({slot(k): -E.coeff(*slot(k)) for k in ks})

    def test_against_reference(self):
        rng = random.Random(2025)
        seen = {}
        for variant, F in self.faces(rng):
            got, want = face_binomial_power(F), ref_face_binomial_power(F)
            assert got == want, (variant, F)
            kind = f"{variant}: {type(want).__name__}"
            seen[kind] = seen.get(kind, 0) + 1
        assert seen["exact: FaceForm"] == 300
        for kind in ("perturbed", "two perturbed", "zeroed", "u1 = 0"):
            assert seen.get(f"{kind}: FaceNotBinomialPower", 0) >= 50, seen


class TestEdgeFaces:
    def test_faces_cover_all_edges(self):
        P = parse_poly("y^2 - x^3 - 1")
        N = newton_polygon(P)
        faces = edge_faces(P, N)
        assert len(faces) == len(N.edges())
        for f in faces:
            assert f["e"].deg <= f["full_length"]

    def test_face_endpoint_coefficients(self):
        P = parse_poly("y^2 - x^2")
        N = newton_polygon(P)
        for f in edge_faces(P, N):
            if f["v0"] == (2, 0) and f["v1"] == (0, 2):
                assert f["full_length"] == 2
                assert f["e"].coeffs == (rat(-1), rat(0), rat(1))
