"""Newton polygon construction and the triangle / face-form gates.

The polygon of P is the convex hull of the exponent support together with
the origin (the origin is always a member, whether or not P has a constant
term).  The triangle gate checks that the hull is the right triangle spanned
by (degx, 0) and (0, degy), and the face gate checks that the hypotenuse
polynomial is a power of a binomial y^q - a*x^p.  Both gates run on the
integer numerators of P: one pass over its terms, then an integer recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, List, Optional, Tuple, Union

from .qpoly import RAT_ONE, BiPoly, UniPoly, rat

Point = Tuple[int, int]


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class LatticePolygon:
    """Convex hull vertices, counter-clockwise, starting at (0,0)."""

    vertices: Tuple[Point, ...]
    dim: int

    def edges(self) -> List[Tuple[Point, Point]]:
        v = self.vertices
        if self.dim == 2:
            return [(v[k], v[(k + 1) % len(v)]) for k in range(len(v))]
        if self.dim == 1:
            return [(v[0], v[1])]
        return []

    def y_ranges(self) -> List[Tuple[int, int, int]]:
        """(x, lo, hi) for each x from 0 to the largest x of a vertex: the
        lattice points of the closed polygon at x are (x, lo), ..., (x, hi),
        none where lo > hi.  A point is in the polygon iff it is on the inner
        side of every edge a -> b, cross(a, b, p) >= 0; at a fixed x that
        bounds y from below on an edge running right, from above on one
        running left, and not at all on a vertical one.  A segment runs both
        ways, which leaves its line, and y stays between the lowest and
        highest vertex, which bounds a vertical segment and a point."""
        v = self.vertices
        edges = self.edges() if self.dim == 2 else [(v[0], v[-1]), (v[-1], v[0])]
        ys = [b for _, b in v]
        out = []
        for x in range(max(a for a, _ in v) + 1):
            lo, hi = min(ys), max(ys)
            for (a0, a1), (b0, b1) in edges:
                dx, t = b0 - a0, (b1 - a1) * (x - a0)
                if dx > 0:
                    lo = max(lo, a1 - (-t // dx))
                elif dx < 0:
                    hi = min(hi, a1 + t // dx)
            out.append((x, lo, hi))
        return out


def newton_polygon(P: BiPoly) -> LatticePolygon:
    """Hull of the support of P union {(0,0)}."""
    return support_polygon(P.support())


def support_polygon(points: Iterable[Point]) -> LatticePolygon:
    """Hull of a set of exponents union {(0,0)} via the monotone chain."""
    pts = sorted(set(points) | {(0, 0)})
    if len(pts) == 1:
        return LatticePolygon(((0, 0),), 0)
    lower: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2:
        # all points collinear; keep the two extremes
        return LatticePolygon((hull[0], hull[1]), 1)
    k = hull.index((0, 0))  # origin is the lexicographic minimum, always a vertex
    hull = hull[k:] + hull[:k]
    return LatticePolygon(tuple(hull), 2)


def lattice_counts(N: LatticePolygon) -> Tuple[int, int, int]:
    """(interior points, boundary points, twice the area).

    Boundary points are summed edge by edge as gcd lattice lengths, twice
    the area by the shoelace formula, and interior points follow from
    Pick's formula 2A = 2I + B - 2, so the cost is linear in the number of
    vertices, whatever the degrees.
    """
    v = N.vertices
    if N.dim == 0:
        return 0, 1, 0
    if N.dim == 1:
        (x0, y0), (x1, y1) = v
        return 0, gcd(abs(x1 - x0), abs(y1 - y0)) + 1, 0
    n = len(v)
    a2 = 0
    b = 0
    for k in range(n):
        (x0, y0), (x1, y1) = v[k], v[(k + 1) % n]
        a2 += x0 * y1 - x1 * y0
        b += gcd(abs(x1 - x0), abs(y1 - y0))
    a2 = abs(a2)
    return (a2 - b + 2) // 2, b, a2


@dataclass(frozen=True)
class TriangleFace:
    """Hypotenuse data: degrees and the edge polynomial."""

    dx: int
    dy: int
    E: BiPoly


@dataclass(frozen=True)
class FaceForm:
    """Face polynomial matched as C*(y^q - a*x^p)^m with gcd(p,q)=1."""

    C: object
    a: object
    p: int
    q: int
    m: int

    def expand(self) -> BiPoly:
        base = BiPoly({(0, self.q): RAT_ONE, (self.p, 0): -self.a})
        return base ** self.m * self.C


@dataclass(frozen=True)
class PolygonNotTriangle:
    kind = "PolygonNotTriangle"
    point: Optional[Point] = None
    missing_vertex: Optional[Point] = None


@dataclass(frozen=True)
class FaceNotBinomialPower:
    kind = "FaceNotBinomialPower"
    k: int = 0


def triangle_face(P: BiPoly) -> Union[TriangleFace, PolygonNotTriangle]:
    """Gate: the polygon is the triangle (0,0), (dx,0), (0,dy).

    Requires degx(P) >= 1 and degy(P) >= 1.  Succeeds iff both pure-power
    vertices carry nonzero coefficients and every support point lies on or
    under the hypotenuse; returns the hypotenuse polynomial, else the
    lexicographically smallest support point above it, from one pass over
    the terms.
    """
    dx, dy = P.degx, P.degy
    if dx < 1 or dy < 1:
        raise ValueError("triangle_face requires degx >= 1 and degy >= 1")
    if (dx, 0) not in P.nums:
        return PolygonNotTriangle(missing_vertex=(dx, 0))
    if (0, dy) not in P.nums:
        return PolygonNotTriangle(missing_vertex=(0, dy))
    edge, above = {}, []
    bound = dx * dy
    for (i, j), n in P.nums.items():
        v = dy * i + dx * j
        if v > bound:
            above.append((i, j))
        elif v == bound:
            edge[(i, j)] = n
    if above:
        return PolygonNotTriangle(point=min(above))
    return TriangleFace(dx, dy, BiPoly(edge, P.den))


def face_binomial_power(
    F: TriangleFace,
) -> Union[FaceForm, FaceNotBinomialPower]:
    """Gate: the edge polynomial is C*(y^q - a*x^p)^m.

    m is forced to gcd(dx, dy).  With e_k the integer numerator of the edge
    coefficient of x^(p(m-k)) y^(qk), C = e_m and u1 = e_(m-1), a = -u1/(C m)
    must be nonzero; when it is zero the obstruction is the first slot k < m
    that no nonzero a could fill, the first zero e_k, read off the face's
    own terms, so that a sparse face of large m costs no list.  Otherwise
    the expected numerators follow the ratio of consecutive binomial terms,
    expected_k = expected_(k+1) (k+1) u1 / ((m-k) C m), held as an unreduced
    integer pair from k = m-1 down to 0, and the obstruction is the smallest
    k whose e_k differs.  No power and no rational is built until C and a.
    """
    m = gcd(F.dx, F.dy)
    p, q = F.dx // m, F.dy // m
    get = F.E.nums.get
    c, u1 = get((0, q * m), 0), get((p, q * (m - 1)), 0)
    if not u1:
        present = {j // q for _, j in F.E.nums}
        return FaceNotBinomialPower(k=next(k for k in range(m) if k not in present))
    e = [get((p * (m - k), q * k), 0) for k in range(m + 1)]
    num, den, failed = c, 1, None
    for k in range(m - 1, -1, -1):
        num *= (k + 1) * u1
        den *= (m - k) * c * m
        if e[k] * den != num:
            failed = k
    if failed is not None:
        return FaceNotBinomialPower(k=failed)
    return FaceForm(C=rat(c, F.E.den), a=rat(-u1, c * m), p=p, q=q, m=m)


def edge_faces(P: BiPoly, N: LatticePolygon) -> List[dict]:
    """Per-edge face data for nondegeneracy checks.

    For each edge, e is the face polynomial in the edge parameter, anchored
    at the first vertex: face = x^a y^b * e(t) with t stepping along the
    primitive edge direction.  full_length is the edge lattice length, so a
    face missing an endpoint monomial shows up as deg(e) < full_length or
    e(0) = 0.
    """
    out = []
    for v0, v1 in N.edges():
        ux, uy = v1[0] - v0[0], v1[1] - v0[1]
        g = gcd(abs(ux), abs(uy))
        sx, sy = ux // g, uy // g
        e = UniPoly([P.nums.get((v0[0] + k * sx, v0[1] + k * sy), 0) for k in range(g + 1)], P.den)
        out.append({"v0": v0, "v1": v1, "dir": (sx, sy), "e": e, "full_length": g})
    return out
