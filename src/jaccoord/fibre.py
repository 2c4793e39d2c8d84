"""Per-fibre invariants of P - c: absolute factor count, Newton
nondegeneracy, genus and branches at infinity, special value candidates.

The absolute irreducible factor count is the dimension of the rational
solution space of a first-order differential system (Ruppert/Gao): for
squarefree f, pairs (g, h) with g_y f - g f_y = h_x f - h f_x under the
degree bounds degx g <= degx f - 1, degy g <= degy f, degx h <= degx f,
degy h <= degy f - 1.  Those solutions are spanned by the pairs
g = sum l_i (f/f_i) d_x f_i, h = sum l_i (f/f_i) d_y f_i over the factors
f_i, and by Ostrowski's theorem, N(f) = N(f/f_i) + N(f_i), their supports
lie in N - (1, 0) and N - (0, 1), N the Newton polygon of f with the
origin.  So the system is built on those lattice points alone, the
polytope form of Gao's system (Gao, 2003; Abu Salem, Gao & Lauder, 2004),
with the same solution space, a segment N included; its unknowns are read
off the lattice y-range of N at each x.  The test suite validates it
against the degree box and a constructive oracle.  Each column
is g_y f - g f_y or h f_x - h_x f for one monomial g or h, and the matrix
is in graded order, rows by descending total degree and columns by their
first row, so that it is nearly triangular before elimination.  The
system is built with integer coefficients and its rank is taken modulo
MODULAR_PRIME first: rank_p <= rank_Q gives count_p >= count_Q >= 1, so
count_p == 1 certifies absolute irreducibility, and only count_p > 1 runs
the exact elimination over Q.  Along the pencil P - c only the rows U that
the constant term reaches depend on c, so _ruppert_pencil reduces them
modulo the echelon form of the others, T, once per P, and ranks only that
|U|-row block per c: rank [T; U] = rank T + the rank of U reduced modulo
T's row space, and the reduction is linear in the row.

Every invariant is taken on the squarefree part of P - c.  Two gcds are
proved modulo the same prime where they can be: elim.bipoly_squarefree_part
proves P - c squarefree, and UniPoly.gcd proves that the resultants of the
torus pre-test have a power of x as their gcd.  The exact gcds answer
whatever these one-sided certificates cannot prove.

Genus is the interior lattice point count of the Newton polygon, and the
places at infinity are the lattice lengths of its edges facing infinity.
fibre_report gives both only under full nondegeneracy and irreducibility,
through one gate sequence, _fibre_tail, which genus shares (the public
branches_at_infinity has no irreducibility gate); everything outside those
hypotheses is an explicit Unknown, never a guess.  fibre_report builds the
Newton polygon once, for its budget, and where P - c is its own squarefree
part, the Ruppert system, the edge faces, the genus and the branches all
read that one.

Special value candidates are a superset of the bifurcation set: exactly
the critical values, from one subresultant chain of Q_y and Q_x over Z[x],
run in Z at x = 2^S, plus the values atypical at infinity, among the limits
of Q along the polar branches at infinity, read off the x-leading
coefficient of Res_y(Q - c, Q_y), interpolated in c from deg_y Q
resultants over Z[x], each run in Z the same way.
Q = P(x + t*y, y), where t is the first of 0, 1, -1, 2, -2, ... with
degy Q = deg P, the exact condition that makes every fibre of Q finite
over the x-line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .qpoly import (
    MODULAR_PRIME,
    RAT_ONE,
    RAT_ZERO,
    BiPoly,
    InputTooLarge,
    UniPoly,
    rat,
    squarefree_part,
    substitute,
)
from .coordinate import InternalVerificationFailure
from .newton import LatticePolygon, edge_faces, lattice_counts, newton_polygon, support_polygon
from .elim import (
    _exact_quotient,
    _int_primitive_rows,
    _int_y_rows,
    _kronecker_pack,
    _kronecker_unpack,
    _kronecker_width,
    _l1_norms,
    _zx_resultant,
    bipoly_squarefree_part,
    echelon_mod_p,
    has_common_torus_zero,
    pdeg,
    pseudo_rem,
    pstrip,
    rank_mod_p,
    rat_eliminate,
    strip_rational_roots,
    subresultant_chain,
)


class ConstantInputError(ValueError):
    """The operation needs a nonconstant polynomial."""


class NotSquarefreeError(ValueError):
    """The caller must pass the squarefree part."""


@dataclass(frozen=True)
class Unknown:
    """A refused answer, with the failed gate named."""

    reason: str

    def __repr__(self):
        return f"Unknown({self.reason})"


MaybeInt = Union[int, Unknown]


# ---------------------------------------------------------------------------
# Ruppert/Gao linear system


def ruppert_rows(f_terms: Dict[Tuple[int, int], int], N: Optional[LatticePolygon] = None):
    """Integer coefficient matrix of the differential system of the integer
    term map f_terms, and its column count; absent entries are 0.  N is the
    polygon below, when the caller has built it.

    The unknowns are the lattice points of the Newton polygon N of the keys
    of f_terms plus the origin, read off its y-range at each x.  Column
    g = x^u y^v, for (u+1, v) in N, is g_y f - g f_y, with entry c (v - j)
    at row x^(i+u) y^(j+v-1) for each term c x^i y^j, and column
    h = x^u y^v, for (u, v+1) in N, is h f_x - h_x f, entry c (i - u) at
    row x^(i+u-1) y^(j+v), skipping v = j = 0 and u = i = 0.  Rows are in
    descending total degree, then x-degree, and columns in the order of
    their first row, as in a Macaulay matrix, which elimination barely
    fills in; each column is scattered into its rows.  The polygon and both
    orders follow from the keys of f_terms alone (zero values count), so
    maps on one support share one row set and column order."""
    ranges = (support_polygon(f_terms) if N is None else N).y_ranges()
    columns = [
        {(i + u, j + v - 1): c * (v - j) for (i, j), c in f_terms.items() if v or j}
        for u, (_, lo, hi) in enumerate(ranges[1:]) for v in range(lo, hi + 1)
    ] + [
        {(i + u - 1, j + v): c * (i - u) for (i, j), c in f_terms.items() if u or i}
        for u, lo, hi in ranges for v in range(max(lo, 1) - 1, hi)
    ]
    monomials = sorted({e for col in columns for e in col}, key=lambda e: (-e[0] - e[1], -e[0]))
    index = {e: k for k, e in enumerate(monomials)}
    columns.sort(key=lambda col: min(map(index.__getitem__, col), default=len(index)))
    rows = [[0] * len(columns) for _ in monomials]
    for k, col in enumerate(columns):
        for e, c in col.items():
            rows[index[e]][k] = c
    return rows, len(columns)


def _ruppert_pencil(P: BiPoly):
    """c -> the factor count of P - c modulo MODULAR_PRIME, None where the
    prime divides the denominator of c.  The rows are linear in f: those of
    den*(P - c) are base + k*unit, base the rows of P without its constant
    term, unit the rows of 1 and k = den*(P(0, 0) - c), all built on the
    support of P plus the origin, so they share one polygon, row set and
    column order.

    Only the rows that the constant term reaches depend on c.  So, once per
    P and modulo the prime, the rows split into T, those whose unit half is
    zero, and U, the rest; T is brought to echelon form, and the base and
    unit halves of each U row are reduced modulo its row space, which is
    exact for every k at once, as the reduction is linear in the row.  T's
    pivot columns, where every reduced row is zero, are dropped.  Since
    rank [T; U] = rank T + the rank of U reduced modulo T's row space, a
    sample ranks only the |U| x (ncols - rank T) block base + k*unit of the
    reduced halves, and its count is ncols - rank T - that rank."""
    den, nums = P.den, dict(P.nums)
    k0, p, N = nums.pop((0, 0), 0), MODULAR_PRIME, newton_polygon(P)
    base, ncols = ruppert_rows({**nums, (0, 0): 0}, N)
    unit = ruppert_rows({**dict.fromkeys(nums, 0), (0, 0): 1}, N)[0]
    t_rows, u_base, u_unit = [], [], []
    for rb, re in zip(base, unit):
        rb, re = [b % p for b in rb], [e % p for e in re]
        if any(re):
            u_base.append(rb)
            u_unit.append(re)
        else:
            t_rows.append(rb)
    pivots = set(echelon_mod_p(t_rows + u_base + u_unit, p, len(t_rows)))
    keep = [k for k in range(ncols) if k not in pivots]
    pairs = [([rb[k] for k in keep], [re[k] for k in keep]) for rb, re in zip(u_base, u_unit)]

    def count(c) -> Optional[int]:
        if c.denominator % p == 0:
            return None
        k = (k0 * c.denominator - den * c.numerator) * pow(c.denominator, -1, p) % p
        return len(keep) - rank_mod_p([[b + k * e for b, e in zip(rb, re)] for rb, re in pairs], p)

    return count


def absolute_factor_count(f: BiPoly) -> int:
    """Number of absolutely irreducible factors of a squarefree polynomial.

    The count is ncols - rank of the Ruppert system, built on the
    numerators of f (a nonzero scalar keeps the kernel).  The count mod
    MODULAR_PRIME satisfies count_p >= count_Q >= 1, the lower bound being
    the logarithmic-derivative solution; so count_p == 1 is the exact answer,
    and only count_p > 1 (a reducible fibre, or a prime dividing the minors)
    runs the exact elimination, whose count is final.  A count of 0, mod p
    and hence over Q, is an internal failure.
    """
    if f.is_constant():
        raise ConstantInputError("absolute_factor_count needs a nonconstant input")
    if not bipoly_squarefree_part(f)[1]:
        raise NotSquarefreeError("input must be squarefree")
    return _factor_count(f)


def _factor_count(f: BiPoly, count_p: Optional[int] = None, N: Optional[LatticePolygon] = None) -> int:
    """absolute_factor_count of an f already known nonconstant and
    squarefree, given its count modulo MODULAR_PRIME and its Newton polygon
    if known."""
    rows, ncols = ruppert_rows(f.nums, N)
    dim = ncols - rank_mod_p(rows, MODULAR_PRIME) if count_p is None else count_p
    if dim > 1:
        dim = ncols - rat_eliminate(rows)
    if dim < 1:
        raise InternalVerificationFailure(
            "Ruppert solution space lost the logarithmic-derivative solutions"
        )
    return dim


# ---------------------------------------------------------------------------
# Newton nondegeneracy


def nondegenerate(f: BiPoly, N: Optional[LatticePolygon] = None) -> bool:
    """True iff every edge face is squarefree with both endpoint monomials
    present, and f, f_x, f_y share no zero with both coordinates nonzero;
    N is the Newton polygon of f, when the caller has built it."""
    if f.is_constant():
        raise ConstantInputError("nondegenerate needs a nonconstant input")
    N = newton_polygon(f) if N is None else N
    return _faces_nondegenerate(f, N) and not has_common_torus_zero([f, f.diff_x(), f.diff_y()])


def _faces_nondegenerate(f: BiPoly, N: LatticePolygon) -> bool:
    """The edge-face half of nondegenerate, on the Newton polygon N of f:
    all of it for a smooth f = 0."""
    return all(_face_ok(face["e"], face["full_length"]) for face in edge_faces(f, N))


def _face_ok(e: UniPoly, length: int) -> bool:
    """Whether a face polynomial has both endpoint monomials and no square."""
    return e.deg == length and e.nums[0] != 0 and e.gcd(e.derivative()).deg == 0


# ---------------------------------------------------------------------------
# genus and branches at infinity


def _shift_to_nonzero_constant(f: BiPoly) -> Optional[BiPoly]:
    """Seeded translation (x,y) -> (x+u, y+v) with f(u,v) != 0; None if the
    8 attempts all fail."""
    rng = random.Random(0)
    for _ in range(8):
        u = rat(rng.randint(-7, 7), rng.randint(1, 3))
        v = rat(rng.randint(-7, 7), rng.randint(1, 3))
        if f.eval(u, v) != 0:
            sx = BiPoly({(1, 0): RAT_ONE, (0, 0): u})
            sy = BiPoly({(0, 1): RAT_ONE, (0, 0): v})
            return substitute(f, sx, sy)
    return None


def genus(f: BiPoly) -> MaybeInt:
    """Geometric genus of the squarefree curve f = 0, as fibre_report reads
    it for the fibre f = 0: through the same gates, in the same order."""
    if f.is_constant():
        raise ConstantInputError("genus needs a nonconstant input")
    if not bipoly_squarefree_part(f)[1]:
        return Unknown("NotSquarefree")
    return _fibre_tail(RAT_ZERO, f, True, None, nondegenerate).genus


def branches_at_infinity(f: BiPoly) -> MaybeInt:
    """Number of places at infinity, counted by boundary lattice lengths.

    The number of places is translation invariant, like the genus; only
    the lattice formula needs a nonzero constant term, so a zero one is
    refused here rather than shifted away.  There is no irreducibility
    gate: each factor contributes its own places.
    """
    if f.is_constant():
        raise ConstantInputError("branches_at_infinity needs a nonconstant input")
    if f.constant_term() == 0:
        return Unknown("ZeroConstantTerm")
    N = newton_polygon(f)
    if not nondegenerate(f, N):
        return Unknown("Degenerate")
    return _branches_tail(N)


def _branches_tail(N: LatticePolygon) -> int:
    """Lattice lengths of the edges facing infinity of the Newton polygon N
    of f, once f is known nondegenerate with a nonzero constant term.

    The edges run a -> b around the vertex cycle of the Newton polygon, and
    one faces infinity when its outward normal (b1 - a1, a0 - b0) has a
    positive coordinate.  A segment's cycle runs it both ways, so a slanted
    segment counts twice and an axis segment once; nondegeneracy makes the
    face polynomial squarefree of degree the lattice length, one place per
    root.
    """
    v = N.vertices
    edges = zip(v, v[1:] + v[:1])
    return sum(gcd(b[0] - a[0], b[1] - a[1]) for a, b in edges if b[1] > a[1] or a[0] > b[0])


# ---------------------------------------------------------------------------
# fibre report


@dataclass(frozen=True)
class FibreReport:
    c: object
    abs_factor_count: int
    multiplicity_reduced: bool
    nondegenerate: bool
    genus: MaybeInt
    branches_at_infinity: MaybeInt


# Budget of fibre_report, checked before any work: the lattice points of the
# Newton polygon of P - c, on which the Ruppert system is built; 435 is a dense
# degree-28 triangle.  On a 2-vCPU Xeon at c = 1/3, the degree-27 coordinate
# gen_random_coordinate(14, 3, 3, 3) (406 points) takes 7.1 s; at the bound, a
# dense 29x15 box takes 26 s and a dense degree-28 triangle 59 s, coefficients
# drawn from +-1, +-2, +-3 (on dense P mostly the nondegeneracy test's
# resultants: 1.4 of 1.8 s at degree 18), and x^433 + y 0.04 s.
MAX_FIBRE_POINTS = 435


def fibre_report(P: BiPoly, c) -> FibreReport:
    """All invariants of the fibre P = c, computed on the squarefree part;
    InputTooLarge past MAX_FIBRE_POINTS.

    Each invariant is computed once: a translation keeps squarefreeness and
    the factor count, so nondegeneracy is the only test made on the
    polynomial the genus is read from (shifted only for a zero constant
    term, where the branches are refused).  theorem3_scan skips the
    squarefree and torus tests where c is not a critical value, as a
    repeated factor or a singular point of P - c, or of a translate of it,
    would be a critical point of value c.
    """
    if P.is_constant():
        raise ConstantInputError("fibre_report needs a nonconstant P")
    f = P - BiPoly.const(c)
    N = newton_polygon(f)
    interior, boundary, _ = lattice_counts(N)
    if interior + boundary > MAX_FIBRE_POINTS:
        raise InputTooLarge(
            f"fibre polygon with {interior + boundary} lattice points, more than {MAX_FIBRE_POINTS}"
        )
    sq, reduced = bipoly_squarefree_part(f)
    return _fibre_tail(c, sq, reduced, None, nondegenerate, N if reduced else None)


def _fibre_tail(c, sq: BiPoly, reduced: bool, count_p: Optional[int], nondeg, N=None) -> FibreReport:
    """fibre_report from the squarefree part sq, given a factor count modulo
    MODULAR_PRIME if known (final when 1), a nondegeneracy test of (f, N)
    and the Newton polygon N of sq if known.  The one gate sequence of the
    genus and the branches: Reducible, ShiftFailed, Degenerate, then
    SegmentPolygon for the genus and ZeroConstantTerm for the branches."""
    N = newton_polygon(sq) if N is None else N
    count = 1 if count_p == 1 else _factor_count(sq, count_p, N)
    if count != 1:
        reducible = Unknown("Reducible")
        return FibreReport(c, count, reduced, nondeg(sq, N), reducible, reducible)
    shifted = sq.constant_term() == 0
    g = _shift_to_nonzero_constant(sq) if shifted else sq
    if g is None:
        return FibreReport(c, count, reduced, False, Unknown("ShiftFailed"), Unknown("ZeroConstantTerm"))
    N = newton_polygon(g) if shifted else N
    nd = nondeg(g, N)
    if not nd:
        g_val = Unknown("Degenerate")
    elif N.dim < 2:
        g_val = Unknown("SegmentPolygon")
    else:
        g_val = lattice_counts(N)[0]
    if shifted:
        b_val = Unknown("ZeroConstantTerm")
    else:
        b_val = _branches_tail(N) if nd else Unknown("Degenerate")
    return FibreReport(c, count, reduced, nd, g_val, b_val)


def _fibre_pencil(P: BiPoly, count_p):
    """c -> fibre_report(P, c) for c not a critical value of P, given
    count_p = _ruppert_pencil(P).  For c != P(0, 0), P - c has the Newton
    polygon of P, which holds the origin, so the genus, the branches and
    the faces away from the origin are read once per P; each c tests only
    the at most two faces through the origin, less c in the origin's slot.
    A count other than 1, and c = P(0, 0), take _fibre_tail, on the same
    polygon, as every P - c has it."""
    N, k0, near, far = newton_polygon(P), P.constant_term(), [], True
    for face in edge_faces(P, N):
        e, n = face["e"], face["full_length"]
        if (0, 0) in (face["v0"], face["v1"]):
            near.append((e, n, 0 if face["v0"] == (0, 0) else n))
        else:
            far = far and _face_ok(e, n)
    genus = lattice_counts(N)[0] if N.dim == 2 else Unknown("SegmentPolygon")
    branches, degenerate = _branches_tail(N), Unknown("Degenerate")

    def report(c) -> FibreReport:
        count = count_p(c)
        if count != 1 or c == k0:
            return _fibre_tail(c, P - BiPoly.const(c), True, count, _faces_nondegenerate, N)
        if far and all(_face_ok(e - UniPoly.monomial(c, o), n) for e, n, o in near):
            return FibreReport(c, 1, True, True, genus, branches)
        return FibreReport(c, 1, True, False, degenerate, degenerate)

    return report


# ---------------------------------------------------------------------------
# special value candidates


@dataclass(frozen=True)
class SpecialValues:
    rational_candidates: Tuple
    irrational_witnesses: Tuple[UniPoly, ...]


# Budgets of special_value_candidates, checked before the work they bound: _polar_limits
# takes 0.5-6.2 s (median 1.1 s) on eight degree-12 generator coordinates and 5 s on a
# dense degree-12 P, the 25 critical points of a dense sextic 2 s.
MAX_SPECIAL_DEGREE = 12
MAX_CRITICAL_POINTS = 25


def _shear(P: BiPoly) -> BiPoly:
    """Q = P(x + t*y, y) for the first t in 0, 1, -1, 2, -2, ... with degy Q
    equal to n = deg P: the y^n coefficient of Q is the top form of P at
    (t, 1), a nonzero constant for all but at most n values of t.  Every
    fibre of Q, and its critical set, is then finite over the x-line."""
    n, t = P.total_degree(), 0
    while True:
        Q = substitute(P, BiPoly({(1, 0): RAT_ONE, (0, 1): rat(t)}), BiPoly.var_y())
        if Q.degy == n:
            return Q
        t = -t if t > 0 else 1 - t


def _chain(A: BiPoly, B: BiPoly) -> Tuple[int, List[Tuple[List[int], int]]]:
    """(S, chain): the subresultant chain in y of the numerators a of A,
    whose y-leading coefficient is a nonzero constant, and b of B, with
    deg_y B <= deg_y A, reduced modulo a, run in Z on their images at
    x = 2^S; _kronecker_unpack reads an element back to Z[x].  Each element
    is that of the chain over Q[x] up to a nonzero constant.  The reduction
    is at most one pseudo-division step, lc(a) b - lc(b) a, whose k-th
    coefficient has l1 norm at most |lc a| |b_k|_1 + |lc b|_1 |a_k|_1; the
    width also keeps the image of lc(b) nonzero, so that the step runs."""
    a, b = _int_y_rows(A), _int_y_rows(B)
    na, nb = _l1_norms(a), _l1_norms(b)
    top = nb.pop() if len(b) == len(a) else 0
    if top:
        nb = [abs(a[-1][0]) * m + top * n for m, n in zip(nb, na)]
    S = _kronecker_width(na, nb, top)
    a, b = _kronecker_pack(a, S), pstrip(_kronecker_pack(b, S))
    return S, subresultant_chain(a, pseudo_rem(b, a))


def _inverse_mod(a: UniPoly, T: UniPoly) -> UniPoly:
    """a^-1 modulo T, for a coprime to T (extended Euclidean algorithm)."""
    r0, r1, s0, s1 = T, a.divmod(T)[1], UniPoly.zero(), UniPoly.const(1)
    while r1.deg > 0:
        q, r = r0.divmod(r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    return (s1 * (1 / r1[0])).divmod(T)[1]


def _power_sums(t: Sequence, count: int, reduce=lambda u: u) -> List:
    """Power sums p_0, ..., p_(count-1), count <= m, of the roots of a monic
    t of degree m: p_i = -(i t_(m-i) + sum_(0<j<i) t_(m-j) p_(i-j))."""
    m, p = len(t) - 1, [t[-1] * (len(t) - 1)]
    for i in range(1, count):
        p.append(reduce(-sum((t[m - j] * p[i - j] for j in range(1, i)), t[m - i] * i)))
    return p


def _values_over(T: UniPoly, S: List[UniPoly], Q: BiPoly) -> UniPoly:
    """The monic polynomial in c whose roots are the values of Q, with
    multiplicity, at the points with T(x) = 0 = S(x, y), for a monic
    squarefree T and an S whose y-leading coefficient is a unit modulo T.
    It is the characteristic polynomial of Q on A = K[y]/(S), K = Q[x]/(T),
    from the traces Tr_K(Tr_(A/K)(Q^i)) and Newton's identities.  For
    deg_y S = 1, Q reduces to Q(x, -s0/s1) in K: the shape position of a
    rational univariate representation (Rouillier, 1999).
    """
    inv = _inverse_mod(S[-1], T)
    S = [(u * inv).divmod(T)[1] for u in S]  # monic in y

    def reduce(U):  # U modulo S, monic in y, then modulo T
        U, m = list(U), len(S) - 1
        while len(U) > m:
            lead = U.pop()
            U[len(U) - m:] = [u - lead * s for u, s in zip(U[len(U) - m:], S)]
        return [u.divmod(T)[1] for u in U]

    sigma, tau = _power_sums(S, len(S) - 1, lambda u: u.divmod(T)[1]), _power_sums(T.coeffs, T.deg)
    q = BiPoly.from_y_coeffs(reduce(Q.y_coeffs()))
    power, sums, coeffs = q, [], [RAT_ONE]  # coeffs[i] is that of c^(N - i)
    for i in range(1, T.deg * (len(S) - 1) + 1):
        tr = sum((u * s for u, s in zip(power.y_coeffs(), sigma)), UniPoly.zero()).divmod(T)[1]
        sums.append(sum((a * b for a, b in zip(tr.coeffs, tau)), RAT_ZERO))
        coeffs.append(-sum((coeffs[j] * sums[i - j - 1] for j in range(i)), RAT_ZERO) / i)
        power = BiPoly.from_y_coeffs(reduce((power * q).y_coeffs()))
    return UniPoly(coeffs[::-1])


def _critical_factors(Q: BiPoly) -> List[UniPoly]:
    """Polynomials in c whose roots are exactly the critical values of Q.

    One subresultant chain in y of Q_y and Q_x, which specialises at every
    x0 because lc_y Q_y is a nonzero constant.  A nonconstant last element
    gives G = gcd(Q_x, Q_y), a curve of critical points on each component
    of which Q is constant, so the values over x = 0 are all of them; the
    chain is then taken of the cofactors.  Their common zeros lie over the
    roots of T, the squarefree part of their resultant.  Over a root where
    the principal subresultant coefficients s_j vanish for 0 < j < k and s_k
    does not, their gcd is the subresultant S_k, of degree k in y, so T
    splits into pieces T_k (Gonzalez-Vega & El Kahoui, 1996).
    """
    Qy, Qx = Q.diff_y(), Q.diff_x()
    (S, chain), pieces = _chain(Qy, Qx), []
    G = chain[-1][0]
    if pdeg(G) > 0:
        G = _int_primitive_rows([_kronecker_unpack(v, S) for v in G])[1]
        G = BiPoly.from_y_coeffs([UniPoly(u) for u in G])
        pieces.append((UniPoly([0, 1]), G.y_coeffs()))
        S, chain = _chain(Qy.exact_div(G), Qx.exact_div(G))

    def read(v: int) -> UniPoly:
        return UniPoly(_kronecker_unpack(v, S))

    T = squarefree_part(read(chain[-1][1]))
    for p, h in reversed(chain[:-1]):  # rising degree, up to (Q_y / G, const)
        h = read(h)
        g = T.gcd(h)
        Tk, T = T.exact_div(g), g
        if Tk.deg >= 1:
            pieces.append((Tk, [(read(u) * h).exact_div(read(p[-1])) for u in p]))
    points = sum(Tk.deg * (len(Sk) - 1) for Tk, Sk in pieces)
    if points > MAX_CRITICAL_POINTS:
        raise InputTooLarge(f"{points} critical points to evaluate, more than {MAX_CRITICAL_POINTS}")
    return [_values_over(Tk, Sk, Q) for Tk, Sk in pieces]


def _interpolate(values: Sequence[int]) -> List[int]:
    """The coefficients, from degree 0 up, of the polynomial in Z[c] of
    degree < n that takes values[k] at c = k, k < n, by Newton's divided
    differences: the k-th one at consecutive integers is the k-th finite
    difference over k!, an integer for a polynomial in Z[c]."""
    dd, n = list(values), len(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = _exact_quotient(dd[i] - dd[i - 1], k)
    out = [dd[-1]]
    for k in range(n - 2, -1, -1):  # out * (c - k) + dd[k]
        out = [a - k * b for a, b in zip([0] + out, out + [0])]
        out[0] += dd[k]
    return out


def _polar_limits(Q: BiPoly) -> UniPoly:
    """A polynomial in c whose roots include the finite limits of Q along
    the branches at infinity of its polar curve, and so B-infinity.

    Q is a _shear, so each fibre Q = c is branched over the x-roots of
    A(x, c) = Res_y(Q - c, Q_y), here Res_y(d*Q - d*c, d*Q_y) on the
    numerators d*Q of Q.  Where the x-leading coefficient of A is nonzero,
    no branch point escapes to infinity as c moves, so Q is locally trivial
    at infinity there.  Only the n - 1 rows of d*Q - d*c in Sylvester's
    matrix hold c, n = deg_y Q, so that coefficient, of degree < n in c, is
    nonzero at one of c = 0, ..., n - 1 and is interpolated from the top
    coefficients of the longest of the n resultants A(x, k) over Z[x],
    exact as lc_y Q is a constant.
    """
    rows = _int_y_rows(Q)
    dy = [[j * n for n in row] for j, row in enumerate(rows) if j]
    first = rows[0] or [0]
    values = [_zx_resultant([[first[0] - Q.den * k] + first[1:]] + rows[1:], dy) for k in range(len(dy))]
    top = max(map(len, values))
    return UniPoly(_interpolate([v[-1] if len(v) == top else 0 for v in values]))


def special_value_candidates(P: BiPoly) -> SpecialValues:
    """A superset of the values c where the fibre P = c is special.

    A special fibre lies over the bifurcation set: the critical values, the
    roots of _critical_factors(Q), plus the values atypical at infinity (Ha
    Huy Vui & Le Dung Trang, 1984), among the roots of _polar_limits(Q) (Ha
    Huy Vui, 1990), Q = _shear(P).  May contain non-special values; irrational
    roots are reported through their squarefree minimal-polynomial cofactors.
    InputTooLarge past MAX_SPECIAL_DEGREE or MAX_CRITICAL_POINTS.
    """
    if P.is_constant():
        raise ConstantInputError("special_value_candidates needs a nonconstant P")
    if P.total_degree() > MAX_SPECIAL_DEGREE:
        raise InputTooLarge(f"special values need deg P <= {MAX_SPECIAL_DEGREE}, got {P.total_degree()}")
    Q = _shear(P)
    factors = _critical_factors(Q) + [_polar_limits(Q)]
    cands, minpolys = set(), []
    for qpol in (f for f in factors if not f.is_constant()):
        roots, rest = strip_rational_roots(squarefree_part(qpol))
        cands.update(roots)
        if rest.deg >= 1 and rest not in minpolys:
            minpolys.append(rest)
    minpolys.sort(key=lambda u: (u.deg, u.coeffs))
    return SpecialValues(tuple(sorted(cands)), tuple(minpolys))
