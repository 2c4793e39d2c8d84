"""Per-fibre invariants of P - c: absolute factor count, Newton
nondegeneracy, genus and branches at infinity, special value candidates.

The absolute irreducible factor count is the dimension of the rational
solution space of a first-order differential system (Ruppert/Gao): for
squarefree f, pairs (g, h) with g_y f - g f_y = h_x f - h f_x under the
degree bounds degx g <= degx f - 1, degy g <= degy f, degx h <= degx f,
degy h <= degy f - 1.  The bounds are validated against a constructive
oracle in the test suite.  The system is built with integer coefficients
and its rank is taken modulo RUPPERT_PRIME first: rank_p <= rank_Q gives
count_p >= count_Q >= 1, so count_p == 1 certifies absolute
irreducibility, and only count_p > 1 runs the exact elimination over Q.
Genus is the interior lattice point count of the Newton polygon, reported
only under full nondegeneracy and irreducibility; everything outside those
hypotheses is an explicit Unknown, never a guess.

Special value candidates are a superset of the bifurcation set: the
critical values, from resultants of P - c against P_y and P_x, plus the
values atypical at infinity.  The latter lie among the limits of P along the
polar branches at infinity, read off Res_y(Q - c, Q_y) for Q = P(x + t*y, y),
where t is the first of 0, 1, -1, 2, -2, ... with degy Q = deg P, the exact
condition that makes every fibre of Q finite over the x-line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

from ._ratback import RAT_ONE, rat
from .qpoly import BiPoly, UniPoly, _int_form, squarefree_part, substitute
from .coordinate import InternalVerificationFailure
from .newton import edge_faces, lattice_counts, newton_polygon
from .elim import (
    BIPOLY_RING,
    UNIPOLY_RING,
    _unipoly_list_gcd,
    bipoly_gcd,
    bipoly_squarefree_part,
    has_common_torus_zero,
    rat_eliminate,
    rank_mod_p,
    resultant,
    strip_rational_roots,
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

# the largest prime below 2^30, so that residues are one-digit Python ints
RUPPERT_PRIME = 1073741789


def _ruppert_unknowns(m: int, n: int) -> Tuple[List[Tuple[str, int, int]], int]:
    unknowns = [("g", u, v) for u in range(m) for v in range(n + 1)]
    unknowns += [("h", u, v) for u in range(m + 1) for v in range(n)]
    return unknowns, len(unknowns)


def ruppert_rows(f_terms: Dict[Tuple[int, int], int], m: int, n: int):
    """Integer coefficient matrix of the differential system of the integer
    term map f_terms, rows sorted by monomial, absent entries 0."""
    unknowns, ncols = _ruppert_unknowns(m, n)
    columns: List[Dict[Tuple[int, int], object]] = []
    for kind, u, v in unknowns:
        col: Dict[Tuple[int, int], object] = {}

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
    monomials = sorted({e for col in columns for e in col})
    rows = []
    for e in monomials:
        rows.append([col.get(e, 0) for col in columns])
    return rows, ncols


def absolute_factor_count(f: BiPoly) -> int:
    """Number of absolutely irreducible factors of a squarefree polynomial.

    The count is ncols - rank of the Ruppert system, built on the integer
    form of f (a nonzero scalar keeps the kernel).  The count mod
    RUPPERT_PRIME satisfies count_p >= count_Q >= 1, the lower bound being
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


def _factor_count(f: BiPoly) -> int:
    """absolute_factor_count of an f already known nonconstant and
    squarefree."""
    rows, ncols = ruppert_rows(_int_form(dict(f.items()))[1], f.degx, f.degy)
    dim = ncols - rank_mod_p(rows, RUPPERT_PRIME)
    if dim > 1:
        dim = ncols - rat_eliminate(rows)[0]
    if dim < 1:
        raise InternalVerificationFailure(
            "Ruppert solution space lost the logarithmic-derivative solutions"
        )
    return dim


# ---------------------------------------------------------------------------
# Newton nondegeneracy


@dataclass(frozen=True)
class Nondegeneracy:
    ok: bool
    reason: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self):
        return self.ok


def nondegenerate(f: BiPoly) -> Nondegeneracy:
    """True iff every edge face is squarefree with both endpoint monomials
    present, and f, f_x, f_y share no zero with both coordinates nonzero."""
    if f.is_constant():
        raise ConstantInputError("nondegenerate needs a nonconstant input")
    N = newton_polygon(f)
    for face in edge_faces(f, N):
        e: UniPoly = face["e"]
        if e.is_zero() or e.coeffs[0] == 0 or e.deg < face["full_length"]:
            return Nondegeneracy(
                False, "FaceEndpointMissing", f"edge {face['v0']}-{face['v1']}"
            )
        if e.deg >= 1 and squarefree_part(e).deg != e.deg:
            return Nondegeneracy(
                False, "FaceNotSquarefree", f"edge {face['v0']}-{face['v1']}"
            )
    if has_common_torus_zero([f, f.diff_x(), f.diff_y()]):
        return Nondegeneracy(False, "TorusSingular", None)
    return Nondegeneracy(True)


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


def _genus_tail(g: BiPoly) -> MaybeInt:
    """Interior lattice points of g, once g is known squarefree,
    nondegenerate and absolutely irreducible."""
    N = newton_polygon(g)
    if N.dim < 2:
        return Unknown("SegmentPolygon")
    interior, _, _ = lattice_counts(N)
    return interior


def genus(f: BiPoly) -> MaybeInt:
    """Geometric genus via interior lattice points; translation applied first
    when the constant term vanishes (the genus is translation invariant)."""
    if f.is_constant():
        raise ConstantInputError("genus needs a nonconstant input")
    g = f
    if f.constant_term() == 0:
        g = _shift_to_nonzero_constant(f)
        if g is None:
            return Unknown("ShiftFailed")
    if not bipoly_squarefree_part(g)[1]:
        return Unknown("NotSquarefree")
    if not nondegenerate(g).ok:
        return Unknown("Degenerate")
    if _factor_count(g) != 1:
        return Unknown("Reducible")
    return _genus_tail(g)


def branches_at_infinity(f: BiPoly) -> MaybeInt:
    """Number of places at infinity, counted by boundary lattice lengths.

    Unlike the genus this is not translation invariant, so a zero constant
    term is refused rather than shifted away.
    """
    if f.is_constant():
        raise ConstantInputError("branches_at_infinity needs a nonconstant input")
    if f.constant_term() == 0:
        return Unknown("ZeroConstantTerm")
    if not nondegenerate(f).ok:
        return Unknown("Degenerate")
    return _branches_tail(f)


def _branches_tail(f: BiPoly) -> int:
    """Boundary lattice lengths facing infinity, once f is known
    nondegenerate with a nonzero constant term."""
    N = newton_polygon(f)
    if N.dim == 2:
        total = 0
        for v0, v1 in N.edges():
            ux, uy = v1[0] - v0[0], v1[1] - v0[1]
            # CCW boundary: outward normal is the direction rotated by -90
            nu1, nu2 = uy, -ux
            if nu1 > 0 or nu2 > 0:
                total += gcd(abs(ux), abs(uy))
        return total
    # segment through the origin: f = e(x^p y^q) with e(0) != 0
    faces = edge_faces(f, N)
    e: UniPoly = faces[0]["e"]
    p, q = faces[0]["dir"]
    s = squarefree_part(e).deg
    beta = 2 if (p >= 1 and q >= 1) else 1
    return s * beta


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


def fibre_report(P: BiPoly, c) -> FibreReport:
    """All invariants of the fibre P = c, computed on the squarefree part.

    Each invariant is computed once: a translation keeps squarefreeness and
    the factor count, so nondegeneracy is the only test made on the
    polynomial the genus is read from (shifted only for a zero constant
    term, where the branches are refused).
    """
    if P.is_constant():
        raise ConstantInputError("fibre_report needs a nonconstant P")
    sq, reduced = bipoly_squarefree_part(P - BiPoly.const(c))
    count = _factor_count(sq)
    if count != 1:
        reducible = Unknown("Reducible")
        return FibreReport(c, count, reduced, nondegenerate(sq).ok, reducible, reducible)
    shifted = sq.constant_term() == 0
    g = _shift_to_nonzero_constant(sq) if shifted else sq
    if g is None:
        return FibreReport(
            c, count, reduced, False, Unknown("ShiftFailed"), Unknown("ZeroConstantTerm")
        )
    nd = nondegenerate(g).ok
    g_val = _genus_tail(g) if nd else Unknown("Degenerate")
    if shifted:
        b_val = Unknown("ZeroConstantTerm")
    else:
        b_val = _branches_tail(sq) if nd else Unknown("Degenerate")
    return FibreReport(c, count, reduced, nd, g_val, b_val)


# ---------------------------------------------------------------------------
# special value candidates


@dataclass(frozen=True)
class SpecialValues:
    rational_candidates: Tuple
    irrational_witnesses: Tuple[UniPoly, ...]


def _split_x_content(A: BiPoly) -> Tuple[UniPoly, BiPoly]:
    """A in Q[x, c] = cont(c) * pp; returns (content in c, primitive part)."""
    coeffs = A.x_coeffs()  # UniPoly in c per x power
    cont = _unipoly_list_gcd(coeffs)
    pp = BiPoly.from_x_coeffs([u.exact_div(cont) for u in coeffs])
    return cont, pp


def _res_y_minus_c(P: BiPoly, D: BiPoly) -> BiPoly:
    """Res_y(P - c, D) over Q[x, c], c in the y slot."""
    minus_c = [u.to_bipoly("x") for u in P.y_coeffs()]
    minus_c[0] = minus_c[0] - BiPoly.var_y()
    return resultant(minus_c, [u.to_bipoly("x") for u in D.y_coeffs()], BIPOLY_RING)


def _critical_factors(P: BiPoly) -> List[UniPoly]:
    """Polynomials in c whose roots include the critical values of P.

    x is eliminated last from the critical system {P - c, P_x, P_y}: the
    resultants A = Res_y(P - c, P_y) and B = Res_y(P - c, P_x) over Q[x, c]
    give their c-contents, then Res_x of their primitive parts, taken again
    on the cofactors of bipoly_gcd when a shared factor makes it vanish.  The
    path ends early on a zero resultant or on a primitive part free of x,
    which is a unit (Gauss's lemma).  A y-free P is eliminated with x and y
    swapped.
    """
    if P.degy == 0:
        P = BiPoly.from_y_coeffs(P.x_coeffs())
    factors: List[UniPoly] = []
    pps = []
    for D in (P.diff_y(), P.diff_x()):
        R = _res_y_minus_c(P, D)
        if R.is_zero():
            return factors
        cont, pp = _split_x_content(R)
        factors.append(cont)
        pps.append(pp)
    ppA, ppB = pps
    if ppA.degx == 0 or ppB.degx == 0:
        return factors
    R = resultant(ppA.x_coeffs(), ppB.x_coeffs(), UNIPOLY_RING)
    if R.is_zero():
        G = bipoly_gcd(ppA, ppB)
        R = resultant(ppA.exact_div(G).x_coeffs(), ppB.exact_div(G).x_coeffs(), UNIPOLY_RING)
    factors.append(R)
    return factors


def _polar_limits(P: BiPoly) -> UniPoly:
    """A polynomial in c whose roots include the finite limits of P along
    the branches at infinity of its polar curve, and so B-infinity.

    Q = P(x + t*y, y) for the first t in 0, 1, -1, 2, -2, ... with degy Q
    equal to n = deg P: the y^n coefficient of Q is the top form of P at
    (t, 1), a nonzero constant for all but at most n values of t.  Every
    fibre Q = c is then finite over the x-line, branched over the x-roots of
    A(x, c) = Res_y(Q - c, Q_y), which is nonzero since Q - c is irreducible.
    Where the x-leading coefficient of A is nonzero, no branch point escapes
    to infinity as c moves, so P is locally trivial at infinity there.
    """
    n = P.total_degree()
    t = 0
    while True:
        Q = substitute(P, BiPoly({(1, 0): RAT_ONE, (0, 1): rat(t)}), BiPoly.var_y())
        if Q.degy == n:
            return _res_y_minus_c(Q, Q.diff_y()).x_coeffs()[-1]
        t = -t if t > 0 else 1 - t


def special_value_candidates(P: BiPoly) -> SpecialValues:
    """A superset of the values c where the fibre P = c is special.

    A special fibre lies over the bifurcation set: the critical values, which
    are roots of _critical_factors(P), plus the values atypical at infinity
    (Ha Huy Vui & Le Dung Trang, 1984), which are roots of _polar_limits(P)
    (Ha Huy Vui, 1990).  May contain non-special values; irrational roots
    are reported through their squarefree minimal-polynomial cofactors.
    """
    if P.is_constant():
        raise ConstantInputError("special_value_candidates needs a nonconstant P")
    factors = _critical_factors(P) + [_polar_limits(P)]
    cands = set()
    minpolys: List[UniPoly] = []
    for qpol in factors:
        if qpol.is_constant():
            continue
        sqf = squarefree_part(qpol)
        roots, rest = strip_rational_roots(sqf)
        cands.update(roots)
        if rest.deg >= 1 and rest not in minpolys:
            minpolys.append(rest)
    minpolys.sort(key=lambda u: (u.deg, u.coeffs))
    return SpecialValues(tuple(sorted(cands)), tuple(minpolys))
