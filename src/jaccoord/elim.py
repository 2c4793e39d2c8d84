"""Exact elimination machinery: subresultant chains, resultants, bivariate
gcd and squarefree part, exact Gaussian elimination of rational matrices,
and rational roots.

Polynomials in the elimination variable are dense lists of Python
integers, from degree 0 up, and one subresultant chain serves every caller.
All divisions performed by the chain are exact by theory; an inexact
division raises, it is never silently rounded.  resultant is the exact
determinant of Sylvester's matrix, sign included.  The callers pass the
integer numerators of their inputs, and use the chain's elements only up
to nonzero constants.

A chain of A and B in Z[x][y] runs in Z on their images at x = 2^S
(Kronecker substitution), and the caller decodes only the elements it
reads.  S comes from a proved bound: every coefficient of the chain is at
most sqrt((sum_k |A_k|_1^2)^deg B (sum_k |B_k|_1^2)^deg A), see
_kronecker_width.

A bivariate squarefree part is proved to be the input itself modulo
MODULAR_PRIME when it can be, by univariate slices, up to three per
variable; any other input runs the exact gcds with its partial derivatives.

A rational matrix is eliminated fraction-free, on a copy whose rows are
scaled to primitive integer rows, for its rank; an integer matrix also has
a rank modulo a prime, which is a lower bound on its rank over Q, from the
one modular elimination loop, echelon_mod_p, which can also reduce later
rows modulo the span of the first ones.
rat_det, a Bareiss determinant, has no caller here; it stays for the
tests' reference oracles and the benchmark tracer.

Rational roots are found modulo a small prime, lifted p-adically and each
confirmed exactly.  sympy only decides whether a system has a common zero on
the torus x*y != 0, by a Groebner basis computed only when the resultants
can neither prove that there is none nor show one over a rational x.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

import sympy

from .qpoly import (
    MODULAR_PRIME,
    RAT_ONE,
    RAT_ZERO,
    BiPoly,
    UniPoly,
    ZeroPolynomialError,
    _gcd_mod_p,
    _int_coeffs,
    _int_exact_div,
    _int_primitive,
    rat,
    squarefree_part,
)


# ---------------------------------------------------------------------------
# subresultant chains of integer coefficient lists


def _exact_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ValueError("inexact integer division")
    return q


def pstrip(p: List[int]) -> List[int]:
    while p and not p[-1]:
        p.pop()
    return p


def pdeg(p: Sequence) -> int:
    return len(p) - 1


def pseudo_rem(A: Sequence[int], B: Sequence[int]) -> List[int]:
    """prem(A, B): lc(B)^(degA-degB+1) * A mod B."""
    dB = pdeg(B)
    if dB < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    rem, lcB, e = list(A), B[-1], pdeg(A) - dB + 1
    while pdeg(rem) >= dB:
        k, lead = len(rem) - 1 - dB, rem.pop()
        rem = pstrip([c * lcB for c in rem[:k]] + [c * lcB - lead * b for c, b in zip(rem[k:], B)])
        e -= 1
    return [c * lcB ** e for c in rem] if e > 0 else rem


def subresultant_chain(A: List[int], B: List[int]) -> List[Tuple[List[int], int]]:
    """The subresultant PRS of A and B, deg A >= deg B, as pairs (p, h).

    The first pair is (A, lc A), then come B and every nonzero remainder.
    For deg A > deg B, up to sign, h is the principal subresultant
    coefficient s_j of degree j = deg p and p * h / lc p is the subresultant
    S_j; every s_j of a degree the chain skips is zero.  The chain ends on a
    constant p, whose h is Res(A, B) up to sign, or on a nonconstant p, a
    gcd of A and B up to an integer factor.
    """
    if pdeg(A) < pdeg(B):
        raise ValueError(f"subresultant_chain needs deg A >= deg B, got {pdeg(A)} < {pdeg(B)}")
    chain = [(list(A), A[-1])]
    a, b, g, h = A, list(B), 1, 1
    while b:
        delta = pdeg(a) - pdeg(b)
        r = pseudo_rem(a, b) if pdeg(b) > 0 else []
        divisor = g * h ** delta if r else 1
        a, b = b, [_exact_quotient(c, divisor) for c in r]
        g = a[-1]
        h = _exact_quotient(g ** delta, h ** (delta - 1)) if delta else h
        chain.append((a, h))
    return chain


def resultant(A: List[int], B: List[int]) -> int:
    """Res(A, B), the determinant of Sylvester's matrix of A and B, with
    its sign: for deg A >= deg B it is (-1)^s h_last, s the sum of
    deg p_i * deg p_(i+1) over consecutive elements of the chain, and
    otherwise (-1)^(deg A deg B) Res(B, A).
    """
    A, B = pstrip(list(A)), pstrip(list(B))
    if not A or not B:
        return 0
    if pdeg(A) < pdeg(B):
        return (-1) ** (pdeg(A) * pdeg(B)) * resultant(B, A)
    chain = subresultant_chain(A, B)
    last, h = chain[-1]
    if pdeg(last) > 0:  # a common factor
        return 0
    s = sum(pdeg(p) * pdeg(q) for (p, _), (q, _) in zip(chain, chain[1:]))
    return -h if s % 2 else h


# ---------------------------------------------------------------------------
# chains over Z[x], run in Z at x = 2^S


def _kronecker_width(a: Sequence[int], b: Sequence[int], other: int = 0) -> int:
    """The slot width S, a multiple of 8, at which the subresultant chain
    of A and B in Z[x][y] runs in Z, given the l1 norms a_k = |A_k|_1 and
    b_k = |B_k|_1 of their coefficients in Z[x], and that of any other
    element of Z[x] whose image must stay nonzero.

    Every polynomial and every h of the chain is a subresultant of A and B
    up to sign, so each of its coefficients is a minor D(x) of Sylvester's
    matrix, with at most deg B rows of A_k and deg A rows of B_k.  On
    |x| = 1, |A_k(x)| <= a_k and |B_k(x)| <= b_k, so by Hadamard's
    inequality |D(x)| <= sqrt((sum a_k^2)^deg B (sum b_k^2)^deg A), and so
    is each coefficient of D, the mean of D(x) x^-i over the circle.  With
    the inputs' own coefficients and the other one, which covers B = 0 and
    deg B = 0, every coefficient is below 2^(S-1) in absolute value: one
    balanced base-2^S digit of its image at x = 2^S, which is nonzero unless
    it is zero.
    Evaluation there is a ring homomorphism, so each exact division of the
    chain, by a product of its nonzero coefficients, and each
    pseudo-remainder, unique for its power of the leading coefficient, is
    the image of the one over Z[x]: the chain in Z is the image of the chain
    in Z[x].
    """
    na, nb = sum(n * n for n in a), sum(n * n for n in b)
    bits = (max(len(b) - 1, 0) * na.bit_length() + max(len(a) - 1, 0) * nb.bit_length() + 1) // 2
    return 8 * (max(bits, max((*a, *b, other)).bit_length()) // 8 + 1)


def _l1_norms(rows: Sequence[Sequence[int]]) -> List[int]:
    return [sum(map(abs, u)) for u in rows]


def _kronecker_pack(rows: Sequence[Sequence[int]], S: int) -> List[int]:
    """The images at x = 2^S of Z[x] elements (integer coefficient lists)."""
    return [sum(c << S * i for i, c in enumerate(u) if c) for u in rows]


def _kronecker_unpack(v: int, S: int) -> List[int]:
    """The stripped Z[x] element u with u(2^S) = v and every |u_i| < 2^(S-1):
    v plus 2^(S-1) in each of n slots, enough to hold u, has the bytes of
    the digits u_i + 2^(S-1) in [0, 2^S)."""
    k, half, n = S // 8, 1 << (S - 1), abs(v).bit_length() // S + 1
    data = (v + int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")).to_bytes(k * n, "little")
    u = [int.from_bytes(data[i:i + k], "little") - half for i in range(0, k * n, k)]
    while u and not u[-1]:
        u.pop()
    return u


def _zx_resultant(A: List[List[int]], B: List[List[int]]) -> List[int]:
    """Res_y(A, B) of A, B in Z[x][y], sign included, an integer coefficient
    list; the chain runs in Z, and the image of the resultant at x = 2^S is
    the resultant of the images."""
    S = _kronecker_width(_l1_norms(A), _l1_norms(B))
    return _kronecker_unpack(resultant(_kronecker_pack(A, S), _kronecker_pack(B, S)), S)


# ---------------------------------------------------------------------------
# bivariate gcd and squarefree part


def _unipoly_list_gcd(us: Sequence[UniPoly]) -> UniPoly:
    g = UniPoly.zero()
    for u in us:
        g = g.gcd(u)
    return g


def _int_y_rows(f: BiPoly) -> List[List[int]]:
    """f times its denominator, the polynomial of its numerators, in
    Z[x][y]: a list over the powers of y of integer coefficient lists."""
    return [list(u.nums) for u in BiPoly(f.nums).y_coeffs()]


def _int_primitive_rows(rows: List[List[int]]) -> Tuple[UniPoly, List[List[int]]]:
    """(c, rows / c'): c the monic gcd over Q[x] of nonzero rows, c' its
    numerators, primitive as c is monic, which divide each row in Z[x] by
    Gauss's lemma."""
    c = _unipoly_list_gcd([UniPoly(r) for r in rows])
    return c, [_int_exact_div(r, c.nums) for r in rows]


def bipoly_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd in Q[x,y], normalized so the lex-leading coefficient is 1; the
    subresultant chain of the primitive parts in y runs in Z, and only its
    last element is read back to Z[x]."""
    if f.is_zero():
        return _lex_normalize(g)
    if g.is_zero():
        return _lex_normalize(f)
    cf, fp = _int_primitive_rows(_int_y_rows(f))
    cg, gp = _int_primitive_rows(_int_y_rows(g))
    cont = cf.gcd(cg)
    if pdeg(fp) < pdeg(gp):
        fp, gp = gp, fp
    S = _kronecker_width(_l1_norms(fp), _l1_norms(gp))
    last = subresultant_chain(_kronecker_pack(fp, S), _kronecker_pack(gp, S))[-1][0]
    if pdeg(last) == 0:  # coprime primitive parts: the gcd is the content
        return cont.to_bipoly("x")
    # primitive part of the last nonzero subresultant is the pp-gcd
    pp = _int_primitive_rows([_kronecker_unpack(v, S) for v in last])[1]
    return _lex_normalize(BiPoly.from_y_coeffs([UniPoly(u) * cont for u in pp]))


def _lex_normalize(f: BiPoly) -> BiPoly:
    if f.is_zero():
        return f
    lead = max(e for e, _ in f.items())
    c = f.coeff(*lead)
    return f * (RAT_ONE / c)


def _squarefree_mod_p(f: BiPoly, p: int) -> bool:
    """True only when f is squarefree over Q.

    For each variable v of f, the other one is set to a small integer a at
    which lc_v(f) is nonzero mod p, and f(a) must be squarefree in F_p[v];
    when the first such a fails (its slice may run through a singular
    point or meet a component tangentially), up to two more are tried.
    If g^2 divided f, g primitive in Z[x,y] with deg_v g >= 1, then
    lc_v(g)(a) would divide lc_v(f)(a), so g(a) would keep a positive
    degree and g(a)^2 would divide f(a) mod p.
    """
    nums = f.nums
    for v in (0, 1):
        n = max(e[v] for e in nums)
        if n == 0:
            continue
        lead = [(e[1 - v], c) for e, c in nums.items() if e[v] == n]
        bound = max(j for j, _ in lead) + 3  # holds three values a
        admissible = (a for a in range(bound) if sum(c * pow(a, j, p) for j, c in lead) % p)
        for a in itertools.islice(admissible, 3):
            fa = [0] * (n + 1)
            for e, c in nums.items():
                fa[e[v]] += c * pow(a, e[1 - v], p)
            if len(_gcd_mod_p(fa, [k * c for k, c in enumerate(fa)][1:], p)) == 1:
                break
        else:
            return False
    return True


def bipoly_squarefree_part(f: BiPoly) -> Tuple[BiPoly, bool]:
    """(squarefree part, was_already_squarefree) over Q[x,y], char 0.

    A squarefree f is recognised modulo MODULAR_PRIME first; anything that
    certificate cannot prove runs the exact gcds with f_x and f_y."""
    if f.is_zero():
        raise ZeroPolynomialError("squarefree part of zero polynomial")
    if _squarefree_mod_p(f, MODULAR_PRIME):
        return f, True
    g = bipoly_gcd(f, f.diff_x())
    if not g.is_constant():  # else gcd(f, f_x, f_y) is constant too
        g = bipoly_gcd(g, f.diff_y())
    if g.is_constant():
        return f, True
    return f.exact_div(g), False


def bipoly_is_squarefree(f: BiPoly) -> bool:
    return bipoly_squarefree_part(f)[1]


# ---------------------------------------------------------------------------
# exact rational linear algebra, and rank modulo a prime


def rat_eliminate(rows: List[List]) -> int:
    """The rank of a rational matrix, which is left untouched, by Gaussian
    elimination.

    Deterministic: scans columns left to right and picks the first remaining
    row with a nonzero entry.  Fraction-free: each row is scaled to a
    primitive integer row; a row r with entry c in the pivot column becomes
    ((piv/g)*r - (c/g)*prow) / content, g = gcd(piv, c), and rows with a zero
    there are left as they are.
    """
    mat = [_int_primitive(_int_coeffs(row)[1])[1] for row in rows]
    n, r = len(mat), 0
    for col in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(r, n) if mat[i][col]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        piv = mat[r][col]
        ptail = mat[r][col + 1:]
        for i in range(r + 1, n):
            ri = mat[i]
            c = ri[col]
            if c:
                # entries left of col are zero in every row below the pivot
                g = math.gcd(piv, c)
                a, b = piv // g, c // g
                tail = [a * x - b * y for x, y in zip(ri[col + 1:], ptail)]
                h = math.gcd(*tail) or 1
                ri[col] = 0
                ri[col + 1:] = [v // h for v in tail] if h > 1 else tail
        r += 1
    return r


def rank_mod_p(rows: List[List], p: int) -> int:
    """Rank modulo the prime p of a matrix of integers (ints or integral
    rationals), which is left untouched.

    A minor that is nonzero mod p is nonzero over Q, so this is at most the
    rank over Q, and equal to it unless p divides every nonzero maximal
    minor.  It is the number of pivots of echelon_mod_p on all the rows.
    fibre._ruppert_pencil ranks with it, per c, only the rows U that the
    constant term reaches, once reduced modulo the c-free rows T: rank [T; U]
    = rank T + the rank of that block, and the reduction is linear in the
    row.
    """
    mat = [[int(x) % p for x in row] for row in rows]
    return len(echelon_mod_p(mat, p, len(mat)))


def echelon_mod_p(mat: List[List[int]], p: int, pivot_rows: int) -> List[int]:
    """Gaussian elimination modulo the prime p, in place, of a matrix of
    residues, with pivots taken from its first pivot_rows rows only; returns
    their pivot columns, ascending, whose number is the rank of those rows.

    Each pivot column is cleared in every row below the pivot, later rows
    included, by subtracting a multiple of the pivot row: so those rows end
    reduced modulo the row space of the first pivot_rows, zero at every
    pivot column, and the reduction is linear in the row, reduce(a + k b) =
    reduce(a) + k reduce(b) for a scalar k.
    """
    n, rank, pivots = len(mat), 0, []
    for col in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(rank, pivot_rows) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        prow = mat[rank]
        inv = pow(prow[col], -1, p)
        ptail = [(k, x * inv % p) for k, x in enumerate(prow[col + 1:], col + 1) if x]
        for i in range(rank + 1, n):
            ri = mat[i]
            c = ri[col]
            if c:
                ri[col] = 0
                for k, x in ptail:
                    ri[k] = (ri[k] - c * x) % p
        rank += 1
        pivots.append(col)
    return pivots


def rat_det(rows: List[List]):
    """Determinant of a square rational matrix (exact), which is left
    untouched: the integer form of each row (times the lcm of its
    denominators) is eliminated fraction-free (Bareiss, Math. Comp. 22,
    1968); step k replaces a_ij by (a_kk a_ij - a_ik a_kj) / (the previous
    pivot), exact by Sylvester's identity, and the last entry is the
    determinant."""
    forms = [_int_coeffs(row) for row in rows]
    mat = [nums for _, nums in forms]
    n, sign, prev = len(mat), 1, 1
    for k in range(n - 1):
        sel = next((i for i in range(k, n) if mat[i][k]), None)
        if sel is None:
            return RAT_ZERO
        if sel != k:
            mat[k], mat[sel], sign = mat[sel], mat[k], -sign
        piv, ptail = mat[k][k], mat[k][k + 1:]
        for ri in mat[k + 1:]:
            c = ri[k]
            ri[k + 1:] = [(piv * x - c * y) // prev for x, y in zip(ri[k + 1:], ptail)]
        prev = piv
    return rat(sign * mat[-1][-1], math.prod(den for den, _ in forms)) if n else RAT_ONE


# ---------------------------------------------------------------------------
# rational roots modulo a prime, lifted, and torus solvability: resultant
# certificates, then a sympy Groebner basis


def _hom_eval(g: Sequence[int], a: int, b: int) -> int:
    """b^n g(a/b) = sum_k g_k a^k b^(n-k), n = deg g: zero iff g(a/b) = 0."""
    acc, bk = 0, 1
    for c in reversed(g):
        acc, bk = acc * a + c * bk, bk * b
    return acc


def _horner_mod(g: Sequence[int], r: int, m: int) -> int:
    acc = 0
    for c in reversed(g):
        acc = (acc * r + c) % m
    return acc


def rational_roots(u: UniPoly) -> List:
    """All rational roots of a nonzero univariate polynomial, ascending, found
    modulo a prime, lifted p-adically and each confirmed exactly (Loos, SIAM
    J. Comput. 12, 1983).  With the root 0 split off, g is the primitive
    integer form, taken squarefree where a prime shows a multiple root.  A root
    a/b in lowest terms has a | g(0) and b | lc(g), so it is a root r modulo the
    first prime p >= 101 that divides no lc(g) and leaves every root simple;
    lifted to m = p^k > 2 |g(0) lc(g)|, the residue of lc(g) r of least
    absolute value is lc(g) a/b, kept only when g(a/b) = 0 exactly."""
    if u.is_zero():
        raise ZeroPolynomialError("rational_roots of zero polynomial")
    v = next(k for k, n in enumerate(u.nums) if n)
    g = _int_primitive(u.nums[v:])[1]
    roots, p = [RAT_ZERO] if v else [], 100
    if len(g) == 1:
        return roots
    while True:
        p = next(q for q in itertools.count(p + 1) if g[-1] % q and all(q % d for d in range(2, math.isqrt(q) + 1)))
        dg = [k * c for k, c in enumerate(g)][1:]
        residues = [a for a in range(p) if not _horner_mod(g, a, p)]
        if all(_horner_mod(dg, a, p) for a in residues):
            break
        g = _int_primitive(squarefree_part(UniPoly(g)).nums)[1]
    lc, bound = g[-1], 2 * abs(g[0] * g[-1])
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner_mod(g, r, m) * pow(_horner_mod(dg, r, m), -1, m)) % m
        n = lc * r % m
        root = rat(n - m if 2 * n > m else n, lc)
        if not _hom_eval(g, root.numerator, root.denominator):
            roots.append(root)
    return sorted(roots)


def strip_rational_roots(u: UniPoly) -> Tuple[List, UniPoly]:
    """(rational roots, monic cofactor with no rational roots): each root a/b
    divides the numerators as b*t - a, in Z[t] by Gauss's lemma, as often as
    it divides them."""
    roots, rest = rational_roots(u), list(u.nums)
    for a, b in ((r.numerator, r.denominator) for r in roots):
        while not _hom_eval(rest, a, b):
            rest = _int_exact_div(rest, [-a, b])
    return roots, UniPoly(rest, rest[-1])


_SX, _SY, _ST = sympy.symbols("x y t")


def bipoly_to_sympy(f: BiPoly):
    expr = sympy.Integer(0)
    for (i, j), c in f.items():
        expr += sympy.Rational(c) * _SX ** i * _SY ** j
    return expr


def _torus_resultant_gcd(polys: Sequence[BiPoly]) -> Optional[UniPoly]:
    """gcd over Q[x] of Res_y(A, f), for the first A with deg_y A >= 1 and
    every other f; None when there is no such A or only one polynomial.
    The resultants are those of integer multiples of the inputs, by
    _zx_resultant.

    A common zero (x0, y0) makes x0 a root of every Res_y(A, f).  The
    y-degree guard matters: the resultant of two y-free polynomials is 1
    even when they share a root.
    """
    a = next((i for i, f in enumerate(polys) if f.degy >= 1), None)
    if a is None or len(polys) < 2:
        return None
    ay = _int_y_rows(polys[a])
    return _unipoly_list_gcd(
        [UniPoly(_zx_resultant(ay, _int_y_rows(f))) for i, f in enumerate(polys) if i != a]
    )


def _is_monomial(u: UniPoly) -> bool:
    """Whether u is c * t^k with c != 0."""
    return len(u.nums) - u.nums.count(0) == 1


def _resultants_exclude_torus(G: Optional[UniPoly]) -> bool:
    """True when the resultant gcd G is a nonzero c * x^k, so that no
    common zero has x0 != 0.  False means only that G cannot decide."""
    return G is not None and _is_monomial(G)


def _rational_torus_zero(polys: Sequence[BiPoly], G: Optional[UniPoly]) -> bool:
    """True only when the system has a common zero (x0, y0), x0 a nonzero
    rational root of G and y0 != 0.

    At such an x0 the gcd g over Q[y] of every f(x0, y) is zero, when each
    vanishes, or has the common roots in y; any g other than c * y^k has a
    nonzero one.  False means only that no rational x0 shows a zero.
    """
    if G is None or G.is_zero():
        return False
    ys = [f.y_coeffs() for f in polys]
    for x0 in rational_roots(G):
        if x0 == 0:
            continue
        g = _unipoly_list_gcd([UniPoly([u.eval(x0) for u in fy]) for fy in ys])
        if not _is_monomial(g):  # zero, or not c * y^k
            return True
    return False


def has_common_torus_zero(polys: Sequence[BiPoly]) -> bool:
    """Whether the system has a common complex zero with x != 0 and y != 0.

    Two exact certificates come first, both read off the resultant gcd G
    of _torus_resultant_gcd: G = c * x^k answers False, and a common zero
    over a nonzero rational root of G answers True.  Every other system, as
    one whose zeros lie only over irrational x or only on y = 0, is decided
    exactly by a Groebner basis of the system saturated by x*y; the basis is
    [1] iff no such zero exists (Nullstellensatz).
    """
    polys = [f for f in polys if not f.is_zero()]
    if not polys:
        return True  # empty system: every torus point qualifies
    G = _torus_resultant_gcd(polys)
    if _resultants_exclude_torus(G):
        return False
    if _rational_torus_zero(polys, G):
        return True
    exprs = [bipoly_to_sympy(f) for f in polys]
    exprs.append(_SX * _SY * _ST - 1)
    basis = sympy.groebner(exprs, _SX, _SY, _ST, order="grevlex")
    return not (len(basis.exprs) == 1 and basis.exprs[0] == 1)
