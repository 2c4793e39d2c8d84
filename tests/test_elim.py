"""Resultants, bivariate gcd, squarefree parts, exact linear algebra."""

import copy
import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from jaccoord import (
    BiPoly,
    UniPoly,
    bipoly_gcd,
    bipoly_is_squarefree,
    bipoly_squarefree_part,
    gen_random_coordinate,
    parse_poly,
    rat,
    squarefree_part,
    theorem3_scan,
)
from jaccoord import elim, fibre, qpoly
from jaccoord.elim import (
    bipoly_to_sympy,
    has_common_torus_zero,
    rat_det,
    rank_mod_p,
    rat_eliminate,
    rational_roots,
    resultant,
    strip_rational_roots,
    subresultant_chain,
)

X, Y, C = sympy.symbols("x y c")


def unipoly_to_sympy(u: UniPoly, sym) -> sympy.Poly:
    return sympy.Poly.from_list([sympy.Rational(c) for c in reversed(u.coeffs)] or [0], sym)


def upoly(*coeffs):
    return UniPoly([rat(c) for c in coeffs])


def ints(u: UniPoly):
    """The coefficients of a UniPoly with integer coefficients, as ints."""
    return [int(c) for c in u.coeffs]


def sparse_poly(rng, deg, even, degx, rational=False):
    """Random polynomial of y-degree deg (2*deg, in even powers of y only,
    when even) and x-degree at most degx; the skipped y-powers let a
    remainder chain drop by more than one degree.  Integer coefficients, or
    with rational, numerators up to 20 digits over mixed denominators."""

    def coeff(nonzero):
        num = rng.choice([-2, -1, 1, 2]) if nonzero else rng.randint(-3, 3)
        if not rational:
            return rat(num)
        num *= rng.choice([1, 1, 10**19 + 1 + rng.randrange(10**19)])
        return rat(num, rng.choice([1, 2, 3, 7, 12, 10**19 + 3]))

    terms = {}
    for j in range(deg + 1):
        if j == deg or rng.random() < 0.5:
            jj = 2 * j if even else j
            for i in range(degx + 1):
                terms[(i, jj)] = coeff(False)
            terms[(0, jj)] = coeff(True)
    return BiPoly(terms)


def _rows_to_sympy(rows):
    """The sympy expression of a list over the powers of y of integer
    coefficient lists in x."""
    return sum((c * X**i * Y**k for k, u in enumerate(rows) for i, c in enumerate(u)), sympy.Integer(0))


def _sympy_flat(expr):
    """{(k, i): coefficient of x^i y^k} of a sympy expression in x and y."""
    return {(j, i): rat(c.p, c.q) for (i, j), c in sympy.Poly(expr, X, Y).terms() if c}


def _sylvester_det(a, b):
    """Res(A, B) from its definition: the determinant of Sylvester's matrix,
    the rows x^i A for i < deg B over the rows x^i B for i < deg A, in the
    powers of x from the top; 1 for two constants.  Coefficient lists run
    from degree 0 up."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return rat_det([[rat(v) for v in row] for row in rows]) if rows else 1


class TestResultant:
    def test_linear_pair(self):
        # Res(t - 2, t - 5) = 2 - 5
        assert resultant([-2, 1], [-5, 1]) == -3

    def test_common_root_gives_zero(self):
        a = upoly(-1, 1) * upoly(2, 1)  # (t-1)(t+2)
        b = upoly(-1, 1) * upoly(5, 1)  # (t-1)(t+5)
        assert resultant(ints(a), ints(b)) == 0

    def test_multiplicativity(self):
        rng = random.Random(30)
        for _ in range(20):
            a = upoly(rng.randint(-4, 4), rng.randint(1, 4))
            b = upoly(rng.randint(-4, 4), rng.randint(1, 4), rng.randint(1, 3))
            c = upoly(rng.randint(-4, 4), rng.randint(1, 4))
            rab = resultant(ints(a * b), ints(c))
            assert rab == resultant(ints(a), ints(c)) * resultant(ints(b), ints(c))

    def test_root_product_formula(self):
        # Res(f, g) = lc(f)^deg g * prod g(root_i)
        f = upoly(-6, 1) * upoly(1, 1)  # roots 6, -1
        g = upoly(-2, 0, 1)  # t^2 - 2
        assert resultant(ints(f), ints(g)) == g.eval(rat(6)) * g.eval(rat(-1))

    def test_constant_operand(self):
        # Res(c, B) = c^deg B and Res(c, d) = 1, over Z and over Z[x]
        t2 = [-2, 0, 1]  # t^2 - 2
        assert resultant([3], t2) == 9
        assert resultant(t2, [3]) == 9
        assert resultant([5], [7]) == 1
        # Res_y(y^2 - x, x + 1) = (x + 1)^2
        assert elim._zx_resultant([[0, -1], [], [1]], [[1, 1]]) == ints(parse_poly("x^2 + 2*x + 1").y_coeffs()[0])

    def test_unipoly_coefficients(self):
        # Res_y(y^2 - x^3 - x - 1, 2y) = Res_y(2y, y^2 - x^3 - x - 1)
        # = 2^2 (-x^3 - x - 1)
        P, Q = (elim._int_y_rows(parse_poly(t)) for t in ("y^2 - x^3 - x - 1", "2*y"))
        assert elim._zx_resultant(P, Q) == [-4 * c for c in ints(parse_poly("x^3 + x + 1").y_coeffs()[0])]

    def test_matches_sympy(self):
        # equal to sympy's resultant, the determinant of Sylvester's matrix,
        # sign included, over Z and over Z[x]; the
        # inputs include common factors, and chains whose degree drops by
        # more than one after the first step, where h^(delta-1) divides;
        # the last 80 pairs are the integer multiples of rational ones
        rng = random.Random(33)
        inner_gaps = [0, 0, 0]
        for k in range(240):
            rational = k >= 160
            degx, even = 1 if rational else k % 2, k % 3 == 0
            da = rng.randint(2, 5)
            f = sparse_poly(rng, da, even, degx, rational)
            g = sparse_poly(rng, rng.randint(1, da), even, degx, rational)
            if k % 10 == 0:
                f, g = f * parse_poly("y - 1"), g * parse_poly("y - 1")
            A, B = elim._int_y_rows(f), elim._int_y_rows(g)
            if degx == 0:
                A, B = [u[0] if u else 0 for u in A], [u[0] if u else 0 for u in B]
                degs = [len(p) - 1 for p, _ in subresultant_chain(A, B)]
                r = [resultant(A, B)]
            else:
                degs = [len(p) - 1 for p, _ in _zx_run(A, B)[0]]
                r = elim._zx_resultant(A, B)
            inner_gaps[degx + rational] += any(
                degs[i] - degs[i + 1] > 1 for i in range(1, len(degs) - 2)
            )
            r = unipoly_to_sympy(UniPoly(r), X)
            expected = sympy.resultant(bipoly_to_sympy(BiPoly(f.nums)), bipoly_to_sympy(BiPoly(g.nums)), Y)
            expected = sympy.Poly(expected, X)
            assert r == expected, (f, g)
        assert min(inner_gaps) >= 10, inner_gaps

    def test_sign_is_the_sylvester_determinant(self):
        # the exact determinant, in both orders: constant operands, shared
        # factors, gapped chains, and degrees of odd product, where the
        # two orders differ in sign
        rng = random.Random(44)
        kinds = dict.fromkeys(("constant", "shared", "gap", "odd"), 0)
        for k in range(200):
            a, b = ([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))] + [rng.choice([-3, -1, 1, 2])]
                    for _ in range(2))
            if k % 3 == 0:  # even powers only
                a = [c for u in a for c in (u, 0)][:-1]
            if k % 5 == 0:  # a common factor t + 2
                a, b = ([2 * u + v for u, v in zip(p + [0], [0] + p)] for p in (a, b))
            for p, q in ((a, b), (b, a)):
                r = resultant(p, q)
                assert r == _sylvester_det(p, q), (p, q)
            kinds["constant"] += min(len(a), len(b)) == 1
            kinds["shared"] += k % 5 == 0 and r == 0
            kinds["gap"] += k % 3 == 0
            kinds["odd"] += r != 0 and (len(a) - 1) * (len(b) - 1) % 2 == 1
        assert min(kinds.values()) >= 10, kinds

    def test_prs_ends_with_gcd(self):
        a = upoly(-1, 0, 1) * upoly(1, 1)  # (t^2-1)(t+1)
        b = upoly(-1, 0, 1)  # t^2 - 1
        chain = subresultant_chain(ints(a), ints(b))
        last = UniPoly(chain[-1][0]).monic()
        assert last == upoly(-1, 0, 1).monic()

    def test_prs_needs_ordered_degrees(self):
        # deg A < deg B used to return a wrong chain over Q (ending on 21/5,
        # not 21) and an inexact division over Q[x]
        A, B = [1, 2], [3, 0, 1, 5]
        assert subresultant_chain(B, A)[-1][0] == [21]
        with pytest.raises(ValueError, match="deg A >= deg B"):
            subresultant_chain(A, B)


def _det_subresultant(a, b, j):
    """S_j(A, B) from its definition, deg A = m >= deg B = n > j or
    m > n = j: the rows are x^i B for i < m - j and x^i A for i < n - j,
    the columns the powers x^(m+n-j-1), ..., x^(j+1) and then x^i for the
    coefficient of x^i, i <= j.  Coefficient lists run from degree 0 up."""
    m, n = len(a) - 1, len(b) - 1
    width = m + n - j
    rows = [[0] * i + b + [0] * (width - n - 1 - i) for i in range(m - j)]
    rows += [[0] * i + a + [0] * (width - m - 1 - i) for i in range(n - j)]
    lead = [row[j + 1:][::-1] for row in rows]
    return [
        sympy.Matrix([head + [row[i]] for head, row in zip(lead, rows)]).det()
        for i in range(j + 1)
    ]


_ZZX = sympy.ZZ[X]


def _principal_subresultant(a, b, j):
    """s_j(A, B) over Z[x] from its definition, as a coefficient list in x:
    the determinant of the rows of _det_subresultant's matrix in the columns
    of y^(m+n-j-1), ..., y^j, computed by sympy over Z[x]; a and b list the
    y-coefficients of A and B as integer coefficient lists in x.  It is
    lc(B)^(m-n) for j = n, 1 for j = n = m."""
    m, n = len(a) - 1, len(b) - 1
    width = m + n - j
    a, b = ([_ZZX.from_sympy(sum((c * X**i for i, c in enumerate(u)), sympy.Integer(0))) for u in p] for p in (a, b))
    zero = _ZZX.zero
    rows = [[zero] * i + b + [zero] * (width - n - 1 - i) for i in range(m - j)]
    rows += [[zero] * i + a + [zero] * (width - m - 1 - i) for i in range(n - j)]
    if not rows:
        return [1]
    det = DomainMatrix([row[j:][::-1] for row in rows], (len(rows), len(rows)), _ZZX).det()
    return [int(c) for c in reversed(sympy.Poly(_ZZX.to_sympy(det), X).all_coeffs())] if det else []


class TestSubresultantChain:
    def test_chain_gives_principal_subresultants(self):
        # each (p, h) gives S_j = p * h / lc p and s_j = h, j = deg p, up to
        # sign; every s_j of a degree the chain skips is zero
        rng = random.Random(9)
        skipped = 0
        for k in range(120):
            m = rng.randint(2, 7)
            a = [rng.randint(-5, 5) for _ in range(m)] + [rng.randint(1, 5)]
            b = [rng.randint(-5, 5) * (rng.random() < 0.6) for _ in range(rng.randint(1, m - 1))]
            b.append(rng.randint(1, 5))
            if k % 5 == 0:  # a common factor y - 1
                a = [u - v for u, v in zip([0] + a, a + [0])]
                b = [u - v for u, v in zip([0] + b, b + [0])]
            chain = subresultant_chain(a, b)
            degrees = {len(p) - 1 for p, _ in chain[1:]}
            for p, h in chain[1:]:
                S = _det_subresultant(a, b, len(p) - 1)
                got = [rat(c * h, p[-1]) for c in p]
                assert S in (got, [-c for c in got]), (a, b, len(p) - 1)
            for j in set(range(len(b) - 1)) - degrees:
                skipped += 1
                assert _det_subresultant(a, b, j)[j] == 0, (a, b, j)
        assert skipped >= 20, skipped


def _flat(p):
    """{(k, i): coefficient} of a list of integer coefficient lists."""
    return {(k, i): c for k, u in enumerate(p) for i, c in enumerate(u) if c}


def _factor(a, b):
    """The nonzero rational lam with a == lam * b for the flat maps a and b
    (1 when both are empty), or None when there is none."""
    if a.keys() != b.keys():
        return None
    lam = rat(a[next(iter(a))]) / b[next(iter(a))] if a else rat(1)
    return lam if all(a[e] == lam * b[e] for e in a) else None


def _zx_run(ZA, ZB):
    """The chain of ZA and ZB in Z[x][y], run in Z at x = 2^S and read back
    element by element, and their resultant, ZA with a zero top slice."""
    S = elim._kronecker_width(elim._l1_norms(ZA), elim._l1_norms(ZB))
    A, B = elim._kronecker_pack(ZA, S), elim._kronecker_pack(ZB, S)

    def read(v):
        return elim._kronecker_unpack(v, S)

    chain = [([read(v) for v in p], read(h)) for p, h in subresultant_chain(A, B)]
    return chain, elim._zx_resultant(ZA + [[]], ZB)


class TestIntegerRings:
    """The chains over Z[x], run in Z by Kronecker substitution, equal
    sympy's subresultant PRS element by element up to sign, each h after
    the first (lc A) is the principal subresultant coefficient s_(deg p) up
    to sign, and their resultants are sympy's."""

    @staticmethod
    def _same_chain(ZA, ZB):
        (got, res), f, g = _zx_run(ZA, ZB), _rows_to_sympy(ZA), _rows_to_sympy(ZB)
        ref = sympy.subresultants(f, g, Y)
        assert len(got) == len(ref), (ZA, ZB)
        assert got[0][1] == ZA[-1], (ZA, ZB)
        pairs = [(_flat(p), _sympy_flat(q)) for (p, _), q in zip(got, ref)]
        pairs += [(_flat([h]), _flat([_principal_subresultant(ZA, ZB, len(p) - 1)])) for p, h in got[1:]]
        # zero top slices are stripped
        pairs.append((_flat([res]), _sympy_flat(sympy.resultant(f, g, Y))))
        assert all(_factor(a, b) in (1, -1) for a, b in pairs), (ZA, ZB)
        return [len(p) - 1 for p, _ in got]

    @staticmethod
    def _gaps(degs):
        return any(degs[i] - degs[i + 1] > 1 for i in range(1, len(degs) - 1))

    def test_zx_matches_unipoly_chain(self):
        # coprime pairs, a shared factor y - 1, even powers of y only (each
        # step drops the degree by 2), integer multiples of rational inputs
        # and zero top slices
        rng = random.Random(41)
        kinds = dict.fromkeys(("coprime", "shared", "gap"), 0)
        for k in range(120):
            da, even = rng.randint(2, 5), k % 3 == 0
            f = sparse_poly(rng, da, even, 1 + k % 2, rational=k % 4 == 1)
            g = sparse_poly(rng, rng.randint(1, da), even, 1 + k % 2, rational=k % 4 == 1)
            if k % 5 == 0:
                f, g = f * parse_poly("y - 1"), g * parse_poly("y - 1")
            degs = self._same_chain(elim._int_y_rows(f), elim._int_y_rows(g))
            kinds["shared" if degs[-1] > 0 else "coprime"] += 1
            kinds["gap"] += self._gaps(degs)
        assert min(kinds.values()) >= 10, kinds

    def test_zx_encoding_edges(self):
        # the cases the encoding at x = 2^S is sensitive to: negative and
        # alternating-sign coefficients, a resultant at the proved bound,
        # B = 0, deg B = 0 and a shared factor
        cases = [
            ("-x^3*y^2 - 5*x*y^2 - 7*y - 2*x^4 - 1", "-3*x^2*y - x - 9"),
            ("(x^2 - x + 1)*y^3 + (-x^3 + 2*x^2 - 3*x + 4)*y + x^4 - x^3 + x^2 - x + 1",
             "(x - 1)*y^2 + (-x^2 + x - 1)*y + 1 - x"),
            ("(x - 1)^5*y^2 - (x + 1)^5", "(x - 1)^3*y - (x + 1)^3"),
            ("64*y + 64", "64*y - 64"),
            ("y^3 - x^5 + 1", "0"),
            ("300*y^3 - 200*x^5 + 1", "0"),
            ("y^3 - x^5 + 1", "x^3 - 2*x + 1"),
            ("300*y^3 - 200*x^5 + 1", "x + 1"),
            ("-x^4 + x - 1", "x^2 - 1"),
        ]
        for a, b in cases:
            A, B = elim._int_y_rows(parse_poly(a)), elim._int_y_rows(parse_poly(b))
            self._same_chain(A, [] if b == "0" else B)
        # a common factor whose y-leading coefficient is not a unit
        shared = parse_poly("x - 2*y")
        degs = self._same_chain(*(elim._int_y_rows(shared * parse_poly(t)) for t in ("y^2 + x", "3*y - x^2")))
        assert degs[-1] == 1
        # Hadamard's bound sqrt(2 * 64^2 * 2 * 64^2) is reached: 64 (-64 - 64)
        assert elim._zx_resultant([[64], [64]], [[-64], [64]]) == [-8192]
        assert elim._zx_resultant([[1, 1]], []) == []

    def test_kronecker_slots(self):
        # every slot holds [-2^(S-1), 2^(S-1)); a norm of 2^(S-1) needs the
        # next width
        assert elim._kronecker_width([127], []) == 8
        assert elim._kronecker_width([128], []) == 16
        for u in ([-128, 127, -1, 0, 1, -128], [127] * 5, [-128] * 5, [1, -128], [-1, 0, 0, 127], []):
            v = elim._kronecker_pack([u], 8)[0]
            assert v == sum(c * 256 ** i for i, c in enumerate(u))
            assert elim._kronecker_unpack(v, 8) == u, u

    def test_torus_resultant_gcd_matches_unipoly(self):
        # the gcd of Res_y(f, f_x) and Res_y(f, f_y), on smooth and singular
        # fibres of generator coordinates and Fermat images, against the
        # monic gcd of sympy's resultants
        fermat = [
            qpoly.substitute(parse_poly(t), parse_poly(u), parse_poly(v))
            for t, u, v in (("x^4 + y^4 + 1", "2*x - y + 1/3", "x + y - 2"),
                            ("x^5 + y^5 + 1", "x + 2*y - 1", "x - y + 1/2"))
        ]
        polys = [gen_random_coordinate(s, 2, 3, 3)[0] for s in range(4)] + fermat
        singular = 0
        for P in polys:
            for c in (rat(0), rat(1), rat(1, 3)):
                f = P - BiPoly.const(c)
                system = [bipoly_to_sympy(f)]
                system += [system[0].diff(X), system[0].diff(Y)]
                a = next(i for i, g in enumerate(system) if sympy.degree(g, Y) >= 1)
                ref = sympy.gcd_list([sympy.resultant(system[a], g, Y) for i, g in enumerate(system) if i != a])
                ref = sympy.Poly(ref, X).monic()
                got = elim._torus_resultant_gcd([f, f.diff_x(), f.diff_y()])
                assert unipoly_to_sympy(got, X).as_expr() == ref.as_expr(), (P, c)
                singular += ref.degree() > 0
        assert singular >= 2, singular

    def test_fibre_chain_matches_unipoly_chain(self):
        # fibre._chain reduces Q_x modulo Q_y in Z before its chain: against
        # sympy's subresultant PRS of Q_y and prem(Q_x, Q_y) over Q[x], and
        # each h after the first against s_(deg p) of the numerators of Q_y
        # and of that remainder, up to sign, on shears of generator
        # coordinates and of dense sextics, most with Q_x and Q_y of equal
        # y-degree
        rng = random.Random(43)
        polys = [P for P in (gen_random_coordinate(s, 2, 3, 3)[0] for s in range(16)) if P.total_degree() > 1]
        polys += [
            BiPoly({(i, j): rat(rng.choice([-3, -2, -1, 1, 2, 3])) for i in range(7) for j in range(7 - i)})
            for _ in range(3)
        ]
        equal = 0
        for P in polys:
            Q = fibre._shear(P)
            A, B = bipoly_to_sympy(Q.diff_y()), bipoly_to_sympy(Q.diff_x())
            equal += Q.diff_y().degy == Q.diff_x().degy
            reduced = sympy.prem(B, A, Y)
            ref = sympy.subresultants(A, reduced, Y)
            S, got = fibre._chain(Q.diff_y(), Q.diff_x())
            assert len(got) == len(ref), P
            for (p, _), q in zip(got, ref):
                p = [elim._kronecker_unpack(v, S) for v in p]
                assert _factor(_flat(p), _sympy_flat(q)) is not None, P
            a = elim._int_y_rows(Q.diff_y())
            b = sympy.prem(_rows_to_sympy(elim._int_y_rows(Q.diff_x())), _rows_to_sympy(a), Y)
            b = [[int(c) for c in reversed(sympy.Poly(u, X).all_coeffs())] for u in reversed(sympy.Poly(b, Y).all_coeffs())]
            for p, h in got[1:]:
                s_j = _principal_subresultant(a, b, len(p) - 1)
                assert _factor(_flat([elim._kronecker_unpack(h, S)]), _flat([s_j])) in (1, -1), P
            if len(got[-1][0]) == 1:  # coprime: the last h is the resultant
                h = elim._kronecker_unpack(got[-1][1], S)
                assert _factor(_flat([h]), _sympy_flat(sympy.resultant(A, reduced, Y))) is not None, P
        assert equal >= 5, equal

    def test_polar_limits_match_bipoly_resultant(self):
        # the x-leading coefficient of sympy's Res_y(Q - c, Q_y) over Q[x, c]
        for s in range(6):
            P, _ = gen_random_coordinate(s, 2, 3, 3)
            for Q in (fibre._shear(P), fibre._shear(P - parse_poly("1/3*x^2*y"))):
                self._polar_limits_match(Q)

    @staticmethod
    def _polar_limits_match(Q):
        f = bipoly_to_sympy(Q)
        A = sympy.Poly(sympy.resultant(f - C, f.diff(Y), Y), X)
        assert unipoly_to_sympy(fibre._polar_limits(Q), C).monic() == sympy.Poly(A.LC(), C).monic(), Q

    def test_polar_limits_lead_vanishing_at_nodes(self):
        # _polar_limits interpolates the x-leading coefficient of A(x, c)
        # from A(x, k), k < n = deg_y Q: shears whose coefficient vanishes at
        # one of those k, the first, a middle or the last, where A(x, k) has
        # a lower x-degree or is zero (Q - 1 = x (x y - 1)^2)
        cases = {
            "x^2*y - x": 0,
            "x^2*y - x + 1": 1,
            "x^3*y - x + 2": 2,
            "(x^2*y - x - 1)*x + 3": 3,
            "x*(x*y - 1)^2 + 1": 1,
        }
        for text, k in cases.items():
            Q = fibre._shear(parse_poly(text))
            assert k < Q.degy and fibre._polar_limits(Q).eval(rat(k)) == 0, text
            self._polar_limits_match(Q)

    def test_integer_exact_division_never_rounds(self):
        div = qpoly._int_terms_exact_div
        x_minus_c = {(1, 0): 1, (0, 1): -1}
        product = qpoly._int_mul(x_minus_c, {(1, 0): 3, (0, 1): 2, (0, 0): -5})
        assert div(product, x_minus_c) == {(1, 0): 3, (0, 1): 2, (0, 0): -5}
        assert div({}, x_minus_c) == {}
        for a, b in (
            ({(1, 0): 1, (0, 0): 1}, {(1, 0): 2}),  # (x + 1) / 2x: a quotient 1/2
            ({(1, 1): 3}, {(0, 0): 2}),  # 3xc / 2
            ({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1}),  # remainder 2
            ({(0, 2): 1, (1, 0): 1}, {(0, 1): 1}),  # (c^2 + x) / c
        ):
            with pytest.raises(ValueError, match="inexact bivariate division"):
                div(a, b)
        with pytest.raises(ValueError, match="inexact univariate division"):
            qpoly._int_exact_div([1, 0, 1], [1, 1])
        with pytest.raises(ValueError, match="inexact univariate division"):
            qpoly._int_exact_div([3, 3], [2])
        with pytest.raises(ValueError, match="inexact integer division"):
            elim._exact_quotient(-7, 2)


class TestBivariateGcd:
    def test_common_factor(self):
        f = parse_poly("y - x") * parse_poly("y + x^2")
        g = parse_poly("y - x") * parse_poly("x*y - 1")
        d = bipoly_gcd(f, g)
        assert f.exact_div(d) is not None
        assert d.total_degree() == 1

    def test_coprime(self):
        d = bipoly_gcd(parse_poly("y - x"), parse_poly("y + x + 1"))
        assert d.is_constant()

    def test_content_handling(self):
        # common factor purely in x
        f = parse_poly("x^2 - 1") * parse_poly("y + 1")
        g = parse_poly("x^2 - 1") * parse_poly("y - 3")
        d = bipoly_gcd(f, g)
        assert d.degx == 2 and d.degy == 0
        # y-free operands, on one side or both
        assert bipoly_gcd(parse_poly("x^2 - 1"), parse_poly("x^2 + x")) == parse_poly("x + 1")
        assert bipoly_gcd(f, parse_poly("x^2 + x")) == parse_poly("x + 1")
        assert bipoly_gcd(parse_poly("3*x - 3"), f) == parse_poly("x - 1")

    def test_random_products(self):
        rng = random.Random(31)
        for _ in range(15):
            h = BiPoly(
                {
                    (1, 0): rat(rng.randint(1, 3)),
                    (0, 1): rat(1),
                    (0, 0): rat(rng.randint(-3, 3)),
                }
            )
            a = h * parse_poly("y + x^2")
            b = h * parse_poly("x*y + 1")
            d = bipoly_gcd(a, b)
            assert d.total_degree() == 1
            a.exact_div(d)  # raises if not a divisor
            b.exact_div(d)


class TestSquarefree:
    def test_squarefree_detects(self):
        assert bipoly_is_squarefree(parse_poly("y^2 - x^3 - x - 1"))
        assert not bipoly_is_squarefree(parse_poly("(y - x)^2"))

    def test_part_strips_multiplicity(self):
        f = parse_poly("(y - x^2)^2") * parse_poly("y + x")
        sq, was = bipoly_squarefree_part(f)
        assert not was
        assert sq.total_degree() == 3
        assert bipoly_is_squarefree(sq)

    def test_part_of_squarefree_is_identity_up_to_scale(self):
        f = parse_poly("y^2 - x^3")
        sq, was = bipoly_squarefree_part(f)
        assert was
        assert sq.total_degree() == f.total_degree()


def small_poly(rng, degx, degy, terms):
    """Up to `terms` random terms below the given degrees, with the monomial
    x^degx y^degy present; small coefficients, some of them rational."""
    t = {(rng.randint(0, degx), rng.randint(0, degy)): rat(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
         for _ in range(terms)}
    t[(degx, degy)] = rat(rng.choice([-3, -1, 1, 2, 5]))
    return BiPoly(t)


def squarefree_corpus(rng):
    """(kind, f): squarefree fibres P - c, products g^2 h with deg_y g >= 1,
    square x- and y-contents, and polynomials in x alone or y alone."""
    out = [("fibre", small_poly(rng, rng.randint(1, 5), rng.randint(1, 5), 8) - BiPoly.const(rat(k, 3)))
           for k in range(30)]
    out += [("fibre", gen_random_coordinate(s, 2, 3, 5)[0] - BiPoly.const(rat(1, 3))) for s in range(8)]
    for _ in range(20):
        g = small_poly(rng, rng.randint(0, 2), rng.randint(1, 2), 3)
        out.append(("square", g * g * small_poly(rng, rng.randint(0, 2), rng.randint(0, 2), 4)))
    out += [(kind, parse_poly(text)) for kind, text in (
        ("content", "x^2*(y + 1)"), ("content", "(x - 1)^2*(y^2 + x)"), ("content", "(2*x + 1)^3*(x*y - 1)"),
        ("content", "y^2*(x + 1)"), ("content", "(y + 3)^2*(x^2 - y)"), ("content", "x^2*y^2 + x^2"),
        ("x only", "x^3 - x"), ("x only", "(x^2 - 2)^2*(x + 1)"), ("x only", "3*x - 1/2"),
        ("y only", "y^4 + 1"), ("y only", "(y + 1)^3"), ("y only", "y^2 - 2*y + 1"),
        ("constant", "7/2"), ("fibre", "x*y - 1"), ("fibre", "y^2 - x^3"),
    )]
    return out


class TestSquarefreeCertificate:
    """bipoly_squarefree_part with the modular certificate equals the exact
    gcds alone, at the package's prime and at 3, where it often fails."""

    def _check(self, monkeypatch, prime):
        """Whether the certificate proved each squarefree input, after
        checking every answer against the exact path."""
        corpus = squarefree_corpus(random.Random(16))
        for module in (elim, qpoly):
            monkeypatch.setattr(module, "MODULAR_PRIME", prime)
        got = [bipoly_squarefree_part(f) for _, f in corpus]
        proved = [elim._squarefree_mod_p(f, prime) for _, f in corpus]
        monkeypatch.setattr(elim, "_squarefree_mod_p", lambda f, p: False)
        assert got == [bipoly_squarefree_part(f) for _, f in corpus]
        was = [w for _, w in got]
        assert {kind for (kind, _), w in zip(corpus, was) if not w} == {"square", "content", "x only", "y only"}
        assert not any(p and not w for p, w in zip(proved, was))
        return [p for p, w in zip(proved, was) if w]

    def test_equals_exact_path(self, monkeypatch):
        # a slice through a singular point fails, as x = 0 and y = 0 both
        # do on the cusp y^2 - x^3, whose next slices prove it; inputs with
        # all three slices of a variable singular take the exact path
        certificate, p = elim._squarefree_mod_p, elim.MODULAR_PRIME
        squarefree = self._check(monkeypatch, p)
        assert squarefree.count(False) <= 3
        assert certificate(parse_poly("y^2 - x^3"), p)
        assert certificate(parse_poly("y^2 - x^2*(x - 1)^2"), p)
        assert not certificate(parse_poly("y^2 - x^2*(x - 1)^2*(x - 2)^2"), p)

    def test_third_slice_proves_tangential_fibre(self, monkeypatch):
        # a squarefree fibre of a sign variant of (y - x^2)*(y + x^3 + 1):
        # its x-slices at y = 0 and y = 1 fail modulo p and y = 2 proves it
        f = parse_poly("-x^5 - x^3*y + x^2*y - x^2 + y^2 - y")

        def exact(f, g):
            raise AssertionError("the exact gcds ran")

        monkeypatch.setattr(elim, "bipoly_gcd", exact)
        assert bipoly_squarefree_part(f) == (f, True)

    def test_small_prime_falls_back(self, monkeypatch):
        squarefree = self._check(monkeypatch, 3)
        assert 10 <= squarefree.count(False) < len(squarefree)


class TestLinearAlgebra:
    def test_rank_of_dependent_rows(self):
        rows = [
            [rat(1), rat(2), rat(3)],
            [rat(2), rat(4), rat(6)],
            [rat(0), rat(1), rat(1)],
        ]
        assert rat_eliminate(rows) == 2

    def test_rank_of_outer_product(self):
        rng = random.Random(32)
        for _ in range(10):
            u = [rat(rng.randint(-3, 3)) for _ in range(4)]
            v = [rat(rng.randint(-3, 3)) for _ in range(4)]
            rows = [[a * b for b in v] for a in u]
            expected = 1 if any(u) and any(v) else 0
            assert rat_eliminate(rows) == expected

    def test_det(self):
        rows = [[rat(1), rat(2)], [rat(3), rat(4)]]
        assert rat_det(rows) == rat(-2)
        rows = [[rat(1), rat(2)], [rat(2), rat(4)]]
        assert rat_det(rows) == rat(0)
        # against sympy; a zero leading entry forces row swaps, so the sign
        # of the permutation is tested, and duplicated rows make it singular
        rng = random.Random(34)
        swapped = singular = 0
        for k in range(240):
            n = rng.randint(1, 7)
            rows = [
                [rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            if k % 2:
                rows[0][0] = rat(0)
            if k % 5 == 0 and n > 1:
                rows[rng.randrange(1, n)] = list(rows[0])
            expected = sympy.Matrix(
                [[sympy.Rational(str(c)) for c in r] for r in rows]
            ).det()
            det = rat_det(rows)
            assert det == rat(str(expected))
            swapped += rows[0][0] == 0 and det != 0
            singular += det == 0
        assert swapped >= 40 and singular >= 40


def random_matrix(rng, nrows, ncols):
    """Rational matrix with zero entries, plain ints, 20-digit numerators
    and mixed denominators."""
    def entry():
        kind = rng.random()
        if kind < 0.35:
            return rat(0)
        if kind < 0.5:
            return rng.randint(-6, 6)
        if kind < 0.65:
            return rat(rng.randint(-10**20, 10**20), rng.randint(1, 10**6))
        return rat(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12, 35]))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(str(c)) for r in rows for c in r])


class TestKernelOracle:
    def test_eliminate_matches_sympy(self):
        rng = random.Random(35)
        shapes = dups = 0
        for k in range(150):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            rows = random_matrix(rng, nrows, ncols)
            if k % 3 == 0 and nrows > 1:
                rows[rng.randrange(1, nrows)] = list(rows[0])
                dups += 1
            if k % 4 == 0:
                rows[rng.randrange(nrows)] = [rat(0)] * ncols
            if k % 5 == 0:
                j = rng.randrange(ncols)
                for r in rows:
                    r[j] = rat(0)
            before = copy.deepcopy(rows)
            rank = rat_eliminate(rows)
            assert rows == before
            assert rank == to_sympy(rows, ncols).rank()
            shapes += nrows != ncols
        assert shapes >= 100 and dups >= 40

    def test_det_big_entries(self):
        rng = random.Random(36)
        singular = 0
        for k in range(80):
            n = rng.randint(1, 6)
            rows = random_matrix(rng, n, n)
            if k % 4 == 0 and n > 1:
                rows[-1] = list(rows[0])
            before = copy.deepcopy(rows)
            det = rat_det(rows)
            assert rows == before
            assert det == rat(str(to_sympy(rows, n).det()))
            singular += det == 0
        assert 20 <= singular <= 60


class TestRankModP:
    def test_matches_gf_p_and_bounds_rational_rank(self):
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(37)
        primes = [2, 3, 5, 1073741789]
        drops = multiples = 0
        for k in range(200):
            p = primes[k % 4]
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)

            def entry():
                kind = rng.random()
                if kind < 0.3:
                    return rat(0) if k % 2 else 0
                if kind < 0.5:  # a multiple of p, or one off it
                    return p * rng.randint(-10**6, 10**6) + rng.choice([0, 0, 1, -1])
                if kind < 0.6:
                    return rat(rng.randint(-10**20, 10**20))
                return rng.randint(-9, 9)

            rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            if k % 3 == 0 and nrows > 1:
                rows[rng.randrange(1, nrows)] = list(rows[0])
            if k % 4 == 1:
                rows[rng.randrange(nrows)] = [rat(0)] * ncols
            if k % 7 == 0:  # a whole row of multiples of p
                rows[rng.randrange(nrows)] = [p * rng.randint(-5, 5) for _ in range(ncols)]
            before = copy.deepcopy(rows)
            rank_p = rank_mod_p(rows, p)
            assert rows == before
            gf = DomainMatrix.from_list([[int(x) for x in r] for r in rows], sympy.GF(p))
            assert rank_p == gf.rank()
            rank_q = rat_eliminate(rows)
            assert rank_p <= rank_q
            drops += rank_p < rank_q
            multiples += any(x and int(x) % p == 0 for r in rows for x in r)
        assert drops >= 30 and multiples >= 100
        assert rank_mod_p([], 7) == 0


class TestSympyBridge:
    def test_rational_roots(self):
        u = upoly(-1, 1) * upoly(2, 1) * upoly(-2, 0, 1)  # (t-1)(t+2)(t^2-2)
        roots = sorted(rational_roots(u))
        assert roots == [rat(-2), rat(1)]

    def test_strip_rational_roots(self):
        u = upoly(-1, 1) * upoly(-2, 0, 1)
        roots, cof = strip_rational_roots(u)
        assert roots == [rat(1)]
        assert cof == upoly(-2, 0, 1).monic()

    def test_torus_zero_detected(self):
        f = parse_poly("(y - x)^2 - 1 + 1")  # (y-x)^2: singular along y = x
        polys = [f, f.diff_x(), f.diff_y()]
        assert has_common_torus_zero(polys)

    def test_no_torus_zero(self):
        f = parse_poly("y - x^2")
        polys = [f, f.diff_x(), f.diff_y()]
        assert not has_common_torus_zero(polys)


class TestRationalRootsOracle:
    """rational_roots and strip_rational_roots against sympy's
    Poly.ground_roots, on seeded products of linear factors b*t - a with
    multiplicities 1-3, small irreducible or reducible cubics and quartics,
    powers of t and rational scales."""

    @staticmethod
    def _corpus(rng):
        for k in range(240):
            big = k % 3 == 0  # numerators and denominators above 2^64
            factors = []
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.75:
                    a = rng.randint(-2**80, 2**80) if big else rng.randint(-30, 30)
                    b = rng.randint(2**65, 2**80) if big else rng.choice([1, 2, 3, 6, 101, 103, 101 * 103])
                    factors.append(([-a, b], rng.choice([1, 1, 1, 2, 3])))
                else:
                    cs = [rng.randint(-9, 9) for _ in range(rng.randint(3, 4))] + [rng.randint(1, 5)]
                    factors.append((cs, 1))
            if k % 4 == 0:
                factors.append(([0, 1], rng.randint(1, 3)))
            scale = rat(rng.randint(1, 10**rng.choice([1, 25])), rng.randint(1, 10**rng.choice([1, 25])))
            yield factors, scale
        # roots congruent modulo 101 and 103, so that both primes divide the
        # discriminant; lc divisible by 101 * 103, so that both are skipped
        m = 101 * 103
        yield [([-1, 1], 1), ([-1 - m, 1], 1), ([-2, 1], 1)], rat(1)
        yield [([-3, 1], 1), ([-3 - 5 * m, 1], 1), ([1, 1], 2), ([5, 0, 1], 1)], rat(7, 2)
        yield [([-5, m], 1), ([7, 101], 1), ([1, 103], 1)], rat(1)
        yield [([-1, 1], 1), ([-1 - m, 1], 1), ([-3, 2 * m], 2)], rat(-3, 5)

    def test_against_ground_roots(self):
        t, rng = sympy.Symbol("t"), random.Random(71)
        seen = dict.fromkeys(["repeated", "zero", "big", "lc_101_103", "disc_101_103"], 0)
        for factors, scale in self._corpus(rng):
            u = UniPoly([scale])
            for cs, mult in factors:
                u = u * UniPoly(cs) ** mult
            if u.is_constant():
                continue
            U = unipoly_to_sympy(u, t)
            want = {rat(int(r.p), int(r.q)): m for r, m in U.ground_roots().items()}
            roots, cof = strip_rational_roots(u)
            assert rational_roots(u) == roots == sorted(want), u
            linear = sympy.prod([(t - sympy.Rational(r.numerator, r.denominator)) ** m for r, m in want.items()])
            q, r = sympy.div(U, sympy.Poly(linear, t))
            assert r.is_zero and unipoly_to_sympy(cof, t).as_expr() == q.monic().as_expr(), u
            # g: the primitive squarefree part without the root 0, whose
            # roots modulo the first primes from 101 on are lifted
            g = list(squarefree_part(UniPoly(u.nums[next(k for k, n in enumerate(u.nums) if n):])).nums)
            seen["repeated"] += any(m > 1 for m in want.values())
            seen["zero"] += rat(0) in want
            seen["big"] += any(abs(r.numerator) > 2**64 and r.denominator > 2**64 for r in want)
            seen["lc_101_103"] += g[-1] % (101 * 103) == 0 and len(want) > 1
            disc = sympy.Poly(g[::-1], t).discriminant() if len(g) > 1 else 1
            seen["disc_101_103"] += all(g[-1] % p and disc % p == 0 for p in (101, 103))
        assert min(seen.values()) >= 2, seen


def _plain_groebner_torus(polys):
    """Reference: a sympy Groebner basis of the system saturated by x*y,
    with the polynomials converted from their printed text."""
    x, y, t = sympy.symbols("x y t")
    exprs = [sympy.sympify(f.to_str().replace("^", "**")) for f in polys if not f.is_zero()]
    if not exprs:
        return True
    G = sympy.groebner(exprs + [x * y * t - 1], x, y, t, order="grevlex")
    return list(G.exprs) != [1]


class TestTorusPretest:
    @staticmethod
    def _through(rng, point, k):
        """k random polynomials of degree <= 2 that vanish at point."""
        out = []
        for _ in range(k):
            f = BiPoly({(i, j): rat(rng.randint(-4, 4), rng.randint(1, 3))
                        for i in range(3) for j in range(3 - i)})
            out.append(f - BiPoly.const(f.eval(*point)))
        return out

    def test_matches_plain_groebner(self, monkeypatch):
        from jaccoord import elim

        decided = []
        pretest = elim._resultants_exclude_torus
        monkeypatch.setattr(
            elim, "_resultants_exclude_torus", lambda ps: decided.append(pretest(ps)) or decided[-1]
        )
        rng = random.Random(90)
        counts = dict.fromkeys(("decided", "x_strip", "y_zero", "torus", "y_free", "few"), 0)

        def agree(polys, branch, answer, pre=None):
            """Compare with the reference; count the system under branch
            when the answer, and the pre-test's when given, are as named."""
            decided.clear()
            got = has_common_torus_zero(polys)
            assert got == _plain_groebner_torus(polys), polys
            if got == answer and (pre is None or (decided[:1] or [False])[0] == pre):
                counts[branch] += 1

        def conic():
            return BiPoly({(i, j): rat(rng.randint(-4, 4), rng.randint(1, 3))
                           for i in range(3) for j in range(3 - i)})

        def through(x0, y0):
            return [f - BiPoly.const(f.eval(x0, y0)) for f in (conic(), conic(), conic())]

        nonzero = [rat(k, 2) for k in (-3, -2, -1, 1, 3)]
        for _ in range(12):
            # three random conics share no zero: the pre-test decides
            agree([conic(), conic(), conic()], "decided", False, True)
            # the only common zero is (0, y0): G = c*x^k with k >= 1
            agree(through(rat(0), rng.choice(nonzero)), "x_strip", False, True)
            # a common zero (x0, 0), x0 != 0: only the Groebner basis says False
            agree(through(rng.choice(nonzero), rat(0)), "y_zero", False, False)
            # a genuine torus zero
            agree(through(rng.choice(nonzero), rng.choice(nonzero)), "torus", True, False)
        # y-free systems: the resultant of two y-free polynomials is 1
        agree([parse_poly("x - 1"), parse_poly("x - 1")], "y_free", True)
        agree([parse_poly("x - 1"), parse_poly("x - 2")], "y_free", False)
        agree([parse_poly("x^2 - 1"), parse_poly("x + 1"), parse_poly("y + 2")], "y_free", True)
        agree([parse_poly("x"), parse_poly("y - 1")], "y_free", False)
        # one polynomial, and none
        agree([parse_poly("x*y - 1")], "few", True)
        agree([parse_poly("x*y")], "few", False)
        agree([parse_poly("3")], "few", False)
        agree([], "few", True)
        agree([BiPoly.zero(), BiPoly.zero()], "few", True)
        agree([BiPoly.zero(), parse_poly("x - 1"), parse_poly("y^2 - x")], "few", True)
        assert counts["y_free"] == 4 and counts["few"] == 6
        assert min(counts[k] for k in ("decided", "x_strip", "y_zero", "torus")) >= 10, counts


class TestTorusCertificate:
    """has_common_torus_zero equals the plain Groebner reference, and the
    rational-zero certificate answers the systems of the theorem audit."""

    X, Y = BiPoly.var_x(), BiPoly.var_y()

    @classmethod
    def _linear(cls, rng):
        return sum((cls.X ** i * cls.Y ** j * rat(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                    for i, j in ((0, 0), (1, 0), (0, 1))), BiPoly.zero())

    @classmethod
    def _vanishing(cls, rng, m, h, k):
        """k random members a*m(x) + b*(y - h(x)), a and b of degree <= 1, of
        the ideal of the points (x0, h(x0)) with m(x0) = 0."""
        return [cls._linear(rng) * m + cls._linear(rng) * (cls.Y - h) for _ in range(k)]

    def test_matches_plain_groebner(self, monkeypatch):
        answered = []
        certificate = elim._rational_torus_zero
        monkeypatch.setattr(
            elim, "_rational_torus_zero", lambda ps, G: answered.append(certificate(ps, G)) or answered[-1]
        )
        rng = random.Random(17)
        X, Y, seen = self.X, self.Y, {}

        def agree(kind, polys):
            """Compare with the reference; record (answer, certificate's answer)."""
            answered.clear()
            got = has_common_torus_zero(polys)
            assert got == _plain_groebner_torus(polys), (kind, polys)
            seen.setdefault(kind, set()).add((got, answered == [True]))

        nonzero = [rat(k, 2) for k in (-3, -2, -1, 1, 3)]
        for _ in range(6):
            x0, x1 = rng.sample(nonzero, 2)
            y0, y1 = rng.choice(nonzero), rng.choice(nonzero)
            agree("rational", self._vanishing(rng, X - x0, y0, 3))
            agree("irrational", self._vanishing(rng, X * X - 2, y0, 3))
            agree("y = 0", self._vanishing(rng, X - x0, 0, 3))
            agree("x = 0", self._vanishing(rng, X, y0, 3))
            # three lines through no common point, times x - x0: every f(x0, y) is zero
            agree("vertical line", [(X - x0) * self._linear(rng) for _ in range(3)])
            agree("y-free", [X - x0] + self._vanishing(rng, X - x0, y0, 2))
            agree("y-free, elsewhere", [X - x1] + self._vanishing(rng, X - x0, y0, 2))
            # G has the root 0 next to x1: zeros (0, y0) and (x1, y1), or (x1, 0)
            for kind, v in (("zero root", y1), ("zero root, y = 0", 0)):
                agree(kind, self._vanishing(rng, X * (X - x1), X * ((v - y0) / x1) + y0, 3))
        assert seen == {
            "rational": {(True, True)},
            "irrational": {(True, False)},
            "y = 0": {(False, False)},
            "x = 0": {(False, False)},
            "vertical line": {(True, True)},
            "y-free": {(True, True)},
            "y-free, elsewhere": {(False, False)},
            "zero root": {(True, True)},
            "zero root, y = 0": {(False, False)},
        }

    def test_audit_systems_without_groebner(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Groebner basis ran")

        quartic, lines = parse_poly("y^3 + x^4 + x*y + 1"), parse_poly("(x + 2*y - 1)*(3*x - y + 2)")
        reducible = parse_poly("(y - x^2)*(y + x^3 + 1)")
        systems = [
            fibre._shift_to_nonzero_constant(quartic - BiPoly.const(rat(1))),  # genus shift of c = 1
            reducible - BiPoly.const(rat(-961, 2916)),  # a critical value
            lines,  # singular where the lines meet, at (-3/7, 5/7)
        ]
        scans = [theorem3_scan(P) for P in (quartic, reducible)]
        monkeypatch.setattr(elim.sympy, "groebner", refuse)
        for f in systems:
            assert has_common_torus_zero([f, f.diff_x(), f.diff_y()]), f
        assert [theorem3_scan(P) for P in (quartic, reducible)] == scans
