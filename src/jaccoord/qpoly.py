"""Exact bivariate and univariate polynomial arithmetic over the rationals.

Both polynomial types hold integer numerators over one positive denominator,
in lowest terms: gcd(den, every numerator) = 1 and no numerator is zero, so
that two equal polynomials hold the same den and nums.  A :class:`BiPoly`
is a sparse map ``nums`` from exponent pairs ``(i, j)`` (powers of ``x`` and
``y``) to integers, the zero polynomial the empty map; a :class:`UniPoly` is
a dense tuple ``nums``, degree 0 first.  Each type has one normalising
constructor, which also takes rational coefficients, and every kernel runs
on the integers: products, :func:`substitute`, :func:`jacobian_det`, and
exact division and gcd on the primitive integer form (nums divided by its
content), division by Gauss's lemma in Z[x, y] and Z[x].  Rationals are
built only at the API edge: ``coeff``, ``items``, ``coeffs``, ``lc``,
``[k]``, ``eval`` and ``to_str``.

:func:`parse_poly` reads a signed sum of canonical terms, as ``to_str``
writes them, in one regex pass, and any other text by recursive descent over
one token per number, variable or operator.

:func:`substitute` tabulates the powers of one image; when the other is a
monomial, as x or y in every triangular step, each term of P is one shifted
multiple of a table entry, and only two images of several terms take
Horner's rule.  :func:`jacobian_det` packs each y-row of the four partial
derivatives into one integer (Kronecker substitution), so that its sum is
one big-integer product per pair of rows.  The univariate gcd is proved to
be a power of x modulo MODULAR_PRIME when it can be, which covers coprime
operands, and is otherwise the primitive PRS, the one exact univariate gcd
of the package.
All values are immutable after construction and every operation is pure, so
instances can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction as Rat
from typing import Dict, Iterator, List, Sequence, Tuple

# the one rational type of the package: rat builds it from integers or
# parses 'p/q'
RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)
BACKEND = "fractions"
rat = Rat

Term = Tuple[int, int]


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class InputTooLarge(ValueError):
    """The input exceeds a resource budget, such as MAX_NESTING,
    MAX_POWER_POINTS or MAX_POWER_DIGITS while parsing or the degree guard
    of the reduction; no verdict."""


def rat_str(c) -> str:
    """'p', or 'p/q' when q > 1; InputTooLarge past MAX_POWER_DIGITS digits, which Python would not print."""
    if not -_DIGIT_LIMIT < c.numerator < _DIGIT_LIMIT or c.denominator >= _DIGIT_LIMIT:
        raise InputTooLarge(f"number of more than {MAX_POWER_DIGITS} digits to print")
    return str(c)


class PolyParseError(SyntaxError):
    """Parse failure; carries the 0-based offset of the offending token."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# integer forms


def _int_coeffs(cs) -> Tuple[int, List[int]]:
    """(den, nums) with cs[k] == nums[k] / den; den is the lcm of the denominators."""
    den = math.lcm(*[c.denominator for c in cs])
    return den, [c.numerator * (den // c.denominator) for c in cs]


def _lowest(den: int, cs: List) -> Tuple[int, List[int]]:
    """(d, nums) with cs[k] / den == nums[k] / d, d > 0 and gcd(d, *nums) = 1;
    cs holds integers or rationals and den is a nonzero integer."""
    try:
        g = math.gcd(den, *cs)
    except TypeError:  # rational entries: scale by the lcm of their denominators
        d, cs = _int_coeffs([Rat(c) for c in cs])
        den *= d
        g = math.gcd(den, *cs)
    if den < 0:
        g = -g
    return (den // g, [n // g for n in cs]) if g != 1 else (den, cs)


def _int_primitive(nums: List[int]) -> Tuple[int, List[int]]:
    """(g, nums / g) with g > 0 the gcd of nums, or 1 when all are zero."""
    g = math.gcd(*nums) or 1
    return g, [n // g for n in nums]


def _int_conv(a: List[int], b: List[int]) -> List[int]:
    """Dense product of two nonzero integer coefficient lists."""
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + nb] = [s + x * y for s, y in zip(out[i:i + nb], b)]
    return out


def _int_prem(a: List[int], b: List[int]) -> List[int]:
    """A nonzero integer multiple of (a mod b), stripped; b is nonzero."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    body = b[:-1]
    while len(rem) > db:
        lead = rem.pop()
        g = math.gcd(lead, lb)
        s, t = lb // g, lead // g
        k = len(rem) - db
        rem = [s * r for r in rem[:k]] + [s * r - t * y for r, y in zip(rem[k:], body)]
        while rem and not rem[-1]:
            rem.pop()
    return rem


# the largest prime below 2^30, so that residues are one-digit Python ints
MODULAR_PRIME = 1073741789


def _gcd_mod_p(a: List[int], b: List[int], p: int) -> List[int]:
    """A gcd in F_p[x] of two integer coefficient lists, as residues with a
    nonzero leading one; [] when both vanish modulo p."""
    a, b = [c % p for c in a], [c % p for c in b]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    while b:
        db, inv, body = len(b) - 1, pow(b[-1], -1, p), b[:-1]
        while len(a) > db:
            q = a.pop() * inv % p
            k = len(a) - db
            a[k:] = [(r - q * y) % p for r, y in zip(a[k:], body)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def _int_exact_div(a: List[int], b: List[int]) -> List[int]:
    """a / b in Z[x]; ValueError when b does not divide a there."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(len(a) - db, 0)
    for k in reversed(range(len(q))):
        c, r = divmod(rem[k + db], lb)
        if r:
            raise ValueError("inexact univariate division")
        if c:
            q[k] = c
            rem[k:k + db] = [x - c * y for x, y in zip(rem[k:k + db], b)]
    if any(rem[:db]):
        raise ValueError("inexact univariate division")
    return q


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly:
    """Dense univariate polynomial: nums[k] / den is the degree-k coefficient."""

    __slots__ = ("den", "nums")

    def __init__(self, coeffs: Sequence = (), den: int = 1):
        """The polynomial with coefficients coeffs[k] / den, in lowest terms;
        coeffs holds integers or rationals and den is a nonzero integer."""
        self.den, cs = _lowest(den, list(coeffs))
        while cs and not cs[-1]:
            cs.pop()
        self.nums: Tuple[int, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, c, k: int) -> "UniPoly":
        return cls((0,) * k + (c,))

    @property
    def coeffs(self) -> Tuple:
        return tuple(Rat(n, self.den) for n in self.nums)

    @property
    def deg(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def lc(self):
        return self[len(self.nums) - 1]

    def __getitem__(self, k: int):
        if 0 <= k < len(self.nums):
            return Rat(self.nums[k], self.den)
        return RAT_ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def __neg__(self) -> "UniPoly":
        return UniPoly([-n for n in self.nums], self.den)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, -1)

    def _combine(self, other: "UniPoly", sign: int) -> "UniPoly":
        """self + sign * other over the lcm of the denominators."""
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return UniPoly([x * a + y * b for x, y in itertools.zip_longest(self.nums, other.nums, fillvalue=0)], den)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = Rat(other)
            return UniPoly([n * c.numerator for n in self.nums], self.den * c.denominator)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        return UniPoly(_int_conv(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        out = UniPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        """(quotient, remainder), from the integer pseudo-division
        lb^e * a = q * b + r of the numerators, e = deg a - deg b + 1."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem, b = list(self.nums), other.nums
        lb, q = b[-1], [0] * max(len(rem) - len(b) + 1, 0)
        for k in reversed(range(len(q))):
            lead = rem.pop()
            q = [lb * x for x in q]
            q[k] = lead
            rem = [lb * r for r in rem[:k]] + [lb * r - lead * y for r, y in zip(rem[k:], b)]
        den = self.den * lb ** len(q)
        return UniPoly([n * other.den for n in q], den), UniPoly(rem, den)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """self / other; ValueError when other does not divide self.

        By Gauss's lemma the quotient of the primitive integer parts lies in
        Z[x]; it is divided out over the integers and scaled by the ratio of
        the contents.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        ga, a = _int_primitive(self.nums)
        gb, b = _int_primitive(other.nums)
        num = ga * other.den
        return UniPoly([n * num for n in _int_exact_div(a, b)], self.den * gb)

    def derivative(self) -> "UniPoly":
        return UniPoly([k * n for k, n in enumerate(self.nums)][1:], self.den)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return UniPoly(self.nums, self.nums[-1])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """The monic gcd (zero when both are zero), on primitive integer forms.

        Each nonzero operand is x^v times a part with a nonzero constant
        term.  When MODULAR_PRIME divides neither part's leading coefficient
        and the parts have gcd 1 modulo it, the gcd is x^min(va, vb): a common
        factor of the parts in Z[x] would divide both leading coefficients
        and so keep its degree modulo the prime.  Any other pair runs the
        primitive PRS, where each remainder is an integer pseudo-remainder
        with its content divided out."""
        a = _int_primitive(self.nums)[1]
        b = _int_primitive(other.nums)[1]
        if a and b:
            p = MODULAR_PRIME
            va = next(k for k, c in enumerate(a) if c)
            vb = next(k for k, c in enumerate(b) if c)
            if a[-1] % p and b[-1] % p and len(_gcd_mod_p(a[va:], b[vb:], p)) == 1:
                return UniPoly.monomial(1, min(va, vb))
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _int_primitive(_int_prem(a, b))[1]
        return UniPoly(a, a[-1] if a else 1)

    def eval(self, v):
        acc = 0
        for n in reversed(self.nums):
            acc = acc * v + n
        return Rat(acc, self.den)

    def to_bipoly(self, axis: str = "x") -> "BiPoly":
        return BiPoly({(k, 0) if axis == "x" else (0, k): n for k, n in enumerate(self.nums)}, self.den)

    def to_str(self, var: str = "x") -> str:
        return self.to_bipoly("x").to_str(varnames=(var, var))

    def __repr__(self):
        return f"UniPoly({self.to_str('t')!r})"


def squarefree_part(u: UniPoly) -> UniPoly:
    """u / gcd(u, u'), monic; same roots with multiplicity one."""
    if u.is_zero():
        raise ZeroPolynomialError("squarefree_part of zero polynomial")
    g = u.gcd(u.derivative())
    return u.exact_div(g).monic()


# ---------------------------------------------------------------------------
# bivariate polynomials


def _int_mul(a: Dict[Term, int], b: Dict[Term, int]) -> Dict[Term, int]:
    """Sparse product of two integer term maps; cancelled terms stay as 0."""
    if len(a) < len(b):
        a, b = b, a
    out: Dict[Term, int] = {}
    get = out.get
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = get(e, 0) + c1 * c2
    return out


def _int_terms_exact_div(a: Dict[Term, int], b: Dict[Term, int]) -> Dict[Term, int]:
    """a / b for integer term maps without zero values, by lex-leading
    terms; ValueError when b does not divide a in Z[x, y]."""
    rem = dict(a)
    (di, dj), lb = max(b.items())
    out = {}
    while rem:
        (ri, rj) = e = max(rem)
        q, r = divmod(rem[e], lb)
        if r or ri < di or rj < dj:
            raise ValueError("inexact bivariate division")
        qi, qj = ri - di, rj - dj
        out[(qi, qj)] = q
        for (i, j), v in b.items():
            f = (i + qi, j + qj)
            s = rem.get(f, 0) - q * v
            if s:
                rem[f] = s
            else:
                del rem[f]
    return out


class BiPoly:
    """Sparse exact polynomial in x, y: nums[(i, j)] / den is the coefficient
    of x^i y^j."""

    __slots__ = ("den", "nums")

    def __init__(self, terms: Dict[Term, object] | None = None, den: int = 1):
        """The polynomial with coefficients terms[(i, j)] / den, in lowest
        terms; terms holds integers or rationals and den is a nonzero
        integer."""
        terms = terms or {}
        self.den, cs = _lowest(den, list(terms.values()))
        self.nums: Dict[Term, int] = {e: n for e, n in zip(terms, cs) if n}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def var_x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def var_y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, c, i: int, j: int) -> "BiPoly":
        return cls({(i, j): c})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return self.nums.keys() <= {(0, 0)}

    def support(self) -> List[Term]:
        return sorted(self.nums)

    def items(self) -> Iterator[Tuple[Term, object]]:
        return ((e, Rat(n, self.den)) for e, n in sorted(self.nums.items()))

    def num_terms(self) -> int:
        return len(self.nums)

    def coeff(self, i: int, j: int):
        n = self.nums.get((i, j))
        return Rat(n, self.den) if n else RAT_ZERO

    def constant_term(self):
        return self.coeff(0, 0)

    @property
    def degx(self) -> int:
        return max((i for i, _ in self.nums), default=0)

    @property
    def degy(self) -> int:
        return max((j for _, j in self.nums), default=0)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.nums), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.den == other.den and self.nums == other.nums

    def __bool__(self):
        return bool(self.nums)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "BiPoly":
        return BiPoly({e: -n for e, n in self.nums.items()}, self.den)

    def __add__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        t = {e: n * a for e, n in self.nums.items()}
        get = t.get
        for e, n in other.nums.items():
            t[e] = get(e, 0) + n * b
        return BiPoly(t, den)

    __radd__ = __add__

    def __sub__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        return BiPoly.const(other) - self

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            c = Rat(other)
            return BiPoly({e: n * c.numerator for e, n in self.nums.items()}, self.den * c.denominator)
        return BiPoly(_int_mul(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power")
        if len(self.nums) == 1:  # a monomial: (c x^i y^j)^n = c^n x^(i n) y^(j n)
            ((i, j), c), = self.nums.items()
            return BiPoly({(i * n, j * n): c ** n}, self.den ** n)
        out = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def diff_x(self) -> "BiPoly":
        return BiPoly({(i - 1, j): n * i for (i, j), n in self.nums.items() if i}, self.den)

    def diff_y(self) -> "BiPoly":
        return BiPoly({(i, j - 1): n * j for (i, j), n in self.nums.items() if j}, self.den)

    def eval(self, xv, yv):
        return Rat(sum(n * xv ** i * yv ** j for (i, j), n in self.nums.items()), self.den)

    def exact_div(self, other: "BiPoly") -> "BiPoly":
        """self / other; ValueError when other does not divide self.

        As in UniPoly.exact_div, by Gauss's lemma the quotient of the
        primitive integer forms lies in Z[x, y]; it is divided out over the
        integers by lex-leading terms and scaled by the ratio of the contents.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        a, b = self.nums, other.nums
        ga, gb = math.gcd(*a.values()) or 1, math.gcd(*b.values())
        q = _int_terms_exact_div({e: n // ga for e, n in a.items()}, {e: n // gb for e, n in b.items()})
        num = ga * other.den
        return BiPoly({e: n * num for e, n in q.items()}, self.den * gb)

    # -- views as a polynomial in one variable -----------------------------

    def y_coeffs(self) -> List[UniPoly]:
        """Coefficients as a polynomial in y over Q[x]; index = y-power."""
        return self._rows(1)

    def x_coeffs(self) -> List[UniPoly]:
        """Coefficients as a polynomial in x over Q[y]; index = x-power."""
        return self._rows(0)

    def _rows(self, v: int) -> List[UniPoly]:
        """The coefficients in Q[w] of the powers of variable v (0 for x,
        1 for y), w the other one."""
        rows: List[List[int]] = [[] for _ in range(max((e[v] for e in self.nums), default=0) + 1)]
        for e, n in self.nums.items():
            row, k = rows[e[v]], e[1 - v]
            if len(row) <= k:
                row.extend([0] * (k + 1 - len(row)))
            row[k] = n
        return [UniPoly(r, self.den) for r in rows]

    @classmethod
    def from_y_coeffs(cls, coeffs: Sequence[UniPoly]) -> "BiPoly":
        den = math.lcm(*[u.den for u in coeffs])
        return cls({(i, j): n * (den // u.den) for j, u in enumerate(coeffs) for i, n in enumerate(u.nums)}, den)

    # -- printing ----------------------------------------------------------

    def to_str(self, varnames: Tuple[str, str] = ("x", "y")) -> str:
        """Canonical text: terms sorted by (i+j, i) descending."""
        if not self.nums:
            return "0"
        vx, vy = varnames
        parts = []
        order = sorted(self.nums, key=lambda e: (e[0] + e[1], e[0]), reverse=True)
        for idx, (i, j) in enumerate(order):
            c = Rat(self.nums[(i, j)], self.den)
            neg = c < 0
            mag = -c if neg else c
            mono = []
            if i == 1:
                mono.append(vx)
            elif i > 1:
                mono.append(f"{vx}^{i}")
            if j == 1:
                mono.append(vy)
            elif j > 1:
                mono.append(f"{vy}^{j}")
            if not mono:
                body = rat_str(mag)
            elif mag == 1:
                body = "*".join(mono)
            else:
                body = rat_str(mag) + "*" + "*".join(mono)
            if idx == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"BiPoly({self.to_str()!r})"


# ---------------------------------------------------------------------------
# substitution and the Jacobian determinant


def substitute(P: BiPoly, sx: BiPoly, sy: BiPoly) -> BiPoly:
    """P(sx, sy), exactly, on integer numerators.

    When only sx is a monomial, P is transposed and the images swapped, as
    P(sx, sy) = P^T(sy, sx).  With P = p / d, sx = nx / dx and sy = ny / dy,
    term c x^i y^j of p is scaled by
    dx^(degx - i) dy^(degy - j) and the powers of nx are tabulated.  A
    monomial ny = n x^a y^b needs no more products: the term adds its scaled
    c n^j nx^i, shifted by (a j, b j).  Otherwise row j of p is evaluated at
    nx and Horner in y multiplies by ny.  The integer result is divided by
    d dx^degx dy^degy once, at the end.
    """
    if len(sx.nums) == 1 and len(sy.nums) != 1:
        P, sx, sy = BiPoly({(j, i): n for (i, j), n in P.nums.items()}, P.den), sy, sx
    d, p = P.den, P.nums
    dx, nx = sx.den, sx.nums
    dy, ny = sy.den, sy.nums
    degx, degy = P.degx, P.degy
    xpow = [{(0, 0): 1}]
    for _ in range(degx):
        xpow.append(_int_mul(xpow[-1], nx))
    acc: Dict[Term, int] = {}
    if len(ny) == 1:
        ((a, b), n), = ny.items()
        get = acc.get
        for (i, j), c in p.items():
            c *= dx ** (degx - i) * dy ** (degy - j) * n ** j
            sa, sb = a * j, b * j
            for (u, v), w in xpow[i].items():
                e = (u + sa, v + sb)
                acc[e] = get(e, 0) + c * w
        return BiPoly(acc, d * dx ** degx * dy ** degy)
    rows: List[Dict[int, int]] = [{} for _ in range(degy + 1)]
    for (i, j), c in p.items():
        rows[j][i] = c * dx ** (degx - i) * dy ** (degy - j)
    for row in reversed(rows):
        acc = _int_mul(acc, ny)
        for i, c in row.items():
            for e, v in xpow[i].items():
                acc[e] = acc.get(e, 0) + c * v
    return BiPoly(acc, d * dx ** degx * dy ** degy)


def _packed_derivative_rows(p: Dict[Term, int], B: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The y-rows of p_x and of p_y, each packed into one integer with the
    coefficient of x^i at bit B i; signed coefficients are simply summed."""
    rx: Dict[int, int] = {}
    ry: Dict[int, int] = {}
    for (i, j), c in p.items():
        if i:
            rx[j] = rx.get(j, 0) + (i * c << B * (i - 1))
        if j:
            ry[j - 1] = ry.get(j - 1, 0) + (j * c << B * i)
    return rx, ry


def jacobian_det(P: BiPoly, Q: BiPoly) -> BiPoly:
    """P_x Q_y - P_y Q_x, exactly, on integer numerators packed by rows.

    With P = p / dp and Q = q / dq, each y-row of p_x, p_y, q_x and q_y is
    one integer holding x^i at bit B i (Kronecker substitution), so the sum
    over row pairs, acc[j1 + j2] +- r1 r2, is a few big-integer products.
    n1 = |p|_1 max(degx P, degy P, 1) bounds |p_x|_1 and |p_y|_1, n2 the
    same for q, so every coefficient of the result lies within 2 n1 n2 and
    B = bit_length(2 n1 n2) + 1 leaves each a balanced base-2^B digit.
    The rows are decoded digit by digit and divided by dp dq once; a
    constant result is row 0, one digit.
    """
    p, q = P.nums, Q.nums
    n1 = sum(map(abs, p.values())) * max(max(map(max, p), default=0), 1)
    n2 = sum(map(abs, q.values())) * max(max(map(max, q), default=0), 1)
    B = (2 * n1 * n2).bit_length() + 1
    px, py = _packed_derivative_rows(p, B)
    qx, qy = _packed_derivative_rows(q, B)
    acc: Dict[int, int] = {}
    get = acc.get
    for j1, r1 in px.items():
        for j2, r2 in qy.items():
            acc[j1 + j2] = get(j1 + j2, 0) + r1 * r2
    for j1, r1 in py.items():
        for j2, r2 in qx.items():
            acc[j1 + j2] = get(j1 + j2, 0) - r1 * r2
    mask, half, out = (1 << B) - 1, 1 << (B - 1), {}
    for j, v in acc.items():
        i = 0
        while v:
            d = v & mask
            if d >= half:
                d -= 1 << B
            if d:
                out[(i, j)] = d
            v = (v - d) >> B
            i += 1
    return BiPoly(out, P.den * Q.den)


# ---------------------------------------------------------------------------
# parsing

MAX_NESTING = 100  # parenthesis depth; each level costs four stack frames
# lattice points (degx + 1)*(degy + 1) of the degree box of base^n, for a base
# of more than one term; a product of two such factors is refused only when
# both its box and the product of their term counts pass it, so its work stays
# bounded; (x + y + 1)^49 is at the bound
MAX_POWER_POINTS = 2_500
# decimal digits of the coefficients of base^n, bounded before expanding by
# n * log10(max(den, sum of |numerators|)) of the base: Python prints no longer
# integer by default, and check on (a*x + b*y + 1/c)^49, with a, b and c of 43
# digits, just under the bound, takes 2.6-4.4 s on a 2-vCPU Xeon; it also bounds
# each digit run of the text, each product and sum, and every rat_str
MAX_POWER_DIGITS = 4_300
_DIGIT_LIMIT = 10 ** MAX_POWER_DIGITS  # the least integer of more digits


def _amount(n: int, prefix: str = "") -> str:
    """prefix and n, or 'over 10^MAX_POWER_DIGITS' for an n too long to print."""
    return f"{prefix}{n}" if n < _DIGIT_LIMIT else f"over 10^{MAX_POWER_DIGITS}"


def _check_points(what: str, degx: int, degy: int, pos: int) -> None:
    points = (degx + 1) * (degy + 1)
    if points > MAX_POWER_POINTS:
        raise InputTooLarge(
            f"{what} with {_amount(points)} lattice points, more than"
            f" {MAX_POWER_POINTS} (at position {pos})"
        )


def _check_digits(what: str, digits: float, pos: int) -> None:
    if digits > MAX_POWER_DIGITS:
        raise InputTooLarge(
            f"{what} of {_amount(math.ceil(digits), 'up to ')} digits, more than {MAX_POWER_DIGITS} (at position {pos})"
        )


def _sum_terms(terms: List[Tuple[int, int, int, object]]) -> BiPoly:
    """The terms (pos, sign, den, (exponent, numerator) pairs) over the lcm of
    their denominators; InputTooLarge at the offset pos of the term that takes
    that lcm to 10^MAX_POWER_DIGITS, its digits bounded by bit_length log10 2."""
    den = 1
    for pos, _, d, _ in terms:
        den = math.lcm(den, d)
        if den >= _DIGIT_LIMIT:
            _check_digits("sum with a denominator", den.bit_length() * math.log10(2), pos)
    acc: Dict[Term, int] = {}
    get = acc.get
    for _, s, d, pairs in terms:
        s *= den // d
        for e, n in pairs:
            acc[e] = get(e, 0) + s * n
    return BiPoly(acc, den)


# a sign, then a term: n[/d] followed by * and x[^i][*y[^j]] or y[^j], or by
# neither x nor y; or the monomial alone.  A digit run longer than _RUN leaves
# digits with no sign before them.  Groups: sign, term, n, d, x, i, y, j, y, j.
_RUN = f"([0-9]{{1,{MAX_POWER_DIGITS}}})"
_CANONICAL_TERM_RE = re.compile(
    rf"\s*([+-]?)\s*((?:{_RUN}(?:/{_RUN})?(?:\*(?=[xy])|(?![xy])))?(?(3)|(?=[xy]))"
    rf"(?:(x)(?:\^{_RUN})?(?:\*(y)(?:\^{_RUN})?)?|(y)(?:\^{_RUN})?)?)"
)


def _canonical_sum(text: str) -> BiPoly | None:
    """text as a sum of canonical terms, or None on a gap, a missing sign, a
    zero denominator or a long digit run; n/d in lowest terms, as in the grammar."""
    terms, pos = [], 0
    for m in _CANONICAL_TERM_RE.finditer(text):
        sign, _, n, d, x, xi, xy, xj, yo, yj = m.groups()
        c, den = int(n or 1), int(d or 1)
        if m.start() != pos or pos and not sign or not den:
            return None
        if d:
            g = math.gcd(c, den)
            c, den = c // g, den // g
        e = (int(xi or 1) if x else 0, int(xj or yj or 1) if xy or yo else 0)
        terms.append((m.start(2), -1 if sign == "-" else 1, den, ((e, c),)))
        pos = m.end()
    if not terms or pos != len(text):
        return None
    return _sum_terms(terms)


_TOKEN_RE = re.compile(r"\s*(\d+|[xy()+\-*/^])")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """Tokens (kind, text, pos), one per number, variable or operator;
    InputTooLarge for a digit run longer than MAX_POWER_DIGITS."""
    # unicode minus is accepted as a convenience alias
    text = text.replace("−", "-")
    toks: List[Tuple[str, str, int]] = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # skipped an unexpected character
            break
        pos = m.end()
        tok = m[1]
        if len(tok) > MAX_POWER_DIGITS:
            raise InputTooLarge(
                f"number of {len(tok)} digits, more than {MAX_POWER_DIGITS} (at position {m.start(1)})"
            )
        toks.append(("int" if tok[0].isdigit() else tok, tok, m.start(1)))
    if text[pos:].strip():
        bad = len(text) - len(text[pos:].lstrip())
        raise PolyParseError(f"unexpected character {text[bad]!r}", bad)
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    """Recursive descent over: + - * ^ parentheses, x, y, integer and p/q."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise PolyParseError(f"expected {kind!r}, got {t[1]!r}", t[2])
        return t

    def parse(self) -> BiPoly:
        p = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise PolyParseError(f"unexpected {t[1]!r}", t[2])
        return p

    def expr(self) -> BiPoly:
        """The signed terms, summed by _sum_terms."""
        terms = []
        op = self.next()[0] if self.peek()[0] in "+-" else "+"
        while True:
            pos = self.peek()[2]
            t = self.term()
            terms.append((pos, -1 if op == "-" else 1, t.den, t.nums.items()))
            if self.peek()[0] not in "+-":
                break
            op = self.next()[0]
        return _sum_terms(terms)

    def term(self) -> BiPoly:
        """Factors multiplied, each product bounded before it is formed: its
        box as a power's, and its digits by log10(max(den_a den_b,
        |a|_1 |b|_1)), which bounds every numerator and the denominator."""
        acc = self.factor()
        while self.peek()[0] == "*":
            pos = self.next()[2]
            f = self.factor()
            a, b = acc.num_terms(), f.num_terms()
            if min(a, b) > 1 and a * b > MAX_POWER_POINTS:
                _check_points("product", acc.degx + f.degx, acc.degy + f.degy, pos)
            norm = sum(map(abs, acc.nums.values())) * sum(map(abs, f.nums.values()))
            _check_digits("product with coefficients", math.log10(max(acc.den * f.den, norm)), pos)
            acc = acc * f
        return acc

    def factor(self) -> BiPoly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            t = self.expect("int")
            n = int(t[1])
            if base.num_terms() > 1:
                _check_points("power", n * base.degx, n * base.degy, t[2])
            scale = math.log10(max(base.den, sum(map(abs, base.nums.values()))))
            # exact, as n may pass the range of a float; 0 for a monomial of coefficient +-1
            _check_digits("power with coefficients", scale and n * Rat(scale), t[2])
            base = base ** n
        return base

    def atom(self) -> BiPoly:
        kind, tok, pos = self.next()
        if kind == "int":
            num = int(tok)
            if self.peek()[0] == "/":
                self.next()
                dt = self.expect("int")
                den = int(dt[1])
                if den == 0:
                    raise PolyParseError("zero denominator", dt[2])
                return BiPoly({(0, 0): num}, den)
            return BiPoly.const(num)
        if kind == "x":
            return BiPoly.var_x()
        if kind == "y":
            return BiPoly.var_y()
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise InputTooLarge(
                    f"parentheses nested deeper than {MAX_NESTING} (at position {pos})"
                )
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        raise PolyParseError(f"unexpected {tok!r}", pos)


def parse_poly(text: str) -> BiPoly:
    """Parse the expression grammar; parse-print-parse is the identity.  A sum
    of canonical terms takes _canonical_sum, any other text the grammar; both
    end in _sum_terms, so a text has the same outcome on either."""
    p = _canonical_sum(text)
    return _Parser(text).parse() if p is None else p
