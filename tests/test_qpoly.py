"""Polynomial core: parsing, printing, arithmetic, substitution, Jacobian."""

import math
import random
import re

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from jaccoord import (
    BiPoly,
    InputTooLarge,
    PolyParseError,
    Rat,
    UniPoly,
    check,
    gen_random_coordinate,
    jacobian_det,
    parse_poly,
    rat,
    squarefree_part,
    substitute,
)
from jaccoord import qpoly


def rand_bipoly(rng, max_deg=3, bound=5, terms=6):
    t = {}
    for _ in range(terms):
        i, j = rng.randint(0, max_deg), rng.randint(0, max_deg)
        t[(i, j)] = rat(rng.randint(-bound, bound), rng.randint(1, bound))
    return BiPoly(t)


big_rats = st.builds(
    rat, st.integers(-(10**25) + 1, 10**25 - 1), st.integers(1, 10**25 - 1)
)
sparse_bipolys = st.dictionaries(
    st.tuples(st.integers(0, 60), st.integers(0, 60)), big_rats, max_size=8
).map(BiPoly)
coordinates = st.builds(
    lambda seed, steps: gen_random_coordinate(seed, steps, 3, 5)[0],
    st.integers(0, 10**6),
    st.integers(1, 2),
)


# ---------------------------------------------------------------------------
# reference implementations: the product and substitution on rational
# coefficients that the library used before its integer-numerator kernel


def ref_mul(A, B):
    """Term-by-term product with rational coefficients."""
    out = {}
    for (i1, j1), c1 in A.items():
        for (i2, j2), c2 in B.items():
            e = (i1 + i2, j1 + j2)
            s = out.get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2
    return BiPoly({e: c for e, c in out.items() if c != 0})


def rat_substitute(P, sx, sy):
    """P(sx, sy) by Horner in x when sy = y, else in y over powers of sx."""
    if P.is_zero():
        return BiPoly.zero()
    x_is_id = sx == BiPoly.var_x()
    y_is_id = sy == BiPoly.var_y()
    if x_is_id and y_is_id:
        return P
    if y_is_id:
        acc = BiPoly.zero()
        for u in reversed(P.x_coeffs()):
            acc = ref_mul(acc, sx) + u.to_bipoly("y")
        return acc
    powers = [BiPoly.const(1)]
    for _ in range(P.degx):
        powers.append(ref_mul(powers[-1], sx))
    acc = BiPoly.zero()
    for u in reversed(P.y_coeffs()):
        row_val = BiPoly.zero()
        for i, c in enumerate(u.coeffs):
            if c != 0:
                row_val = row_val + powers[i] * c
        acc = ref_mul(acc, sy) + row_val
    return acc


def ref_substitute(P, sx, sy):
    """P(sx, sy) by Horner in y on integer numerators, for every pair of
    images: the routine before a monomial image was substituted without
    Horner."""
    d, p = P.den, P.nums
    dx, nx = sx.den, sx.nums
    dy, ny = sy.den, sy.nums
    degx, degy = P.degx, P.degy
    xpow = [{(0, 0): 1}]
    for _ in range(degx):
        xpow.append(qpoly._int_mul(xpow[-1], nx))
    rows = [{} for _ in range(degy + 1)]
    for (i, j), c in p.items():
        rows[j][i] = c * dx ** (degx - i) * dy ** (degy - j)
    acc = {}
    for row in reversed(rows):
        acc = qpoly._int_mul(acc, ny)
        for i, c in row.items():
            for e, v in xpow[i].items():
                acc[e] = acc.get(e, 0) + c * v
    return BiPoly(acc, d * dx ** degx * dy ** degy)


def ref_jacobian(P, Q):
    return ref_mul(P.diff_x(), Q.diff_y()) - ref_mul(P.diff_y(), Q.diff_x())


def diff_jacobian(P, Q):
    """The Jacobian from the rational derivatives, as before the integer kernel."""
    return P.diff_x() * Q.diff_y() - P.diff_y() * Q.diff_x()


def ref_gcd(a, b):
    """Euclid's algorithm over Q, the univariate gcd before the primitive PRS."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


# the lexer and parser before canonical monomials were lexed whole: one
# regex match per position and one token per number, variable or operator

_REF_TOKEN_RE = re.compile(r"\s*(\d+|[xy()+\-*/^])")


def _ref_tokenize(text):
    text = text.replace("−", "-")
    toks = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise PolyParseError(f"unexpected character {text[bad]!r}", bad)
        tok = m.group(1)
        kind = "int" if tok[0].isdigit() else tok
        toks.append((kind, tok, m.start(1)))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _RefParser:
    def __init__(self, text):
        self.toks = _ref_tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise PolyParseError(f"expected {kind!r}, got {t[1]!r}", t[2])
        return t

    def parse(self):
        p = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise PolyParseError(f"unexpected {t[1]!r}", t[2])
        return p

    def expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.next()[0] == "-" else 1
        acc = self.term() * sign
        while self.peek()[0] in "+-":
            op = self.next()[0]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while self.peek()[0] == "*":
            pos = self.next()[2]
            f = self.factor()
            a, b = acc.num_terms(), f.num_terms()
            if min(a, b) > 1 and a * b > qpoly.MAX_POWER_POINTS:
                qpoly._check_points("product", acc.degx + f.degx, acc.degy + f.degy, pos)
            acc = acc * f
        return acc

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            t = self.expect("int")
            n = int(t[1])
            if base.num_terms() > 1:
                qpoly._check_points("power", n * base.degx, n * base.degy, t[2])
            scale = math.log10(max(base.den, sum(map(abs, base.nums.values()))))
            digits = scale and n * rat(scale)
            if digits > qpoly.MAX_POWER_DIGITS:
                raise InputTooLarge(
                    f"power with coefficients of up to {math.ceil(digits)} digits,"
                    f" more than {qpoly.MAX_POWER_DIGITS} (at position {t[2]})"
                )
            base = base ** n
        return base

    def atom(self):
        kind, tok, pos = self.next()
        if kind == "int":
            num = int(tok)
            if self.peek()[0] == "/":
                self.next()
                dt = self.expect("int")
                den = int(dt[1])
                if den == 0:
                    raise PolyParseError("zero denominator", dt[2])
                return BiPoly.const(rat(num, den))
            return BiPoly.const(num)
        if kind == "x":
            return BiPoly.var_x()
        if kind == "y":
            return BiPoly.var_y()
        if kind == "(":
            self.depth += 1
            if self.depth > qpoly.MAX_NESTING:
                raise InputTooLarge(
                    f"parentheses nested deeper than {qpoly.MAX_NESTING} (at position {pos})"
                )
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        raise PolyParseError(f"unexpected {tok!r}", pos)


def ref_parse(text):
    return _RefParser(text).parse()


def parse_outcome(parse, text):
    """The terms of parse(text), or the type, message and offset of its error."""
    try:
        p = parse(text)
        return "ok", p.den, p.nums
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return "error", type(exc), str(exc), getattr(exc, "pos", None)


# texts over the lexer's alphabet; digit runs stay short, so that no power
# such as 3^99999999 is drawn
parse_texts = st.lists(
    st.sampled_from(
        ["0", "1", "2", "3", "007", "10", "/", "*", "^", "(", ")", "x", "y", " ",
         "+", "-", "−", "x^2", "*y", "3/4*", "2*x", "^2"]
    ),
    max_size=14,
).map("".join).filter(lambda t: not re.search(r"\d{5}", t))


class TestParse:
    def test_simple(self):
        assert parse_poly("x") == BiPoly.var_x()
        assert parse_poly("y") == BiPoly.var_y()
        assert parse_poly("x + y") == BiPoly({(1, 0): 1, (0, 1): 1})

    def test_rational_coeff(self):
        P = parse_poly("3/4*x^2*y - 2*y + 1/2")
        assert P.coeff(2, 1) == rat(3, 4)
        assert P.coeff(0, 1) == rat(-2)
        assert P.constant_term() == rat(1, 2)

    def test_parentheses_power(self):
        P = parse_poly("(y - 2*x)^3 + x")
        Q = (BiPoly.var_y() - BiPoly.var_x() * 2) ** 3 + BiPoly.var_x()
        assert P == Q

    def test_unicode_minus(self):
        assert parse_poly("y^2 − x^3") == parse_poly("y^2 - x^3")

    def test_parse_errors(self):
        for bad in ("x +", "z", "x^", "(x", "1/0"):
            with pytest.raises((PolyParseError, ZeroDivisionError)):
                parse_poly(bad)

    # an error names the first offending token and its offset, never a
    # longer run of text such as a whole monomial
    PINNED_ERRORS = [
        ("x 2*y", "unexpected '2' (at position 2)"),
        ("x y", "unexpected 'y' (at position 2)"),
        ("x*y 3/4*x", "unexpected '3' (at position 4)"),
        ("2/0*x", "zero denominator (at position 2)"),
        ("x^2^3", "unexpected '^' (at position 3)"),
        ("2*x^2^3", "unexpected '^' (at position 5)"),
    ]

    @pytest.mark.parametrize("text, message", PINNED_ERRORS)
    def test_parse_error_messages(self, text, message):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", PINNED_ERRORS)
    def test_parse_error_documents(self, capsys, text, message):
        from jaccoord.cli import main

        assert main(["check", text]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            '{\n  "error": {\n    "detail": "' + message + '",\n'
            '    "kind": "ParseError"\n  }\n}\n'
        )

    @settings(derandomize=True, max_examples=1500, deadline=None, database=None)
    @given(text=parse_texts)
    @example(text="(x+y)^2*x^2*y")
    @example(text="x ^ 2*x")
    @example(text="x^2^3")
    @example(text="2*x^2^3")
    @example(text="2*3*x")
    @example(text="0*x")
    @example(text="x^0")
    @example(text="2/3^2")
    @example(text="2/0*x")
    @example(text="y*x")
    @example(text="x*y*y")
    @example(text="1/2/3*x")
    @example(text="x^23^4")
    @example(text="2*x ^2")
    # each way the canonical pass refuses a text, and a leading + and odd
    # digits, which it reads
    @example(text="2/0*x + y")
    @example(text="x + 3/00*y")
    @example(text="+x - y")
    @example(text="x + -y")
    @example(text="- -x")
    @example(text="2 * x + y")
    @example(text="x y")
    @example(text="2x")
    @example(text="x*2 + y")
    @example(text="y*x")
    @example(text="x^2^3 + y")
    @example(text="x^02*y^0 + 007")
    @example(text="x +")
    @example(text="")
    @example(text="  ")
    @example(text="(2*x)^" + "7" * 400)
    @example(text="(x^2*y)^" + "7" * 400)
    def test_matches_reference_parser(self, text):
        assert parse_outcome(parse_poly, text) == parse_outcome(ref_parse, text)

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(50):
            P = rand_bipoly(rng)
            assert parse_poly(P.to_str()) == P

    @settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @given(P=st.one_of(sparse_bipolys, coordinates))
    def test_round_trip_property(self, P):
        assert parse_poly(P.to_str()) == P

    def test_canonical_order(self):
        # terms sorted by (total degree, x degree) descending
        s = parse_poly("1 + y + x + x*y + x^2").to_str()
        assert s == "x^2 + x*y + x + y + 1"


def grammar_parse(text):
    """The grammar alone, without the canonical pass."""
    return qpoly._Parser(text).parse()


class TestMonomialSum:
    """A text that the canonical pass reads, or refuses, has the result,
    error and position that the grammar alone gives it."""

    MIXED = [
        "-2/3*x^2 + (x + y)*y - 3*x^2*y^3",
        "2*x^2*3",
        "x^2^3",
        "2*x^2^3",
        "x^2*y + 4/6*x*y^2 - 0*y + 0/5*x - 3/9*x",
        "y^2 - 2/3*x*y^4 + x*(y + 1) - 5/2*y + 7 - x",
        "-x - y*x + 2/4*x^2*y^2",
        "3*x^2*y - x^2*y^2*y + (x)^2",
        "x*y + 2/0*x",
        "x + 1/2*y + z",
        "x^3 * y + x^3*y + x^3*y^1",
    ]

    @pytest.mark.parametrize("text", MIXED)
    def test_mixed_inputs(self, text):
        assert parse_outcome(parse_poly, text) == parse_outcome(grammar_parse, text)

    def test_mixed_outcomes(self):
        assert parse_poly("-2/3*x^2 + (x + y)*y - 3*x^2*y^3") == parse_poly("-3*x^2*y^3 - 2/3*x^2 + x*y + y^2")
        assert parse_poly("2*x^2*3") == parse_poly("6*x^2")
        assert parse_outcome(parse_poly, "x^2^3")[2:] == ("unexpected '^' (at position 3)", 3)

    def test_perfbench_texts(self):
        import os
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        texts = {t for seed in (11, 12) for make in WORKLOADS.values() for it in make(seed) for t in it.texts}
        assert len(texts) >= 1000, len(texts)
        for text in sorted(texts):
            assert qpoly._canonical_sum(text) is not None, text
            assert parse_outcome(parse_poly, text) == parse_outcome(grammar_parse, text), text

    @staticmethod
    def _variant(rng, P):
        """P.to_str() with random spacing around its signs, perhaps a leading
        +, and repeated and zero-coefficient monomials put in."""
        terms = re.findall(r"-?[^ ]+", P.to_str().replace(" - ", " -").replace(" + ", " "))
        for _ in range(rng.randint(0, 3)):
            t = rng.choice(terms).lstrip("-")
            mono = re.sub(r"^[0-9]+(/[0-9]+)?\*?", "", t)
            t = rng.choice([t, "0*" + mono if mono else "0"])
            terms.insert(rng.randint(0, len(terms)), rng.choice(["", "-"]) + t)
        out = rng.choice(["", "+", " + "]) if not terms[0].startswith("-") else ""
        for k, t in enumerate(terms):
            sign, body = ("-", t[1:]) if t.startswith("-") else ("+" if k else "", t)
            out += rng.choice(["", " ", "  "]) + sign + rng.choice(["", " ", "\t"]) + body if sign else body
        return out

    @staticmethod
    def _edit(rng, text):
        """text with one random edit: a character deleted, a space put
        inside a term, or a denominator zeroed."""
        kind = rng.choice(["delete", "space", "zero"])
        if kind == "zero" and "/" in text:
            k = rng.choice([m.start() for m in re.finditer("/", text)])
            return text[:k + 1] + re.sub(r"^[0-9]+", lambda m: "0" * len(m[0]), text[k + 1:])
        inside = [k for k in range(1, len(text)) if text[k - 1] not in " +-" and text[k] not in " +-"]
        if kind == "space" and inside:
            k = rng.choice(inside)
            return text[:k] + " " + text[k:]
        k = rng.randrange(len(text))
        return text[:k] + text[k + 1:]

    def test_edited_canonical_texts(self):
        rng = random.Random(29)
        polys = [rand_bipoly(rng, max_deg=rng.randint(0, 4), bound=12, terms=rng.randint(1, 7)) for _ in range(600)]
        polys += [gen_random_coordinate(seed, 1, 3, 5)[0] for seed in range(60)]
        seen = {"canonical": 0, "refused": 0, "error": 0}
        for P in polys:
            text = self._variant(rng, P)
            for t in (text, self._edit(rng, text)):
                got = parse_outcome(parse_poly, t)
                assert got == parse_outcome(ref_parse, t), t
                canonical = qpoly._canonical_sum(t) is not None
                if canonical:
                    assert got == parse_outcome(grammar_parse, t), t
                seen["canonical" if canonical else "refused"] += 1
                seen["error"] += got[0] == "error"
        assert seen["canonical"] >= 700 and seen["refused"] >= 450 and seen["error"] >= 300, seen


small_rats = st.fractions(min_value=-50, max_value=50, max_denominator=36)
term_maps = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), small_rats, max_size=8)
coeff_lists = st.lists(small_rats, max_size=8)


def assert_lowest_terms(den, nums):
    assert all(type(n) is int for n in nums) and type(den) is int
    assert den > 0 and math.gcd(den, *nums) == 1


class TestRepresentation:
    """BiPoly and UniPoly hold integer numerators over one positive
    denominator, in lowest terms and without zero numerators; rationals
    appear only at the accessors."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(a=term_maps, b=term_maps)
    def test_bipoly(self, a, b):
        P, Q = BiPoly(a), BiPoly(b)
        for f in (P, Q, P * Q, P + Q, P - Q, -P, P.diff_x(), P * rat(-3, 4)):
            assert_lowest_terms(f.den, list(f.nums.values()))
            assert 0 not in f.nums.values()
        assert dict(P.items()) == {e: c for e, c in a.items() if c}
        assert BiPoly(dict(P.items())) == P
        assert BiPoly({e: n * 6 for e, n in P.nums.items()}, P.den * 6) == P
        if not Q.is_zero():
            assert (P * Q).exact_div(Q) == P
        zero = P - P
        assert zero.is_zero() and zero.den == 1 and zero == BiPoly.zero()
        rats = [P.coeff(1, 1), P.constant_term(), P.eval(rat(1, 2), rat(-2))] + [c for _, c in P.items()]
        assert all(type(c) is Rat for c in rats)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(a=coeff_lists, b=coeff_lists)
    def test_unipoly(self, a, b):
        u, v = UniPoly(a), UniPoly(b)
        for f in (u, v, u * v, u + v, u - v, -u, u.derivative(), u.monic(), u.gcd(v)):
            assert_lowest_terms(f.den, list(f.nums))
            assert not f.nums or f.nums[-1] != 0
        assert UniPoly(u.coeffs) == u and hash(UniPoly(u.coeffs)) == hash(u)
        scaled = UniPoly([n * 10 for n in u.nums] + [0], u.den * 10)
        assert scaled == u and hash(scaled) == hash(u)
        assert (u == v) == (list(u.coeffs) == list(v.coeffs))
        if not u.is_zero():
            assert u.monic().lc() == 1
        if not (u.is_zero() and v.is_zero()):
            assert u.gcd(v).lc() == 1
        if not v.is_zero():
            assert (u * v).exact_div(v) == u
        assert (u - u).is_zero() and (u - u).den == 1
        rats = [u.lc(), u[0], u[3], u.eval(rat(2, 3)), u.eval(2)] + list(u.coeffs)
        assert all(type(c) is Rat for c in rats)


class TestArithmetic:
    def test_ring_axioms(self):
        rng = random.Random(3)
        for _ in range(30):
            A, B, C = (rand_bipoly(rng, 2, 3, 4) for _ in range(3))
            assert A + B == B + A
            assert A * B == B * A
            assert (A + B) + C == A + (B + C)
            assert A * (B + C) == A * B + A * C
            assert A - A == BiPoly.zero()

    def test_pow_matches_repeated_mul(self):
        P = parse_poly("x + 2*y - 1")
        assert P ** 4 == P * P * P * P
        assert P ** 0 == BiPoly.const(1)

    def test_eval_is_homomorphism(self):
        rng = random.Random(4)
        for _ in range(30):
            A, B = rand_bipoly(rng, 2, 3, 4), rand_bipoly(rng, 2, 3, 4)
            xv, yv = rat(rng.randint(-5, 5), 3), rat(rng.randint(-5, 5), 2)
            assert (A * B).eval(xv, yv) == A.eval(xv, yv) * B.eval(xv, yv)
            assert (A + B).eval(xv, yv) == A.eval(xv, yv) + B.eval(xv, yv)

    def test_exact_div(self):
        rng = random.Random(5)
        for _ in range(20):
            A = rand_bipoly(rng, 2, 3, 4)
            B = rand_bipoly(rng, 2, 3, 4)
            if B.is_zero():
                continue
            assert (A * B).exact_div(B) == A
        # integer operands with contents > 1, and oracle-size coefficients
        for k in range(60):
            A, B = oracle_bipoly(rng), oracle_bipoly(rng)
            if B.is_zero():
                continue
            if k % 2:
                m = rng.choice([2, 6, 35, 10**20 + 39])
                A, B = (BiPoly({e: rat(n * m) for e, n in f.nums.items()})
                        for f in (A, B))
            assert (A * B).exact_div(B) == A
        # the contents differ: their ratio is the whole quotient
        assert parse_poly("2*x").exact_div(parse_poly("3*x")) == BiPoly.const(rat(2, 3))
        for a, b in [
            ("x^2 + 1", "x + 1"),  # remainder 2
            ("x^2 + 1", "2*x + 1"),  # an integer division with a remainder
            ("x", "x^2"),  # a quotient of negative degree
            ("y^2 + x", "y"),  # the lex-leading x is not divisible by y
        ]:
            with pytest.raises(ValueError, match="inexact bivariate division"):
                parse_poly(a).exact_div(parse_poly(b))
        for dividend in (parse_poly("x + 1"), BiPoly.zero()):
            with pytest.raises(ZeroDivisionError):
                dividend.exact_div(BiPoly.zero())
        assert BiPoly.zero().exact_div(parse_poly("2*x + 3")).is_zero()


def oracle_coeff(rng):
    num = rng.randint(1, 10 ** rng.choice([1, 3, 20])) * rng.choice([-1, 1])
    return rat(num, rng.choice([1, 2, 3, 7, 12, rng.randint(10**19, 10**20 - 1)]))


def oracle_bipoly(rng):
    """Zero, a constant, a monomial, or up to 8 terms of degree <= 4."""
    kind = rng.randrange(8)
    if kind == 0:
        return BiPoly.zero()
    if kind == 1:
        return BiPoly.const(oracle_coeff(rng))
    n = 1 if kind == 2 else rng.randint(2, 8)
    return BiPoly({(rng.randint(0, 4), rng.randint(0, 4)): oracle_coeff(rng) for _ in range(n)})


def oracle_component(rng, var):
    """A substitution component: the identity, a rational constant, or small."""
    kind = rng.randrange(4)
    if kind == 0:
        return BiPoly.var_x() if var == "x" else BiPoly.var_y()
    if kind == 1:
        return BiPoly.const(oracle_coeff(rng))
    t = {(rng.randint(0, 2), rng.randint(0, 2)): oracle_coeff(rng) for _ in range(rng.randint(1, 4))}
    return BiPoly(t)


def assert_rat_coefficients(P):
    for _, c in P.items():
        assert isinstance(c, Rat) and c != 0, (type(c), c)


class TestKernelOracle:
    """Products, powers, substitute and jacobian_det against the references."""

    def test_random_against_reference(self):
        rng = random.Random(12)
        seen = {"zero": 0, "const": 0, "monomial": 0, "identity": 0, "const_comp": 0}
        for _ in range(200):
            A, B = oracle_bipoly(rng), oracle_bipoly(rng)
            sx, sy = oracle_component(rng, "x"), oracle_component(rng, "y")
            seen["zero"] += A.is_zero()
            seen["const"] += A.is_constant() and not A.is_zero()
            seen["monomial"] += A.num_terms() == 1
            seen["identity"] += sx == BiPoly.var_x()
            seen["const_comp"] += sy.is_constant()
            for got, want in (
                (A * B, ref_mul(A, B)),
                (A ** 3, ref_mul(ref_mul(A, A), A)),
                (substitute(A, sx, sy), rat_substitute(A, sx, sy)),
                (jacobian_det(A, B), ref_jacobian(A, B)),
                (jacobian_det(A, B), diff_jacobian(A, B)),
                (jacobian_det(B, A), -jacobian_det(A, B)),
            ):
                assert got == want
                assert_rat_coefficients(got)
        assert min(seen.values()) >= 10, seen

    def test_jacobian_operand_shapes(self):
        # zero, constant, y-free, x-free and general operands in both
        # places, the second with more terms than the first
        rng = random.Random(13)

        def operand(kind, n):
            if kind == "zero":
                return BiPoly.zero()
            if kind == "const":
                return BiPoly.const(oracle_coeff(rng))
            dx, dy = (6, 0) if kind == "y-free" else (0, 6) if kind == "x-free" else (6, 6)
            return BiPoly({(rng.randint(0, dx), rng.randint(0, dy)): oracle_coeff(rng) for _ in range(n)})

        kinds = ("zero", "const", "y-free", "x-free", "general")
        longer = 0
        for _ in range(10):
            for ka in kinds:
                for kb in kinds:
                    A, B = operand(ka, rng.randint(1, 6)), operand(kb, rng.randint(6, 24))
                    longer += B.num_terms() > A.num_terms()
                    J = jacobian_det(A, B)
                    assert J == diff_jacobian(A, B), (A, B)
                    assert jacobian_det(B, A) == -J
                    assert_rat_coefficients(J)
        assert longer >= 150, longer

    def test_jacobian_of_coordinate_pairs(self):
        # P and its complement from the witness of check, degrees up to 25
        for seed in range(12):
            P, _ = gen_random_coordinate(seed, 1 + seed % 2, 5, 5)
            Q = check(P).complement
            J = jacobian_det(P, Q)
            assert J == diff_jacobian(P, Q) and J.is_constant() and not J.is_zero()
            assert_rat_coefficients(J)

    def test_cancellation(self):
        third, two_sevenths = rat(1, 3), rat(2, 7)
        X, Y = BiPoly.var_x(), BiPoly.var_y()
        prod = (X * third + Y * two_sevenths) * (X * third - Y * two_sevenths)
        assert prod == X * X * (third * third) - Y * Y * (two_sevenths * two_sevenths)
        assert_rat_coefficients(prod)
        P = parse_poly("3/7*x^2*y - 5/11*y^3 + 1/10")
        assert jacobian_det(P, P).is_zero()
        assert jacobian_det(P, P * P * rat(2, 3) + P).is_zero()
        assert substitute(parse_poly("9*y - x^2"), X * third, X * X * rat(1, 81)).is_zero()
        assert (P * BiPoly.zero()).is_zero()
        assert P ** 0 == BiPoly.const(1) == BiPoly.zero() ** 0


class TestSubstitute:
    def test_triangular_inverse(self):
        P = parse_poly("y + x^3")
        assert substitute(P, BiPoly.var_x(), parse_poly("y - x^3")) == BiPoly.var_y()

    def test_identity(self):
        P = parse_poly("x^2*y - 3*y + 7")
        assert substitute(P, BiPoly.var_x(), BiPoly.var_y()) == P

    def test_homomorphism(self):
        rng = random.Random(6)
        for _ in range(15):
            A, B = rand_bipoly(rng, 2, 3, 3), rand_bipoly(rng, 2, 3, 3)
            sx, sy = rand_bipoly(rng, 2, 2, 3), rand_bipoly(rng, 2, 2, 3)
            assert substitute(A * B, sx, sy) == substitute(A, sx, sy) * substitute(
                B, sx, sy
            )
            assert substitute(A + B, sx, sy) == substitute(A, sx, sy) + substitute(
                B, sx, sy
            )

    def test_evaluation_consistency(self):
        rng = random.Random(7)
        for _ in range(15):
            P = rand_bipoly(rng, 3, 3, 5)
            sx, sy = rand_bipoly(rng, 2, 2, 3), rand_bipoly(rng, 2, 2, 3)
            xv, yv = rat(rng.randint(-3, 3), 2), rat(rng.randint(-3, 3), 3)
            assert substitute(P, sx, sy).eval(xv, yv) == P.eval(
                sx.eval(xv, yv), sy.eval(xv, yv)
            )


# images of every kind that substitute distinguishes: a monomial c x^a y^b
# (a signed rational one, a constant, x or y) or zero, and images of two or
# three terms
IMAGE_TEXTS = {
    "monomial": ["-3/2*x^2*y", "5/7*y^2", "-x*y", "2/9*x^3"],
    "constant": ["-4/3", "7"],
    "zero": ["0"],
    "x": ["x"],
    "y": ["y"],
    "binomial": ["x + y^2", "-2/3*x*y + 5", "y - 1/4*x^3"],
    "affine": ["2*x - 3/5*y + 1", "-x + 7*y - 2/3"],
}


def substitute_inputs():
    """Seeded random P, with the zero, constant and univariate ones."""
    rng = random.Random(31)
    fixed = ["0", "-5/3", "3/4*x^3 - x + 2", "-y^4 + 2/5*y", "x^2*y^3"]
    return [parse_poly(t) for t in fixed] + [rand_bipoly(rng, 4, 9, 7) for _ in range(10)]


class TestMonomialSubstitute:
    """substitute against the Horner routine ref_substitute, with a monomial
    image in either slot, in both or in neither."""

    def test_against_horner(self):
        images = [(kind, parse_poly(t)) for kind, texts in IMAGE_TEXTS.items() for t in texts]
        for P in substitute_inputs():
            for kx, sx in images:
                for ky, sy in images:
                    assert substitute(P, sx, sy) == ref_substitute(P, sx, sy), (P, kx, sx, ky, sy)

    def test_triangular_steps(self):
        # the images of every reduction step: (x, y + phi(x)) and (x + psi(y), y)
        rng = random.Random(32)
        X, Y = BiPoly.var_x(), BiPoly.var_y()
        for P in substitute_inputs():
            phi = rand_bipoly(rng, 5, 9, 4)
            phi_x = BiPoly({(i, 0): c for (i, _), c in phi.items() if i})
            phi_y = BiPoly({(0, j): c for (_, j), c in phi.items() if j})
            for sx, sy in ((X, Y + phi_x), (X + phi_y, Y)):
                assert substitute(P, sx, sy) == ref_substitute(P, sx, sy)


class TestJacobian:
    def test_triangular_pair(self):
        assert jacobian_det(parse_poly("y + x^3"), BiPoly.var_x()) == BiPoly.const(-1)

    def test_coordinate_pair(self):
        assert jacobian_det(BiPoly.var_x(), BiPoly.var_y()) == BiPoly.const(1)

    def test_antisymmetry_and_product_rule(self):
        rng = random.Random(8)
        for _ in range(15):
            P, Q = rand_bipoly(rng, 2, 3, 4), rand_bipoly(rng, 2, 3, 4)
            assert jacobian_det(P, Q) == -jacobian_det(Q, P)
            assert jacobian_det(P * P, Q) == 2 * P * jacobian_det(P, Q)

    def test_chain_rule_with_automorphism(self):
        # J(P o s, Q o s) = J(P, Q) o s * J(s)
        P, Q = parse_poly("x^2 + y"), parse_poly("x*y - 1")
        sx, sy = parse_poly("x"), parse_poly("y + x^2")
        lhs = jacobian_det(substitute(P, sx, sy), substitute(Q, sx, sy))
        rhs = substitute(jacobian_det(P, Q), sx, sy) * jacobian_det(sx, sy)
        assert lhs == rhs


def signed_big(rng, bits):
    return rng.choice((-1, 1)) * rng.randint(2 ** (bits - 1), 2 ** bits)


def random_terms(rng, n, degx, degy, coeff):
    return BiPoly({(rng.randint(0, degx), rng.randint(0, degy)): coeff() for _ in range(n)})


class TestPackedJacobian:
    """jacobian_det packs the y-rows of the partial derivatives into one
    integer each, in slots of B bits: seeded inputs against the term-pair
    references, with coefficients large enough to fill the slots."""

    def assert_jacobian(self, A, B):
        J = jacobian_det(A, B)
        assert J == ref_jacobian(A, B) == diff_jacobian(A, B), (A, B)
        assert jacobian_det(B, A) == -J
        assert_rat_coefficients(J)
        return J

    def test_large_mixed_sign_coefficients(self):
        rng = random.Random(41)
        for _ in range(40):
            bits = rng.randint(200, 400)
            big = lambda: rat(signed_big(rng, bits), rng.choice((1, rng.randint(1, 2 ** 64))))  # noqa: E731
            A = random_terms(rng, rng.randint(1, 14), rng.randint(0, 9), rng.randint(0, 9), big)
            B = random_terms(rng, rng.randint(1, 14), rng.randint(0, 9), rng.randint(0, 9), big)
            self.assert_jacobian(A, B)

    def test_one_sign_and_magnitude(self):
        # every term +M or every term -M, M = 2^k - 1, so that no two terms
        # cancel and the largest coefficient of the result comes close to the
        # bound 2 n1 n2 that sets the slot width
        rng = random.Random(42)
        closest = 0.0
        for _ in range(30):
            M = 2 ** rng.randint(200, 400) - 1
            n = rng.randint(1, 12)
            sa, sb = rng.choice((-1, 1)), rng.choice((-1, 1))
            A = random_terms(rng, rng.randint(1, 10), n, n, lambda: sa * M)
            B = random_terms(rng, rng.randint(1, 10), n, n, lambda: sb * M)
            self.assert_jacobian(A, B)
        for n in range(1, 13):
            M = 2 ** (200 + 17 * n) - 1
            for A, B in ((BiPoly({(n, 0): M}), BiPoly({(0, n): -M})),
                         (BiPoly({(n, 0): M, (0, n): M}), BiPoly({(0, n): M, (n, 0): -M}))):
                J = self.assert_jacobian(A, B)
                bound = 2 * (sum(map(abs, A.nums.values())) * n) * (sum(map(abs, B.nums.values())) * n)
                closest = max(closest, max(map(abs, J.nums.values())) / bound)
        assert closest >= 0.25, closest

    def test_zero_constant_and_univariate_operands(self):
        rng = random.Random(43)
        coeff = lambda: rat(signed_big(rng, 300), rng.randint(1, 9))  # noqa: E731
        operands = [BiPoly.zero(), BiPoly.const(coeff()), BiPoly.const(rat(-2, 7))]
        for _ in range(4):
            operands.append(random_terms(rng, 6, 12, 0, coeff))  # in x alone
            operands.append(random_terms(rng, 6, 0, 12, coeff))  # in y alone
            operands.append(random_terms(rng, 6, 12, 12, coeff))
        for A in operands:
            for B in operands:
                J = self.assert_jacobian(A, B)
                if A.is_constant() or B.is_constant():
                    assert J.is_zero()

    def test_sparse_high_degree(self):
        texts = ["x^40*y^3 + 1", "y^57 - 3/2*x", "x^61*y^2 + 5*x^3 - y^44", "-7/3*x^90 + y", "x^33*y^29 + 2", "x*y"]
        for a in texts:
            for b in texts:
                self.assert_jacobian(parse_poly(a), parse_poly(b))
        assert jacobian_det(parse_poly("x^40*y^3 + 1"), parse_poly("y")) == parse_poly("40*x^39*y^3")


def test_one_rational_type():
    import fractions

    import jaccoord

    assert jaccoord.Rat is Rat is fractions.Fraction
    assert jaccoord.BACKEND == "fractions"
    assert rat("-6/4") == rat(-3, 2) == Rat(-3, 2)
    assert [jaccoord.rat_str(rat(n, d)) for n, d in ((4, 2), (-3, 6))] == ["2", "-1/2"]
    assert BiPoly.const(2).constant_term() == Rat(2) and BiPoly.const(rat(0)).is_zero()


class TestUniPoly:
    def test_divmod(self):
        a = UniPoly([rat(-1), rat(0), rat(0), rat(1)])  # t^3 - 1
        b = UniPoly([rat(-1), rat(1)])  # t - 1
        q, r = a.divmod(b)
        assert r.is_zero()
        assert q == UniPoly([rat(1), rat(1), rat(1)])

    def test_gcd_monic(self):
        a = UniPoly([rat(-2), rat(0), rat(2)])  # 2(t^2 - 1)
        b = UniPoly([rat(3), rat(3)])  # 3(t + 1)
        assert a.gcd(b) == UniPoly([rat(1), rat(1)])

    def test_squarefree_part(self):
        t = UniPoly([rat(0), rat(1)])
        u = (t - UniPoly.const(1)) ** 2 * (t + UniPoly.const(2))
        assert squarefree_part(u) == ((t - UniPoly.const(1)) * (t + UniPoly.const(2))).monic()

    def test_squarefree_of_squarefree(self):
        u = UniPoly([rat(1), rat(1), rat(1)])
        assert squarefree_part(u) == u.monic()

    def test_random_gcd_property(self):
        rng = random.Random(9)
        t = UniPoly([rat(0), rat(1)])
        for _ in range(25):
            g = UniPoly([rat(rng.randint(-3, 3)) for _ in range(3)] + [rat(1)])
            a = g * UniPoly([rat(rng.randint(-3, 3)), rat(1)])
            b = g * UniPoly([rat(rng.randint(-3, 3)), rat(2)])
            # the common factor g divides gcd(a, b)
            assert a.gcd(b).divmod(g.monic())[1].is_zero()


_T = sympy.Symbol("t")


def to_sympy(u):
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(u.coeffs)]
    return sympy.Poly.from_list(cs or [0], _T, domain=sympy.QQ)


def from_sympy(p):
    return UniPoly([rat(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def oracle_unipoly(rng, deg):
    return UniPoly([oracle_coeff(rng) for _ in range(deg + 1)])


def oracle_unipoly_pair(rng, kind):
    """(a, b) of the given kind: 'zero' and 'const' set a, 'coprime' draws
    two random polynomials, 'shared' multiplies both by common factors of
    multiplicity up to 4."""
    b = oracle_unipoly(rng, rng.randint(0, 4))
    if kind == "zero":
        return UniPoly.zero(), b
    if kind == "const":
        return UniPoly.const(oracle_coeff(rng)), b
    a = oracle_unipoly(rng, rng.randint(1, 5))
    if kind == "shared":
        for _ in range(rng.randint(1, 2)):
            f = oracle_unipoly(rng, rng.randint(1, 2))
            a = a * f ** rng.randint(1, 4)
            b = b * f ** rng.randint(1, 4)
    return a, b


class TestUniPolyKernelOracle:
    """gcd, squarefree_part, * and exact_div against sympy and Euclid over Q."""

    def test_random_against_sympy(self):
        rng = random.Random(14)
        kinds = ["zero", "const", "coprime", "shared", "shared"]
        seen = dict.fromkeys(kinds, 0)
        seen["multiplicity4"] = 0
        for k in range(240):
            kind = kinds[k % len(kinds)]
            a, b = oracle_unipoly_pair(rng, kind)
            A, B = to_sympy(a), to_sympy(b)
            g = a.gcd(b)
            assert g == from_sympy(sympy.gcd(A, B)).monic() == ref_gcd(a, b)
            assert b.gcd(a) == g
            seen[kind] += kind != "coprime" or g == UniPoly.const(1)
            prod = a * b
            assert prod == from_sympy(A * B)
            for u in (g, prod):
                assert all(isinstance(c, Rat) for c in u.coeffs)
            q, r = sympy.div(A * B, B)
            assert r.is_zero and prod.exact_div(b) == from_sympy(q) == a
            if not g.is_zero():
                q, r = sympy.div(B, to_sympy(g))
                assert r.is_zero and b.exact_div(g) == from_sympy(q)
            for u, U in ((a, A), (prod, A * B)):
                if not u.is_zero():
                    assert squarefree_part(u) == from_sympy(sympy.sqf_part(U)).monic()
            seen["multiplicity4"] += any(m == 4 for _, m in sympy.sqf_list(A)[1])
        assert min(seen.values()) >= 10, seen

    def test_large_coefficients(self):
        # 20-digit numerators over mixed denominators, to the fourth power
        f = UniPoly([rat(12345678901234567890, 7), rat(-98765432109876543211, 12), rat(1, 10**19 + 7)])
        h = UniPoly([rat(3, 2), rat(-11111111111111111111), rat(5, 3), rat(2)])
        u = f ** 4 * h
        assert squarefree_part(u) == (f * h).monic()
        assert u.gcd(u.derivative()) == (f ** 3).monic() == ref_gcd(u, u.derivative())
        assert u.exact_div(f ** 3) == f * h

    def test_errors(self):
        t2 = UniPoly([rat(-1), rat(0), rat(1)])  # t^2 - 1
        with pytest.raises(ValueError, match="inexact univariate division"):
            t2.exact_div(UniPoly([rat(2), rat(3)]))  # 3t + 2 does not divide
        with pytest.raises(ValueError, match="inexact univariate division"):
            UniPoly([rat(1), rat(0), rat(1)]).exact_div(UniPoly([rat(1), rat(1)]))  # remainder 2
        with pytest.raises(ValueError, match="inexact univariate division"):
            UniPoly([rat(0), rat(0), rat(1)]).exact_div(UniPoly([rat(1), rat(2)]))  # lc 2 fails on t^2
        with pytest.raises(ValueError, match="inexact univariate division"):
            UniPoly([rat(1), rat(1)]).exact_div(t2)  # degree too high
        for dividend in (t2, UniPoly.zero()):
            with pytest.raises(ZeroDivisionError):
                dividend.exact_div(UniPoly.zero())
        assert UniPoly.zero().gcd(UniPoly.zero()).is_zero()
        assert UniPoly.zero().exact_div(t2).is_zero()


def strip_x(ints):
    """An integer coefficient list without its factor x^v."""
    return ints[next(k for k, c in enumerate(ints) if c):]


def gcd_certificate_pair(rng, kind):
    """(a, b) of the given kind, with integer coefficients that are
    sometimes multiples of 3 so that a small prime meets unlucky leading
    coefficients: 'coprime', 'shared' (common factors up to multiplicity 3),
    'xpow' (each times its own power of x, coprime otherwise), 'xshared'
    (powers of x and a common factor), 'const' and 'zero' (as a)."""

    def poly(lo, hi):
        cs = [rat(rng.choice([0, 3, -3, 6]) if rng.random() < 0.3 else rng.randint(-9, 9))
              for _ in range(rng.randint(lo, hi) + 1)]
        cs[-1] = rat(rng.choice([-6, 3]) if rng.random() < 0.2 else rng.choice([-5, -2, -1, 1, 2, 4, 7]))
        return UniPoly(cs)

    b = poly(0, 6)
    if kind == "zero":
        return UniPoly.zero(), b
    if kind == "const":
        return UniPoly.const(rng.choice([-6, 3, 1, 7])), b
    a = poly(1, 6)
    if kind in ("shared", "xshared"):
        for _ in range(rng.randint(1, 2)):
            f = poly(1, 2)
            a = a * f ** rng.randint(1, 3)
            b = b * f ** rng.randint(1, 3)
    if kind in ("xpow", "xshared"):
        a = a * UniPoly.monomial(1, rng.randint(0, 3))
        b = b * UniPoly.monomial(1, rng.randint(0, 3))
    return a, b


class TestUniPolyGcdCertificate:
    """UniPoly.gcd against sympy.gcd, made monic, with and without the
    modular coprimality certificate able to answer."""

    KINDS = ["coprime", "shared", "xpow", "xshared", "const", "zero"]

    def _corpus(self):
        rng = random.Random(16)
        return [(kind, *gcd_certificate_pair(rng, kind)) for _ in range(40) for kind in self.KINDS]

    def _check(self, corpus):
        for kind, a, b in corpus:
            want = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))).monic()
            assert a.gcd(b) == want and b.gcd(a) == want, (kind, a, b)

    def test_large_prime_proves_every_power_of_x(self, monkeypatch):
        corpus = self._corpus()
        self._check(corpus)
        prems = []
        real_prem = qpoly._int_prem
        monkeypatch.setattr(qpoly, "_int_prem", lambda a, b: prems.append(1) or real_prem(a, b))
        proved = 0
        for kind, a, b in corpus:
            del prems[:]
            if sum(c != 0 for c in a.gcd(b).coeffs) == 1 and not a.is_zero():
                assert not prems, (kind, a, b)
                proved += 1
        assert proved >= 100, proved

    def test_small_prime_falls_back_to_the_prs(self, monkeypatch):
        corpus = self._corpus()
        monkeypatch.setattr(qpoly, "MODULAR_PRIME", 3)
        self._check(corpus)
        # pairs whose gcd is a power of x but which the certificate cannot
        # prove modulo 3: an unlucky leading coefficient or a spurious gcd
        unlucky = spurious = 0
        for kind, a, b in corpus:
            if a.is_zero() or sum(c != 0 for c in a.gcd(b).coeffs) != 1:
                continue
            ia, ib = (qpoly._int_primitive(qpoly._int_coeffs(u.coeffs)[1])[1] for u in (a, b))
            if ia[-1] % 3 == 0 or ib[-1] % 3 == 0:
                unlucky += 1
            elif len(qpoly._gcd_mod_p(strip_x(ia), strip_x(ib), 3)) > 1:
                spurious += 1
        assert unlucky >= 10 and spurious >= 10, (unlucky, spurious)
