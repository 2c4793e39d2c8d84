"""Rational arithmetic backend selection.

The whole pipeline runs on exact rationals: gmpy2's C-implemented ``mpq``
when it is available, else the pure-Python ``fractions.Fraction``.  Both
share the surface we rely on (arithmetic, comparisons, ``numerator`` /
``denominator``, ``Rat(n, d)``, ``str`` as ``p/q``), so the choice is made
once at import time.  With either backend the hot bivariate kernels
(products, substitution, the Jacobian) and the univariate gcd, product and
exact division run on Python ints over a common denominator and build
``Rat`` values only for their results.
"""

try:
    from gmpy2 import mpq as Rat

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

    BACKEND = "fractions"

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def rat(num, den=1):
    """Build a backend rational from integers (or parse a 'p/q' string)."""
    if isinstance(num, str):
        return Rat(num)
    return Rat(num, den)


def rat_str(r) -> str:
    """Canonical text form: 'p' when the denominator is 1, else 'p/q'."""
    return str(r)
