"""Exact rational arithmetic backend.

Every quantity in this package (coordinates, volumes, function values,
integrals, constants) is an exact rational number.  We prefer gmpy2.mpq
when it is installed and fall back to fractions.Fraction otherwise.  The
hottest loops, the sup-convolution DP and the simplex pricing, run on
plain ints from ``scaled`` whichever backend is active, so the backend
only matters for the rational work around them (basis inverse updates,
file and report values); how much gmpy2 still gains there has not been
measured since those loops moved to integers.  Both types are
registered with numbers.Rational, always store a reduced value with
positive denominator, hash identically, and mix freely with ints, so
the rest of the code never needs to know which backend is active.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


def rat(numerator, denominator=1):
    """Build an exact rational from ints, strings, or rational values."""
    return Rat(numerator, denominator)


def as_fraction(x) -> Fraction:
    """Convert any rational-like value to a stdlib Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x.numerator, x.denominator)


def scaled(values):
    """(integer numerators, common denominator) of rational values, so
    that values[i] == nums[i] / den with den the lcm of the denominators.

    int() keeps the results plain Python ints whichever backend is active.
    """
    den = math.lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (den // int(v.denominator)) for v in values], den


def rat_floor(x) -> int:
    return math.floor(x)


def parse_rat(text: str):
    """Parse 'p/q', an integer literal, or a decimal like '0.25' exactly."""
    return Rat(Fraction(text.strip()))


def format_rat(x) -> str:
    """Render a rational as 'p/q', or 'p' when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
