"""Exact rational arithmetic.

Every quantity in this package (coordinates, volumes, function values,
integrals, constants) is an exact rational number, a
fractions.Fraction; ``Rat`` names the type.  The hottest loops run on
plain ints: a sampled function holds integer numerators over one
denominator (envelope.SampledFunction), read by the DP, the midpoint
test, the envelope, function files and report means; a geometric
simplex holds integer vertex rows over one denominator
(geometry.Simplex), and an averageable map piece the integer rows of
[matrix | offset] over one denominator (averageable.AffinePiece).  The
good-translate closure runs on integer offsets and integer constant
numerators, each over its level's one denominator (cover.closure_good),
and makes a rational constant only for each translate it keeps.
Rationals are brought to integers by ``scaled`` where a simplex is
built from points (geometry.simplex), and for the query point of a
containment test or of a piece's apply.  The LP
simplex takes ints only, in its columns, objective and right hand
side, and keeps a fraction-free basis (see exactlp): the envelope hands
it integer lattice coordinates and a function's numerators, the
geometry its vertex rows.  Bases, volumes and containment are inverted
fraction-free; rationals remain at the boundary: returned weights, LP
values and volumes, reports and certificates.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def scaled(values):
    """(integer numerators, common denominator) of rational values, so
    that values[i] == nums[i] / den with den the lcm of the denominators.
    """
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# The exponent of a decimal literal such as '1e-3'.
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rat(text: str):
    """Parse 'p/q', an integer literal, or a decimal like '0.25' or
    '1e-3' exactly.

    Raises ValueError for a malformed literal, a zero denominator, or an
    exponent beyond the interpreter's int-string digit limit; that one
    is refused before its power of ten is built, which for '1e10000000'
    alone takes seconds.
    """
    text = text.strip()
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    exponent = _EXPONENT.search(text)
    if exponent and int(exponent[1]) > limit:
        raise ValueError(f"exponent beyond {limit} in {text!r}")
    try:
        return Rat(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rat(x) -> str:
    """Render a rational as 'p/q', or 'p' when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
