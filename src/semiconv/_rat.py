"""Exact rational arithmetic: every probability and matrix entry is a
fractions.Fraction, built through RAT().
"""

from fractions import Fraction

from .errors import MalformedInput

RAT = Fraction

ZERO = RAT(0)
ONE = RAT(1)


def as_rat(value):
    """Coerce an int, a Fraction or a 'p/q' string to a Fraction."""
    if isinstance(value, str):
        return rat_from_string(value)
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a string 'p/q' or a rational")
    return RAT(value)


def rat_from_string(text):
    """Parse 'p' or 'p/q' with integer p, q.  Rejects floats and junk."""
    parts = text.strip().split("/")
    if len(parts) == 1:
        num, den = parts[0], "1"
    elif len(parts) == 2:
        num, den = parts
    else:
        raise MalformedInput(f"not a rational literal: {text!r}")
    try:
        n, d = int(num), int(den)
    except ValueError:
        raise MalformedInput(f"not a rational literal: {text!r}") from None
    if d == 0:
        raise MalformedInput(f"zero denominator: {text!r}")
    return RAT(n, d)


def rat_to_string(value):
    """Canonical 'p/q' form (always includes the denominator)."""
    q = RAT(value)
    return f"{q.numerator}/{q.denominator}"
