"""Exact rational values: RAT (fractions.Fraction), the type of every
probability a caller gives or reads, and the 'p/q' literals that carry
them in JSON.  Not every exact value is a Fraction: Dist keeps int
numerators over one common denominator, and the fixed laws of dynamics
are solved on integers, as is every elimination in linalg; Fractions are
made at the edges, and at the read-out of linalg's rref and nullspace.
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
    """Parse 'p' or 'p/q', p and q ASCII decimal integers with an optional
    sign; whitespace is allowed around the whole literal only.  Rejects
    floats and junk, including digit separators and non-ASCII digits."""
    parts = text.strip().split("/")
    if len(parts) > 2 or not all(_is_int_literal(part) for part in parts):
        raise MalformedInput(f"not a rational literal: {text!r}")
    try:  # int() refuses literals past sys.get_int_max_str_digits()
        n, d = int(parts[0]), (int(parts[1]) if len(parts) == 2 else 1)
    except ValueError:
        raise MalformedInput(f"not a rational literal: {text!r}") from None
    if d == 0:
        raise MalformedInput(f"zero denominator: {text!r}")
    return RAT(n, d)


def _is_int_literal(text):
    """Whether text matches [+-]?[0-9]+ in ASCII."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def rat_to_string(value):
    """Canonical 'p/q' form (always includes the denominator)."""
    q = RAT(value)
    return f"{q.numerator}/{q.denominator}"
