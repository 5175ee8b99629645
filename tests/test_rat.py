import pytest

from semiconv._rat import ONE, RAT, ZERO, as_rat, rat_from_string, rat_to_string
from semiconv.errors import MalformedInput


def test_parse_basic():
    assert rat_from_string("1/2") == RAT(1, 2)
    assert rat_from_string("3") == RAT(3)
    assert rat_from_string("-2/4") == RAT(-1, 2)
    assert rat_from_string(" 7/3 ") == RAT(7, 3)


def test_parse_rejects_junk():
    junk = ("", "1/0", "1/2/3", "0.5", "a/b", "1e3", "nan", "/2", "2/")
    lenient_int = ("1_0/2_0", "1 / 2", "\u0661/\u0662")
    for bad in junk + lenient_int:
        with pytest.raises(MalformedInput):
            rat_from_string(bad)


def test_to_string_round_trip():
    for num, den in ((0, 1), (1, 2), (-3, 7), (22, 7), (5, 1)):
        q = RAT(num, den)
        assert rat_from_string(rat_to_string(q)) == q
    assert rat_to_string(RAT(1, 2)) == "1/2"
    assert rat_to_string(RAT(3)) == "3/1"
    assert rat_to_string(ZERO) == "0/1"


def test_as_rat_accepts_exact_types_only():
    assert as_rat(3) == RAT(3)
    assert as_rat(RAT(2, 5)) == RAT(2, 5)
    from fractions import Fraction

    assert as_rat(Fraction(1, 3)) == RAT(1, 3)
    with pytest.raises(TypeError):
        as_rat(0.5)


def test_constants():
    assert ZERO == RAT(0) and ONE == RAT(1)
    assert ONE / RAT(3) + RAT(2, 3) == ONE
