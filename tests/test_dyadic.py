import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reconset.dyadic import Dyadic, as_dyadic, parse_or_snap, snap


dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=40),
)


def test_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert Dyadic(0, 17).exp == 0
    d = Dyadic(12, 4)
    assert d.num % 2 == 1 or d.num == 0


def test_parse_forms():
    assert Dyadic.parse("3") == Dyadic(3)
    assert Dyadic.parse("-5/8") == Dyadic(-5, 3)
    assert Dyadic.parse("7/2^4") == Dyadic(7, 4)
    assert Dyadic.parse("0.25") == Dyadic(1, 2)
    assert Dyadic.parse(" -1.5 ") == Dyadic(-3, 1)
    with pytest.raises(ValueError):
        Dyadic.parse("1/3")
    with pytest.raises(ValueError):
        Dyadic.parse("0.1")


def test_snap_reports_error():
    snapped, err = snap(Fraction(1, 3), 4)
    assert snapped == Dyadic(5, 4)
    assert err == Fraction(5, 16) - Fraction(1, 3)
    exact, err2 = parse_or_snap("0.75")
    assert exact == Dyadic(3, 2) and err2 == 0
    lossy, err3 = parse_or_snap("0.1", exponent=10)
    assert err3 != 0
    assert abs(float(lossy) - 0.1) < 2**-10


def test_snap_refuses_text():
    # Fraction would spend seconds building 10**9999999 before answering
    for text in ("1e9999999", "0.5"):
        with pytest.raises(TypeError):
            snap(text, 4)


def test_parse_or_snap_bounds_decimal_exponents():
    assert parse_or_snap("1e400")[0] == Dyadic(10**400)
    assert parse_or_snap(" 1E-0_400 ")[0] == Dyadic(0)
    for text in ("1e401", "2.5e-401", "1e0_401", "1e999999999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="decimal exponent"):
            parse_or_snap(text)


def test_float_roundtrip_exact():
    x = 0.15625
    assert float(Dyadic.from_float(x)) == x
    assert as_dyadic(0.5) == Dyadic(1, 1)


@given(dyadics, dyadics)
def test_arithmetic_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(dyadics)
def test_canonical_invariant(a):
    assert a.exp >= 0
    assert a.num % 2 == 1 or (a.num == 0 and a.exp == 0) or a.exp == 0


@given(dyadics)
def test_float_is_exact_within_53_bits(a):
    if abs(a.num) <= 2**53:
        assert Fraction(float(a)) == a.as_fraction()


def test_integer_mixing():
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 2 * Dyadic(3, 2) == Dyadic(3, 1)
    assert 1 - Dyadic(1, 2) == Dyadic(3, 2)
    assert Dyadic(5, 1) > 2
    assert math.isclose(float(Dyadic(1, 1)), 0.5)
