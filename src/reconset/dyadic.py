"""Exact arithmetic on dyadic rationals (numerator / 2**exponent).

Every endpoint, measure and budget that must be compared exactly is carried
as a :class:`Dyadic`.  Arithmetic never rounds; values that are not dyadic
must be snapped explicitly through :func:`snap`, which reports the error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering


def _reduce(num: int, exp: int) -> tuple[int, int]:
    # canonical form: numerator odd or zero, exponent 0 when numerator is 0
    if num == 0:
        return 0, 0
    while exp > 0 and num % 2 == 0:
        num //= 2
        exp -= 1
    return num, exp


@total_ordering
class Dyadic:
    """An exact dyadic rational ``num / 2**exp`` in canonical form."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            # 3 * 2**5 style input: fold the power into the numerator
            num <<= -exp
            exp = 0
        self.num, self.exp = _reduce(int(num), int(exp))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_float(x: float) -> "Dyadic":
        """Exact conversion; every finite float is a dyadic rational."""
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"not a finite value: {x}")
        n, d = float(x).as_integer_ratio()
        return Dyadic(n, d.bit_length() - 1)

    @staticmethod
    def parse(text: str) -> "Dyadic":
        """Parse ``7``, ``-3/8``, ``5/2^4`` or an exactly-dyadic decimal.

        Raises ValueError when the value is not a dyadic rational (use
        :func:`snap` for lossy input).
        """
        s = text.strip().replace(" ", "")
        m = re.fullmatch(r"([+-]?\d+)/2\^(\d+)", s)
        if m:
            return Dyadic(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"([+-]?\d+)/(\d+)", s)
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            if den <= 0 or den & (den - 1):
                raise ValueError(f"denominator of {text!r} is not a power of two")
            return Dyadic(num, den.bit_length() - 1)
        m = re.fullmatch(r"([+-]?)(\d+)(?:\.(\d+))?", s)
        if m:
            frac = Fraction(s)
            if frac.denominator & (frac.denominator - 1):
                raise ValueError(f"{text!r} is not a dyadic rational")
            return Dyadic(frac.numerator, frac.denominator.bit_length() - 1)
        raise ValueError(f"cannot parse dyadic rational from {text!r}")

    # -- views ---------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        if abs(self.num) <= (1 << 53):
            return self.num * 2.0 ** (-self.exp)
        return self.num / (1 << self.exp)

    def __repr__(self) -> str:
        if self.exp == 0:
            return f"Dyadic({self.num})"
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    # -- exact arithmetic ----------------------------------------------

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp), e

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, e = self._aligned(other)
        return Dyadic(a - b, e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __abs__(self):
        return Dyadic(abs(self.num), self.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    # -- exact comparisons ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, _ = self._aligned(other)
        return a < b

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.num != 0

    @property
    def is_integer(self) -> bool:
        return self.exp == 0


def _coerce(value) -> "Dyadic | type(NotImplemented)":
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, int):
        return Dyadic(value)
    return NotImplemented


def as_dyadic(value) -> Dyadic:
    """Coerce ints, floats (exact), strings and Dyadics to Dyadic."""
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a dyadic value")
    if isinstance(value, int):
        return Dyadic(value)
    if isinstance(value, float):
        return Dyadic.from_float(value)
    if isinstance(value, str):
        return Dyadic.parse(value)
    raise TypeError(f"cannot interpret {value!r} as a dyadic rational")


def common_numerators(values) -> tuple[list, int]:
    """Numerators of dyadic values over their least common power of two."""
    exp = max((v.exp for v in values), default=0)
    return [v.num << (exp - v.exp) for v in values], exp


def snap(value, exponent: int) -> tuple[Dyadic, Fraction]:
    """Round ``value`` to the nearest multiple of ``2**-exponent``.

    Returns ``(snapped, error)`` with ``error = snapped - value`` as an exact
    Fraction, so callers can report the loss.  Ties round half up.
    """
    if isinstance(value, Dyadic):
        frac = value.as_fraction()
    elif isinstance(value, (int, float, Fraction)):
        frac = Fraction(value)
    else:
        raise TypeError(f"cannot snap {value!r}")
    scaled = frac * (1 << exponent)
    n = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    snapped = Dyadic(n, exponent)
    return snapped, snapped.as_fraction() - frac


# Fraction builds 10**k for a decimal exponent k: 1e9999999 alone takes seconds
MAX_DECIMAL_EXPONENT = 400
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def check_decimal_exponent(text: str):
    """Refuse, with ValueError, a decimal exponent beyond ±MAX_DECIMAL_EXPONENT."""
    m = _DECIMAL_EXPONENT.search(text)
    digits = m.group(1).replace("_", "").lstrip("0") if m else ""
    if len(digits) > 3 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"the decimal exponent of {text.strip()!r} is beyond ±{MAX_DECIMAL_EXPONENT}"
        )


def parse_or_snap(text: str, exponent: int = 40) -> tuple[Dyadic, Fraction]:
    """Parse exactly when possible, otherwise snap at ``2**-exponent``.

    The returned error is zero exactly when no snapping happened.  A decimal
    exponent beyond ±MAX_DECIMAL_EXPONENT raises ValueError.
    """
    check_decimal_exponent(text)
    try:
        return Dyadic.parse(text), Fraction(0)
    except ValueError:
        return snap(Fraction(text.strip()), exponent)
