"""Exact scalar helpers: rational parsing and extended-real values.

All numeric values in the library are ``fractions.Fraction`` or the
``NEG_INF`` sentinel; no floating point is used anywhere in core code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class _NegInf:
    """Sentinel for minus infinity; totally ordered below every Fraction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __neg__(self):
        raise ArithmeticError("+inf is outside the value range")


NEG_INF = _NegInf()

ExtValue = Union[Fraction, _NegInf]


def ext_le(a: ExtValue, b: ExtValue) -> bool:
    if a is NEG_INF:
        return True
    if b is NEG_INF:
        return False
    return a <= b


def ext_max(a: ExtValue, b: ExtValue) -> ExtValue:
    return b if ext_le(a, b) else a


def ext_min(a: ExtValue, b: ExtValue) -> ExtValue:
    return a if ext_le(a, b) else b


def ext_add(a: ExtValue, b: ExtValue) -> ExtValue:
    # -inf absorbs under addition
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    return a + b


def ext_scale(t: Fraction, v: ExtValue) -> ExtValue:
    """t*v with the convention 0*(-inf) = 0; requires t >= 0."""
    if t < 0:
        raise ValueError("scaling factor must be nonnegative")
    if t == 0:
        return Fraction(0)
    if v is NEG_INF:
        return NEG_INF
    return t * v


def parse_rational(s) -> Fraction:
    """Parse "p/q" or "p" strings (also accepts ints) into a Fraction."""
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_ext(s) -> ExtValue:
    if s == "-inf":
        return NEG_INF
    return parse_rational(s)


def format_ext(v: ExtValue) -> str:
    if v is NEG_INF:
        return "-inf"
    return format_rational(v)
