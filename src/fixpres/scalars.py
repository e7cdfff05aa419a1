"""Exact complex scalars with rational real and imaginary parts.

Every value is kept canonical: both parts are ``fractions.Fraction``
instances, which store lowest terms with a positive denominator, so equal
values always have identical representations (and identical hashes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class ParseError(ValueError):
    """A scalar string does not match the accepted grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroDenominator(ParseError):
    """A parsed rational has a zero denominator."""


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An exact complex number ``re + im*i`` over the rationals."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def _coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_scalar(self)!r})"


ZERO = GaussianRational()
ONE = GaussianRational(1)

_DIGITS = "0123456789"


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(z: GaussianRational) -> str:
    """Canonical string form; ``parse_scalar`` inverts it exactly."""
    if z.im == 0:
        return _format_fraction(z.re)
    if z.re == 0:
        return f"{_format_fraction(z.im)}i"
    sign = "+" if z.im > 0 else "-"
    return f"{_format_fraction(z.re)}{sign}{_format_fraction(abs(z.im))}i"


def parse_scalar(text: str) -> GaussianRational:
    """Parse forms like ``3``, ``-2/5``, ``1/4i``, ``3/2-1/4i``.

    Values are canonicalized on ingest (``2/4`` reads as ``1/2``).
    Raises ParseError with the failing position, or ZeroDenominator.
    """
    pos = 0
    end = len(text)

    def read_rational() -> Fraction:
        nonlocal pos
        start = pos
        if pos < end and text[pos] == "-":
            pos += 1
        digits_start = pos
        while pos < end and text[pos] in _DIGITS:
            pos += 1
        if pos == digits_start:
            raise ParseError("expected digits", pos)
        numerator = int(text[start:pos])
        denominator = 1
        if pos < end and text[pos] == "/":
            pos += 1
            den_start = pos
            while pos < end and text[pos] in _DIGITS:
                pos += 1
            if pos == den_start:
                raise ParseError("expected digits after '/'", pos)
            denominator = int(text[den_start:pos])
            if denominator == 0:
                raise ZeroDenominator("denominator is zero", den_start)
        return Fraction(numerator, denominator)

    first = read_rational()
    if pos == end:
        return GaussianRational(first)
    ch = text[pos]
    if ch == "i":
        pos += 1
        if pos != end:
            raise ParseError("trailing characters after 'i'", pos)
        return GaussianRational(Fraction(0), first)
    if ch in "+-":
        sign = 1 if ch == "+" else -1
        pos += 1
        second = read_rational()
        if pos == end or text[pos] != "i":
            raise ParseError("expected 'i' after imaginary part", pos)
        pos += 1
        if pos != end:
            raise ParseError("trailing characters after 'i'", pos)
        return GaussianRational(first, sign * second)
    raise ParseError(f"unexpected character {ch!r}", pos)
