"""Exact complex scalars with rational real and imaginary parts.

Every value is kept canonical: both parts are ``fractions.Fraction``
instances, which store lowest terms with a positive denominator, so equal
values always have identical representations (and identical hashes).

``parse_scalar`` scans each rational of its grammar, ``-?digits(/digits)?``
with ASCII digits only (``[0-9]``), with one match of a compiled regex.
"""

from __future__ import annotations

import re
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

_RATIONAL = re.compile(r"(-?)([0-9]*)(?:(/)([0-9]*))?")


def _format_fraction(numerator: int, denominator: int) -> str:
    if denominator == 1:
        return str(numerator)
    return f"{numerator}/{denominator}"


def format_scalar(z: GaussianRational) -> str:
    """Canonical string form; ``parse_scalar`` inverts it exactly."""
    b = z.im.numerator
    if not b:
        return _format_fraction(z.re.numerator, z.re.denominator)
    imag = _format_fraction(b, z.im.denominator)
    if not z.re.numerator:
        return f"{imag}i"
    real = _format_fraction(z.re.numerator, z.re.denominator)
    # a negative imaginary part already starts with its '-'
    return f"{real}+{imag}i" if b > 0 else f"{real}{imag}i"


def _read_rational(text: str, pos: int) -> tuple[Fraction, int]:
    """The rational that starts at pos, and the position after it."""
    m = _RATIONAL.match(text, pos)
    sign, digits, slash, den_digits = m.groups()
    if not digits:
        raise ParseError("expected digits", m.start(2))
    numerator = int(sign + digits)
    if slash is None:
        return Fraction(numerator), m.end()
    if not den_digits:
        raise ParseError("expected digits after '/'", m.end())
    denominator = int(den_digits)
    if denominator == 0:
        raise ZeroDenominator("denominator is zero", m.start(4))
    return Fraction(numerator, denominator), m.end()


def parse_scalar(text: str) -> GaussianRational:
    """Parse forms like ``3``, ``-2/5``, ``1/4i``, ``3/2-1/4i``.

    Values are canonicalized on ingest (``2/4`` reads as ``1/2``).
    Raises ParseError with the failing position, or ZeroDenominator.
    """
    end = len(text)
    first, pos = _read_rational(text, 0)
    if pos == end:
        return GaussianRational(first)
    ch = text[pos]
    if ch == "i":
        real, imag = Fraction(0), first
    elif ch in "+-":
        second, pos = _read_rational(text, pos + 1)
        if pos == end or text[pos] != "i":
            raise ParseError("expected 'i' after imaginary part", pos)
        real, imag = first, second if ch == "+" else -second
    else:
        raise ParseError(f"unexpected character {ch!r}", pos)
    if pos + 1 != end:
        raise ParseError("trailing characters after 'i'", pos + 1)
    return GaussianRational(real, imag)
