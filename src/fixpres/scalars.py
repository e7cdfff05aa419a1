"""Exact complex scalars with rational real and imaginary parts.

Every value is kept canonical: both parts are ``fractions.Fraction``
instances, which store lowest terms with a positive denominator, so equal
values always have identical representations (and identical hashes). A
GaussianRational is a single scalar: matrix entries are coerced from it
and read back as it, but a Matrix stores Gaussian-integer rows, not
scalars (see linalg).

``_scan_scalar`` scans each rational of the grammar, ``-?digits(/digits)?``
with ASCII digits only (``[0-9]``), with one match of a compiled regex; it
is the one scanner behind ``parse_scalar`` and the CLI's integer reader,
and it builds no Fraction. The CLI reads through ``_read_scalar``, which
takes a text already in canonical form with one match of its own and
leaves every other text to ``_scan_scalar``; either way a bad text
raises what ``_scan_scalar`` raises.
``_format_over`` writes an integer over a scale as ``format_scalar``
writes its value, also with no Fraction; it prints every matrix entry
that the package computes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class ParseError(ValueError):
    """A scalar string does not match the accepted grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroDenominator(ParseError):
    """A parsed rational has a zero denominator."""


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An exact complex number ``re + im*i`` over the rationals, each part
    given as an int or a Fraction."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        re, im = self.re, self.im
        if not (isinstance(re, Fraction) and isinstance(im, Fraction)):
            # a float would round and a string would skip parse_scalar's grammar
            if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
                raise TypeError(f"GaussianRational parts must be int or Fraction: {re!r}, {im!r}")
            object.__setattr__(self, "re", Fraction(re))
            object.__setattr__(self, "im", Fraction(im))

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
        """A call that evaluates back to this value, given GaussianRational
        and Fraction: an int for a whole part, the imaginary part only when
        nonzero."""
        parts = (self.re, self.im) if self.im else (self.re,)
        args = ", ".join(str(q) if q.denominator == 1 else repr(q) for q in parts)
        return f"GaussianRational({args})"


ZERO = GaussianRational()
ONE = GaussianRational(1)

_RATIONAL = re.compile(r"(-?)([0-9]*)(?:(/)([0-9]*))?")

# The texts format_scalar writes, but for lowest terms: a numerator has no
# leading zero, a written denominator is at least 2, zero is written only
# as "0", and an imaginary part only when nonzero. The groups are the real
# numerator and denominator, then the signed numerator and denominator of
# an imaginary part after a real part, or of one written alone. This is not
# a second grammar: it matches a subset of what _scan_scalar accepts, with
# the same parts, and decides no error; it lets the documents the package
# writes be read with one match and repeated without formatting.
_NUMERATOR = r"[1-9][0-9]*"
_DENOMINATOR = r"(?:/([1-9][0-9]+|[2-9]))?"
_CANONICAL = re.compile(
    rf"(-?{_NUMERATOR}){_DENOMINATOR}(?:([+-]{_NUMERATOR}){_DENOMINATOR}i)?"
    rf"|(-?{_NUMERATOR}){_DENOMINATOR}i|0"
)


def _format_fraction(numerator: int, denominator: int) -> str:
    if denominator == 1:
        return str(numerator)
    return f"{numerator}/{denominator}"


def _format_parts(a: int, b: int, c: int, e: int) -> str:
    """The canonical string of a/b + (c/e)i, with both fractions in lowest
    terms and b, e > 0."""
    if not c:
        return _format_fraction(a, b)
    imag = _format_fraction(c, e)
    if not a:
        return f"{imag}i"
    real = _format_fraction(a, b)
    # a negative imaginary part already starts with its '-'
    return f"{real}+{imag}i" if c > 0 else f"{real}{imag}i"


def format_scalar(z: GaussianRational) -> str:
    """Canonical string form; ``parse_scalar`` inverts it exactly."""
    return _format_parts(z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator)


def _format_over(x: int, y: int, d: int) -> str:
    """format_scalar of (x + y*i) / d, for integers x, y and d > 0, with no
    Fraction built."""
    g = gcd(x, d)
    if not y:
        return _format_fraction(x // g, d // g)
    h = gcd(y, d)
    return _format_parts(x // g, d // g, y // h, d // h)


def _read_rational(text: str, pos: int) -> tuple[int, int, int]:
    """The numerator and denominator of the rational that starts at pos, as
    written (1 when no denominator is written), and the position after it."""
    m = _RATIONAL.match(text, pos)
    sign, digits, slash, den_digits = m.groups()
    if not digits:
        raise ParseError("expected digits", m.start(2))
    numerator = int(sign + digits)
    if slash is None:
        return numerator, 1, m.end()
    if not den_digits:
        raise ParseError("expected digits after '/'", m.end())
    denominator = int(den_digits)
    if denominator == 0:
        raise ZeroDenominator("denominator is zero", m.start(4))
    return numerator, denominator, m.end()


def _scan_scalar(text: str) -> tuple[int, int, int, int]:
    """The integer parts (a, b, c, e) of text = a/b + (c/e)i as written: not
    reduced, with b, e > 0. Raises ParseError with the failing position, or
    ZeroDenominator."""
    end = len(text)
    a, b, pos = _read_rational(text, 0)
    if pos == end:
        return a, b, 0, 1
    ch = text[pos]
    if ch == "i":
        parts = 0, 1, a, b
    elif ch in "+-":
        c, e, pos = _read_rational(text, pos + 1)
        if pos == end or text[pos] != "i":
            raise ParseError("expected 'i' after imaginary part", pos)
        parts = a, b, c if ch == "+" else -c, e
    else:
        raise ParseError(f"unexpected character {ch!r}", pos)
    if pos + 1 != end:
        raise ParseError("trailing characters after 'i'", pos + 1)
    return parts


def _read_scalar(text: str) -> tuple[int, int, int, int, str]:
    """The integer parts of text as _scan_scalar reads them, and
    format_scalar's text of their value.

    A text of the canonical grammar is read with one match, and is its own
    canonical text when its fractions are in lowest terms. Every other text
    goes through _scan_scalar, which raises its errors. A text that is not
    its own canonical text has it formatted once from the reduced parts."""
    m = _CANONICAL.fullmatch(text)
    if m is None:
        a, b, c, e = _scan_scalar(text)
    else:
        re_num, re_den, im_num, im_den, only_num, only_den = m.groups()
        if only_num is not None:
            im_num, im_den = only_num, only_den
        # int() of the matched numerals, so a numeral over the digit limit
        # raises the same ValueError as in _scan_scalar
        a, b = int(re_num or 0), int(re_den or 1)
        c, e = int(im_num or 0), int(im_den or 1)
        # over one written denominator, both fractions are in lowest terms
        # exactly when the product of the numerators is prime to it
        if gcd(a * c, b) == 1 if b == e else (gcd(a, b) == 1 and gcd(c, e) == 1):
            return a, b, c, e, text
    g, h = gcd(a, b), gcd(c, e)
    return a, b, c, e, _format_parts(a // g, b // g, c // h, e // h)


def parse_scalar(text: str) -> GaussianRational:
    """Parse forms like ``3``, ``-2/5``, ``1/4i``, ``3/2-1/4i``.

    Values are canonicalized on ingest (``2/4`` reads as ``1/2``).
    Raises ParseError with the failing position, or ZeroDenominator.
    """
    a, b, c, e = _scan_scalar(text)
    return GaussianRational(Fraction(a, b), Fraction(c, e))
