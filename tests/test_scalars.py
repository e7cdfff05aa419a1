"""Exact complex-rational scalar: parsing, formatting, field arithmetic."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpres import GaussianRational, ParseError, format_scalar, parse_scalar
from fixpres.cli import InputError, superop_from_doc
from fixpres.scalars import (
    ONE,
    ZERO,
    ZeroDenominator,
    _format_over,
    _read_scalar,
    _scan_scalar,
)

from conftest import nonzero_scalars, scalars

I_UNIT = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# construction and canonical form

def test_construction_coerces_to_fraction():
    s = GaussianRational(1, 2)
    assert s.re == Fraction(1) and s.im == Fraction(2)
    assert isinstance(s.re, Fraction)


@pytest.mark.parametrize(
    "re,im",
    [(0.1, 0), ("1e-3", 0), (1, 2.0)],
    ids=["float", "string", "float-imaginary-part"],
)
def test_construction_rejects_inexact_parts(re, im):
    """Parts are ints or Fractions, as for Matrix entries: a float would
    become its binary expansion (0.1 as 3602879701896397/2**55) and a
    string would bypass parse_scalar's grammar."""
    with pytest.raises(TypeError):
        GaussianRational(re, im)


def test_reduction_is_automatic():
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))


def test_equality_is_exact_representation():
    assert GaussianRational(1, 0) == GaussianRational(Fraction(2, 2))
    assert GaussianRational(1, 0) != GaussianRational(1, 1)


def test_hashable_and_usable_in_sets():
    assert len({ZERO, ONE, GaussianRational(1), I_UNIT}) == 3


# ---------------------------------------------------------------------------
# parsing

@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", ZERO),
        ("2", GaussianRational(2)),
        ("-3", GaussianRational(-3)),
        ("3/2", GaussianRational(Fraction(3, 2))),
        ("-7/3", GaussianRational(Fraction(-7, 3))),
        ("1i", I_UNIT),
        ("-1/4i", GaussianRational(0, Fraction(-1, 4))),
        ("3/2-1/4i", GaussianRational(Fraction(3, 2), Fraction(-1, 4))),
        ("1+1i", GaussianRational(1, 1)),
        ("0i", ZERO),
        ("2/4", GaussianRational(Fraction(1, 2))),
    ],
)
def test_parse_known_forms(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("bad", ["", "i", "+", "1/", "/2", "1+", "1+2", "2.5", "1 + 1i", "1i+1", "abc", "--1"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_scalar("3/2+x")
    assert exc.value.position == 4


def test_zero_denominator_is_specific():
    with pytest.raises(ZeroDenominator):
        parse_scalar("1/0")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_scalar("1i1")


# ---------------------------------------------------------------------------
# formatting

@pytest.mark.parametrize(
    "value,text",
    [
        (ZERO, "0"),
        (GaussianRational(2), "2"),
        (GaussianRational(Fraction(3, 2)), "3/2"),
        (I_UNIT, "1i"),
        (GaussianRational(0, Fraction(-1, 4)), "-1/4i"),
        (GaussianRational(Fraction(3, 2), Fraction(-1, 4)), "3/2-1/4i"),
        (GaussianRational(1, 1), "1+1i"),
    ],
)
def test_format_canonical(value, text):
    assert format_scalar(value) == text


@given(scalars)
def test_parse_format_round_trip(s):
    assert parse_scalar(format_scalar(s)) == s


@given(st.one_of(scalars, scalars.map(lambda z: GaussianRational(z.re)),
                 scalars.map(lambda z: GaussianRational(0, z.im))))
def test_repr_evaluates_to_the_value(z):
    """repr is a constructor call that rebuilds the value, also with a
    zero real or imaginary part."""
    assert eval(repr(z), {"GaussianRational": GaussianRational, "Fraction": Fraction}) == z


# ---------------------------------------------------------------------------
# the scanner and formatter against character-by-character references

def reference_parse_scalar(text: str) -> GaussianRational:
    """The grammar read one character at a time, left to right."""
    pos = 0
    end = len(text)

    def read_rational() -> Fraction:
        nonlocal pos
        start = pos
        if pos < end and text[pos] == "-":
            pos += 1
        digits_start = pos
        while pos < end and text[pos] in "0123456789":
            pos += 1
        if pos == digits_start:
            raise ParseError("expected digits", pos)
        numerator = int(text[start:pos])
        denominator = 1
        if pos < end and text[pos] == "/":
            pos += 1
            den_start = pos
            while pos < end and text[pos] in "0123456789":
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


def reference_format_scalar(z: GaussianRational) -> str:
    """The canonical form written through Fraction comparisons and abs."""

    def fraction(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if z.im == 0:
        return fraction(z.re)
    if z.re == 0:
        return f"{fraction(z.im)}i"
    sign = "+" if z.im > 0 else "-"
    return f"{fraction(z.re)}{sign}{fraction(abs(z.im))}i"


def outcome(fn, arg):
    """fn(arg), or the type, message and position of the ValueError it raises."""
    try:
        return fn(arg)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def scanned(text: str) -> GaussianRational:
    """The value of the integer parts _scan_scalar reads from text."""
    a, b, c, e = _scan_scalar(text)
    assert b > 0 and e > 0
    return GaussianRational(Fraction(a, b), Fraction(c, e))


def read_by_cli(text: str) -> GaussianRational:
    """The one entry of the n = 1 superoperator document holding text, as
    the CLI's integer reader takes it; the error it wraps, if any."""
    l = {"n_rows": 1, "n_cols": 1, "entries": [[text]]}
    doc = {"n": 1, "vec_convention": "column", "L": l}
    try:
        return superop_from_doc(doc).matrix[0, 0]
    except InputError as exc:
        raise exc.__cause__


def assert_read_like_the_scanner(text: str) -> None:
    """_read_scalar gives _scan_scalar's parts and the canonical text of
    their value, or raises _scan_scalar's error class, message and
    position."""
    scanned_parts = outcome(_scan_scalar, text)
    if isinstance(scanned_parts[0], type):
        assert outcome(_read_scalar, text) == scanned_parts
    else:
        assert _read_scalar(text) == (*scanned_parts, format_scalar(parse_scalar(text)))


PARSE_ALPHABET = "-/+i0123456789 x\u0663"  # U+0663 is ARABIC-INDIC DIGIT THREE

wide_fractions = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**20)
wide_scalars = st.builds(GaussianRational, wide_fractions, wide_fractions)


@st.composite
def written_rationals(draw, signed: bool = True) -> str:
    """A rational written as the grammar allows: with leading zeros, as
    -0, over a written /1, or over a denominator that shares a factor
    with its numerator, as well as in lowest terms."""
    numerator = draw(st.integers(-(10**12), 10**12) if signed else st.integers(0, 10**12))
    denominator = draw(st.integers(1, 10**6))
    factor = draw(st.sampled_from([1, 1, 2, 3, 10]))
    zeros = draw(st.sampled_from(["", "", "0", "00"]))
    sign = "-" if numerator < 0 or (signed and numerator == 0 and draw(st.booleans())) else ""
    text = sign + zeros + str(abs(numerator) * factor)
    if factor * denominator > 1 or draw(st.booleans()):
        text += "/" + draw(st.sampled_from(["", "", "0"])) + str(denominator * factor)
    return text


written_scalars = st.one_of(
    written_rationals(),
    written_rationals().map(lambda r: r + "i"),
    st.tuples(written_rationals(), st.sampled_from("+-"), written_rationals(signed=False)).map(
        lambda t: f"{t[0]}{t[1]}{t[2]}i"
    ),
)


@settings(max_examples=500)
@given(
    st.one_of(
        st.text(PARSE_ALPHABET, max_size=12),
        st.one_of(scalars, wide_scalars).map(format_scalar),
        written_scalars,
    )
)
def test_parse_agrees_with_reference(text):
    """parse_scalar, and the CLI's integer reader through the same scanner,
    take the reference's value from a valid string and raise its error
    class at its position on an invalid one; the CLI's reader also gives
    the canonical text of the value."""
    expected = outcome(reference_parse_scalar, text)
    assert outcome(parse_scalar, text) == expected
    assert outcome(scanned, text) == expected
    assert outcome(read_by_cli, text) == expected
    assert_read_like_the_scanner(text)


@pytest.mark.parametrize(
    "text",
    ["-/3", "1/", "1/0", "1+-2i", "1--2i", "3/2+x", "1i1", "", "-", "\u0663",
     "1+2", "1+2/i", "2/0i", "1-0/0i", "1i ", "--1",
     # valid texts that are not canonical, and near misses of the canonical grammar
     "00", "-0", "0i", "-0i", "007", "0/5", "3/1", "2/4", "1/01", "1+0i", "0+3i", "-0/7i",
     "1-1/1i", "1+01i", "2/4-6/8i", "10/20i", "1/\u0663", "1+\u0663i", "1/2+3/4i ",
     # one written denominator for both parts: in lowest terms, or not in one part
     "1/6+5/6i", "2/6+1/6i", "1/6+3/6i", "3/6i"],
)
def test_parse_pinned_cases_agree_with_reference(text):
    expected = outcome(reference_parse_scalar, text)
    assert outcome(parse_scalar, text) == outcome(read_by_cli, text) == expected
    assert_read_like_the_scanner(text)


@pytest.mark.parametrize(
    "text",
    [
        "7" * 5000,
        "-" + "7" * 5000,
        "1/" + "7" * 5000,
        "1+" + "7" * 5000 + "i",
        "1-" + "7" * 5000 + "i",
        "1/0+1/" + "7" * 5000 + "i",
    ],
)
def test_numeral_over_the_digit_limit_is_a_plain_value_error(text):
    expected = outcome(reference_parse_scalar, text)
    assert outcome(parse_scalar, text) == outcome(read_by_cli, text) == expected
    assert_read_like_the_scanner(text)
    assert expected[0] is (ZeroDenominator if "/0" in text else ValueError)


@settings(max_examples=300)
@given(st.one_of(scalars, wide_scalars))
def test_format_agrees_with_reference(z):
    """Also with a zero real part, a zero imaginary part and a negative one."""
    for w in (
        z,
        GaussianRational(0, z.im),
        GaussianRational(z.re, 0),
        GaussianRational(z.re, -abs(z.im)),
    ):
        assert format_scalar(w) == reference_format_scalar(w)
        # the same text from Gaussian integers over a common scale
        d = w.re.denominator * w.im.denominator * 6
        assert _format_over(int(w.re * d), int(w.im * d), d) == reference_format_scalar(w)


@pytest.mark.parametrize(
    "make",
    [
        lambda big: GaussianRational(big),
        lambda big: GaussianRational(Fraction(1, big)),
        lambda big: GaussianRational(1, big),
        lambda big: GaussianRational(0, -big),
        lambda big: GaussianRational(1, Fraction(-1, big)),
        lambda big: GaussianRational(big, big),
    ],
    ids=["re", "re-denominator", "im", "negative-im", "negative-im-denominator", "both"],
)
def test_parts_over_the_digit_limit_raise_like_the_reference(make):
    z = make(10 ** sys.get_int_max_str_digits())  # one digit too many for str()
    with pytest.raises(ValueError):
        format_scalar(z)
    assert outcome(format_scalar, z) == outcome(reference_format_scalar, z)


# ---------------------------------------------------------------------------
# arithmetic

def test_complex_multiplication():
    assert I_UNIT * I_UNIT == GaussianRational(-1)
    assert (ONE + I_UNIT) * (ONE - I_UNIT) == GaussianRational(2)


def test_division_exact():
    a = GaussianRational(1, 1)
    assert a / a == ONE
    assert ONE / I_UNIT == -I_UNIT


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_int_interop():
    assert 2 * I_UNIT == GaussianRational(0, 2)
    assert I_UNIT + 1 == GaussianRational(1, 1)
    assert 1 - I_UNIT == GaussianRational(1, -1)


@given(scalars, scalars)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE


@given(scalars)
def test_bool_matches_zero_test(a):
    assert bool(a) == (a != ZERO)
