"""Exact complex-rational scalar: parsing, formatting, field arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given

from fixpres import GaussianRational, ParseError, format_scalar, parse_scalar
from fixpres.scalars import ONE, ZERO, ZeroDenominator

from conftest import nonzero_scalars, scalars

I_UNIT = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# construction and canonical form

def test_construction_coerces_to_fraction():
    s = GaussianRational(1, 2)
    assert s.re == Fraction(1) and s.im == Fraction(2)
    assert isinstance(s.re, Fraction)


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
