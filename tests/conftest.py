"""Shared strategies for exact-scalar and small-matrix generation, and
test-only helpers built from the package's public operations."""

from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from fixpres import GaussianRational, Matrix, Subspace, SuperOp
from fixpres.superop import vec

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


fractions_st = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
)

scalars = st.builds(GaussianRational, fractions_st, fractions_st)

nonzero_scalars = scalars.filter(bool)


@st.composite
def matrices(draw, rows=None, cols=None, max_side=4):
    r = rows if rows is not None else draw(st.integers(1, max_side))
    c = cols if cols is not None else draw(st.integers(1, max_side))
    entries = draw(st.lists(scalars, min_size=r * c, max_size=r * c))
    return Matrix(r, c, tuple(entries))


@st.composite
def square_matrices(draw, max_side=4):
    n = draw(st.integers(1, max_side))
    return draw(matrices(rows=n, cols=n))


def contains(space: Subspace, v: Matrix) -> bool:
    """Whether the column v lies in space: adjoining it leaves the span unchanged."""
    return Subspace.spanned_by_columns(space.basis.hstack(v)) == space


def superop_from_action(n: int, action) -> SuperOp:
    """The superoperator of a linear action, read off its images of the matrix units."""
    side = n * n
    stacked = tuple(
        e for j in range(n) for i in range(n) for e in vec(action(Matrix.unit(n, i, j))).entries
    )
    return SuperOp(n, Matrix(side, side, stacked).transpose())
