"""Rank-one operator calculus: outer products x.f and idempotent completion.

A rank-one operator maps y to f(y)*x for a column x and a functional f
(a row vector). It is idempotent exactly when f(x) = 1, and then its
fixed-point space is the line spanned by x.
"""

from __future__ import annotations

from .linalg import Matrix, NotSquare, SizeMismatch, _divided, _echelon, _pivot


class ZeroFactor(ValueError):
    """x or f is zero, so the outer product is not rank one."""


class DependentPair(ValueError):
    """x and A@x are linearly dependent; no completion exists."""


def rank_one(x: Matrix, f: Matrix) -> Matrix:
    """Outer product x @ f of a column x and a functional f."""
    if x.cols != 1:
        raise SizeMismatch(f"x must be a column, got {x.rows}x{x.cols}")
    if f.rows != 1:
        raise SizeMismatch(f"f must be a row, got {f.rows}x{f.cols}")
    if x.is_zero or f.is_zero:
        raise ZeroFactor("both factors must be nonzero")
    return x @ f


def completion_idempotent(a: Matrix, x: Matrix) -> Matrix:
    """Rank-one idempotent P with (a + P) @ x = x.

    Requires x and a@x linearly independent. P = (x - a@x) @ f where f
    sends x to 1 and a@x to 0: f is the first row of inv(B), for B the
    basis [x, a@x, e_k, ...] that adds the standard basis vectors e_k in
    index order whenever they keep the set independent. Those are the
    pivot columns of [x, a@x, I], so the last n columns of its RREF are
    inv(B), and one Gauss-Jordan pass gives f.
    """
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols}")
    if x.cols != 1 or x.rows != a.rows:
        raise SizeMismatch(f"x must be {a.rows}x1, got {x.rows}x{x.cols}")
    n = a.rows
    ax = a @ x
    aug = x.hstack(ax).hstack(Matrix.identity(n))
    re, im, pivots = _echelon(aug.re, aug.im, n + 2, reduce=True)
    if pivots[:2] != [0, 1]:
        raise DependentPair("x and A@x are linearly dependent")
    f = _divided([re[0][2:]], [im[0][2:]], *_pivot(re, im, pivots), n)
    return (x - ax) @ f
