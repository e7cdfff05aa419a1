"""Rank-one operator calculus: outer products x.f and idempotency.

A rank-one operator maps y to f(y)*x for a column x and a functional f
(a row vector). It is idempotent exactly when f(x) = 1, and then its
fixed-point space is the line spanned by x.
"""

from __future__ import annotations

from .linalg import Matrix, NotSquare, SizeMismatch, inverse, rank


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


def is_idempotent(p: Matrix) -> bool:
    if not p.is_square:
        raise NotSquare(f"{p.rows}x{p.cols}")
    return p @ p == p


def _dual_functional(x: Matrix, ax: Matrix) -> Matrix:
    """Functional f with f(x) = 1 and f(ax) = 0.

    Extends {x, ax} to a basis by appending standard basis vectors in
    index order whenever they keep the set independent, then takes the
    first row of the inverse basis matrix. Deterministic and exact.
    """
    n = x.rows
    basis = x.hstack(ax)
    for k in range(n):
        if basis.cols == n:
            break
        candidate = basis.hstack(Matrix.column([1 if i == k else 0 for i in range(n)]))
        if rank(candidate) > basis.cols:
            basis = candidate
    return Matrix(1, n, tuple(inverse(basis)[0, j] for j in range(n)))


def completion_idempotent(a: Matrix, x: Matrix) -> Matrix:
    """Rank-one idempotent P with (a + P) @ x = x.

    Requires x and a@x linearly independent. P = (x - a@x) @ f where f
    sends x to 1 and a@x to 0.
    """
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols}")
    if x.cols != 1 or x.rows != a.rows:
        raise SizeMismatch(f"x must be {a.rows}x1, got {x.rows}x{x.cols}")
    ax = a @ x
    if rank(x.hstack(ax)) != 2:
        raise DependentPair("x and A@x are linearly dependent")
    f = _dual_functional(x, ax)
    return (x - ax) @ f
