"""The one independent reference for the exact layer's tests.

Nothing here imports fixpres. A matrix is a list of rows of (Fraction,
Fraction) pairs; a Matrix is read through its stored re, im and d alone
(rows). The scalar operations, matmul, apply, rank and dim_fixed are
those of the benchmark's oracle, bench/oracle.py, loaded by its path, so
tests and benchmark share one reference. The rest is what the oracle
lacks, each from its definition. assert_form compares a Matrix with
reference rows, canonical form included.
"""

import importlib.util
from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

ZERO, ONE = oracle.ZERO, oracle.ONE
add, sub, mul, div = oracle.add, oracle.sub, oracle.mul, oracle.div
apply, dim_fixed, identity, rank = oracle.apply, oracle.dim_fixed, oracle.identity, oracle.rank


def rows(m) -> list:
    """The entries of the Matrix m = (re + i*im) / d, read off its stored integers."""
    d = m.d
    return [[(Fraction(x, d), Fraction(y, d)) for x, y in zip(*row)] for row in zip(m.re, m.im)]


def assert_form(m, expected: list, cols: int) -> None:
    """m holds canonical rows of the values in expected, an r x cols list:
    tuples of ints over a scale d > 0 with gcd(d, every entry) = 1. The
    canonical form is unique, so this pins m's fields as well as its values."""
    assert (m.rows, m.cols) == (len(expected), cols)
    assert type(m.re) is tuple and type(m.im) is tuple
    assert len(m.re) == len(m.im) == m.rows
    assert all(type(row) is tuple and len(row) == cols for row in m.re + m.im)
    assert m.d > 0
    assert gcd(m.d, *chain.from_iterable(m.re), *chain.from_iterable(m.im)) == 1
    assert rows(m) == expected


def matmul(a: list, b: list, cols: int) -> list:
    """a @ b, for b with cols columns: the oracle reads the width off b's
    rows, which a b with no rows lacks."""
    return oracle.matmul(a, b) if b else [[ZERO] * cols for _ in a]


def rref(a: list) -> tuple[list, list[int]]:
    """The reduced row echelon form of a and its pivot columns."""
    data = [list(row) for row in a]
    pivots: list[int] = []
    for col in range(len(data[0]) if data else 0):
        p = len(pivots)
        hit = next((r for r in range(p, len(data)) if data[r][col] != ZERO), None)
        if hit is None:
            continue
        data[p], data[hit] = data[hit], data[p]
        lead = data[p][col]
        data[p] = [div(x, lead) for x in data[p]]
        for r, row in enumerate(data):
            if r != p and row[col] != ZERO:
                f = row[col]
                data[r] = [sub(x, mul(f, y)) for x, y in zip(row, data[p])]
        pivots.append(col)
    return data, pivots


def kernel(a: list, cols: int) -> list:
    """The canonical basis of ker(a), for a with cols columns: the cols x
    dim rows whose transpose is in RREF."""
    reduced, pivots = rref(a)
    vectors = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [ONE if c == free else ZERO for c in range(cols)]
        for k, piv in enumerate(pivots):
            v[piv] = sub(ZERO, reduced[k][free])
        vectors.append(v)
    return [list(col) for col in zip(*rref(vectors)[0])] or [[] for _ in range(cols)]


def inverse(a: list) -> list:
    """The inverse of the invertible a: the right half of the RREF of [a, I]."""
    n = len(a)
    return [row[n:] for row in rref([row + eye for row, eye in zip(a, identity(n))])[0]]


def kron(a: list, b: list) -> list:
    """The Kronecker product: block (i, j) is a[i][j] times b."""
    return [[mul(x, y) for x in a_row for y in b_row] for a_row in a for b_row in b]


def vec(a: list) -> list:
    """The columns of a stacked into one column."""
    return [[z] for col in zip(*a) for z in col]


def unvec(v: list, n: int) -> list:
    """The n x n matrix whose vec is the column v."""
    return [[v[j * n + i][0] for j in range(n)] for i in range(n)]


def realign(l: list, n: int) -> list:
    """R[g*n + a][b*n + d] = L[b*n + a][d*n + g], so that the L of the map
    A -> S @ A @ T, kron(T.T, S), realigns to vec(S) @ vec(T).T."""
    r = range(n)
    return [[l[b * n + a][d * n + g] for b in r for d in r] for g in r for a in r]


def precompose_transpose(l: list, n: int) -> list:
    """L @ K, for K the commutation matrix with K @ vec(A) = vec(A.T):
    column c is column (c % n) * n + c // n of L."""
    return [[row[(c % n) * n + c // n] for c in range(n * n)] for row in l]
