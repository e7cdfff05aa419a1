"""The one independent reference for the tests of the exact layer, the
probe loop, classify, the verdicts and the tests mod p.

Nothing here imports fixpres. A matrix is a list of rows of (Fraction,
Fraction) pairs; a Matrix is read through its stored re, im and d alone
(rows). The scalar operations, matmul, apply, rank, rank mod the
oracle's prime, bijectivity and dim_fixed are those of the benchmark's
oracle, bench/oracle.py, loaded by its path, so tests and benchmark
share one reference. The rest is what the oracle lacks, each from its
definition. assert_form compares a Matrix with reference rows, canonical
form included.
"""

import importlib.util
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
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
    """The entries of the Matrix m = (re + i*im) / d, read off its stored
    integers; equal integers share one Fraction."""
    made = {x: Fraction(x, m.d) for x in set(chain(*m.re, *m.im))}
    return [[(made[x], made[y]) for x, y in zip(*row)] for row in zip(m.re, m.im)]


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
        # the pivot row is zero left of col, so no row changes there
        pivot = [div(x, data[p][col]) for x in data[p][col:]]
        data[p][col:] = pivot
        for r, row in enumerate(data):
            if r != p and row[col] != ZERO:
                f = row[col]
                row[col:] = [sub(x, mul(f, y)) for x, y in zip(row[col:], pivot)]
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


def integers(a: list) -> tuple[list, int]:
    """a's rows as Gaussian integers, (int, int) pairs, over d, the lcm of
    its entries' denominators (its canonical scale), and d."""
    d = lcm(*(q.denominator for row in a for z in row for q in z))
    return [[(x.numerator * (d // x.denominator), y.numerator * (d // y.denominator))
             for x, y in row] for row in a], d


def residues(a: list, p: int, root: int) -> list:
    """a's rows as Gaussian integers (integers) mod p, with i sent to root,
    a square root of -1 mod p."""
    return [[(x + root * y) % p for x, y in row] for row in integers(a)[0]]


def rank_mod(a: list, p: int, root: int) -> int:
    """The rank of a's residues mod p: Gaussian elimination in GF(p)."""
    data = residues(a, p, root)
    r = 0
    for col in range(len(data[0]) if data else 0):
        hit = next((k for k in range(r, len(data)) if data[k][col]), None)
        if hit is None:
            continue
        data[r], data[hit] = data[hit], data[r]
        inv = pow(data[r][col], -1, p)
        for k in range(r + 1, len(data)):
            f = data[k][col] * inv % p
            data[k] = [(x - f * y) % p for x, y in zip(data[k], data[r])]
        r += 1
    return r


def rank_one(m: list) -> tuple[list, list] | None:
    """Columns (u, v) with m = u @ v.T when m has rank one (rank mod the
    oracle's prime first, then the exact rank), else None: v is the anchor
    row, the row of m's first nonzero entry, and u the anchor column over
    that entry, so that u's first nonzero entry is 1."""
    if oracle.rank_mod_p(m) > 1 or rank(m) != 1:
        return None
    i0, j0 = next((i, j) for i, row in enumerate(m) for j, z in enumerate(row) if z != ZERO)
    return [[div(row[j0], m[i0][j0])] for row in m], [[z] for z in m[i0]]


def classify(l: list, n: int) -> tuple:
    """(tag, S, scale) of the map with matrix l on n x n matrices. It is the
    identity when l = I. Otherwise l, or l @ K in the transpose branch, is
    the map A -> S @ A @ T (A.T) exactly when it realigns to
    vec(S) @ vec(T).T, and it is a similarity when also T @ S = scale * I
    with scale nonzero. S and scale are None when no branch holds."""
    if l == identity(n * n):
        return "identity", None, None
    for tag, m in (("similarity", l), ("transpose-similarity", precompose_transpose(l, n))):
        factors = rank_one(realign(m, n))
        if factors is not None:
            s, t = (unvec(f, n) for f in factors)
            ts = matmul(t, s, n)
            if ts[0][0] != ZERO and ts == oracle.scalar_matrix(n, ts[0][0]):
                return tag, s, ts[0][0]
    return "unstructured", None, None


def probe_run(l: list, n: int, probes, sets: bool) -> tuple:
    """The probe loop: for each probe A in turn, compare dim F(A), or F(A)
    as the canonical basis of ker(A - I) when sets, with that of
    apply(l, A), and stop at the first that differs. Returns the outcome,
    the witness, the pair compared there and the probes run. The image is
    the oracle's apply of the Gaussian integers of l and A (integers) over
    the product of their scales. An A - I of full rank mod the oracle's
    prime has full rank, so F(A) = {0}."""

    def measure(a: list):
        shifted = [[sub(z, ONE) if i == j else z for j, z in enumerate(row)]
                   for i, row in enumerate(a)]
        if oracle.rank_mod_p(shifted) == n:
            return [[] for _ in range(n)] if sets else 0
        return kernel(shifted, n) if sets else n - rank(shifted)

    l, d = integers(l)
    k = 0
    for k, a in enumerate(probes, start=1):
        b, e = integers(a)
        image = [[(Fraction(x, d * e), Fraction(y, d * e)) for x, y in row] for row in apply(l, b)]
        own, other = measure(a), measure(image)
        if own != other:
            return "counterexample", a, (own, other), k
    return "pass", None, None, k
