"""Independent answer oracle for the benchmark.

Nothing here calls into fixpres. Scalars are ``(re, im)`` pairs of
``Fraction``, matrices are row-major lists of lists of such pairs, scalar
strings are read by a separate parser, and ranks come from a short
reference Gauss-Jordan elimination. Every check returns a list of
problems; an empty list means the answer agrees with the oracle.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
NEG_ONE = (Fraction(-1), Fraction(0))

# p = 1 (mod 4), so -1 has a square root mod p and Gaussian rationals map
# into GF(p). Full rank mod p proves full rank over Q(i).
PRIME = 1_000_000_009


def _sqrt_minus_one(p: int) -> int:
    for c in range(2, p):
        r = pow(c, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ValueError("no square root of -1")


_I_MOD_P = _sqrt_minus_one(PRIME)


# ---------------------------------------------------------------------------
# scalars and matrices

def parse(text: str) -> tuple[Fraction, Fraction]:
    """Read the exact scalar grammar "3", "-2/5", "1/4i", "3/2-1/4i"."""
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return (Fraction(0), Fraction(body))
    return (Fraction(body[:cut]), Fraction(body[cut:]))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def from_matrix(m) -> list[list[tuple]]:
    """Rows of pairs from a fixpres Matrix (reads only its stored entries)."""
    c = m.cols
    return [[(e.re, e.im) for e in m.entries[i * c : (i + 1) * c]] for i in range(m.rows)]


def from_doc(doc: dict) -> list[list[tuple]]:
    """Rows of pairs from a matrix document."""
    rows = [[parse(t) for t in row] for row in doc["entries"]]
    if len(rows) != doc["n_rows"] or any(len(r) != doc["n_cols"] for r in rows):
        raise ValueError("matrix document shape disagrees with its entries")
    return rows


def scalar_matrix(n: int, z) -> list[list[tuple]]:
    return [[z if i == j else ZERO for j in range(n)] for i in range(n)]


def identity(n: int) -> list[list[tuple]]:
    return scalar_matrix(n, ONE)


def _dot(u, v):
    acc = ZERO
    for x, y in zip(u, v):
        if x != ZERO and y != ZERO:
            acc = add(acc, mul(x, y))
    return acc


def matmul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def apply(l, a):
    """Image of n x n matrix a under the superoperator l (column stacking)."""
    n = len(a)
    v = [a[i][j] for j in range(n) for i in range(n)]
    w = [_dot(row, v) for row in l]
    return [[w[j * n + i] for j in range(n)] for i in range(n)]


def rank(rows) -> int:
    """Exact rank by reference Gauss-Jordan elimination."""
    data = [list(r) for r in rows]
    n_rows = len(data)
    n_cols = len(data[0]) if data else 0
    r = 0
    for col in range(n_cols):
        hit = next((k for k in range(r, n_rows) if data[k][col] != ZERO), None)
        if hit is None:
            continue
        data[r], data[hit] = data[hit], data[r]
        lead = data[r][col]
        for k in range(r + 1, n_rows):
            if data[k][col] != ZERO:
                f = div(data[k][col], lead)
                data[k] = [sub(x, mul(f, y)) for x, y in zip(data[k], data[r])]
        r += 1
        if r == n_rows:
            break
    return r


def _to_mod_p(z) -> int:
    p = PRIME
    re = z[0].numerator * pow(z[0].denominator, -1, p)
    im = z[1].numerator * pow(z[1].denominator, -1, p)
    return (re + im * _I_MOD_P) % p


def rank_mod_p(rows) -> int:
    """Rank of the image in GF(p); a lower bound on the exact rank."""
    p = PRIME
    data = [[_to_mod_p(z) for z in row] for row in rows]
    n_rows = len(data)
    n_cols = len(data[0]) if data else 0
    r = 0
    for col in range(n_cols):
        hit = next((k for k in range(r, n_rows) if data[k][col]), None)
        if hit is None:
            continue
        data[r], data[hit] = data[hit], data[r]
        inv = pow(data[r][col], -1, p)
        pivot = data[r]
        for k in range(r + 1, n_rows):
            f = data[k][col] * inv % p
            if f:
                data[k] = [(x - f * y) % p for x, y in zip(data[k], pivot)]
        r += 1
        if r == n_rows:
            break
    return r


def is_full_rank(rows) -> bool:
    if rank_mod_p(rows) == len(rows):
        return True
    return rank(rows) == len(rows)


def dim_fixed(a) -> int:
    n = len(a)
    shifted = [[sub(a[i][j], ONE if i == j else ZERO) for j in range(n)] for i in range(n)]
    return n - rank(shifted)


def _is_scalar_identity(a) -> bool:
    n = len(a)
    return all(
        a[i][j] == (a[0][0] if i == j else ZERO) for i in range(n) for j in range(n)
    )


def _fixes(a, column) -> bool:
    return [_dot(row, column) for row in a] == column


# ---------------------------------------------------------------------------
# answer checks

def dim_counterexample(l, witness, detail) -> list[str]:
    """The reported dims must be dim F of the witness and of its image."""
    expected = (dim_fixed(witness), dim_fixed(apply(l, witness)))
    problems = []
    if tuple(detail) != expected:
        problems.append(f"detail {tuple(detail)} but reference dims are {expected}")
    if expected[0] == expected[1]:
        problems.append("witness does not separate dim F of input and image")
    return problems


def set_counterexample(l, witness, basis_in, basis_img) -> list[str]:
    """The reported bases must span F(W) and F(phi(W)), and those must differ."""
    image = apply(l, witness)
    problems = []
    for label, a, basis in (("input", witness, basis_in), ("image", image, basis_img)):
        cols = [list(c) for c in zip(*basis)]
        if any(not _fixes(a, c) for c in cols):
            problems.append(f"{label} basis holds a vector the matrix does not fix")
        if len(cols) != dim_fixed(a) or (cols and rank(cols) != len(cols)):
            problems.append(f"{label} basis does not span the fixed space")
    cols_in = [list(c) for c in zip(*basis_in)]
    cols_img = [list(c) for c in zip(*basis_img)]
    same = (
        len(cols_in) == len(cols_img)
        and all(_fixes(image, c) for c in cols_in)
        and all(_fixes(witness, c) for c in cols_img)
    )
    if same:
        problems.append("witness has the same fixed space as its image")
    return problems


def similarity_matches(l, s, lam, transpose: bool) -> list[str]:
    """phi(E_ij) @ S == lam * S @ E_ij (E_ji with transpose) on every unit, S invertible.

    Multiplying by S on the right avoids an inverse, so the map is rebuilt
    from s and lambda by direct products only.
    """
    n = len(s)
    if rank(s) != n:
        return ["reported S is singular"]
    for i in range(n):
        for j in range(n):
            image = [[l[jj * n + ii][j * n + i] for jj in range(n)] for ii in range(n)]
            r, c = (j, i) if transpose else (i, j)
            s_unit = [[s[row][r] if col == c else ZERO for col in range(n)] for row in range(n)]
            if matmul(image, s) != [[mul(lam, x) for x in row] for row in s_unit]:
                return [f"map rebuilt from S and lambda differs on unit ({i}, {j})"]
    return []


def unstructured(l, n: int) -> list[str]:
    """Similarity-type maps send I to a scalar matrix; an unstructured one may not."""
    if _is_scalar_identity(apply(l, identity(n))):
        return ["map sends I to a scalar matrix, so 'unstructured' is not established"]
    return []


def is_identity_map(l) -> bool:
    return l == identity(len(l))
