"""Deterministic seeded generation of exact random matrices.

An integer seed plus a label path is hashed into a child generator,
so independent streams can be derived per probe, per trial, or per test
without any shared state. Distinct paths never share a key: a seed or
label whose text holds "|", the key's separator, raises ValueError.
Entries follow the fuzzing distribution used throughout the package:
numerators in [-9, 9], denominators in {1, 2, 3}, for both the real and
imaginary parts.
"""

from __future__ import annotations

import hashlib
import random
from math import lcm

from .linalg import Matrix, _over, rank, rank_one

DENOMINATORS = (1, 2, 3)
_SCALE = lcm(*DENOMINATORS)


def derive_rng(seed: int, *labels: object) -> random.Random:
    """Child generator for the given seed and label path, platform-stable.

    The key is the seed and labels as text joined by "|", so a seed or
    label whose text holds "|" would share its key with another path;
    it raises ValueError instead. The generator is random.Random(value)
    for value the key's digest.
    """
    key = "|".join(map(str, (seed, *labels)))
    if key.count("|") > len(labels):
        raise ValueError(f"a seed or label holds '|': {(seed, *labels)!r}")
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


# The numerator over _SCALE of (k - 9) / DENOMINATORS[j], at [k][j].
_NUMERATORS = tuple(tuple((k - 9) * (_SCALE // b) for b in DENOMINATORS) for k in range(19))


def _draws(rng: random.Random, count: int) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of count entries, as numerators over
    _SCALE, the lcm of DENOMINATORS.

    This is the only place that consumes the stream for matrix entries,
    so every generator below draws the same entries from the same rng.
    Each part is (k - 9) / DENOMINATORS[j] with k getrandbits(5), redrawn
    while at least 19, and j getrandbits(2), redrawn while 3. These are
    the very calls that rng.randint(-9, 9) and rng.choice(DENOMINATORS)
    make, without their Python-level overhead, so the stream is the same.
    """
    bits = rng.getrandbits
    re, im = [], []
    for _ in range(count):
        a = bits(5)
        while a >= 19:
            a = bits(5)
        b = bits(2)
        while b == 3:
            b = bits(2)
        c = bits(5)
        while c >= 19:
            c = bits(5)
        d = bits(2)
        while d == 3:
            d = bits(2)
        re.append(_NUMERATORS[a][b])
        im.append(_NUMERATORS[c][d])
    return re, im


def random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    """rows x cols entries from _draws, put on their canonical scale by
    one gcd with _SCALE."""
    re, im = _draws(rng, rows * cols)
    if not cols:
        return _over([()] * rows, [()] * rows, _SCALE, cols)
    return _over(list(zip(*[iter(re)] * cols)), list(zip(*[iter(im)] * cols)), _SCALE, cols)


def random_nonzero_column(rng: random.Random, n: int) -> Matrix:
    while True:
        v = random_matrix(rng, n, 1)
        if not v.is_zero:
            return v


def random_nonzero_row(rng: random.Random, n: int) -> Matrix:
    while True:
        f = random_matrix(rng, 1, n)
        if not f.is_zero:
            return f


def random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, n, n)
        if rank(m) == n:
            return m


def random_rank_one_idempotent(rng: random.Random, n: int) -> tuple[Matrix, Matrix, Matrix]:
    """A rank-one idempotent p = x @ f with f(x) = 1; returns (p, x, f)."""
    while True:
        x = random_nonzero_column(rng, n)
        f = random_nonzero_row(rng, n)
        fx = (f @ x)[0, 0]
        if fx:
            f = f * (1 / fx)
            return rank_one(x, f), x, f
