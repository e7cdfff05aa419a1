"""Preserving-condition checks, structure classification, and claim verdicts.

Two conditions are checked against witness suites:

* set preserving: F(A) = F(phi(A)) for the probed A;
* dimension preserving: dim F(A) = dim F(phi(A)) for the probed A.

Both quantify over all of M_n, so no finite run can verify them. The
checkers are sound falsifiers: a counterexample is always genuine and
re-checkable, while a pass only reports how many probes were survived.

The two packaged claims are:

* claim 1: a surjective linear map that preserves every fixed-point set
  is the identity;
* claim 2 (n >= 3): a surjective linear map that preserves every
  fixed-point dimension is A -> S @ A @ inv(S) or A -> -S @ A @ inv(S)
  for some invertible S.

A probe that the certificate mod p does not settle is decided by the
public dim_fixed or fixed_space of the probe and of its image under
SuperOp.apply, so a counterexample's detail is the pair the loop
compared. On a structured probe the certificate (superop's mod-p test
of M - I) runs on the probe's own side, A - I, flattened as apply
flattens it, before its image. What a structured probe gives of its own
side (vec(A) mod p, its certificate and F(A), from fixed_space only
where the certificate fails) depends on the probe alone, so it is made
on first need and kept for the process. A random probe is certified by
one elimination mod p of the product e * (A - I) @ f * (phi(A) - I),
with e and f the scales of A and phi(A): Z[i] -> GF(p) is a ring
homomorphism and GF(p) a field, so the product has full rank mod p
exactly when both factors have, and then both fixed spaces are {0}.
L's residues mod p belong to the SuperOp, which makes them once as
packed columns, so the claim-2 verdict's bijectivity test and probe
check share them while each step runs through its public name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .fixed_points import dim_fixed, fixed_space
from .linalg import Matrix, Subspace, _packed, _residues
from .sampling import derive_rng, random_matrix
from .scalars import GaussianRational, ONE, ZERO
from .superop import (
    MAX_SIDE,
    NotRankOne,
    SuperOp,
    _image_mod_p,
    _pair_regular_mod_p,
    _realigned,
    _regular_mod_p,
    _vec,
    is_bijective,
    rank_one_factor,
    unvec,
)

IDENTITY = "identity"
SIMILARITY = "similarity"
TRANSPOSE_SIMILARITY = "transpose-similarity"
UNSTRUCTURED = "unstructured"

OUTCOME_PASS = "pass"
OUTCOME_COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True, slots=True)
class Classification:
    """Recovered form of a map on M_n.

    For the two structured tags, apply(A) = scale * S @ A @ inv(S)
    (or with A.T in the transpose family) holds exactly for every A, as
    classify proves, and S is gauge-normalized: its first nonzero entry
    in column-major order is 1.
    """

    tag: str
    s: Matrix | None = None
    scale: GaussianRational | None = None


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a probe run.

    detail is the pair of compared quantities at the witness: dimensions
    for the dimension condition, canonical subspaces for the set
    condition. probes_run counts evaluated probes, so a counterexample
    records how early it was found.
    """

    outcome: str
    witness: Matrix | None
    detail: tuple | None
    probes_run: int
    seed: int


@dataclass(frozen=True, slots=True)
class PreserverReport:
    """Verdict plus classification for one of the packaged claims."""

    claim: int
    status: str
    verdict: Verdict | None
    classification: Classification | None
    notes: tuple[str, ...]
    discrepancy: tuple[int, int, GaussianRational, GaussianRational] | None = None


def structured_probes(n: int) -> list[Matrix]:
    """Fixed witness list pinning every fixed dimension 0..n.

    Order matters: the negation family must first fail at -I (detail
    (0, n)), so -I precedes I. Then come the partial sums of diagonal
    units (dimensions 1..n-1), the nilpotent E_12, a full Jordan block
    with eigenvalue 1, a rank-one idempotent, and a rank-one
    non-idempotent.
    """
    return list(_structured(n))


@lru_cache(maxsize=MAX_SIDE)
def _structured(n: int) -> tuple[Matrix, ...]:
    """The structured probes of side n, built once per n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cells = [(i, j) for i in range(n) for j in range(n)]

    def square(entry: Callable[[int, int], int]) -> Matrix:
        return Matrix(n, n, [entry(i, j) for i, j in cells])

    probes = [
        Matrix.zeros(n, n),
        square(lambda i, j: -1 if i == j else 0),
        Matrix.identity(n),
    ]
    for k in range(n - 1):
        probes.append(square(lambda i, j: int(i == j <= k)))
    if n >= 2:
        probes.append(Matrix.unit(n, 0, 1))
    probes.append(square(lambda i, j: int(j in (i, i + 1))))
    probes.append(square(lambda i, j: int(j == 0)))
    probes.append(square(lambda i, j: 2 if i == j == 0 else 0))
    return tuple(probes)


def probe_suite(n: int, trials: int, seed: int) -> Iterator[Matrix]:
    """Structured probes followed by `trials` seeded random matrices, as an
    iterator that draws each random probe when it is asked for."""
    yield from _structured(n)
    for idx in range(trials):
        yield random_matrix(derive_rng(seed, "probe", idx), n, n)


def _vec_mod_p(a: Matrix) -> list[int]:
    """vec(A) mod _P, A's residues column after column."""
    re, im = _vec(a)
    return _residues([re], [im])[0]


@lru_cache(maxsize=MAX_SIDE * (MAX_SIDE + 13) // 2)
def _structured_side(a: Matrix) -> tuple[tuple[int, ...], bool, Subspace]:
    """The own side of a structured probe: vec(A) mod _P, A's residues
    column after column, as a tuple; whether A - I has full rank mod _P;
    and F(A): {0} where that certificate proves A - I invertible, and from
    fixed_space only where it fails. Made once per probe on first need;
    the bound is the number of structured probes of all sides
    1..MAX_SIDE, at most n + 6 each."""
    u = _vec_mod_p(a)
    regular = _regular_mod_p(_packed(u), a.rows, a.d)
    return tuple(u), regular, Subspace.zero(a.rows) if regular else fixed_space(a)


def _check(phi: SuperOp, trials: int, seed: int, sets: bool) -> Verdict:
    """Compare F(A) with F(phi(A)) when sets is true, and dim F(A) with
    dim F(phi(A)) otherwise, over the probe suite.

    Most probes are decided modulo _P, from the packed residue columns of
    L that the SuperOp caches. vec(A) mod _P is u, A's residues column
    after column, and vec(phi(A)) mod _P is the sum of L's columns times
    u, whose fields stay unreduced below N * _P**2. A - I is read over A's
    scale e and phi(A) - I over d * e. On a structured probe the own side
    comes first: _regular_mod_p reads u as the packed columns of A - I,
    and only when it proves those invertible is the image made and
    certified the same way. A random probe makes u and the image at once,
    and _pair_regular_mod_p runs one elimination of the product of the
    two shifted matrices: det is multiplicative in GF(_P), so the product
    has full rank mod _P exactly when both factors have. When both have
    full rank, both fixed spaces are {0}, which settles the dimension and
    the set condition alike. Every other probe (one with a fixed point on
    either side, or the rare probe that is singular mod _P alone) is
    decided by fixed_space or dim_fixed of A and of phi.apply(A), the pair
    a counterexample reports as its detail.

    The own side of a structured probe depends on the probe alone, so
    _structured_side keeps it for the process: u, its certificate and
    F(A), whose dim is dim_fixed(A). Random probes are fresh for each seed
    and are drawn lazily, so a counterexample at probe k draws no later
    probe.
    """
    n, d = phi.n, phi.matrix.d
    measure = fixed_space if sets else dim_fixed
    columns = phi._residue_columns
    prefix = len(_structured(n))
    probes_run = 0
    for probes_run, a in enumerate(probe_suite(n, trials, seed), start=1):
        if probes_run <= prefix:
            u, regular, space = _structured_side(a)
            if regular and _regular_mod_p(_image_mod_p(columns, u), n, d * a.d):
                continue
        else:
            u, space = _vec_mod_p(a), None
            if _pair_regular_mod_p(_packed(u), _image_mod_p(columns, u), n, a.d, d * a.d):
                continue
        own = measure(a) if space is None else space if sets else space.dim
        detail = own, measure(phi.apply(a))
        if detail[0] != detail[1]:
            return Verdict(OUTCOME_COUNTEREXAMPLE, a, detail, probes_run, seed)
    return Verdict(OUTCOME_PASS, None, None, probes_run, seed)


def check_dim_preserving(phi: SuperOp, trials: int = 20, seed: int = 0) -> Verdict:
    """Compare dim F(A) with dim F(phi(A)) over the probe suite."""
    return _check(phi, trials, seed, sets=False)


def check_set_preserving(phi: SuperOp, trials: int = 20, seed: int = 0) -> Verdict:
    """Compare F(A) with F(phi(A)) as subspaces over the probe suite."""
    return _check(phi, trials, seed, sets=True)


def classify(phi: SuperOp) -> Classification:
    """Recover the structured form of a map, if it has one.

    Decision chain: exact identity; then A -> scale * S @ A @ inv(S) via
    realignment; then the same with a leading transpose; otherwise
    unstructured. No branch runs an exact elimination.

    A structured branch is exact by construction. rank_one_factor checks
    every 2x2 minor of realign(L) (realign(L @ K), K the transpose, in
    the transpose branch) through its anchor in exact integers, so when
    it returns, the realigned matrix is u @ v.T entry for entry. realign
    only permutes entries, so L (L @ K) is T.T kron S with S = unvec(u),
    T = unvec(v): apply(A) = S @ A @ T (S @ A.T @ T). The branch fires
    when T @ S = scale * I with scale nonzero, which makes S invertible
    and T = scale * inv(S); any other factorization falls through.
    """
    n, l = phi.n, phi.matrix
    # canonical rows make L = I exactly d = 1, no imaginary part and one 1
    # per row, on the diagonal
    side = n * n
    if l.d == 1 and not any(map(any, l.im)) and all(
        row[k] == 1 and row.count(0) == side - 1 for k, row in enumerate(l.re)
    ):
        return Classification(IDENTITY)
    for tag, transpose_first in ((SIMILARITY, False), (TRANSPOSE_SIMILARITY, True)):
        rows = zip(_realigned(l.re, n, transpose_first), _realigned(l.im, n, transpose_first))
        try:
            u, v = rank_one_factor(rows, l.d)
        except NotRankOne:
            continue
        s = unvec(u, n)
        ts = unvec(v, n) @ s
        scale = ts[0, 0]
        if scale and ts == scale * Matrix.identity(n):
            return Classification(tag, s, scale)
    return Classification(UNSTRUCTURED)


def set_preserver_verdict(phi: SuperOp, trials: int = 20, seed: int = 0) -> PreserverReport:
    """Check claim 1 on probes: set preservers should be the identity."""
    verdict = check_set_preserving(phi, trials, seed)
    if verdict.outcome == OUTCOME_COUNTEREXAMPLE:
        return PreserverReport(
            claim=1,
            status="counterexample",
            verdict=verdict,
            classification=None,
            notes=("the map does not preserve every probed fixed-point set",),
        )
    classification = classify(phi)
    if classification.tag == IDENTITY:
        return PreserverReport(
            claim=1,
            status="consistent",
            verdict=verdict,
            classification=classification,
            notes=(),
        )
    # Reaching here would mean a non-identity map survived every probe:
    # either a genuine violation or a gap in the probe suite.
    # the first entry of L, row by row, that is not the identity's d / d or 0
    side = phi.n * phi.n
    l = phi.matrix
    i, j = next(
        (r, c) for r in range(side) for c in range(side)
        if l.re[r][c] != (l.d if r == c else 0) or l.im[r][c]
    )
    return PreserverReport(
        claim=1,
        status="violation-candidate",
        verdict=verdict,
        classification=classification,
        notes=(
            "all probes passed but the map is not the identity; "
            "treat as a probe-suite gap until re-checked",
        ),
        discrepancy=(i, j, l[i, j], ONE if i == j else ZERO),
    )


def dim_preserver_verdict(phi: SuperOp, trials: int = 20, seed: int = 0) -> PreserverReport:
    """Check claim 2: dimension preservers should be similarities."""
    notes: list[str] = []
    if phi.n < 3:
        notes.append(
            f"n = {phi.n} is below the claim's range (n >= 3); results are exploratory"
        )
    if not is_bijective(phi):
        notes.append("hypothesis not met: the map is not surjective")
        return PreserverReport(
            claim=2,
            status="hypothesis-not-met",
            verdict=None,
            classification=None,
            notes=tuple(notes),
        )
    verdict = check_dim_preserving(phi, trials, seed)
    classification = classify(phi)
    if verdict.outcome == OUTCOME_COUNTEREXAMPLE:
        if classification.tag == SIMILARITY and classification.scale == -ONE:
            notes.append(
                "the map is a negated similarity A -> -S @ A @ inv(S); the -I probe "
                "shows this branch of the claimed conclusion never preserves "
                "fixed-point dimensions"
            )
        return PreserverReport(
            claim=2,
            status="counterexample",
            verdict=verdict,
            classification=classification,
            notes=tuple(notes),
        )
    if classification.tag == IDENTITY or (
        classification.tag == SIMILARITY and classification.scale == ONE
    ):
        status = "consistent"
    elif classification.tag == TRANSPOSE_SIMILARITY:
        status = "form-outside-conclusion"
        notes.append(
            "transpose-similarity form passed every dimension probe but is not "
            "among the claimed conclusion forms"
        )
    else:
        status = "violation-candidate"
        notes.append(
            "no structured form recovered although all probes passed; "
            "treat as a probe-suite gap until re-checked"
        )
    return PreserverReport(
        claim=2,
        status=status,
        verdict=verdict,
        classification=classification,
        notes=tuple(notes),
    )
