"""Preserving-condition checks, structure classification, and claim verdicts.

Two conditions are checked against witness suites:

* set preserving: F(A) = F(phi(A)) for the probed A;
* dimension preserving: dim F(A) = dim F(phi(A)) for the probed A.

Both quantify over all of M_n, so no finite run can verify them. The
checkers are sound falsifiers: a counterexample is always genuine and
re-checkable, while a pass only reports how many probes were survived.
check_dim_preserving and check_set_preserving evaluate every probe.

The two packaged claims are:

* claim 1: a surjective linear map that preserves every fixed-point set
  is the identity;
* claim 2 (n >= 3): a surjective linear map that preserves every
  fixed-point dimension is A -> S @ A @ inv(S) or A -> -S @ A @ inv(S)
  for some invertible S.

The verdicts skip the probe run where classify's exact form already
proves every probe passes (_preserves_every_dim): the identity keeps
every F(A), F(S @ A @ inv(S)) = S F(A), and rank(A.T - I) =
rank(A - I), so the identity, and a similarity or transpose-similarity
with scale 1, keep every dim F(A). Their pass is built by _decided_pass
and equals the one the run returns.

A probe that the certificate mod p does not settle is decided by the
public dim_fixed or fixed_space of the probe and of its image under
SuperOp.apply, so a counterexample's detail is the pair the loop
compared. _check gives the per-probe order, _structured_side what a
structured probe keeps, and superop._pair_regular_mod_p the argument of
a random probe's certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Iterator

from .fixed_points import dim_fixed, fixed_space
from .linalg import Matrix, Subspace, _FAST, _packed
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
    _vec_mod_p,
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
    condition. probes_run counts decided probes, so a counterexample
    records how early it was found. A check evaluates each probe it
    counts; a verdict on a map whose classification proves every probe
    passes counts the whole suite as decided by that proof, unevaluated.
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


@cache
def _structured_side(a: Matrix) -> tuple[tuple[int, ...], Subspace]:
    """The own side of a structured probe: u = vec(A) mod p as a tuple,
    and fixed_space(A), whose dim is dim_fixed(A). A structured probe
    depends on its side alone, so its own side is made on first need and
    kept for the process."""
    return tuple(_vec_mod_p(a)), fixed_space(a)


def _check(phi: SuperOp, trials: int, seed: int, sets: bool) -> Verdict:
    """Compare F(A) with F(phi(A)) when sets is true, and dim F(A) with
    dim F(phi(A)) otherwise, over the probe suite.

    A probe is accepted at once when both fixed spaces are {0}, proved mod
    p from u = vec(A) mod p and its image through L's packed residue
    columns, which the SuperOp caches, all in linalg._FAST. A structured
    probe takes its own side from _structured_side, and its image is
    certified only when F(A) is {0}. A random probe is certified on both sides at once by
    _pair_regular_mod_p. Every other probe is decided by fixed_space or
    dim_fixed of A and of phi.apply(A), the pair a counterexample reports
    as its detail. Random probes are drawn lazily, so a counterexample at
    probe k draws no later probe.
    """
    n, d = phi.n, phi.matrix.d
    measure = fixed_space if sets else dim_fixed
    columns = phi._residue_columns
    prefix = len(_structured(n))
    probes_run = 0
    for probes_run, a in enumerate(probe_suite(n, trials, seed), start=1):
        if probes_run <= prefix:
            u, space = _structured_side(a)
            if not space.dim and _regular_mod_p(_image_mod_p(columns, u), n, d * a.d):
                continue
            own = space if sets else space.dim
        else:
            u = _vec_mod_p(a)
            if _pair_regular_mod_p(_packed(u, _FAST), _image_mod_p(columns, u), n, a.d, d * a.d):
                continue
            own = measure(a)
        image = measure(phi.apply(a))
        if own != image:
            return Verdict(OUTCOME_COUNTEREXAMPLE, a, (own, image), probes_run, seed)
    return Verdict(OUTCOME_PASS, None, None, probes_run, seed)


def check_dim_preserving(phi: SuperOp, trials: int = 20, seed: int = 0) -> Verdict:
    """Compare dim F(A) with dim F(phi(A)) over the probe suite."""
    return _check(phi, trials, seed, sets=False)


def check_set_preserving(phi: SuperOp, trials: int = 20, seed: int = 0) -> Verdict:
    """Compare F(A) with F(phi(A)) as subspaces over the probe suite."""
    return _check(phi, trials, seed, sets=True)


def _identity_discrepancy(l: Matrix) -> tuple[int, int] | None:
    """The first entry (i, j) of L, row by row, that is not the identity's,
    or None when L is the identity. Canonical rows are exact, so row i is
    the identity's when it is d on the diagonal, 0 elsewhere and has no
    imaginary part; each row is compared whole before it is searched."""
    d, side = l.d, l.cols
    for i, (re, im) in enumerate(zip(l.re, l.im)):
        if re[i] != d or re.count(0) != side - 1 or any(im):
            return i, next(j for j in range(side) if re[j] != (d if j == i else 0) or im[j])
    return None


def _preserves_every_dim(classification: Classification) -> bool:
    """Whether the classified form keeps dim F(A) for every A: the identity,
    A -> S @ A @ inv(S) and A -> S @ A.T @ inv(S), that is a similarity or
    transpose-similarity with scale 1. classify proves each form exactly."""
    return classification.tag == IDENTITY or (
        classification.tag in (SIMILARITY, TRANSPOSE_SIMILARITY) and classification.scale == ONE
    )


def _decided_pass(n: int, trials: int, seed: int) -> Verdict:
    """The pass a probe run over probe_suite(n, trials, seed) returns on a map
    that keeps every probed quantity, built without the run. The count is
    the suite's: every structured probe and len(range(trials)) random ones,
    so trials <= 0 adds none and a non-int trials raises TypeError."""
    return Verdict(OUTCOME_PASS, None, None, len(_structured(n)) + len(range(trials)), seed)


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
    if _identity_discrepancy(l) is None:
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
    """Check claim 1 on probes: set preservers should be the identity.

    The identity test runs first. The identity keeps every F(A), so its
    pass is decided (_decided_pass) with no probe run, and its
    classification is the identity. Every other map runs the set check.
    Decision chain: counterexample when a probed fixed set moves; then
    consistent for the identity; otherwise violation-candidate, whose
    discrepancy is the first entry of L that is not the identity's, as
    the identity test found it.
    """
    first_off = _identity_discrepancy(phi.matrix)
    if first_off is None:
        verdict, classification = _decided_pass(phi.n, trials, seed), Classification(IDENTITY)
    else:
        verdict = check_set_preserving(phi, trials, seed)
        classification = None if verdict.outcome == OUTCOME_COUNTEREXAMPLE else classify(phi)
    notes, discrepancy = (), None
    if verdict.outcome == OUTCOME_COUNTEREXAMPLE:
        status = "counterexample"
        notes = ("the map does not preserve every probed fixed-point set",)
    elif classification.tag == IDENTITY:
        status = "consistent"
    else:
        # a non-identity map survived every probe: either a genuine
        # violation or a gap in the probe suite
        status = "violation-candidate"
        notes = (
            "all probes passed but the map is not the identity; "
            "treat as a probe-suite gap until re-checked",
        )
        i, j = first_off
        discrepancy = (i, j, phi.matrix[i, j], ONE if i == j else ZERO)
    return PreserverReport(
        claim=1,
        status=status,
        verdict=verdict,
        classification=classification,
        notes=notes,
        discrepancy=discrepancy,
    )


def dim_preserver_verdict(phi: SuperOp, trials: int = 20, seed: int = 0) -> PreserverReport:
    """Check claim 2: dimension preservers should be similarities.

    A note marks n < 3 as exploratory. classify runs first. Its identity,
    similarity and transpose-similarity tags prove the map bijective:
    each has T @ S = scale * I with scale nonzero, so L = T.T kron S is
    invertible. Only an unstructured map runs is_bijective; a tag that
    classify does not prove invertible in this way (such as a two-sided
    S @ A @ T) must not skip it. The identity, and a similarity or
    transpose-similarity with scale 1, keep every dim F(A)
    (_preserves_every_dim), so their pass is decided (_decided_pass)
    with no probe run; every other bijective map runs the dimension
    check. Decision chain: hypothesis-not-met when the map is not
    bijective, with no probe run and no classification reported; then
    counterexample when a probed fixed dimension changes, noted for a
    negated similarity; then consistent for the identity or a similarity
    with scale 1; then form-outside-conclusion for a
    transpose-similarity; otherwise violation-candidate.
    """
    notes: list[str] = []
    if phi.n < 3:
        notes.append(
            f"n = {phi.n} is below the claim's range (n >= 3); results are exploratory"
        )
    classification = classify(phi)
    bijective = classification.tag != UNSTRUCTURED or is_bijective(phi)
    if _preserves_every_dim(classification):
        verdict = _decided_pass(phi.n, trials, seed)
    else:
        verdict = check_dim_preserving(phi, trials, seed) if bijective else None
    if not bijective:
        status = "hypothesis-not-met"
        classification = None
        notes.append("hypothesis not met: the map is not surjective")
    elif verdict.outcome == OUTCOME_COUNTEREXAMPLE:
        status = "counterexample"
        if classification.tag == SIMILARITY and classification.scale == -ONE:
            notes.append(
                "the map is a negated similarity A -> -S @ A @ inv(S); the -I probe "
                "shows this branch of the claimed conclusion never preserves "
                "fixed-point dimensions"
            )
    elif classification.tag == IDENTITY or (
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
