"""The seeded streams of derive_rng: one random.Random per label path,
equal to the generator seeded with the path's digest, and no two paths
sharing a key."""

import hashlib
import random

import pytest

from fixpres import derive_rng


def _reference_rng(seed, *labels) -> random.Random:
    key = "|".join([str(seed), *(str(v) for v in labels)]).encode()
    return random.Random(int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big"))


@pytest.mark.parametrize("seed", [0, -7, 2**70 + 1])
@pytest.mark.parametrize("labels", [(), ("probe", 3), (5, "trial", -2)])
def test_stream_is_random_seeded_with_the_digest(seed, labels):
    """The whole generator state, gauss_next included, equals that of
    random.Random(value) for value the digest of the key, and every
    method of random.Random runs on it."""
    rng = derive_rng(seed, *labels)
    expected = _reference_rng(seed, *labels)
    assert type(rng) is random.Random
    assert rng.getstate() == expected.getstate()
    assert rng.gauss(0, 1) == expected.gauss(0, 1)
    assert rng.getstate() == expected.getstate()
    assert [rng.getrandbits(32) for _ in range(4)] == [expected.getrandbits(32) for _ in range(4)]


@pytest.mark.parametrize(
    "seed, labels",
    [(1, ("a|b",)), ("1|a", ("b",)), (1, ("a", "b|")), ("|", ())],
)
def test_a_separator_in_a_seed_or_label_is_rejected(seed, labels):
    """derive_rng(1, "a|b"), derive_rng(1, "a", "b") and
    derive_rng("1|a", "b") would all have the key "1|a|b"."""
    with pytest.raises(ValueError, match=r"\|"):
        derive_rng(seed, *labels)


def test_distinct_paths_give_distinct_streams():
    paths = [(1,), (1, "a"), (1, "a", "b"), (1, "ab"), (11,), (1, "1", "1")]
    assert len({derive_rng(*path).getstate() for path in paths}) == len(paths)
    # labels are read as text, so 1 and "1" name one path
    assert derive_rng(1, 1).getstate() == derive_rng(1, "1").getstate()
