"""Property tests for the verification vector streams and the shrinker."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mc.fastsim import longest_propagate_run
from repro.verify import STREAMS, boundary_patterns, pair_stream, shrink_pair


def collect(name, width, window, count, seed, **kw):
    return [tuple(p) for chunk in pair_stream(name, width, window, count,
                                              seed=seed, **kw)
            for p in chunk.tolist()]


seeded_streams = st.sampled_from([s for s in STREAMS if s != "attack"])


@given(name=seeded_streams,
       width=st.integers(min_value=1, max_value=96),
       count=st.integers(min_value=0, max_value=64),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_streams_are_reproducible_and_in_range(name, width, count, seed):
    window = max(1, min(8, width))
    first = collect(name, width, window, count, seed)
    second = collect(name, width, window, count, seed)
    assert first == second, "same (name,width,window,count,seed) must replay"
    assert len(first) == count
    mask = (1 << width) - 1
    for a, b in first:
        assert 0 <= a <= mask and 0 <= b <= mask


@given(name=seeded_streams,
       width=st.integers(min_value=4, max_value=64),
       seed=st.integers(min_value=0, max_value=2**16))
def test_chunking_does_not_change_the_sequence(name, width, seed):
    window = min(4, width)
    whole = collect(name, width, window, 50, seed, chunk=4096)
    chunked = collect(name, width, window, 50, seed, chunk=7)
    assert whole == chunked


@given(width=st.integers(min_value=1, max_value=128),
       window=st.integers(min_value=1, max_value=24),
       seed=st.integers(min_value=0, max_value=2**16))
def test_adversarial_always_contains_window_run(width, window, seed):
    run = min(window, width)
    for a, b in collect("adversarial", width, window, 40, seed):
        assert longest_propagate_run(a, b, width) >= run


def test_uniform_and_biased_differ_by_seed():
    assert (collect("uniform", 64, 8, 32, seed=1)
            != collect("uniform", 64, 8, 32, seed=2))
    assert (collect("biased", 64, 8, 32, seed=1)
            != collect("biased", 64, 8, 32, seed=2))


def test_boundary_is_deterministic_and_covers_the_vocabulary():
    pats = boundary_patterns(16, 4)
    assert 0 in pats and (1 << 16) - 1 in pats
    want = len(pats) ** 2
    pairs = collect("boundary", 16, 4, want, seed=0)
    assert pairs == collect("boundary", 16, 4, want, seed=99)  # seed-free
    assert set(pairs) == set(itertools.product(pats, pats))


def test_biased_streams_shift_bit_density():
    dense = collect("biased", 64, 8, 200, seed=3, alpha=0.9)
    sparse = collect("biased", 64, 8, 200, seed=3, alpha=0.1)
    ones = lambda ps: sum(bin(a).count("1") + bin(b).count("1")  # noqa: E731
                          for a, b in ps)
    assert ones(dense) > ones(sparse)


# ----------------------------------------------------------------------
# Shrinker properties
# ----------------------------------------------------------------------
def _weight(a, b):
    return bin(a).count("1") + bin(b).count("1")


@given(a=st.integers(min_value=0, max_value=2**32 - 1),
       b=st.integers(min_value=0, max_value=2**32 - 1),
       bit=st.integers(min_value=0, max_value=31))
def test_shrunk_pair_still_fails(a, b, bit):
    # Predicate: "bit `bit` of a^b is set" — shrinking must preserve it.
    def fails(x, y):
        return bool(((x ^ y) >> bit) & 1)

    if not fails(a, b):
        a ^= 1 << bit  # flip so a^b definitely has the bit set
    sa, sb = shrink_pair(fails, a, b, 32)
    assert fails(sa, sb)
    assert _weight(sa, sb) <= _weight(a, b)


@given(a=st.integers(min_value=1, max_value=2**24 - 1))
def test_shrinker_reaches_a_minimal_witness(a):
    # "a is nonzero" shrinks to a single bit.
    sa, sb = shrink_pair(lambda x, y: x != 0, a, 0, 24)
    assert sa != 0 and bin(sa).count("1") == 1 and sb == 0


def test_shrinker_never_returns_a_non_failing_pair():
    # A predicate nothing smaller satisfies: the exact pair only.
    target = (0xDEAD, 0xBEEF)

    def fails(x, y):
        return (x, y) == target

    assert shrink_pair(fails, *target, 16) == target


def test_random_streams_match_golden_digest():
    """The seeded streams are pinned bit for bit, on both sides of the
    64-bit lane boundary (``uint64`` buffers below, Python ints above)."""
    digest = hashlib.sha256()
    for name in ("uniform", "biased", "adversarial"):
        for width in (1, 7, 13, 16, 33, 63, 64, 65, 128):
            for chunk in pair_stream(name, width, min(18, width), 5000,
                                     seed=9, chunk=4096):
                digest.update(
                    repr([tuple(p) for p in chunk.tolist()]).encode())
    assert digest.hexdigest() == (
        "860b11050990c44f17478d80ee0d06d6ec79ff2f47aebb356d98c4c115f63e66")


@pytest.mark.parametrize("name", STREAMS)
@pytest.mark.parametrize("width", (1, 63, 64, 65, 128))
def test_chunks_are_operand_arrays_of_the_lane_type(name, width):
    """Every stream yields ``(n, 2)`` arrays: ``uint64`` up to 64 bits,
    Python ints in ``dtype=object`` above."""
    chunks = list(pair_stream(name, width, min(8, width), 70, seed=2,
                              chunk=32))
    assert [len(c) for c in chunks] == [32, 32, 6]
    for chunk in chunks:
        assert chunk.ndim == 2 and chunk.shape[1] == 2
        if width <= 64:
            assert chunk.dtype == np.uint64
        else:
            assert chunk.dtype == object
            assert all(type(v) is int for v in chunk.ravel())
