"""Transposition and bulk-random helpers of repro.engine.pack."""

import numpy as np
import pytest

from repro.engine import pack


@pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 130])
@pytest.mark.parametrize("count", [1, 3, 64, 65])
def test_pack_unpack_roundtrip(width, count):
    rng = np.random.default_rng(width * 1000 + count)
    values = [int.from_bytes(rng.bytes((width + 7) // 8), "little")
              & ((1 << width) - 1) for _ in range(count)]
    words = pack.pack_vectors(values, width)
    assert len(words) == width
    assert pack.unpack_vectors(words, count) == values


def test_pack_masks_excess_bits():
    # A value wider than the bus contributes only its low bits.
    words = pack.pack_vectors([0b1111], 2)
    assert words == [1, 1]


def _naive_pack(values, width):
    """Per-bit definition: bit ``j`` of word ``i`` is bit ``i`` of
    ``values[j]``."""
    words = []
    for bit in range(width):
        expect = 0
        for j, v in enumerate(values):
            expect |= ((v >> bit) & 1) << j
        words.append(expect)
    return words


def test_pack_matches_naive_definition():
    values = [0b101, 0b011, 0b110]
    assert pack.pack_vectors(values, 3) == _naive_pack(values, 3)


@pytest.mark.parametrize("width", [1, 8, 9, 63, 64, 65, 130])
@pytest.mark.parametrize("count", [0, 5, 100, 4096])
def test_pack_unpack_match_naive_definition(width, count):
    rng = np.random.default_rng(width * 7919 + count)
    # Up to 11 bits above the bus width, which must be masked away.
    values = [int.from_bytes(rng.bytes((width + 18) // 8), "little")
              for _ in range(count)]
    mask = (1 << width) - 1
    words = pack.pack_vectors(values, width)
    assert words == _naive_pack([v & mask for v in values], width)
    # Unpack is the definition read the other way round; stray bits
    # above *count* in a word are ignored.
    noisy = [w | (0b101 << count) for w in words]
    got = pack.unpack_vectors(noisy, count)
    assert got == [v & mask for v in values]
    assert all(type(v) is int for v in got)


def test_random_word_bounds_and_determinism():
    a = pack.random_word(np.random.default_rng(5), 67)
    b = pack.random_word(np.random.default_rng(5), 67)
    assert a == b
    assert 0 <= a < (1 << 67)


def test_random_word_array_tail_masked():
    rng = np.random.default_rng(9)
    arr = pack.random_word_array(rng, 70)  # 2 words, 6 live tail bits
    assert len(arr) == 2
    assert int(arr[1]) < (1 << 6)


@pytest.mark.parametrize("width", [1, 8, 63, 64])
def test_pack_masks_negative_and_oversized_ints(width):
    # Outside [0, 2^64) the values cannot become uint64 as they are;
    # each contributes its low *width* bits (two's complement if < 0).
    values = [-1, -2, 5 - (1 << 70), 1 << 64, (1 << 64) + 3,
              (1 << 130) - 1, 5, 0, -(1 << 63)]
    masked = [int(v) & ((1 << width) - 1) for v in values]
    words = pack.pack_vectors(values, width)
    assert words == _naive_pack(masked, width)
    assert pack.unpack_vectors(words, len(values)) == masked


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
@pytest.mark.parametrize("width", [1, 8, 63, 64])
def test_pack_accepts_integer_arrays(dtype, width):
    rng = np.random.default_rng(width)
    arr = rng.integers(0, 1 << 64, size=100, dtype=np.uint64).view(dtype)
    masked = [int(v) & ((1 << width) - 1) for v in arr]
    words = pack.pack_vectors(arr, width)
    assert words == _naive_pack(masked, width)
    assert words == pack.pack_vectors([int(v) for v in arr], width)
    assert all(type(w) is int for w in words)


@pytest.mark.parametrize("width", [64, 130])
@pytest.mark.parametrize("count", [7, 4095, 4097])
def test_pack_unpack_counts_off_the_block_size(width, count):
    # Counts that are not multiples of 8 leave a zero-padded tail in
    # the last 8x8 blocks; none of it may leak into the results.
    rng = np.random.default_rng(width * 31 + count)
    values = [int.from_bytes(rng.bytes((width + 7) // 8), "little")
              & ((1 << width) - 1) for _ in range(count)]
    words = pack.pack_vectors(values, width)
    assert words == _naive_pack(values, width)
    got = pack.unpack_vectors(words, count)
    assert got == values
    assert all(type(v) is int for v in words + got)


@pytest.mark.parametrize("nwords", range(1, 9))
@pytest.mark.parametrize("count", [1, 7, 9, 4095, 4096, 4097])
def test_unpack_of_few_words_matches_naive_definition(nwords, count):
    # 1-8 words (an unpack's cout/err outputs) fill less than one 8x8
    # block; each word carries 11 stray bits above *count*, which are
    # masked.
    rng = np.random.default_rng(nwords * 10007 + count)
    words = [int.from_bytes(rng.bytes((count + 18) // 8), "little")
             | (1 << (count + 10)) for _ in range(nwords)]
    columns = [format(w & ((1 << count) - 1), f"0{count}b")[::-1]
               for w in words]
    expect = [sum(int(col[j]) << i for i, col in enumerate(columns))
              for j in range(count)]
    lanes = pack.unpack_lanes(words, count)
    assert lanes.dtype == np.uint64
    assert lanes.tolist() == expect
    assert pack.unpack_vectors(words, count) == expect
