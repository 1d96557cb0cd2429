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


@pytest.mark.parametrize("num_vectors", [1, 63, 64, 65, 200])
def test_word_u64_roundtrip(num_vectors):
    rng = np.random.default_rng(num_vectors)
    word = int.from_bytes(rng.bytes((num_vectors + 7) // 8), "little") & (
        (1 << num_vectors) - 1)
    arr = pack.word_to_u64(word, num_vectors)
    assert arr.dtype == np.uint64
    assert len(arr) == (num_vectors + 63) // 64
    assert pack.u64_to_word(arr, num_vectors) == word


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
