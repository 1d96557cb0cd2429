"""Fast bit-slice packing/unpacking between vector and word domains.

The engine moves data between three representations:

* **per-vector integers** — one Python int per test vector (what
  reference models and ATPG vectors use);
* **packed big-int words** — one Python int per *bit column*, bit ``j``
  of the word carrying vector ``j`` (the bigint backend's native form);
* **uint64 word arrays** — the same bit-sliced layout chunked into
  64-vector machine words (the NumPy backend's native form).

Packing and unpacking are the same bit-matrix transpose: one joined
byte buffer (one ``int`` render per vector or word) plus one
``unpackbits``/``packbits`` pass in C.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "pack_vectors",
    "unpack_vectors",
    "word_to_u64",
    "u64_to_word",
    "random_word",
    "random_word_array",
]


def _transpose(ints: Sequence[int], nbits: int) -> List[int]:
    """Bit-matrix transpose: ``nbits`` integers of ``len(ints)`` bits.

    Bit ``j`` of result ``i`` is bit ``i`` of ``ints[j]``; bits at or
    above *nbits* are ignored.  One little-endian render per integer
    into one buffer, then a single unpackbits/packbits pass.
    """
    n = len(ints)
    if n == 0 or nbits <= 0:
        return [0] * max(nbits, 0)
    mask = (1 << nbits) - 1
    nbytes = (nbits + 7) // 8
    # Result rows of 8 bytes (one uint64) when they hold at most 64 bits,
    # whole bytes beyond; zero inputs pad *n* up to the row size.
    stride = 8 if n <= 64 else (n + 7) // 8
    raw = np.frombuffer(b"".join((int(v) & mask).to_bytes(nbytes, "little")
                                 for v in ints)
                        + bytes((stride * 8 - n) * nbytes), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(stride * 8, nbytes), axis=1,
                         count=nbits, bitorder="little")
    rows = np.packbits(np.ascontiguousarray(bits.T), axis=1,
                       bitorder="little")
    if n <= 64:
        return rows.view("<u8").ravel().tolist()
    buf = rows.tobytes()
    return [int.from_bytes(buf[i:i + stride], "little")
            for i in range(0, nbits * stride, stride)]


def pack_vectors(values: Sequence[int], width: int) -> List[int]:
    """Transpose per-vector integers into per-bit packed words.

    Args:
        values: One integer per test vector (masked to *width* bits).
        width: Bit width of each value.

    Returns:
        ``width`` packed words, LSB column first; bit ``j`` of word ``i``
        is bit ``i`` of ``values[j]``.
    """
    return _transpose(values, width)


def unpack_vectors(words: Sequence[int], count: int) -> List[int]:
    """Inverse of :func:`pack_vectors`: per-bit words to per-vector ints.

    Args:
        words: Packed words, LSB column first.
        count: Number of test vectors packed in each word.

    Returns:
        ``count`` integers; bit ``i`` of integer ``j`` is bit ``j`` of
        ``words[i]``.
    """
    return _transpose(words, count)


def word_to_u64(word: int, num_vectors: int) -> np.ndarray:
    """Split a packed big-int word into little-endian uint64 chunks."""
    nwords = (num_vectors + 63) // 64
    mask = (1 << num_vectors) - 1
    raw = (int(word) & mask).to_bytes(nwords * 8, "little")
    return np.frombuffer(raw, dtype="<u8").copy()


def u64_to_word(array: np.ndarray, num_vectors: int) -> int:
    """Reassemble uint64 chunks into one packed big-int word."""
    value = int.from_bytes(np.ascontiguousarray(
        array, dtype="<u8").tobytes(), "little")
    return value & ((1 << num_vectors) - 1)


def random_word(rng: np.random.Generator, num_vectors: int) -> int:
    """A uniform *num_vectors*-bit packed word in one bulk draw.

    Replaces the historical 62-bit-chunk Python loop (which made
    million-vector stimulus generation slower than the simulation it
    fed) with a single ``Generator.bytes`` call.
    """
    if num_vectors <= 0:
        raise ValueError("num_vectors must be positive")
    nbytes = (num_vectors + 7) // 8
    raw = rng.bytes(nbytes)
    return int.from_bytes(raw, "little") & ((1 << num_vectors) - 1)


def random_word_array(rng: np.random.Generator,
                      num_vectors: int,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """A uniform packed word directly in uint64-chunk form."""
    nwords = (num_vectors + 63) // 64
    arr = rng.integers(0, 1 << 64, size=nwords, dtype=np.uint64)
    tail = num_vectors % 64
    if tail:
        arr[-1] &= np.uint64((1 << tail) - 1)
    if out is not None:
        out[:] = arr
        return out
    return arr
