"""Fast bit-slice packing/unpacking between vector and word domains.

The engine moves data between two representations:

* **per-vector integers** — one Python int per test vector (what
  reference models and ATPG vectors use);
* **packed big-int words** — one Python int per *bit column*, bit ``j``
  of the word carrying vector ``j`` (what the engine's op tape runs on).

Packing and unpacking are the same bit-matrix transpose, one numpy
kernel for both directions:

1. *Rows in.*  Inputs of at most 64 bits become one ``uint64`` array
   (:func:`as_uint64`: a ``uint64`` array passes straight through;
   Python ints outside ``[0, 2^64)`` are masked first).  Wider inputs — the
   ~65 packed words of an unpack — are rendered to little-endian bytes,
   one ``to_bytes`` each.  Either way the result is a byte matrix of
   one row per input, padded with zero rows to a multiple of 8.
2. *8x8 blocks.*  A byte transpose gathers byte ``k`` of 8 consecutive
   rows into one ``uint64``: an 8x8 bit block whose bit ``8r + c`` is
   bit ``8k + c`` of row ``r``.  Three delta swaps (shifts 7, 14, 28)
   transpose every block at once.
3. *Rows out.*  The inverse byte transpose lays the blocks out as one
   byte row per output bit; rows of at most 8 bytes are read as one
   ``uint64`` array, longer ones as a ``dtype=object`` array with one
   ``int.from_bytes`` each.

:func:`unpack_lanes` returns that array as it is (the lanes the
verifier compares); :func:`pack_vectors` and :func:`unpack_vectors`
return it as a list of Python ints.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "as_uint64",
    "pack_vectors",
    "unpack_vectors",
    "unpack_lanes",
    "random_word",
    "random_word_array",
    "uniform_ints",
]


#: ``(shift, mask)`` of the delta swaps that transpose the 8x8 bit block
#: held in a ``uint64`` (bit ``8r + c`` <-> bit ``8c + r``): 1x1, 2x2
#: and then 4x4 sub-blocks trade places across the diagonal.
_BLOCK_SWAPS = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
))


def as_uint64(values, width: int) -> np.ndarray:
    """*values* as a ``uint64`` array of the same shape.

    A ``uint64`` array passes through without a copy.  When some value
    does not fit ``uint64`` (negative, or ``>= 2^64``), every value is
    masked to *width* bits first, ``int(v) & mask`` (two's complement
    for negatives); values that fit are otherwise left unmasked.
    """
    try:
        return np.asarray(values, dtype=np.uint64)
    except OverflowError:
        masked = np.array(values, dtype=object) & ((1 << width) - 1)
        return masked.astype(np.uint64)


def _transpose(ints: Sequence[int], nbits: int) -> np.ndarray:
    """Bit-matrix transpose: ``nbits`` integers of ``len(ints)`` bits.

    Bit ``j`` of result ``i`` is bit ``i`` of ``ints[j]``; bits at or
    above *nbits* are ignored.  *ints* may be a ``uint64`` (or other
    integer) array when ``nbits <= 64``.  The result is a ``uint64``
    array when ``len(ints) <= 64``, a ``dtype=object`` array of Python
    ints above.
    """
    n = len(ints)
    if n == 0 or nbits <= 0:
        return np.zeros(max(nbits, 0), dtype=np.uint64)
    mask = (1 << nbits) - 1
    nbytes = (nbits + 7) // 8
    groups = (n + 7) // 8  # 8-row blocks; also the bytes per result
    if nbits <= 64:
        padded = np.zeros(groups * 8, dtype="<u8")
        padded[:n] = as_uint64(ints, nbits) & np.uint64(mask)
        rows = padded.view(np.uint8).reshape(groups * 8, 8)[:, :nbytes]
    else:
        raw = b"".join((int(v) & mask).to_bytes(nbytes, "little")
                       for v in ints)
        rows = np.frombuffer(raw + bytes((groups * 8 - n) * nbytes),
                             dtype=np.uint8).reshape(groups * 8, nbytes)
    # blocks[k, g]: byte k of rows 8g .. 8g+7, one row per byte lane.
    blocks = np.ascontiguousarray(
        rows.reshape(groups, 8, nbytes).transpose(2, 0, 1)).view("<u8")
    for shift, swap in _BLOCK_SWAPS:
        t = (blocks ^ (blocks >> shift)) & swap
        blocks ^= t ^ (t << shift)
    # Byte c of blocks[k, g] is byte g of result 8k + c.
    out = np.ascontiguousarray(
        blocks.view(np.uint8).reshape(nbytes, groups, 8).transpose(0, 2, 1)
    ).reshape(nbytes * 8, groups)[:nbits]
    if groups <= 8:
        out8 = np.zeros((nbits, 8), dtype=np.uint8)
        out8[:, :groups] = out
        return out8.view("<u8").ravel().astype(np.uint64, copy=False)
    buf = out.tobytes()
    return np.array([int.from_bytes(buf[i:i + groups], "little")
                     for i in range(0, nbits * groups, groups)], dtype=object)


def pack_vectors(values: Sequence[int], width: int) -> List[int]:
    """Transpose per-vector integers into per-bit packed words.

    Args:
        values: One integer per test vector, masked to *width* bits
            (negative ints in two's complement); a ``uint64`` (or other
            integer) array is accepted when *width* is at most 64.
        width: Bit width of each value.

    Returns:
        ``width`` packed words, LSB column first; bit ``j`` of word ``i``
        is bit ``i`` of ``values[j]``.
    """
    return _transpose(values, width).tolist()


def unpack_lanes(words: Sequence[int], count: int) -> np.ndarray:
    """Inverse of :func:`pack_vectors`: per-bit words to per-vector lanes.

    Args:
        words: Packed words, LSB column first.
        count: Number of test vectors packed in each word.

    Returns:
        ``count`` lanes, bit ``i`` of lane ``j`` being bit ``j`` of
        ``words[i]``: a ``uint64`` array for at most 64 words, a
        ``dtype=object`` array of Python ints for more.
    """
    return _transpose(words, count)


def unpack_vectors(words: Sequence[int], count: int) -> List[int]:
    """:func:`unpack_lanes` as a list of Python ints."""
    return unpack_lanes(words, count).tolist()


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


def uniform_ints(rng: np.random.Generator, width: int,
                 n: int) -> np.ndarray:
    """*n* uniform *width*-bit integers from one bulk byte draw.

    Each integer is the next ``ceil(width / 8)`` bytes, little-endian,
    masked to *width* bits.  Widths up to 64 come back as a ``uint64``
    array read straight from the buffer (each group zero-padded to 8
    bytes), wider ones as a ``dtype=object`` array of Python ints.
    """
    nbytes = (width + 7) // 8
    mask = (1 << width) - 1
    raw = rng.bytes(n * nbytes)
    if width > 64:
        return np.array(
            [int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little")
             & mask for i in range(n)], dtype=object)
    if nbytes == 8:
        words = np.frombuffer(raw, dtype="<u8")
    else:
        padded = np.zeros((n, 8), dtype=np.uint8)
        padded[:, :nbytes] = np.frombuffer(raw, dtype=np.uint8
                                           ).reshape(n, nbytes)
        words = padded.view("<u8").reshape(n)
    return words & np.uint64(mask)
