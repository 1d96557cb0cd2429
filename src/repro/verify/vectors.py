"""Seeded operand-vector streams for differential verification.

Every stream is a pure function of ``(name, width, window, count, seed)``
plus its keyword parameters: re-invoking it replays the identical pair
sequence, so a discrepancy report that records those five values is a
complete reproducer.  Streams are yielded in chunks so a million-vector
fuzz run never materialises the whole corpus.  A chunk is one ``(n, 2)``
operand array, row ``i`` holding pair ``i``: ``uint64`` at widths up to
64, ``dtype=object`` (Python ints) above.

Streams:

* ``uniform`` — i.i.d. uniform operands (the paper's model; the only
  stream the analytic rate cross-checks apply to).
* ``biased`` — per-bit one-probability ``alpha`` via AND/OR-combining
  uniform words (propagate-heavy or generate-heavy operands).
* ``adversarial`` — every pair carries a propagate run of length
  >= ``window`` at a random position, fed by a generate below it, so
  detectors must fire on (essentially) every vector and speculative
  sums are frequently wrong — the worst case an attacker can force.
* ``boundary`` — the deterministic cross product of classic edge
  patterns (zero, all-ones, single bits, alternating masks, window-sized
  runs), cycled to the requested count.
* ``attack`` — the add stream the Section-1 ciphertext-only attack
  actually performs, captured from :mod:`repro.service.loadgen` and
  masked to the verifier's width (correlated ARX traffic).
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from ..engine.pack import uniform_ints
from ..families.words import lanes

__all__ = ["STREAMS", "pair_stream", "boundary_patterns"]

#: Stream names, in the order the verifier runs them by default.
STREAMS = ("uniform", "biased", "adversarial", "boundary", "attack")

#: One chunk of operand pairs: an ``(n, 2)`` array, one row per pair.
PairChunk = np.ndarray


def _mask(width: int) -> int:
    return (1 << width) - 1


def _pairs(a: np.ndarray, b: np.ndarray) -> PairChunk:
    """Operand columns *a* and *b* side by side: an ``(n, 2)`` chunk."""
    return np.stack([a, b], axis=1)


def _biased_ints(rng: np.random.Generator, width: int, n: int,
                 alpha: float) -> np.ndarray:
    """Integers whose bits are one with probability ~ *alpha*.

    AND-ing k uniform words hits ``2^-k``; OR-ing hits ``1 - 2^-k``;
    the closest achievable alpha is used (mirrors the service loadgen).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    candidates = [(abs(alpha - 0.5 ** k), "and", k) for k in range(1, 7)]
    candidates += [(abs(alpha - (1 - 0.5 ** k)), "or", k)
                   for k in range(2, 7)]
    _, mode, k = min(candidates)
    out = uniform_ints(rng, width, n)
    for _ in range(k - 1):
        extra = uniform_ints(rng, width, n)
        out = out & extra if mode == "and" else out | extra
    return out


def _adversarial_pairs(rng: np.random.Generator, width: int, window: int,
                       n: int) -> PairChunk:
    """Pairs whose propagate word contains a >= ``window`` run of ones.

    A uniform propagate word gets a forced all-ones run of length
    ``min(window, width)`` at a random position; when the run does not
    touch bit 0, the bit just below it is forced to *generate* so a real
    carry feeds the run (making the speculative sum actually wrong, not
    just detector-flagged, whenever the run is unanchored).
    """
    run = min(max(window, 1), width)
    word = np.uint64 if width <= 64 else int
    a = uniform_ints(rng, width, n)
    p = uniform_ints(rng, width, n)
    if width > run:
        starts = rng.integers(0, width - run + 1, size=n)
    else:
        starts = np.zeros(n, dtype=np.int64)
    starts = starts.astype(a.dtype)  # shifts in the operands' own type
    one = word(1)
    p = p | (word(_mask(run)) << starts)
    b = (a ^ p) & word(_mask(width))
    # Generate right below the run: carry enters it for sure.
    g = np.where(starts > 0, one << (np.maximum(starts, one) - one),
                 word(0))
    return _pairs(a | g, b | g)


def boundary_patterns(width: int, window: int) -> List[int]:
    """The deterministic edge-pattern vocabulary for *width*/*window*."""
    mask = _mask(width)
    alt = sum(1 << i for i in range(0, width, 2))
    pats = {
        0, 1, mask, mask >> 1, mask ^ 1, 1 << (width - 1),
        alt & mask, (alt << 1) & mask,
    }
    for k in {1, 2, max(1, window - 1), min(window, width),
              min(window + 1, width), width - 1, width // 2}:
        if k <= 0 or k > width:
            continue
        run = _mask(k)
        pats.add(run)                    # low run of ones
        pats.add((run << (width - k)) & mask)  # high run of ones
        pats.add(mask ^ run)             # complement
    return sorted(pats)


def _boundary_pairs(width: int, window: int, count: int,
                    chunk: int) -> Iterator[PairChunk]:
    """The pattern cross product ``(pats[i], pats[j])`` in row-major
    order, cycled: pair ``k`` is row ``k mod len(pats)^2``."""
    pats = lanes(boundary_patterns(width, window), width)
    size = len(pats)
    for lo in range(0, count, chunk):
        k = np.arange(lo, min(lo + chunk, count)) % (size * size)
        yield _pairs(pats[k // size], pats[k % size])


#: Internal draw granularity for the random streams.  RNG consumption is
#: always blocked at this size regardless of the caller's ``chunk``, so
#: the emitted pair sequence is a pure function of
#: ``(name, width, window, count, seed)`` — re-chunking cannot change it.
_BLOCK = 4096


def _random_blocks(name: str, width: int, window: int, count: int,
                   seed: int, alpha: float) -> Iterator[PairChunk]:
    """The seeded streams, drawn in fixed :data:`_BLOCK`-sized blocks."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < count:
        n = min(_BLOCK, count - done)
        if name == "uniform":
            a = uniform_ints(rng, width, n)
            yield _pairs(a, uniform_ints(rng, width, n))
        elif name == "biased":
            a = _biased_ints(rng, width, n, alpha)
            yield _pairs(a, _biased_ints(rng, width, n, alpha))
        else:  # adversarial
            yield _adversarial_pairs(rng, width, window, n)
        done += n


def _rechunk(blocks: Iterator[PairChunk],
             chunk: int) -> Iterator[PairChunk]:
    buf: List[PairChunk] = []
    held = 0
    for block in blocks:
        buf.append(block)
        held += len(block)
        if held < chunk:
            continue
        rows = np.concatenate(buf) if len(buf) > 1 else buf[0]
        cut = held - held % chunk
        for lo in range(0, cut, chunk):
            yield rows[lo:lo + chunk]
        buf = [rows[cut:]] if cut < held else []
        held -= cut
    if held:
        yield np.concatenate(buf) if len(buf) > 1 else buf[0]


def pair_stream(name: str, width: int, window: int, count: int,
                seed: int = 0, chunk: int = 4096,
                alpha: float = 0.75) -> Iterator[PairChunk]:
    """Yield the operand-pair chunks of stream *name*: ``(n, 2)``
    arrays, ``uint64`` at widths up to 64 and ``dtype=object`` above.

    The pair sequence depends only on ``(name, width, window, count,
    seed)`` (plus ``alpha`` for ``biased``); ``chunk`` changes the yield
    granularity, never the vectors.

    Args:
        name: One of :data:`STREAMS`.
        width: Operand bitwidth.
        window: Speculation window (shapes adversarial/boundary vectors).
        count: Total pairs to emit.
        seed: Stream seed; identical arguments replay identically.
        chunk: Maximum pairs per yielded array.
        alpha: Per-bit one-probability target (``biased`` only).
    """
    if name not in STREAMS:
        raise ValueError(f"unknown stream {name!r}; "
                         f"expected one of {STREAMS}")
    if width <= 0:
        raise ValueError("width must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    if chunk <= 0:
        raise ValueError("chunk must be positive")

    if name == "boundary":
        yield from _boundary_pairs(width, window, count, chunk)
        return

    if name == "attack":
        rng = np.random.default_rng(seed)
        from ..service.loadgen import capture_attack_pairs

        pairs = capture_attack_pairs(count, rng)
        rows = lanes(pairs, width).reshape(-1, 2)
        for lo in range(0, len(rows), chunk):
            yield rows[lo:lo + chunk]
        return

    yield from _rechunk(
        _random_blocks(name, width, window, count, seed, alpha), chunk)
