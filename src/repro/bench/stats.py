"""Statistical machinery for performance-regression detection.

Benchmark timings are noisy: scheduler preemption, cache state and
turbo behaviour all perturb individual samples.  A useful gate must
therefore combine an *effect-size* criterion (is the shift big enough
to care about?) with *significance* criteria (is the shift real, or
could these two sample sets plausibly come from the same
distribution?).  This module provides the three pieces the comparator
uses:

* :func:`bootstrap_ci` — seeded percentile-bootstrap confidence
  interval for the mean (or another statistic, such as the median) of
  a sample set (no normality assumption).
* :func:`mann_whitney_u` — the rank-sum test.  Exact null
  distribution for the small tie-free sample counts benchmarks
  produce, normal approximation with tie correction otherwise.
* :func:`classify` — the verdict function: ``improved`` /
  ``unchanged`` / ``regressed``.  A benchmark is only flagged when the
  median shift exceeds the threshold AND the U test rejects the null
  AND the bootstrap CIs are disjoint — so ±3 % scheduler jitter never
  fires while a real 20 % slowdown always does.  The CIs are those of
  the means or of the medians, whichever pair is tighter, so one
  oversleep outlier cannot hide a real shift.

Everything here is pure python + math (no scipy), deterministic, and
usable on sample sets as small as three measurements.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "VERDICT_IMPROVED",
    "VERDICT_REGRESSED",
    "VERDICT_UNCHANGED",
    "Comparison",
    "bootstrap_ci",
    "classify",
    "mann_whitney_u",
    "median",
]

VERDICT_IMPROVED = "improved"
VERDICT_UNCHANGED = "unchanged"
VERDICT_REGRESSED = "regressed"

#: Default relative shift that counts as a real change (10 %).
DEFAULT_THRESHOLD = 0.10
#: Default significance level for the Mann-Whitney test.
DEFAULT_ALPHA = 0.05
#: Bootstrap resamples; 2000 keeps the CI stable to ~1 % at n >= 3.
DEFAULT_RESAMPLES = 2000


def median(xs: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of empty sequence")
    mid = n // 2
    if n % 2:
        return float(s[mid])
    return (s[mid - 1] + s[mid]) / 2.0


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def bootstrap_ci(samples: Sequence[float], confidence: float = 0.95,
                 resamples: int = DEFAULT_RESAMPLES,
                 seed: int = 0,
                 statistic: Callable[[Sequence[float]], float] = _mean
                 ) -> Tuple[float, float]:
    """Percentile-bootstrap CI for *statistic* (default: the mean) of
    *samples*.

    Deterministic for a given *seed*; a single-sample set collapses to
    a zero-width interval at that value.
    """
    xs = [float(x) for x in samples]
    if not xs:
        raise ValueError("bootstrap_ci of empty sample set")
    if len(xs) == 1:
        return xs[0], xs[0]
    rng = random.Random(seed)
    n = len(xs)
    stats = sorted(
        statistic([rng.choice(xs) for _ in range(n)])
        for _ in range(resamples))
    tail = (1.0 - confidence) / 2.0
    lo_idx = min(resamples - 1, max(0, int(math.floor(tail * resamples))))
    hi_idx = min(resamples - 1,
                 max(0, int(math.ceil((1.0 - tail) * resamples)) - 1))
    return stats[lo_idx], stats[hi_idx]


def _exact_u_sf(u: float, n: int, m: int) -> float:
    """P(U >= u) under the tie-free null, by dynamic programming.

    Classic Mann-Whitney recurrence on the overall maximum: if the
    largest of the ``n + m`` values is an *a* it beats every *b*
    (``f[n-1][m](u - m)``), else it contributes nothing
    (``f[n][m-1](u)``).  Only used for small ``n * m``, where the
    normal approximation is at its worst.
    """
    max_u = n * m
    # table[i][j] = list of counts over u for sample sizes (i, j).
    table: List[List[List[int]]] = [
        [[] for _ in range(m + 1)] for _ in range(n + 1)]
    for j in range(m + 1):
        table[0][j] = [1]
    for i in range(1, n + 1):
        table[i][0] = [1]
        for j in range(1, m + 1):
            size = i * j + 1
            row = [0] * size
            shifted = table[i - 1][j]       # contributes at u - j
            smaller = table[i][j - 1]       # contributes at u
            for u_val in range(size):
                if u_val - j >= 0 and u_val - j < len(shifted):
                    row[u_val] += shifted[u_val - j]
                if u_val < len(smaller):
                    row[u_val] += smaller[u_val]
            table[i][j] = row
    counts = table[n][m]
    total = float(sum(counts))
    threshold = max(0, min(max_u + 1, int(math.ceil(u - 1e-9))))
    return sum(counts[threshold:]) / total


def mann_whitney_u(a: Sequence[float], b: Sequence[float],
                   exact_limit: int = 400) -> Tuple[float, float]:
    """Two-sided Mann-Whitney U test.

    Returns ``(u_statistic, p_value)`` where ``u_statistic`` counts
    pairs ``(a_i, b_j)`` with ``a_i > b_j`` (ties count half).  The
    p-value is exact (DP over the null distribution) when the samples
    are tie-free and ``len(a) * len(b) <= exact_limit``, else the
    normal approximation with tie correction.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("mann_whitney_u needs non-empty samples")
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    mean_u = n * m / 2.0

    pooled = sorted(list(a) + list(b))
    has_ties = any(pooled[i] == pooled[i + 1] for i in range(len(pooled) - 1))

    if not has_ties and n * m <= exact_limit:
        # Two-sided: double the one-sided tail of the more extreme side.
        tail = _exact_u_sf(max(u, n * m - u), n, m)
        return u, min(1.0, 2.0 * tail)

    # Normal approximation with tie correction.
    nm = n + m
    tie_term = 0.0
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j] == pooled[i]:
            j += 1
        t = j - i
        tie_term += t ** 3 - t
        i = j
    var_u = (n * m / 12.0) * ((nm + 1) - tie_term / (nm * (nm - 1)))
    if var_u <= 0.0:
        return u, 1.0   # all values identical: no evidence of a shift
    z = (abs(u - mean_u) - 0.5) / math.sqrt(var_u)   # continuity corr.
    z = max(z, 0.0)
    p = math.erfc(z / math.sqrt(2.0))                # two-sided
    return u, min(1.0, p)


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing one benchmark's current run to a baseline.

    ``effect`` is the relative shift of the median time-per-call:
    positive = slower than baseline, negative = faster.
    """

    verdict: str
    effect: float
    p_value: float
    baseline_median: float
    current_median: float
    baseline_ci: Tuple[float, float]
    current_ci: Tuple[float, float]
    threshold: float
    alpha: float

    @property
    def significant(self) -> bool:
        return self.p_value < self.alpha

    def as_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "effect": round(self.effect, 6),
            "p_value": round(self.p_value, 6),
            "baseline_median_s": self.baseline_median,
            "current_median_s": self.current_median,
            "baseline_ci95_s": list(self.baseline_ci),
            "current_ci95_s": list(self.current_ci),
            "threshold": self.threshold,
            "alpha": self.alpha,
        }


def _cis_disjoint(lo_a: float, hi_a: float, lo_b: float, hi_b: float) -> bool:
    return hi_a < lo_b or hi_b < lo_a


def classify(baseline: Sequence[float], current: Sequence[float],
             threshold: float = DEFAULT_THRESHOLD,
             alpha: float = DEFAULT_ALPHA,
             resamples: int = DEFAULT_RESAMPLES,
             seed: int = 0) -> Comparison:
    """Classify *current* timings against *baseline* timings.

    Samples are seconds-per-call (lower is better).  The verdict is
    ``regressed``/``improved`` only when all three fire in the same
    direction:

    1. the median shift exceeds *threshold* (effect size),
    2. the Mann-Whitney U test rejects at *alpha* (distribution shift),
    3. the bootstrap 95 % CIs are disjoint (the shift survives
       resampling).  Both the means' and the medians' CIs are taken and
       the pair with the smaller total width is used: one outlier
       sample widens a mean's CI far more than a median's, while at a
       handful of samples a median's CI spans the whole sample range.

    Anything less decisive is ``unchanged`` — in particular
    ``classify(a, a)`` is always ``unchanged`` for any sample set.
    """
    base_med = median(baseline)
    cur_med = median(current)
    if base_med <= 0.0:
        effect = 0.0 if cur_med <= 0.0 else float("inf")
    else:
        effect = cur_med / base_med - 1.0
    _, p = mann_whitney_u(current, baseline)
    base_ci, cur_ci = min(
        ((bootstrap_ci(baseline, resamples=resamples, seed=seed,
                       statistic=stat),
          bootstrap_ci(current, resamples=resamples, seed=seed + 1,
                       statistic=stat))
         for stat in (_mean, median)),
        key=lambda cis: sum(hi - lo for lo, hi in cis))
    disjoint = _cis_disjoint(*base_ci, *cur_ci)

    verdict = VERDICT_UNCHANGED
    if abs(effect) > threshold and p < alpha and disjoint:
        verdict = VERDICT_REGRESSED if effect > 0 else VERDICT_IMPROVED
    return Comparison(verdict=verdict, effect=effect, p_value=p,
                      baseline_median=base_med, current_median=cur_med,
                      baseline_ci=base_ci, current_ci=cur_ci,
                      threshold=threshold, alpha=alpha)


def summarize_verdicts(comparisons: Dict[str, Comparison]
                       ) -> Dict[str, List[str]]:
    """Group benchmark names by verdict (stable order within a group)."""
    out: Dict[str, List[str]] = {VERDICT_IMPROVED: [],
                                 VERDICT_UNCHANGED: [],
                                 VERDICT_REGRESSED: []}
    for name, comp in comparisons.items():
        out[comp.verdict].append(name)
    return out
