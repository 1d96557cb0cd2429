"""The carry-state engine behind every speculative adder's error statistics.

Every speculative adder in the repo predicts the carry into a bit position
(a *cut*) from a bounded window of the bits directly below it, assuming
no carry enters that window.  The prediction can only miss a carry, and
it misses one exactly when the window is all-propagate *and* the true
carry entering the window is 1 (paper Sections 3.1 and 4.3).  With the
operand bits independent across positions, every such event is a
function of one Markov chain over (trailing propagate-run length, carry
entering the run) — the chain Kedem & Muntimadugu (arXiv:1606.01753)
and Wu et al. (arXiv:1703.03522) walk for general inaccurate adders.

:func:`speculation_mass` is that chain, written once.  It takes the
cuts (:class:`Boundary`), per-bit (kill, generate, propagate) weights
and carry-in weights, and returns the mass of the operand pairs on
which an event happens at some cut:

* ``"error"`` — the prediction is wrong (window all-propagate and a
  carry enters it; anchored cuts never err);
* ``"window"`` — the carry-blind detector fires (window all-propagate,
  whatever enters it).

Integer weights :data:`UNIFORM_COUNTS` give exact counts over
``4^width`` uniform operand pairs; probability weights give biased
rates.  The adder families declare their cuts and flag event once
(:meth:`repro.families.AdderFamily.speculation_cuts`); the ACA
functions below are thin calls on the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import List, Sequence, Tuple, Union

from .runs import prob_max_run_at_least, quantile_longest_run

__all__ = [
    "Boundary",
    "EVENTS",
    "UNIFORM_COUNTS",
    "aca_cuts",
    "speculation_mass",
    "pg_probabilities",
    "aca_error_probability",
    "aca_error_probability_biased",
    "run_at_least_probability_biased",
    "detector_flag_probability",
    "choose_window",
    "expected_latency_cycles",
    "average_speedup",
]

Number = Union[int, float, Fraction]
#: ``(kill, generate, propagate)`` weights of one bit position.
Weights = Tuple[Number, Number, Number]

#: Bit-type weights out of 4 for uniform operands: the event mass is an
#: exact integer count over the ``4^width`` operand pairs.
UNIFORM_COUNTS: Weights = (1, 1, 2)

#: Events :func:`speculation_mass` can measure.
EVENTS = ("error", "window")


@dataclass(frozen=True)
class Boundary:
    """One speculation cut: the carry into bit *pos* is predicted from
    the ``lookahead`` bits directly below it (window
    ``[pos - lookahead, pos - 1]``).

    ``pos == width`` is the carry-out cut.  A cut with
    ``lookahead >= pos`` is *anchored*: its window reaches bit 0 and
    sees the external carry-in, so it can flag but never errs.
    """

    pos: int
    lookahead: int

    def __post_init__(self) -> None:
        if self.pos <= 0:
            raise ValueError("boundary position must be positive")
        if self.lookahead <= 0:
            raise ValueError("boundary lookahead must be positive")


def aca_cuts(width: int, window: int) -> List[Boundary]:
    """The ACA's cuts: the carry into every bit ``pos >= window`` (and
    the carry out) is predicted from the ``window`` bits below it."""
    return [Boundary(pos, window) for pos in range(window, width + 1)]


def _run_starts(s: Number, p: Number, kg: Number, n: int) -> Number:
    """Mass, at the newest start, of ``n`` run starts one bit apart whose
    start masses grow by the bit total ``s`` per bit:
    ``sum(s**t * p**(n-1-t) for t < n) == (s**n - p**n) / (k + g)``."""
    if not kg:
        return n * p ** (n - 1)
    top = s ** n - p ** n
    return top // kg if isinstance(top, int) else top / kg


def speculation_mass(width: int, cuts: Sequence[Boundary],
                     event: str = "error",
                     weights: Union[Weights, Sequence[Weights]]
                     = UNIFORM_COUNTS,
                     cin: Tuple[Number, Number] = (1, 0)) -> Number:
    """Mass of the operand pairs on which *event* happens at some cut.

    The sweep keeps the prefixes' trailing propagate runs by the bit
    where they start (for the error event: only the runs entered by a
    carry), as the mass taken when the run starts; a run still running
    at a cut has that mass times the propagate weights of the bits it
    spans.  The runs that start inside one stretch of equally weighted
    bits between cuts form one geometric segment, so a stretch costs
    one step whatever its length.  At a cut with lookahead ``L`` the
    runs of length ``>= L`` are caught and leave the sweep, so each
    segment is caught at most once (it may be split first).

    Args:
        width: Operand bitwidth.
        cuts: The speculation cuts, any order; ``pos`` may be ``width``.
        event: ``"error"`` or ``"window"`` (see the module docstring).
        weights: One ``(kill, generate, propagate)`` triple for every
            bit, or a sequence of ``width`` triples (LSB first).
        cin: Weights of external carry-in 0 and 1.

    Returns:
        With :data:`UNIFORM_COUNTS` and ``cin=(1, 0)``, the exact number
        of the ``4^width`` operand pairs; with probability weights, the
        probability of the event.
    """
    if event not in EVENTS:
        raise ValueError(f"unknown event {event!r}; expected one of "
                         f"{EVENTS}")
    if width <= 0:
        raise ValueError("width must be positive")
    error = event == "error"
    plan = [(cut.pos, cut.lookahead) for cut in cuts
            if not (error and cut.lookahead >= cut.pos)]
    if len(weights) == 3 and not isinstance(weights[0], (tuple, list)):
        bits = None
        k, g, p = weights
        s = k + g + p
        kg = k + g
    else:
        bits = list(weights)
        if len(bits) != width:
            raise ValueError(f"need {width} per-bit weight triples")
        props = [p for _, _, p in bits]
        # Unequal weights: every bit is a stretch of its own, so no
        # segment holds more than one run.
        plan += [(pos, width) for pos in range(1, width)]
    plan.sort()
    if plan and plan[-1][0] > width:
        raise ValueError(f"cut {plan[-1][0]} outside width {width}")
    plan.append((width, width + 1))  # the tail: nothing left to catch

    # segs[i] = (a, end, c): runs starting at bits a .. end with start
    # masses c * s**(j - a).  The newest segment always ends at ``pos``
    # and a cut never catches the run starting at it, so the catch loop
    # below stops inside the list.
    segs = [(0, 0, cin[1] if error else cin[0] + cin[1])]
    head = 0  # segments below head have been caught
    live = cin[0] + cin[1]
    hit = live * 0
    pos = 0
    for stop, lookahead in plan:
        if stop > pos:
            if bits is not None:
                k, g, p = bits[pos]
                s, kg = k + g + p, k + g
            # A run starting at bit j is seeded by bit j - 1: a generate
            # (entered by a carry) or, carry-blind, any non-propagate bit.
            segs.append((pos + 1, stop, live * (g if error else k + g)))
            grow = s ** (stop - pos)
            live *= grow
            hit *= grow
            pos = stop
        last = pos - lookahead  # the newest start of a long enough run
        a, end, c = segs[head]
        while a <= last:
            top = end if end < last else last
            mass = c if top == a else c * _run_starts(s, p, kg, top - a + 1)
            mass *= (p ** (pos - top) if bits is None
                     else prod(props[top:pos]))
            hit += mass
            live -= mass
            if top < end:
                segs[head] = (top + 1, end, c * s ** (top + 1 - a))
                break
            head += 1
            a, end, c = segs[head]
    return hit


def pg_probabilities(alpha: float, beta: float) -> Tuple[float, float,
                                                         float]:
    """(propagate, generate, kill) for independent bits with
    ``P(a=1)=alpha`` and ``P(b=1)=beta``."""
    for x in (alpha, beta):
        if not (0.0 <= x <= 1.0):
            raise ValueError("bit probabilities must be in [0, 1]")
    p = alpha * (1 - beta) + beta * (1 - alpha)
    g = alpha * beta
    k = (1 - alpha) * (1 - beta)
    return p, g, k


def aca_error_probability(width: int, window: int, cin: int = 0,
                          exact: bool = False) -> Number:
    """P(ACA sum wrong) for uniform operands.

    The ACA is wrong iff some all-propagate window of length ``w``
    starting at a position ``j >= 1`` receives an incoming carry (the
    window starting at bit 0 is anchored and absorbs the real carry-in,
    so the run touching bit 0 needs length ``w + 1`` to fail, and only
    when ``cin`` is 1).

    Args:
        width: Operand bitwidth ``n``.
        window: Speculation window ``w`` (the carry into bit ``i`` sees bits
            ``i-w .. i-1``).  The adder is exact when ``w >= n``.
        cin: External carry-in (0 or 1); a one raises the error probability
            slightly via the bit-0 run.
        exact: Return an exact ``Fraction``.

    Returns:
        The error probability (float, or Fraction when ``exact``).
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if window <= 0:
        raise ValueError("window must be positive")
    if cin not in (0, 1):
        raise ValueError("cin must be 0 or 1")
    count = speculation_mass(width, aca_cuts(width, window),
                             cin=(1 - cin, cin))
    rate = Fraction(count, 1 << (2 * width))
    return rate if exact else float(rate)


def aca_error_probability_biased(
        width: int, window: int,
        probs: Union[Tuple[float, float, float],
                     Sequence[Tuple[float, float, float]]]
        = (0.5, 0.25, 0.25),
        cin_weight: float = 0.0) -> float:
    """P(ACA wrong) when bit ``i`` is propagate/generate/kill with the
    given probabilities (independently across positions).

    Args:
        width: Operand bitwidth.
        window: Speculation window.
        probs: One ``(p, g, k)`` triple applied to every bit, or a
            sequence of per-bit triples (LSB first), as
            :func:`pg_probabilities` returns them.
        cin_weight: P(external carry-in = 1).
    """
    if width <= 0 or window <= 0:
        raise ValueError("width and window must be positive")
    if not (0.0 <= cin_weight <= 1.0):
        raise ValueError("cin_weight must be in [0, 1]")
    uniform = len(probs) == 3 and not isinstance(probs[0], (tuple, list))
    triples = [probs] if uniform else list(probs)
    if not uniform and len(triples) != width:
        raise ValueError(f"need {width} per-bit triples")
    for p, g, k in triples:
        if min(p, g, k) < -1e-12 or abs(p + g + k - 1.0) > 1e-9:
            raise ValueError("each (p, g, k) must be a distribution")
    weights = [(k, g, p) for p, g, k in triples]
    return speculation_mass(width, aca_cuts(width, window), "error",
                            weights[0] if uniform else weights,
                            cin=(1.0 - cin_weight, cin_weight))


def run_at_least_probability_biased(width: int, run: int,
                                    p_propagate: float) -> float:
    """P(some propagate run of length >= *run*) for i.i.d. biased bits:
    the ACA's biased detector-flag (stall) probability."""
    if not (0.0 <= p_propagate <= 1.0):
        raise ValueError("p_propagate must be in [0, 1]")
    if run <= 0:
        return 1.0
    q = (1.0 - p_propagate) / 2
    return speculation_mass(width, aca_cuts(width, run), "window",
                            (q, q, p_propagate), cin=(1.0, 0.0))


def detector_flag_probability(width: int, window: int) -> float:
    """P(error detector fires) = P(some propagate run reaches *window*).

    The detector is conservative: it also fires on runs whose entering
    carry is 0, so this is an upper bound on
    :func:`aca_error_probability`.
    """
    return prob_max_run_at_least(width, window)


def choose_window(width: int, accuracy: float = 0.9999) -> int:
    """Smallest window whose *detector* stays silent with P >= accuracy.

    This matches the paper's construction: pick the longest-run bound that
    holds with the target probability (Table 1) and speculate one bit
    beyond it, so that a run equal to the bound never triggers the
    detector, let alone an error.
    """
    return quantile_longest_run(width, accuracy) + 1


def expected_latency_cycles(error_probability: float,
                            recovery_cycles: int = 1) -> float:
    """Average VLSA latency: 1 cycle plus the recovery penalty when wrong.

    Paper Section 4.3: with error probability below 1e-4 the average is
    ~1.0001-1.0002 cycles.
    """
    if not (0 <= error_probability <= 1):
        raise ValueError("error probability must be in [0, 1]")
    if recovery_cycles < 0:
        raise ValueError("recovery cycles must be non-negative")
    return 1.0 + error_probability * recovery_cycles


def average_speedup(traditional_delay: float, vlsa_clock: float,
                    error_probability: float,
                    recovery_cycles: int = 1) -> float:
    """Average-time speedup of the VLSA over a traditional adder.

    The VLSA clock period is set by ``max(ACA delay, detector delay)``;
    the average time per add is that period times the expected latency in
    cycles.
    """
    avg_time = vlsa_clock * expected_latency_cycles(error_probability,
                                                    recovery_cycles)
    return traditional_delay / avg_time
