"""Speculative multiplication (paper Section 6 future work).

A multiplier is a partial-product generator, a carry-save reduction tree,
and one final carry-propagate addition.  Only the final addition
propagates carries, so it is the natural place to speculate: this module
generates a Wallace-tree multiplier whose final adder is either exact
(the baseline) or an ACA with the usual error detector.

Because the final adder's operands are reduction-tree outputs rather
than uniform random words, the error probability differs from the plain
ACA's; :func:`multiplier_error_rate` measures it empirically and the
benchmark compares it against the uniform-operand model.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..circuit import Circuit, CircuitError, simulate_bus_ints
from .aca import AcaBuilder
from .error_detect import attach_error_detector
from .multiop import reduce_carry_save

__all__ = ["build_multiplier", "multiplier_error_rate"]


def build_multiplier(width: int, window: Optional[int] = None,
                     with_detector: bool = True) -> Circuit:
    """Generate a *width* x *width* unsigned Wallace-tree multiplier.

    Args:
        width: Operand bitwidth (product is ``2*width`` bits).
        window: ACA window for the final addition; ``None`` builds the
            exact (Kogge-Stone) final adder.
        with_detector: Add the ``err`` flag (speculative variant only).

    Returns:
        Circuit with inputs ``a``/``b`` and output ``product`` (plus
        ``err`` when requested).
    """
    if width < 1:
        raise CircuitError("width must be positive")
    out_width = 2 * width
    name = (f"mul{width}_w{window}" if window else f"mul{width}_exact")
    circuit = Circuit(name)
    a = circuit.add_input_bus("a", width)
    b = circuit.add_input_bus("b", width)

    # Partial products: columns[k] collects a_i & b_j with i + j == k.
    columns: List[List[int]] = [[] for _ in range(out_width)]
    for i in range(width):
        for j in range(width):
            columns[i + j].append(
                circuit.add_gate("AND", a[i], b[j], pos=float(i + j)))

    row_a, row_b = reduce_carry_save(circuit, columns)
    zero = circuit.const(0)
    row_a = (row_a + [zero] * out_width)[:out_width]
    row_b = (row_b + [zero] * out_width)[:out_width]

    if window is None:
        from ..adders.kogge_stone import kogge_stone_schedule
        from ..circuit import carry_combine, pg_preprocess, sum_postprocess

        g, p = pg_preprocess(circuit, row_a, row_b)
        cur_g, cur_p = list(g), list(p)
        for level in kogge_stone_schedule(out_width):
            src_g, src_p = list(cur_g), list(cur_p)
            for i, j in level:
                cur_g[i], cur_p[i] = carry_combine(
                    circuit, src_g[i], src_p[i], src_g[j], src_p[j],
                    pos=float(i))
        carries = [zero] + cur_g[:out_width - 1]
        circuit.set_output("product", sum_postprocess(circuit, p, carries))
    else:
        builder = AcaBuilder(circuit, row_a, row_b, window).build()
        circuit.set_output("product", builder.sums)
        if with_detector:
            circuit.set_output("err", attach_error_detector(builder))
        circuit.attrs["window"] = builder.window

    circuit.attrs["operand_width"] = width
    return circuit


def multiplier_error_rate(width: int, window: int, samples: int = 2000,
                          seed: Optional[int] = 0
                          ) -> Tuple[float, float]:
    """Measured (error rate, detector-flag rate) of a speculative multiplier.

    Simulates the actual gate-level circuit on uniform random operands;
    the final adder's inputs are *not* uniform (carry-save rows are
    correlated), so this is the honest measurement the uniform-operand
    model cannot provide.
    """
    circuit = build_multiplier(width, window, with_detector=True)
    rng = np.random.default_rng(seed)
    mask = (1 << width) - 1
    errors = flags = 0
    for _ in range(samples):
        a = int(rng.integers(0, mask + 1))
        b = int(rng.integers(0, mask + 1))
        out = simulate_bus_ints(circuit, {"a": a, "b": b})
        if out["product"] != a * b:
            errors += 1
            if not out["err"]:
                raise AssertionError("detector must never miss")
        if out["err"]:
            flags += 1
    return errors / samples, flags / samples
