"""Golden pins of the VLSA machine's traces and of the Fig. 7 experiment.

``machine_golden.json`` holds sha256 digests of every trace column, the
total cycle count and the VCD of :class:`~repro.arch.VlsaMachine` runs
for the aca, blockspec and cesa families at widths 8, 64 and 96 with
``recovery_cycles`` 1 and 3, on a stream longer than the machine's
4096-pair block, plus the digests of ``experiments.fig7_trace``'s table
and timing diagram.  The digests were recorded from the machine that
ran the family model's three-pass ``run_arrays`` per block; any change
to how the machine evaluates a stream must leave them unchanged.

The property tests below hold the trace to the service executor's
one-pass batch (:meth:`~repro.service.executor.VlsaBatchExecutor.
execute_arrays`) on the same pairs.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.arch import VlsaMachine
from repro.families.words import lanes
from repro.service.executor import VlsaBatchExecutor

GOLDEN = json.loads((Path(__file__).parent / "machine_golden.json")
                    .read_text())

FAMILIES = ("aca", "blockspec", "cesa")
#: width -> window: a mix of stalled and clean operations (blockspec at
#: width 8 is one block, so it never stalls).
WINDOWS = {8: 3, 64: 8, 96: 10}
RECOVERY = (1, 3)
#: More than one 4096-pair block, ending in a partial one.
OPERATIONS = 4096 + 1000
COLUMNS = ("a", "b", "sums", "couts", "stalled", "speculative_correct",
           "latency_cycles", "accept_cycles")


def _stream(width):
    """Seeded operand pairs; one operand in 16 is two bits too wide."""
    rng = random.Random(width)

    def operand():
        return rng.getrandbits(width + 2 * (rng.randrange(16) == 0))

    return [(operand(), operand()) for _ in range(OPERATIONS)]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(trace):
    out = {name: _sha(f"{getattr(trace, name).dtype}:"
                      f"{getattr(trace, name).tolist()!r}")
           for name in COLUMNS}
    out["total_cycles"] = trace.total_cycles
    out["vcd"] = _sha(trace.to_vcd())
    return out


def _key(family, width, recovery):
    return f"{family}/w{width}/rc{recovery}"


CONFIGS = [(f, w, rc) for f in FAMILIES for w in WINDOWS for rc in RECOVERY]


@pytest.mark.parametrize("family,width,recovery", CONFIGS)
def test_machine_trace_matches_golden(family, width, recovery):
    machine = VlsaMachine(width, window=WINDOWS[width],
                          recovery_cycles=recovery, family=family)
    trace = machine.run(_stream(width))
    assert _digests(trace) == GOLDEN["machine"][_key(family, width,
                                                     recovery)]


def test_fig7_trace_matches_golden():
    from repro import experiments

    table, diagram = experiments.fig7_trace(width=64, operations=20000,
                                            seed=0)
    assert {"table": _sha(table.render()), "diagram": _sha(diagram)} == (
        GOLDEN["fig7"])


@pytest.mark.parametrize("family,width,recovery", CONFIGS)
def test_trace_columns_are_the_executor_batch(family, width, recovery):
    """Every trace column is the executor's one-pass batch on the same
    (masked) pairs, and each op is accepted once every op before it has
    finished."""
    pairs = _stream(width)
    trace = VlsaMachine(width, window=WINDOWS[width],
                        recovery_cycles=recovery, family=family).run(pairs)
    ops = lanes(pairs, width)
    batch = VlsaBatchExecutor(width, window=WINDOWS[width],
                              recovery_cycles=recovery,
                              family=family).execute_arrays(ops)
    assert trace.a.tolist() == ops[:, 0].tolist()
    assert trace.b.tolist() == ops[:, 1].tolist()
    assert trace.sums.dtype == batch.sums.dtype
    assert trace.sums.tolist() == batch.sums.tolist()
    assert trace.couts.tolist() == batch.couts.tolist()
    assert np.array_equal(trace.stalled, batch.stalled)
    assert np.array_equal(trace.speculative_correct, ~batch.spec_errors)
    assert np.array_equal(trace.latency_cycles, batch.latencies())
    latency = trace.latency_cycles
    assert np.array_equal(trace.accept_cycles,
                          np.cumsum(latency) - latency)
    assert trace.total_cycles == batch.cycles == int(latency.sum())
