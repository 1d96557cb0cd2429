"""The compiled engine against the interpreter, forcing, and accounting."""

import numpy as np
import pytest

from repro.circuit import simulate_interpreted
from repro.core import build_aca
from repro.engine import RunContext, execute
from repro.engine.pack import random_word


def _stimulus(circuit, num_vectors, seed=7):
    rng = np.random.default_rng(seed)
    return {name: [random_word(rng, num_vectors) for _ in bus]
            for name, bus in circuit.inputs.items()}


@pytest.fixture(scope="module")
def aca():
    return build_aca(32, 8)


def test_all_backends_bit_identical(aca):
    n = 777  # odd count exercises the tail mask
    stim = _stimulus(aca, n)
    reference = simulate_interpreted(aca, stim, num_vectors=n)
    assert execute(aca, stim, num_vectors=n) == reference


def test_force_semantics_analytic():
    # y = XOR(AND(a, b), a); forcing the AND to a constant makes the
    # output analytically predictable for every vector.
    from repro.circuit import Circuit

    c = Circuit("forceable")
    a = c.add_input("a")
    b = c.add_input("b")
    g = c.add_gate("AND", a, b)
    c.set_output("y", c.add_gate("XOR", g, a))
    n = 64
    rng = np.random.default_rng(11)
    wa, wb = random_word(rng, n), random_word(rng, n)
    stim = {"a": [wa], "b": [wb]}
    mask = (1 << n) - 1
    forced1 = execute(c, stim, num_vectors=n, force={g: 1})
    assert forced1["y"] == [(~wa) & mask]  # XOR(1, a) == NOT a
    forced0 = execute(c, stim, num_vectors=n, force={g: 0})
    assert forced0["y"] == [wa]  # XOR(0, a) == a
    baseline = execute(c, stim, num_vectors=n)
    assert baseline["y"] == [(wa & wb) ^ wa]


def test_context_accounting(aca):
    ctx = RunContext(seed=3)
    n = 256
    execute(aca, _stimulus(aca, n), num_vectors=n, ctx=ctx)
    snap = ctx.snapshot()
    assert snap["counters"]["vectors"] == n
    assert snap["counters"]["gate_evals"] > 0
    assert snap["counters"]["engine_runs"] == 1
