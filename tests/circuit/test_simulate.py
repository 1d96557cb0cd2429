"""Simulation engine: scalar words, numpy vectors, helpers, errors."""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    CircuitError,
    bus_to_int,
    int_to_bus,
    random_stimulus,
    simulate,
    simulate_bus_ints,
    simulate_words,
)


def _full_adder():
    c = Circuit("fa")
    a, b, ci = c.add_input("a"), c.add_input("b"), c.add_input("cin")
    p = c.add_gate("XOR", a, b)
    c.set_output("s", c.add_gate("XOR", p, ci))
    c.set_output("co", c.add_gate("MAJ3", a, b, ci))
    return c


def test_int_bus_round_trip():
    assert int_to_bus(0b1011, 4) == [1, 1, 0, 1]
    assert bus_to_int([1, 1, 0, 1]) == 0b1011
    assert bus_to_int(int_to_bus(12345, 20)) == 12345


def test_full_adder_exhaustive_single_vector():
    c = _full_adder()
    for a in (0, 1):
        for b in (0, 1):
            for ci in (0, 1):
                out = simulate_bus_ints(c, {"a": a, "b": b, "cin": ci})
                assert out["s"] == (a + b + ci) & 1
                assert out["co"] == (a + b + ci) >> 1


def test_bit_parallel_words_pack_vectors():
    """All 8 full-adder input combinations evaluated in one packed word."""
    c = _full_adder()
    a_w = b_w = ci_w = 0
    for j in range(8):
        a_w |= ((j >> 0) & 1) << j
        b_w |= ((j >> 1) & 1) << j
        ci_w |= ((j >> 2) & 1) << j
    out = simulate_words(c, {"a": [a_w], "b": [b_w], "cin": [ci_w]},
                         num_vectors=8)
    for j in range(8):
        a, b, ci = j & 1, (j >> 1) & 1, (j >> 2) & 1
        assert (out["s"][0] >> j) & 1 == (a + b + ci) & 1
        assert (out["co"][0] >> j) & 1 == (a + b + ci) >> 1


def test_numpy_vector_mode():
    c = _full_adder()
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2 ** 32, size=100, dtype=np.uint64)
    b = rng.integers(0, 2 ** 32, size=100, dtype=np.uint64)
    ci = rng.integers(0, 2 ** 32, size=100, dtype=np.uint64)
    out = simulate(c, {"a": [a], "b": [b], "cin": [ci]})
    expected_s = a ^ b ^ ci
    expected_co = (a & b) | (a & ci) | (b & ci)
    assert np.array_equal(out["s"][0], expected_s)
    assert np.array_equal(out["co"][0], expected_co)


def test_numpy_mode_keeps_dtype_and_shape_off_the_word_size():
    # 15 bytes of stimulus: not a whole number of 64-bit words.
    c = _full_adder()
    rng = np.random.default_rng(1)
    a, b, ci = (rng.integers(0, 256, size=(3, 5), dtype=np.uint8)
                for _ in range(3))
    out = simulate(c, {"a": [a], "b": [b], "cin": [ci]})
    for got, want in ((out["s"][0], a ^ b ^ ci),
                      (out["co"][0], (a & b) | (a & ci) | (b & ci))):
        assert got.dtype == np.uint8
        assert got.shape == (3, 5)
        assert np.array_equal(got, want)


def test_numpy_mode_rejects_mixed_dtypes_and_shapes():
    c = _full_adder()
    a = np.zeros((3, 5), dtype=np.uint8)
    for other in (np.zeros((3, 5), dtype=np.uint16),
                  np.zeros(15, dtype=np.uint8)):
        with pytest.raises(CircuitError, match="mixed stimulus"):
            simulate(c, {"a": [a], "b": [other], "cin": [a]})


def test_constants_in_simulation():
    c = Circuit("t")
    a = c.add_input("a")
    c.set_output("y", c.add_gate("XOR", a, c.const(1)))
    c.set_output("zero", c.const(0))
    out = simulate_words(c, {"a": [0b01]}, num_vectors=2)
    assert out["y"][0] == 0b10
    assert out["zero"][0] == 0


def test_missing_stimulus_raises():
    c = _full_adder()
    with pytest.raises(CircuitError):
        simulate_words(c, {"a": [1], "b": [1]}, num_vectors=1)


def test_wrong_bus_width_raises():
    c = Circuit("t")
    c.add_input_bus("a", 3)
    c.set_output("y", c.inputs["a"][0])
    with pytest.raises(CircuitError):
        simulate_words(c, {"a": [1, 1]}, num_vectors=1)


def test_num_vectors_required_for_ints():
    c = _full_adder()
    with pytest.raises(CircuitError):
        simulate(c, {"a": [1], "b": [1], "cin": [0]})
    with pytest.raises(CircuitError):
        simulate(c, {"a": [1], "b": [1], "cin": [0]}, num_vectors=0)


def test_random_stimulus_shape_and_range():
    c = Circuit("t")
    c.add_input_bus("a", 65)  # force multi-chunk word generation
    c.add_input("b")
    c.set_output("y", c.inputs["a"][0])
    stim = random_stimulus(c, num_vectors=100, rng=np.random.default_rng(1))
    assert len(stim["a"]) == 65
    assert len(stim["b"]) == 1
    for word in stim["a"]:
        assert 0 <= word < (1 << 100)
    out = simulate_words(c, stim, num_vectors=100)
    assert out["y"][0] == stim["a"][0]


def test_int_to_bus_width_edge_cases():
    assert int_to_bus(1, 1) == [1]
    assert int_to_bus(0, 1) == [0]
    assert int_to_bus(5, 0) == []  # zero-width bus
    # MSB set: highest word carries the sign-position bit.
    assert int_to_bus(1 << 7, 8) == [0] * 7 + [1]
    # Value wider than the bus: high bits truncate away.
    assert int_to_bus(0b1_0110, 4) == [0, 1, 1, 0]
    assert int_to_bus((1 << 200) | 0b11, 2) == [1, 1]
    # Negative values contribute their two's-complement pattern.
    assert int_to_bus(-1, 4) == [1, 1, 1, 1]


def test_bus_to_int_edge_cases():
    assert bus_to_int([]) == 0
    assert bus_to_int([1]) == 1
    assert bus_to_int([0] * 63 + [1]) == 1 << 63
    # Only bit 0 of each word is read (words may be packed vectors).
    assert bus_to_int([0b10, 0b11]) == 0b10
    assert bus_to_int(int_to_bus(1 << 64, 65)) == 1 << 64


def test_int_bus_round_trip_wide_random():
    rng = np.random.default_rng(2)
    for width in (1, 2, 63, 64, 65, 1000):
        value = int.from_bytes(rng.bytes((width + 7) // 8), "little") & (
            (1 << width) - 1)
        assert bus_to_int(int_to_bus(value, width)) == value
