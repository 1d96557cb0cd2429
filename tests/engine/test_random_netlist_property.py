"""Random netlists over every gate op against a naive per-net evaluator.

Each drawn netlist holds one gate of every op form (AND/OR/XOR and
their inverted forms at 2, 3 and 4 fanins, NOT, BUF, AO21, OA21, MUX2,
MAJ3, plus the CONST0/CONST1 sources), then random extra gates, each
gate often followed by a NOT of it, all unfolded and unhashed so every
gate survives construction.  The
reference below evaluates one vector at a time with Python booleans
and shares nothing with :data:`repro.circuit.gates.GATE_SPECS` or the
engine.  Checked against it:

* ``simulate_interpreted`` on Python-int words,
* ``simulate_interpreted`` on numpy-array words,
* ``execute`` on the fused plan,
* ``execute`` on the unfused plan with a random ``force`` map.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, simulate_interpreted
from repro.engine import compile_circuit, execute

VARIADIC = ("AND", "OR", "XOR", "NAND", "NOR", "XNOR")
FIXED = {"NOT": 1, "BUF": 1, "AO21": 3, "OA21": 3, "MUX2": 3, "MAJ3": 3}
#: One ``(op, fanin count)`` per op form every drawn netlist contains.
FORMS = ([(op, k) for op in VARIADIC for k in (2, 3, 4)]
         + list(FIXED.items()))


def _naive_gate(op, xs):
    if op in ("AND", "NAND"):
        r = all(xs)
    elif op in ("OR", "NOR"):
        r = any(xs)
    elif op in ("XOR", "XNOR"):
        r = sum(xs) % 2 == 1
    elif op in ("NOT", "BUF"):
        r = xs[0]
    elif op == "AO21":
        r = (xs[0] and xs[1]) or xs[2]
    elif op == "OA21":
        r = (xs[0] or xs[1]) and xs[2]
    elif op == "MUX2":
        r = xs[1] if xs[0] else xs[2]
    else:  # MAJ3
        r = sum(xs) >= 2
    if op in ("NAND", "NOR", "XNOR", "NOT"):
        r = not r
    return int(r)


def naive_eval(circuit, vectors, force=None):
    """Output bus words of *circuit*, one vector at a time.

    *vectors* holds one integer per vector for the single input bus
    ``x``; *force* maps net ids to the bit they read.
    """
    force = force or {}
    words = {name: [0] * len(bus) for name, bus in circuit.outputs.items()}
    x_bus = circuit.inputs["x"]
    for j, x in enumerate(vectors):
        bits = []
        for net in circuit.nets:
            if net.op == "INPUT":
                bit = (x >> x_bus.index(net.nid)) & 1
            elif net.op == "CONST0":
                bit = 0
            elif net.op == "CONST1":
                bit = 1
            else:
                bit = _naive_gate(net.op, [bits[f] for f in net.fanins])
            bits.append(force.get(net.nid, bit))
        for name, bus in circuit.outputs.items():
            for i, nid in enumerate(bus):
                words[name][i] |= bits[nid] << j
    return words


@st.composite
def netlists(draw):
    c = Circuit("random", use_strash=False, fold_constants=False)
    nets = list(c.add_input_bus("x", draw(st.integers(1, 4))))
    nets += [c.const(0), c.const(1)]
    extra = draw(st.lists(
        st.sampled_from(FORMS + [(op, 2) for op in VARIADIC]), max_size=12))
    forms = draw(st.permutations(FORMS)) + extra
    for op, k in forms:
        fanins = draw(st.lists(st.sampled_from(nets), min_size=k,
                               max_size=k))
        nets.append(c.add_gate(op, *fanins))
        if draw(st.booleans()):
            # Often the gate's only consumer: the fused plan folds it
            # into an output-inverted opcode (AO21N, MAJ3N, ...).
            nets.append(c.add_gate("NOT", nets[-1]))
    gates = nets[len(c.inputs["x"]) + 2:]
    # The last gate is always observed; others at random, so some logic
    # is dead and some NOTs have a single consumer (fusion on).
    outputs = draw(st.lists(st.sampled_from(gates), max_size=8))
    c.set_output("y", outputs + [gates[-1]])
    count = draw(st.integers(1, 70))
    width = len(c.inputs["x"])
    vectors = draw(st.lists(st.integers(0, (1 << width) - 1),
                            min_size=count, max_size=count))
    return c, vectors


def _stimulus(vectors, width):
    return {"x": [sum(((v >> i) & 1) << j for j, v in enumerate(vectors))
                  for i in range(width)]}


@settings(max_examples=40, deadline=None)
@given(netlists())
def test_interpreter_on_int_and_array_words_matches_naive(case):
    circuit, vectors = case
    count = len(vectors)
    mask = (1 << count) - 1
    expected = naive_eval(circuit, vectors)
    stim = _stimulus(vectors, len(circuit.inputs["x"]))

    assert simulate_interpreted(circuit, stim, num_vectors=count) == expected

    # Array mode: the packed word as uint64 elements, 64 vectors each;
    # the padding vectors above *count* are masked off on the way back.
    nbytes = 8 * ((count + 63) // 64)
    arrays = {"x": [np.frombuffer(w.to_bytes(nbytes, "little"), dtype="<u8")
                    for w in stim["x"]]}
    got = simulate_interpreted(circuit, arrays)
    assert {name: [int.from_bytes(w.tobytes(), "little") & mask
                   for w in bus] for name, bus in got.items()} == expected


@settings(max_examples=40, deadline=None)
@given(netlists(), st.data())
def test_engine_fused_and_forced_unfused_match_naive(case, data):
    circuit, vectors = case
    count = len(vectors)
    stim = _stimulus(vectors, len(circuit.inputs["x"]))

    assert (execute(circuit, stim, num_vectors=count)
            == naive_eval(circuit, vectors))

    # Force any live net of the unfused plan, inputs and constants too;
    # an empty map runs the unfused plan unforced.
    live = [nid for nid, slot in
            enumerate(compile_circuit(circuit, fuse=False).nid_to_slot)
            if slot >= 0]
    force = data.draw(st.dictionaries(st.sampled_from(live),
                                      st.integers(0, 1), max_size=4))
    assert (execute(circuit, stim, num_vectors=count, force=force)
            == naive_eval(circuit, vectors, force))
