"""The verifier's shared chunk.

Every row of a run reads the same :class:`~repro.verify.differential.
Chunk`: the gate-level ("netlist") rows execute one packing of its
operands between them.  The oracle and the model, kernel and service
rows never read the packed words, so a fault in the transpose shows up
as a mismatch on exactly the netlist rows.
"""

import pytest

from repro.engine import RunContext, pack
from repro.verify import Chunk, DifferentialVerifier, make_implementation
from repro.verify import differential
from repro.verify.vectors import pair_stream

NETLIST_ROWS = ("engine:bigint", "engine:numpy", "engine:sharded",
                "interpreter", "recovery")


def _pairs(width, count, stream="adversarial"):
    return next(pair_stream(stream, width, 8, count, seed=4, chunk=count))


def test_chunk_behaves_as_its_pairs():
    pairs = _pairs(16, 100)
    chunk = Chunk(pairs)
    assert len(chunk) == 100 and list(chunk) == pairs
    assert chunk[3] == pairs[3] and chunk[-1] == pairs[-1]
    assert chunk.a == tuple(a for a, _ in pairs)
    assert chunk.b == tuple(b for _, b in pairs)
    packed = chunk.packed(16)
    assert packed is chunk.packed(16)
    assert list(packed["a"]) == pack.pack_vectors(chunk.a, 16)
    assert list(packed["b"]) == pack.pack_vectors(chunk.b, 16)
    assert Chunk([]).a == () and Chunk([]).b == ()


@pytest.mark.parametrize("width", [16, 63, 64])
@pytest.mark.parametrize("name", NETLIST_ROWS)
def test_netlist_row_on_a_chunk_equals_the_plain_list(name, width):
    pairs = _pairs(width, 1001)
    impl = make_implementation(name, width, 8)
    assert impl.run(Chunk(pairs)) == impl.run(list(pairs))


def test_the_netlist_rows_pack_each_chunk_once(monkeypatch):
    widths = []
    real = differential.pack_vectors

    def counting(values, width):
        widths.append(width)
        return real(values, width)

    monkeypatch.setattr(differential, "pack_vectors", counting)
    report = DifferentialVerifier(16, window=4, impls=NETLIST_ROWS).run(
        vectors=1000, streams=("uniform",), chunk=256)
    assert report.ok
    assert widths == [16] * 8  # a and b of each of the 4 chunks


def test_a_transpose_fault_reaches_only_the_netlist_rows(monkeypatch):
    transpose = pack._transpose

    def one_bit_flipped(ints, nbits):
        out = transpose(ints, nbits)
        out[0] ^= 1
        return out

    monkeypatch.setattr(pack, "_transpose", one_bit_flipped)
    report = DifferentialVerifier(64, ctx=RunContext(seed=3),
                                  shrink=False).run(vectors=1000, seed=3)
    failing = {c.impl for c in report.coverage if c.mismatches}
    assert failing == set(NETLIST_ROWS)
    clean = {"functional", "machine", "kernel", "service:numpy",
             "service:bigint"}
    assert clean <= {c.impl for c in report.coverage}
    assert not [d for d in report.discrepancies if d.kind == "reference"]
