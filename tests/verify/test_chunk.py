"""The verifier's shared chunk.

Every row of a run reads the same :class:`~repro.verify.differential.
Chunk`: the gate-level ("netlist") rows execute one packing of its
operands between them.  The oracle and the model, kernel and service
rows never read the packed words, so a fault in the transpose shows up
as a mismatch on exactly the netlist rows.
"""

import numpy as np
import pytest

from repro.engine import RunContext, pack
from repro.verify import (Chunk, DifferentialVerifier,
                          default_implementations, make_implementation)
from repro.verify import differential
from repro.verify.vectors import pair_stream

NETLIST_ROWS = ("engine:bigint", "interpreter", "recovery")


def _rows(width, count, stream="adversarial"):
    return next(pair_stream(stream, width, 8, count, seed=4, chunk=count))


def _plain(rows):
    return [tuple(p) for p in rows.tolist()]


def _columns(res):
    """An implementation result's columns as lists (None kept)."""
    return {name: None if col is None else np.asarray(col).tolist()
            for name, col in vars(res).items()}


def test_chunk_behaves_as_its_pairs():
    rows = _rows(16, 100)
    pairs = _plain(rows)
    for chunk in (Chunk(rows), Chunk(pairs)):
        assert len(chunk) == 100 and list(chunk) == pairs
        assert chunk[3] == pairs[3] and chunk[-1] == pairs[-1]
        assert all(type(v) is int for v in chunk[3] + chunk[-1])
        assert chunk.a == tuple(a for a, _ in pairs)
        assert chunk.b == tuple(b for _, b in pairs)
        ops = chunk.operands(16)
        assert ops is chunk.operands(16) and ops.dtype == np.uint64
        assert np.array_equal(ops, rows)
        packed = chunk.packed(16)
        assert packed is chunk.packed(16)
        assert list(packed["a"]) == pack.pack_vectors(chunk.a, 16)
        assert list(packed["b"]) == pack.pack_vectors(chunk.b, 16)
    assert Chunk([]).a == () and Chunk([]).b == ()
    assert Chunk(rows[:0]).a == () and len(Chunk(rows[:0])) == 0


def test_a_chunk_of_a_list_keeps_the_callers_values():
    """The discrepancy records read the pairs as the caller gave them;
    the rows read them masked to the width."""
    chunk = Chunk([(-1, 2**70 + 5)])
    assert chunk[0] == (-1, 2**70 + 5) and list(chunk) == [(-1, 2**70 + 5)]
    assert chunk.operands(8).tolist() == [[255, 5]]
    assert chunk.operands(65).tolist() == [[2**65 - 1, 5]]
    assert chunk.operands(65).dtype == object


@pytest.mark.parametrize("width", [16, 63, 64])
@pytest.mark.parametrize("name", NETLIST_ROWS)
def test_netlist_row_on_a_chunk_equals_the_plain_list(name, width):
    rows = _rows(width, 1001)
    impl = make_implementation(name, width, 8)
    assert _columns(impl.run(Chunk(rows))) == _columns(
        impl.run(_plain(rows)))


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
    clean = {"functional", "service:numpy"}
    assert clean <= {c.impl for c in report.coverage}
    assert not [d for d in report.discrepancies if d.kind == "reference"]


def test_an_operand_conversion_fault_reaches_every_row(monkeypatch):
    """The rows share the chunk's masked operands; the oracle masks the
    stream's array itself, so a fault in that shared conversion is a
    mismatch on every row and none on the reference."""
    convert = differential.lanes

    def first_bit_flipped(values, width):
        out = convert(values, width).copy()
        out.reshape(-1)[0] ^= 1  # operand a of the chunk's first pair
        return out

    monkeypatch.setattr(differential, "lanes", first_bit_flipped)
    report = DifferentialVerifier(64, ctx=RunContext(seed=3),
                                  shrink=False).run(vectors=1000, seed=3)
    rows = {c.impl: c.mismatches for c in report.coverage}
    assert set(rows) == set(default_implementations(64))
    assert all(rows.values())
    assert not [d for d in report.discrepancies if d.kind == "reference"]
    assert {d.index for d in report.discrepancies} == {0}
