"""Property: the edge's hot batch parser agrees with the ``json.loads`` path.

A batch line written exactly as ``json.dumps({"id": ..., "pairs": ...})``
writes it, with or without the id (the benchmark client sends one, the
repo's TCP load generator does not), is parsed straight to a uint64
array; every other line falls back to ``json.loads``.  On arbitrary
hot-shape requests and mutations of them, the line as served and the
line forced through ``json.loads`` must get byte-identical replies (two
fresh services, so the accept cycles agree), and whatever the hot
parser accepts must decode to the same id and operands under
``json.loads``.
"""

import asyncio
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import VlsaServer, VlsaService
from repro.service.executor import VlsaBatchExecutor
from repro.service.server import parse_pairs_line

TOP = (1 << 64) - 1
EDGE_OPERANDS = [0, 1, 9, 10, 99, 1 << 32, 1 << 63, TOP - 1]
operand = st.one_of(st.integers(0, TOP - 1), st.sampled_from(EDGE_OPERANDS))
NO_ID = object()
requests = st.builds(
    lambda req_id, pairs: ({"pairs": pairs} if req_id is NO_ID
                           else {"id": req_id, "pairs": pairs}),
    st.one_of(st.just(NO_ID), st.integers(-(1 << 70), 1 << 70)),
    st.lists(st.lists(operand, min_size=2, max_size=2),
             min_size=1, max_size=8))

#: Tokens spliced over a number or inserted anywhere.
TOKENS = [b"0", b"00", b"07", b"-0", b"-1", str(TOP).encode(),
          str(TOP + 1).encode(), b"9" * 25, b"1.5", b'"7"', b"null",
          b"Infinity", b" ", b"", b"]", b","]
#: Splicing over one number is listed twice: it is the mutation most
#: likely to leave a line that only a too-lenient parser would accept.
MUTATIONS = ["splice_token", "splice_token", "replace_byte",
             "insert_token", "truncate", "extra_key", "empty_pairs", "crlf"]
BYTES = b"0123456789 ,[]-.e\"x{}:"
NUMBER = re.compile(rb"-?[0-9]+")


@st.composite
def mutated_lines(draw):
    line = json.dumps(draw(requests)).encode()
    kinds = draw(st.lists(st.sampled_from(MUTATIONS), min_size=1,
                          max_size=2))
    end = b"\n"
    for kind in kinds:
        if kind == "replace_byte" and line:
            i = draw(st.integers(0, len(line) - 1))
            line = line[:i] + bytes([draw(st.sampled_from(BYTES))]) \
                + line[i + 1:]
        elif kind == "splice_token":
            numbers = list(NUMBER.finditer(line))
            if numbers:
                m = draw(st.sampled_from(numbers))
                line = (line[:m.start()] + draw(st.sampled_from(TOKENS))
                        + line[m.end():])
        elif kind == "insert_token":
            i = draw(st.integers(0, len(line)))
            line = line[:i] + draw(st.sampled_from(TOKENS)) + line[i:]
        elif kind == "truncate":
            line = line[:draw(st.integers(0, len(line)))]
        elif kind == "extra_key" and line.endswith(b"}"):
            line = line[:-1] + b', "x": 1}'
        elif kind == "empty_pairs":
            line = json.dumps({"id": 1, "pairs": []}).encode()
        elif kind == "crlf":
            end = b"\r\n"
    return line + end


async def _replies(line, width, recovery_cycles):
    """(served reply, forced-json reply), each from a fresh service."""
    out = []
    for forced in (False, True):
        async with VlsaService(width=width,
                               recovery_cycles=recovery_cycles) as svc:
            server = VlsaServer(svc)
            handle = server._handle_json if forced else server._handle_line
            out.append(await handle(line))
    return out


@given(line=st.one_of(requests.map(
           lambda r: json.dumps(r).encode() + b"\n"), mutated_lines()),
       width=st.sampled_from([64, 32]),
       recovery_cycles=st.sampled_from([1, 9]))
@settings(max_examples=300, deadline=None)
def test_hot_parser_agrees_with_json_path(line, width, recovery_cycles):
    hot = parse_pairs_line(line)
    if hot is not None:
        msg = json.loads(line)
        assert set(msg) <= {"id", "pairs"}
        if "id" in msg:
            assert type(msg["id"]) is int and msg["id"] == hot[0]
        else:
            assert hot[0] is None
        assert all(type(x) is int for pair in msg["pairs"] for x in pair)
        assert msg["pairs"] == hot[1].tolist()
    served, forced = asyncio.run(_replies(line, width, recovery_cycles))
    assert served == forced
    assert served.endswith(b"\n")
    if hot is not None:
        want = VlsaBatchExecutor(width, recovery_cycles=recovery_cycles
                                 ).execute(hot[1].tolist())
        assert served == json.dumps({
            "id": hot[0], "sums": want.sums, "couts": want.couts,
            "stalled": want.stalled, "latencies": want.latencies,
            "accept_cycle": 0}).encode() + b"\n"


HOT = b'{"id": 7, "pairs": [[1, 2], [30, 40]]}'


@pytest.mark.parametrize("line", [
    HOT, HOT + b"\n", b'{"id": -0, "pairs": [[0, 0]]}\n',
    b'{"id": 7, "pairs": [[' + str(TOP - 1).encode() + b', 0]]}',
    b'{"pairs": [[1, 2], [30, 40]]}\n',              # loadgen: no id
    HOT.replace(b"7", b"9" * 19),                    # longest hot id
    HOT.replace(b"7", b"-" + b"9" * 19),
])
def test_hot_shape_accepted(line):
    assert parse_pairs_line(line) is not None


@pytest.mark.parametrize("line", [
    HOT + b"\r\n",                                   # other line ending
    HOT.replace(b"[[1, 2]", b"[[1,2]"),              # other spacing
    HOT.replace(b'{"id"', b'{ "id"'),
    HOT.replace(b"}", b', "x": 1}'),                 # extra key
    b'{"pairs": [[1, 2]], "id": 7}',                 # key order
    HOT.replace(b"7", b"9" * 20),                    # id of 20 digits
    HOT.replace(b"7", b'"7"'),                       # non-int ids
    HOT.replace(b"7", b"7.0"),
    HOT.replace(b"7", b"null"),
    HOT.replace(b"7", b"true"),
    HOT.replace(b"30", b"030"),                      # leading zero
    HOT.replace(b"[1, 2]", b"[00, 2]"),
    HOT.replace(b"30", b"-30"),                      # negative
    HOT.replace(b"30", b"-0"),
    HOT.replace(b"30", b"3.0"),                      # float
    HOT.replace(b"30", b"3e1"),
    HOT.replace(b"30", b'"30"'),                     # string
    HOT.replace(b"30", b"null"),
    HOT.replace(b"30", b"Infinity"),
    HOT.replace(b"30", str(TOP).encode()),           # >= 2**64 - 1
    HOT.replace(b"30", str(TOP + 1).encode()),
    HOT.replace(b"30", b"9" * 30),
    HOT.replace(b"[30, 40]", b"[, 40]"),             # empty token
    HOT.replace(b"[30, 40]", b"[30, , 40]"),
    HOT.replace(b"[30, 40]", b"[30]"),               # not a pair
    HOT.replace(b"[30, 40]", b"[30, 40, 50]"),
    b'{"id": 7, "pairs": []}',                       # empty pairs
    HOT[:-3],                                        # truncated
])
def test_everything_else_falls_back(line):
    assert parse_pairs_line(line) is None


@pytest.mark.parametrize("req_id", [None, "abc", 1.5, True, [1], 12])
@pytest.mark.parametrize("width,recovery_cycles", [(64, 1), (64, 9),
                                                   (80, 1), (80, 12)])
def test_batch_reply_matches_json_dumps(req_id, width, recovery_cycles):
    """The renderer agrees with ``json.dumps`` for any id, on uint64 and
    Python-int (object) lane columns, with one- and two-digit
    latencies."""
    mask = (1 << width) - 1
    pairs = [(1, 2), (mask, 1), (5, mask ^ 5), (0, 0)]
    line = json.dumps({"id": req_id, "pairs": pairs}).encode() + b"\n"
    served, _ = asyncio.run(_replies(line, width, recovery_cycles))
    want = VlsaBatchExecutor(width, recovery_cycles=recovery_cycles
                             ).execute(pairs)
    assert served == json.dumps({
        "id": req_id, "sums": want.sums, "couts": want.couts,
        "stalled": want.stalled, "latencies": want.latencies,
        "accept_cycle": 0}).encode() + b"\n"


def test_parsed_array_is_exact_at_the_edges():
    """fromstring parses every uint64 below 2**64 - 1 exactly."""
    values = [0, 1, (1 << 53) + 1, (1 << 63) + 1, TOP - 1]
    line = json.dumps({"id": 0, "pairs": [values[:2], values[2:4],
                                          [values[4], 0]]}).encode()
    _, parsed = parse_pairs_line(line)
    assert parsed.dtype == np.uint64
    assert parsed.tolist() == [values[:2], values[2:4], [values[4], 0]]
