"""The verifier's array comparison against mutant rows.

Each mutant wraps the correct ``service:numpy`` row (which reports all
five columns) and corrupts one column kind on every vector whose ``a`` has
bit 3 set, or drops a result, or raises.  The verifier must name that
kind at the first failing vector of every chunk, on ``uint64`` lanes
(width 64) and on ``dtype=object`` lanes (widths 65 and 128), whether
the row returns arrays or plain Python lists, and record it with plain
Python values.
"""

import json

import numpy as np
import pytest

from repro.verify import (
    Chunk,
    DifferentialVerifier,
    ImplResult,
    Implementation,
    make_implementation,
    pair_stream,
    register_implementation,
    unregister_implementation,
)

WIDTHS = (64, 65, 128)
CHUNK, VECTORS, STREAM, SEED = 256, 1000, "uniform", 11

#: Mismatch kind -> (result column, corruption of the hit rows).
CORRUPT = {
    "sum": ("sums", lambda col: col ^ 1),
    "cout": ("couts", lambda col: col ^ 1),
    "flag": ("flags", lambda col: ~col),
    "latency": ("latencies", lambda col: col + 1),
    "spec_error": ("spec_errors", lambda col: ~col),
}
COLUMNS = ("sums", "couts", "flags", "latencies", "spec_errors")


def _hit(a):
    return (a >> 3) & 1


class ColumnMutant(Implementation):
    """The ``service:numpy`` row with one mismatch kind injected."""

    family = "exact"
    kind = "sum"
    as_lists = False

    def __init__(self, width, window, recovery_cycles=1):
        self.row = make_implementation("service:numpy", width, window,
                                       recovery_cycles)

    def run(self, pairs):
        chunk = pairs if isinstance(pairs, Chunk) else Chunk(pairs)
        if self.kind == "crash":
            raise RuntimeError("boom")
        res = self.row.run(chunk)
        cols = {name: np.array(getattr(res, name)) for name in COLUMNS}
        if self.kind == "length":
            cols = {name: col[:-1] for name, col in cols.items()}
        else:
            name, corrupt = CORRUPT[self.kind]
            hits = [i for i, (a, _) in enumerate(chunk) if _hit(a)]
            cols[name][hits] = corrupt(cols[name][hits])
        if self.as_lists:
            cols = {name: col.tolist() for name, col in cols.items()}
        return ImplResult(**cols)


def _mutant(kind, as_lists):
    return type(f"{kind}Mutant", (ColumnMutant,),
                {"kind": kind, "as_lists": as_lists})


@pytest.fixture
def mutant_row():
    names = []

    def register(kind, as_lists):
        name = f"mutant:{kind}:{'lists' if as_lists else 'arrays'}"
        register_implementation(name, _mutant(kind, as_lists))
        names.append(name)
        return name

    yield register
    for name in names:
        unregister_implementation(name)


def _first_failures(width, kind):
    """``(index, a, b)`` of the first failing vector of every chunk."""
    out = []
    base = 0
    for rows in pair_stream(STREAM, width, 8, VECTORS, seed=SEED,
                            chunk=CHUNK):
        pairs = [tuple(p) for p in rows.tolist()]
        if kind == "crash":
            i = 0
        elif kind == "length":
            i = len(pairs) - 1
        else:
            i = next(i for i, (a, _) in enumerate(pairs) if _hit(a))
        out.append((base + i, *pairs[i]))
        base += len(pairs)
    return out


def _assert_plain(value):
    """*value* holds only Python ``int``/``bool``/``str`` leaves."""
    if isinstance(value, dict):
        for k, v in value.items():
            assert type(k) is str
            _assert_plain(v)
    else:
        assert value is None or type(value) in (int, bool, str), (
            type(value), value)


@pytest.mark.parametrize("as_lists", [False, True], ids=["arrays", "lists"])
@pytest.mark.parametrize("kind", [*CORRUPT, "length", "crash"])
@pytest.mark.parametrize("width", WIDTHS)
def test_mutant_caught_at_first_failing_vector(mutant_row, width, kind,
                                               as_lists):
    name = mutant_row(kind, as_lists)
    report = DifferentialVerifier(width, window=8, impls=(name,),
                                  shrink=False).run(
        vectors=VECTORS, streams=(STREAM,), seed=SEED, chunk=CHUNK)

    assert not report.ok
    want = _first_failures(width, kind)
    assert report.mismatch_count == len(want) == 4  # one per chunk
    assert [(d.kind, d.index, d.a, d.b) for d in report.discrepancies] == [
        (kind, *w) for w in want]
    for disc in report.discrepancies:
        if kind == "length":
            assert disc.expected == {k: CHUNK if disc.index < 768 else 232
                                     for k in ("sum", "cout", "flag",
                                               "latency", "spec_error")}
            assert set(disc.got.values()) == {disc.expected["sum"] - 1}
        elif kind != "crash":
            assert disc.expected != disc.got
            flag_kind = kind in ("flag", "spec_error")
            assert type(disc.expected) is (bool if flag_kind else int)
            assert type(disc.got) is type(disc.expected)


@pytest.mark.parametrize("width", WIDTHS)
def test_discrepancy_records_are_plain_python(mutant_row, width):
    """Every recorded field is a plain Python value, so the saved report
    is JSON and reads back equal to what was recorded."""
    names = [mutant_row(kind, False) for kind in CORRUPT]
    report = DifferentialVerifier(width, window=8, impls=names).run(
        vectors=300, streams=(STREAM, "boundary"), seed=SEED, chunk=CHUNK)

    assert {d.kind for d in report.discrepancies} == set(CORRUPT)
    shrunk = 0
    for disc in report.discrepancies:
        for field, value in vars(disc).items():
            _assert_plain(value)
        shrunk += disc.shrunk_a is not None
    assert shrunk  # the shrinker ran and recorded its reproducers
    saved = report.as_dict()
    assert json.loads(json.dumps(saved)) == saved
