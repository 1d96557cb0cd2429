"""One rule per family, three lane types.

Each family's speculate/detect rule (``SpeculativeModel.rule``) runs on
Python ints one pair at a time, on ``dtype=object`` lanes and, at widths
up to 64, on ``uint64`` lanes.  All three must give the same six
``KernelBatch`` fields, for every family and every autotune knob.
"""

import numpy as np
import pytest

from repro.autotune.policy import default_windows
from repro.families import BlockSpecModel, CesaModel
from repro.families.aca import AcaModel
from repro.families.base import family_names, get_family
from repro.families.words import lanes, object_lanes

WIDTHS = (1, 8, 63, 64, 65, 128)
FIELDS = ("spec_sums", "spec_couts", "exact_sums", "exact_couts", "flags",
          "spec_errors")


def _operands(width, seed=0):
    """Random, all-propagate (and one bit short), negative and
    ``>= 2^64`` operand pairs."""
    rng = np.random.default_rng(seed)
    mask = (1 << width) - 1
    rand = [int.from_bytes(rng.bytes(17), "little") & mask
            for _ in range(48)]
    pairs = list(zip(rand[0::2], rand[1::2]))
    pairs += [(a, ~a & mask) for a in rand[:8]]
    pairs += [(a, (~a ^ 1) & mask) for a in rand[8:12]]
    pairs += [(0, mask), (mask, 1), (mask, mask), (0, 0)]
    pairs += [(-a - 1, b) for a, b in pairs[:6]]
    pairs += [(a | (3 << 64), b | (1 << (width + 65))) for a, b in pairs[:6]]
    return pairs


def _models(width):
    """``(family, knob, model)`` for every family and autotune knob."""
    for name in family_names():
        fam = get_family(name)
        for knob in default_windows(width):
            params = fam.resolve_params(width, window=knob)
            yield name, knob, fam.functional(width, **params)


def _rows(batch):
    """The six fields of a lane batch, one tuple per pair."""
    return list(zip(*(getattr(batch, f).tolist() for f in FIELDS)))


@pytest.mark.parametrize("cin", (0, 1))
@pytest.mark.parametrize("width", WIDTHS)
def test_lane_types_agree_on_every_field(width, cin):
    pairs = _operands(width)
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    mask = (1 << width) - 1
    for name, knob, model in _models(width):
        per_pair = [tuple(model.evaluate(x, y, cin)) for x, y in pairs]
        for x, y, row in zip(a, b, per_pair):
            total = (x & mask) + (y & mask) + cin
            spec = row[:2]
            assert row[2:4] == (total & mask, total >> width)
            assert row[5] == (spec != row[2:4]), (name, knob, x, y)
            assert row[4] or not row[5], (name, knob, x, y)  # never misses
        objects = model.evaluate(object_lanes(a), object_lanes(b),
                                 object_lanes([cin] * len(a)))
        assert _rows(objects) == per_pair, (name, knob)
        if width > 64:
            continue
        words = model.evaluate(lanes(a, width), lanes(b, width), cin)
        assert words.exact_sums.dtype == np.uint64
        assert _rows(words) == per_pair, (name, knob)


@pytest.mark.parametrize("name", family_names())
def test_carry_in_reaches_add_and_exact_at_width_64(name):
    """``cin = 1`` through the ``add``/``exact`` wrappers on uint64
    lanes: the 64-bit carry out cannot be read as ``total >> 64``."""
    mask = (1 << 64) - 1
    pairs = _operands(64, seed=2) + [(mask, 0), (mask, mask), (0, 0)]
    a, b = lanes([x for x, _ in pairs], 64), lanes([y for _, y in pairs], 64)
    fam = get_family(name)
    model = fam.functional(64, **fam.resolve_params(64))
    spec_sums, spec_couts = model.add(a, b, 1)
    exact_sums, exact_couts = model.exact(a, b, 1)
    for i, (x, y) in enumerate(pairs):
        total = (x & mask) + (y & mask) + 1
        assert (int(exact_sums[i]), int(exact_couts[i])) == (
            total & mask, total >> 64)
        assert (int(spec_sums[i]), int(spec_couts[i])) == model.add(x, y, 1)


@pytest.mark.parametrize("model", [
    AcaModel(64, 64),
    BlockSpecModel(64, 64, 8),
    BlockSpecModel(64, 80, 64),
    CesaModel(64, 64),
], ids=["aca-window-64", "blockspec-one-block", "blockspec-clamped",
        "cesa-one-block"])
def test_whole_word_geometry_is_exact_at_width_64(model):
    """One anchored window or block over all 64 bits: speculation is the
    exact 64-bit sum on every lane type; only the ACA's window detector
    still fires, on an all-propagate word."""
    mask = (1 << 64) - 1
    pairs = _operands(64, seed=3)
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    for cin in (0, 1):
        for batch in (model.evaluate(lanes(a, 64), lanes(b, 64), cin),
                      model.evaluate(object_lanes(a), object_lanes(b), cin)):
            for (x, y), row in zip(pairs, _rows(batch)):
                total = (x & mask) + (y & mask) + cin
                exact = (total & mask, total >> 64)
                all_propagate = (x ^ y) & mask == mask
                assert row == (*exact, *exact,
                               isinstance(model, AcaModel) and all_propagate,
                               False)
