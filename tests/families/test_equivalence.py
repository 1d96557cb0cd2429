"""Exhaustive gate-level / functional / word-lane equivalence per family.

The family contract: for every registered family the full datapath
circuit, the big-int functional model and the model's rule on uint64
lanes (``functional(...).evaluate``, the service executor's one pass)
agree bit-for-bit — speculative result, detector flag and recovered
output — over *every* operand pair at small widths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import execute_ints
from repro.families.base import family_names, get_family

from ..conftest import nightly

TIER1_WIDTHS = (2, 3, 4, 5)
NIGHTLY_WIDTHS = (6, 7, 8)


def _all_pairs(width):
    n = 1 << width
    a = [x for x in range(n) for _ in range(n)]
    b = list(range(n)) * n
    return a, b


def _check_family_exhaustive(name, width):
    fam = get_family(name)
    params = fam.resolve_params(width)
    model = fam.functional(width, **params)
    circuit = fam.build_circuit(width, **params)
    a_vals, b_vals = _all_pairs(width)
    out = execute_ints(circuit, {"a": a_vals, "b": b_vals})
    batch = model.evaluate(np.asarray(a_vals, dtype=np.uint64),
                           np.asarray(b_vals, dtype=np.uint64))
    mask = (1 << width) - 1
    for i, (a, b) in enumerate(zip(a_vals, b_vals)):
        spec_sum, spec_cout = model.add(a, b)
        flag = model.flags_error(a, b)
        total = a + b
        # circuit vs functional model
        assert out["sum"][i] == spec_sum
        assert out["cout"][i] == spec_cout
        assert bool(out["err"][i]) == flag
        # recovered output is exact
        assert out["sum_exact"][i] == total & mask
        assert out["cout_exact"][i] == total >> width
        # wrong speculation implies a raised flag (no silent errors)
        if (spec_sum, spec_cout) != (total & mask, total >> width):
            assert flag
        # uint64 lanes vs the per-pair functional model
        assert int(batch.spec_sums[i]) == spec_sum
        assert int(batch.spec_couts[i]) == spec_cout
        assert bool(batch.flags[i]) == flag
        assert int(batch.exact_sums[i]) == total & mask
        assert int(batch.exact_couts[i]) == total >> width
        assert bool(batch.spec_errors[i]) == (
            (spec_sum, spec_cout) != (total & mask, total >> width))


@pytest.mark.parametrize("width", TIER1_WIDTHS)
@pytest.mark.parametrize("name", family_names())
def test_exhaustive_equivalence(name, width):
    _check_family_exhaustive(name, width)


@nightly
@pytest.mark.parametrize("width", NIGHTLY_WIDTHS)
@pytest.mark.parametrize("name", family_names())
def test_exhaustive_equivalence_nightly(name, width):
    _check_family_exhaustive(name, width)


# ----------------------------------------------------------------------
# Widths 63/64: the uint64 branches no exhaustive width reaches (the
# ``s < a`` carry-out, the carry-out kill at the top of the word and
# the full-word mask).
# ----------------------------------------------------------------------
def _wide_pairs(width, count=600, seed=0):
    """Seeded pairs, one in ten all-propagate or one bit short of it."""
    rng = np.random.default_rng(seed)
    mask = (1 << width) - 1
    pairs = []
    for a, b in rng.integers(0, mask, size=(count, 2), dtype=np.uint64,
                             endpoint=True).tolist():
        roll = rng.random()
        if roll < 0.05:
            b = ~a & mask
        elif roll < 0.1:
            b = (~a ^ (1 << int(rng.integers(width)))) & mask
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("width", (63, 64))
@pytest.mark.parametrize("name", family_names())
def test_wide_kernel_matches_functional(name, width):
    fam = get_family(name)
    default = fam.primary_value(width, fam.resolve_params(width))
    pairs = _wide_pairs(width)
    a = np.array([p[0] for p in pairs], dtype=np.uint64)
    b = np.array([p[1] for p in pairs], dtype=np.uint64)
    for knob in (1, default, width - 1, width):
        params = fam.resolve_params(width, window=knob)
        model = fam.functional(width, **params)
        batch = fam.functional(width, **params).evaluate(a, b)
        got = list(zip(batch.spec_sums.tolist(), batch.spec_couts.tolist(),
                       batch.exact_sums.tolist(),
                       batch.exact_couts.tolist(), batch.flags.tolist(),
                       batch.spec_errors.tolist()))
        for (x, y), row in zip(pairs, got):
            spec = model.add(x, y)
            exact = model.exact(x, y)
            want = (*spec, *exact, model.flags_error(x, y), spec != exact)
            assert row == want, (params, x, y)


# ----------------------------------------------------------------------
# Property: recovery is exact for every family, width and knob setting.
# ----------------------------------------------------------------------
_CIRCUITS = {}


def _datapath(name, width, knob):
    key = (name, width, knob)
    if key not in _CIRCUITS:
        fam = get_family(name)
        params = fam.resolve_params(width, window=knob)
        _CIRCUITS[key] = fam.build_circuit(width, **params)
    return _CIRCUITS[key]


@settings(deadline=None, max_examples=60)
@given(data=st.data(),
       name=st.sampled_from(family_names()),
       width=st.sampled_from((4, 6, 9, 12)),
       knob=st.integers(min_value=1, max_value=12))
def test_recovered_output_always_exact(data, name, width, knob):
    circuit = _datapath(name, width, min(knob, width))
    mask = (1 << width) - 1
    a = data.draw(st.integers(min_value=0, max_value=mask))
    b = data.draw(st.integers(min_value=0, max_value=mask))
    out = execute_ints(circuit, {"a": [a], "b": [b]})
    total = a + b
    assert out["sum_exact"][0] == total & mask
    assert out["cout_exact"][0] == total >> width
    # The err output is the recovery trigger: whenever speculation was
    # wrong it must have fired.
    if out["sum"][0] != total & mask or out["cout"][0] != total >> width:
        assert out["err"][0] == 1


# ----------------------------------------------------------------------
# The batch method: ``run_arrays`` on object lanes is the per-pair model
# (and the numpy kernel, where one exists) at every width.
# ----------------------------------------------------------------------
def _lane_operands(width, seed=1):
    """Random, all-propagate, negative and over-width operand pairs."""
    rng = np.random.default_rng(seed)
    mask = (1 << width) - 1
    rand = [int.from_bytes(rng.bytes(17), "little") & mask
            for _ in range(240)]
    pairs = list(zip(rand[0::2], rand[1::2]))
    pairs += [(a, ~a & mask) for a in rand[:20]]           # all-propagate
    pairs += [(mask - 1, 1), (mask, 1), (0, 0), (mask, mask)]
    pairs += [(-a, b) for a, b in pairs[:10]]              # negative
    pairs += [(a | (5 << width), b | (1 << (width + 70)))  # over-width
              for a, b in pairs[:10]]
    return pairs


@pytest.mark.parametrize("width", (8, 63, 64, 65, 128))
@pytest.mark.parametrize("name", family_names())
def test_run_arrays_matches_per_pair_model(name, width):
    fam = get_family(name)
    default = fam.primary_value(width, fam.resolve_params(width))
    pairs = _lane_operands(width)
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    mask = (1 << width) - 1
    for knob in sorted({1, 3, default, width}):
        params = fam.resolve_params(width, window=knob)
        model = fam.functional(width, **params)
        batch = model.run_arrays(a, b)
        got = list(zip(batch.spec_sums.tolist(), batch.spec_couts.tolist(),
                       batch.exact_sums.tolist(),
                       batch.exact_couts.tolist(), batch.flags.tolist(),
                       batch.spec_errors.tolist()))
        for (x, y), row in zip(pairs, got):
            spec = model.add(x, y)
            exact = model.exact(x, y)
            flag = model.flags_error(x, y)
            assert type(flag) is bool
            assert row == (*spec, *exact, flag, spec != exact), (params, x, y)
        assert model.run_ints({"a": a, "b": b}) == {
            "sum": batch.spec_sums.tolist(),
            "cout": batch.spec_couts.tolist()}
        if width > 64:
            continue
        ref = fam.functional(width, **params).evaluate(
            np.array([x & mask for x in a], dtype=np.uint64),
            np.array([y & mask for y in b], dtype=np.uint64))
        for key in ("spec_sums", "spec_couts", "exact_sums", "exact_couts",
                    "flags", "spec_errors"):
            assert getattr(batch, key).tolist() == getattr(
                ref, key).tolist(), (params, key)


def test_run_arrays_broadcasts_a_scalar_detector():
    """A detector answering one scalar for the batch still yields one
    flag per pair (the shape a silent-detector fault takes)."""
    model = get_family("aca").functional(16, window=4)
    model.flags_error = lambda a, b: False
    batch = model.run_arrays(np.array([1, 0xFFFE], dtype=np.uint64),
                             [2, 1])
    assert batch.flags.tolist() == [False, False]
    assert batch.spec_sums.tolist() == [3, 0xFFFF]
