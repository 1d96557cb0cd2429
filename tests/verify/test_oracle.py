"""The vectorised oracle against its per-pair definition.

``_reference_per_pair`` is the verifier's historical reference: one
functional-model call per field per pair.  The vectorised oracle must
reproduce all six of its fields exactly — exhaustively at small widths,
on every default stream at machine-word boundaries and beyond (65 and
128 bits run the ``dtype=object`` lanes), and at a million vectors per
family nightly.
"""

import numpy as np
import pytest

from repro.engine.functional import functional_model
from repro.families import get_family
from repro.families.blocks import BlockSpecModel
from repro.testing import nightly_enabled
from repro.verify import DEFAULT_STREAMS
from repro.verify.differential import _all_pairs, _reference
from repro.verify.oracle import evaluate
from repro.verify.vectors import pair_stream

nightly = pytest.mark.skipif(
    not nightly_enabled(),
    reason="nightly-only (set REPRO_NIGHTLY=1 to run)")

FAMILIES = ("aca", "cesa", "blockspec")
FIELDS = ("spec_sums", "spec_couts", "exact_sums", "exact_couts", "flags",
          "correct")


def _reference_per_pair(pairs, model):
    """The six oracle fields from per-pair functional-model calls on
    Python ints (a stream's operand array is read as a list)."""
    mask = (1 << model.width) - 1
    out = {name: [] for name in FIELDS}
    if isinstance(pairs, np.ndarray):
        pairs = pairs.tolist()
    for a, b in pairs:
        a &= mask
        b &= mask
        ss, sc = model.add(a, b)
        total = a + b
        out["spec_sums"].append(ss)
        out["spec_couts"].append(sc)
        out["exact_sums"].append(total & mask)
        out["exact_couts"].append(total >> model.width)
        out["flags"].append(model.flags_error(a, b))
        out["correct"].append(model.is_correct(a, b))
    return out


def _model(family, width, window):
    params = get_family(family).resolve_params(width, window=window)
    return functional_model(family, width=width, **params)


def _default_stream_chunks(family, width, count, seed, chunk=4096):
    """The family's default model and its default-stream chunks."""
    fam = get_family(family)
    params = fam.resolve_params(width)
    window = fam.primary_value(width, params)
    model = functional_model(family, width=width, **params)
    for stream in DEFAULT_STREAMS:
        for pairs in pair_stream(stream, width, window, count, seed=seed,
                                 chunk=chunk):
            yield model, pairs


def _assert_matches_definition(pairs, model):
    got = evaluate(pairs, model)
    want = _reference_per_pair(pairs, model)
    for name in FIELDS:
        assert getattr(got, name).tolist() == want[name], name


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("width", range(1, 8))
def test_oracle_matches_definition_exhaustively(family, width):
    pairs = [p for chunk in _all_pairs(width, chunk=1 << 14) for p in chunk]
    for window in range(1, width + 1):
        _assert_matches_definition(pairs, _model(family, width, window))


@pytest.mark.parametrize("detector", ("window", "exact"))
def test_block_geometries_match_definition_exhaustively(detector):
    """Every block/lookahead pair, beyond what the families' primary
    knobs reach (short top blocks, lookahead past the block size)."""
    width = 5
    pairs = [p for chunk in _all_pairs(width) for p in chunk]
    for block in range(1, width + 1):
        for lookahead in range(1, width + 1):
            _assert_matches_definition(
                pairs, BlockSpecModel(width, block, lookahead, detector))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("width", (63, 64, 65, 128))
def test_oracle_matches_definition_on_default_streams(family, width):
    for model, pairs in _default_stream_chunks(family, width, 1500, width):
        _assert_matches_definition(pairs, model)


def test_oracle_dtype_follows_width():
    pairs = [(3, 5), (7, 9)]
    assert evaluate(pairs, _model("aca", 64, 8)).spec_sums.dtype == np.uint64
    assert evaluate(pairs, _model("aca", 65, 8)).spec_sums.dtype == object


def test_oracle_masks_operands_above_width():
    model = _model("aca", 8, 3)
    assert (evaluate([(0x1FF, 0x101)], model).exact_sums.tolist()
            == evaluate([(0xFF, 0x01)], model).exact_sums.tolist())
    # Beyond uint64 the operands are masked before conversion.
    assert evaluate([(2**64 + 3, 1)], _model("aca", 64, 8)
                    ).exact_sums.tolist() == [4]


def test_oracle_rejects_unknown_models():
    class Unknown:
        width = 8

    with pytest.raises(ValueError):
        evaluate([(1, 2)], Unknown())


def test_oracle_reads_a_stream_chunk_as_a_list_of_its_pairs():
    """An ``(n, 2)`` operand array and its pairs as a list give the same
    oracle columns, on both lane types."""
    for width in (64, 65, 128):
        model = _model("aca", width, 8)
        rows = next(pair_stream("adversarial", width, 8, 300, seed=1))
        from_rows = evaluate(rows, model)
        from_list = evaluate([tuple(p) for p in rows.tolist()], model)
        for name in FIELDS:
            got, want = getattr(from_rows, name), getattr(from_list, name)
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name


def test_verifier_reference_columns_are_arrays():
    ref = _reference([(2**64 - 1, 1)], 64, 8, recovery_cycles=3)
    assert ref.exact_sums.tolist() == [0] and ref.exact_couts.tolist() == [1]
    assert ref.exact_sums.dtype == np.uint64 and ref.flags.dtype == bool
    assert ref.latencies.tolist() == [1 + 3 * bool(ref.flags[0])]


@nightly
@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_matches_definition_million_vectors(family):
    for model, pairs in _default_stream_chunks(family, 64, 250_000, 7,
                                               chunk=1 << 15):
        _assert_matches_definition(pairs, model)
