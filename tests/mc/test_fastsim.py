"""Fast functional model: bit-trick identities and sampling."""

import pytest
from hypothesis import given, strategies as st

from repro.adders import reference_add
from repro.analysis import aca_error_probability, detector_flag_probability
from repro.mc import (
    AcaModel,
    aca_add,
    aca_is_correct,
    carry_word,
    detector_flag,
    generate_word,
    longest_propagate_run,
    propagate_word,
    sample_detector_rate,
    sample_error_rate,
    window_all_ones,
)

W16 = st.integers(0, 2**16 - 1)


@given(a=W16, b=W16, cin=st.integers(0, 1))
def test_carry_word_identity(a, b, cin):
    """Bit i of carry_word is the carry into bit i of a + b + cin."""
    c = carry_word(a, b, 16, cin)
    carry = cin
    for i in range(17):
        assert (c >> i) & 1 == carry, i
        if i < 16:
            ai, bi = (a >> i) & 1, (b >> i) & 1
            carry = (ai & bi) | (ai & carry) | (bi & carry)


@given(word=st.integers(0, 2**24 - 1), window=st.integers(1, 10))
def test_window_all_ones_matches_scan(word, window):
    got = window_all_ones(word, window)
    for i in range(24):
        expect = all((word >> (i + j)) & 1 for j in range(window))
        assert ((got >> i) & 1) == int(expect)


def test_window_all_ones_validation():
    with pytest.raises(ValueError):
        window_all_ones(5, 0)


@given(a=W16, b=W16)
def test_pg_words(a, b):
    assert propagate_word(a, b, 16) == (a ^ b) & 0xFFFF
    assert generate_word(a, b, 16) == (a & b) & 0xFFFF


@given(a=W16, b=W16, window=st.integers(1, 17), cin=st.integers(0, 1))
def test_correctness_predicate_matches_explicit_add(a, b, window, cin):
    """aca_is_correct <=> aca_add equals exact addition (incl. cout)."""
    s, cout = aca_add(a, b, 16, window, cin)
    ref = reference_add(16, a, b, cin)
    explicit = (s == ref["sum"] and cout == ref["cout"])
    assert explicit == aca_is_correct(a, b, 16, window, cin)


@given(a=W16, b=W16, window=st.integers(1, 16))
def test_detector_conservative(a, b, window):
    if not detector_flag(a, b, 16, window):
        assert aca_is_correct(a, b, 16, window)


@given(a=W16, b=W16)
def test_longest_propagate_run_is_xor_run(a, b):
    from repro.analysis import longest_run_of_ones

    assert longest_propagate_run(a, b, 16) == (
        longest_run_of_ones((a ^ b) & 0xFFFF))


def test_aca_add_window_validation():
    with pytest.raises(ValueError):
        aca_add(1, 2, 8, 0)


def test_aca_add_known_example():
    """The paper's framing: spec carry = generate of the w-bit window."""
    # a=0111, b=0001 at window 2: true sum 1000; the carry from bit 0
    # dies at the window boundary, so the spec sum misses the high bit.
    s, cout = aca_add(0b0111, 0b0001, 4, 2)
    assert (s, cout) == (0b0000, 0)
    assert not aca_is_correct(0b0111, 0b0001, 4, 2)
    # window 4 covers everything -> exact
    s, cout = aca_add(0b0111, 0b0001, 4, 4)
    assert (s, cout) == (0b1000, 0)


def _aca_add_reference(a, b, width, window, cin=0):
    """The hardware definition, one bit position at a time: the carry
    into bit ``i`` is the carry out of block ``[max(0, i-window), i-1]``,
    which sees ``cin`` only when anchored at bit 0."""
    mask = (1 << width) - 1
    a &= mask
    b &= mask
    result = 0
    carry_out = 0
    for i in range(width + 1):
        lo = max(0, i - window)
        blk = (1 << (i - lo)) - 1
        blk_cin = cin if lo == 0 else 0
        spec_carry = ((((a >> lo) & blk) + ((b >> lo) & blk) + blk_cin)
                      >> (i - lo)) if i > lo else cin & 1
        if i == width:
            carry_out = spec_carry
        else:
            result |= ((((a ^ b) >> i) & 1) ^ spec_carry) << i
    return result, carry_out


def _assert_matches_definition(model, a, b, cin):
    """``model`` and the module-level functions against the definitions:
    the per-bit speculative sum, the detector as "some ``window``-bit
    all-propagate run", and correctness as "no such run above bit 0
    receives a carry"."""
    width, window = model.width, model.window
    mask = (1 << width) - 1
    run = (1 << window) - 1
    p = (a ^ b) & mask
    starts = [i for i in range(width - window + 1) if (p >> i) & run == run]
    carries = ((a & mask) + (b & mask) + cin) ^ p
    correct = not any(i > 0 and (carries >> i) & 1 for i in starts)
    spec = _aca_add_reference(a, b, width, window, cin)

    assert model.add(a, b, cin) == spec
    assert aca_add(a, b, width, window, cin) == spec
    assert model.flags_error(a, b) == bool(starts)
    assert detector_flag(a, b, width, window) == bool(starts)
    assert model.is_correct(a, b, cin) == correct
    assert aca_is_correct(a, b, width, window, cin) == correct
    assert correct == (spec == model.exact(a, b, cin))


@pytest.mark.parametrize("width", range(1, 7))
def test_aca_add_matches_definition_exhaustively(width):
    for window in range(1, width + 3):
        model = AcaModel(width, window)
        for cin in (0, 1):
            for a in range(1 << width):
                for b in range(1 << width):
                    _assert_matches_definition(model, a, b, cin)


@st.composite
def _wide_case(draw):
    width = draw(st.sampled_from([63, 64, 65, 128]))
    mask = (1 << width) - 1
    a = draw(st.integers(0, mask))
    # Mix in all-propagate pairs (b = ~a): the longest carry chains.
    b = draw(st.one_of(st.integers(0, mask), st.just(~a & mask)))
    window = draw(st.integers(1, width + 2))
    return a, b, width, window, draw(st.integers(0, 1))


@given(case=_wide_case())
def test_aca_add_matches_definition_wide(case):
    a, b, width, window, cin = case
    _assert_matches_definition(AcaModel(width, window), a, b, cin)


def test_model_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        AcaModel(8, 0)


def test_model_wrapper(rng):
    model = AcaModel(24, 6)
    for _ in range(200):
        a, b = rng.getrandbits(24), rng.getrandbits(24)
        assert model.add(a, b) == aca_add(a, b, 24, 6)
        assert model.exact(a, b) == (
            (a + b) & 0xFFFFFF, (a + b) >> 24)
        assert model.is_correct(a, b) == aca_is_correct(a, b, 24, 6)
        assert model.flags_error(a, b) == detector_flag(a, b, 24, 6)
        if model.flags_error(a, b) is False:
            assert model.is_correct(a, b)


def test_sampled_rates_match_exact_models():
    n, w = 32, 6
    p_err = aca_error_probability(n, w)
    p_flag = detector_flag_probability(n, w)
    mc_err = sample_error_rate(n, w, samples=40000, seed=1)
    mc_flag = sample_detector_rate(n, w, samples=40000, seed=1)
    assert mc_err == pytest.approx(p_err, rel=0.25)
    assert mc_flag == pytest.approx(p_flag, rel=0.25)
    assert mc_err <= mc_flag


def test_sampling_supports_wide_operands():
    rate = sample_error_rate(200, 4, samples=2000, seed=0)
    assert 0.0 < rate < 1.0


@pytest.mark.parametrize("width, window, samples, seed, errors, flags", [
    (64, 8, 20000, 0, 1120, 2258),
    (64, 18, 20000, 0, 3, 3),
    (64, 8, 20000, 7, 1047, 2169),
    (32, 4, 5000, 1, 1832, 3308),
    (100, 12, 3000, 2, 24, 38),
    (7, 3, 4000, 5, 511, 1467),
])
def test_sampled_counts_are_pinned(width, window, samples, seed, errors,
                                   flags):
    """Exact counts at fixed seeds, as the per-pair sampler drew them
    from the same ``rng.bytes`` stream: the lane call changes no draw."""
    assert round(sample_error_rate(width, window, samples, seed)
                 * samples) == errors
    assert round(sample_detector_rate(width, window, samples, seed)
                 * samples) == flags
