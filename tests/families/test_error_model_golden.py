"""The carry-state engine against golden statistics.

``error_model_golden.json`` holds, for every family and every
``default_windows`` knob at widths 16, 32 and 64, the exact error and
flag counts over the ``4^width`` uniform operand pairs, and the ACA's
biased error and flag probabilities at three propagate fractions.  They
were produced by the per-family dynamic programs that the engine
replaced (an ACA Markov chain, a block-boundary DP, the longest-run
count and a biased run-length DP), so the engine must reproduce them
exactly (counts) or to 1e-12 (probabilities).
"""

import json
import os

import pytest

from repro.analysis import aca_error_probability_biased
from repro.families import get_family

with open(os.path.join(os.path.dirname(__file__),
                       "error_model_golden.json"), encoding="utf-8") as f:
    GOLDEN = json.load(f)


@pytest.mark.parametrize("width", (16, 32, 64))
def test_exact_counts_match_golden(width):
    rows = [r for r in GOLDEN["counts"] if r["width"] == width]
    assert rows
    for row in rows:
        fam = get_family(row["family"])
        params = fam.resolve_params(width, window=row["knob"])
        assert params == row["params"]
        model = fam.error_model(width, **params)
        total = 1 << (2 * width)
        assert model.exact_error_rate * total == row["error_count"], row
        assert model.exact_flag_rate * total == row["flag_count"], row


def test_aca_biased_rates_match_golden():
    fam = get_family("aca")
    for row in GOLDEN["aca_biased"]:
        width, window, p = row["width"], row["window"], row["p_propagate"]
        q = (1.0 - p) / 2
        assert fam.flag_probability(width, p, window=window) == \
            pytest.approx(row["flag"], rel=1e-12, abs=0.0), row
        assert aca_error_probability_biased(width, window, (p, q, q)) == \
            pytest.approx(row["error"], rel=1e-12, abs=0.0), row
