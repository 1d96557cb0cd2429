"""Experiment drivers: structure and the paper's claims.

Every claim EXPERIMENTS.md makes about a regenerated table is asserted
here, on the function its ``python -m repro <verb>`` calls, at the size
the claim was measured at or a smaller one where it holds with the same
bound.
"""

import pytest

from repro import experiments as ex
from repro.analysis import aca_error_probability, choose_window
from repro.mc import sample_error_rate


def _column(table, header):
    """Cells of *header* in *table*, by row label (the first column)."""
    i = table.headers.index(header)
    return {row[0]: row[i] for row in table.rows}


def test_table1_rows_and_monotonic_bounds():
    t = ex.table1(bitwidths=(16, 64, 256), probabilities=(0.99, 0.9999))
    assert len(t.rows) == 3
    assert "bitwidth" in t.headers[0]
    text = t.render()
    assert "Table 1" in text and "99" in text


def test_table1_paper_claims():
    """Under ~24 bits at 1024 in 99.99 % of cases; +5..8 bits from 99 %
    to 99.99 % at every width; 24 bits at 4096."""
    bounds = {int(r[0]): (int(r[1]), int(r[2])) for r in ex.table1().rows}
    assert bounds[1024][1] <= 24
    assert bounds[4096][1] == 24
    for n, (b99, b9999) in bounds.items():
        assert 5 <= b9999 - b99 <= 8, n


def test_theorem1_table():
    t = ex.theorem1(max_k=5, mc_trials=300)
    assert len(t.rows) == 5
    # closed form column exact
    assert t.rows[0][1] == "2"
    assert t.rows[4][1] == "62"


def test_schilling_table():
    t = ex.schilling_table(bitwidths=(16, 64))
    assert len(t.rows) == 2


@pytest.fixture(scope="module")
def fig8_small():
    # The paper's Fig. 8 starts at 64 bits: below that the 99.99% window
    # is about half the operand width and speculation cannot win.
    return ex.fig8_rows(bitwidths=(64, 128, 256))


def test_fig8_shapes(fig8_small):
    rows = fig8_small
    assert [r.width for r in rows] == [64, 128, 256]
    for r in rows:
        # Who wins: ACA fastest, recovery slowest-or-close, detector cheap.
        assert r.aca_delay < r.traditional_delay
        assert r.detect_delay < r.traditional_delay
        assert r.recovery_delay > r.aca_delay
        # Area ordering: ripple < detector < ACA < recovery.
        assert r.ripple_area < r.aca_area
        assert r.detect_area < r.aca_area
        assert r.recovery_area > r.aca_area
        assert r.vlsa_avg_speedup > 1.0
    # Speedup grows with bitwidth.
    speedups = [r.aca_speedup for r in rows]
    assert speedups == sorted(speedups)


def test_fig8_section5_bands(fig8_small):
    """Section 5: detector ~2/3 of the traditional delay, recovery ~1x,
    ACA smaller than the traditional adder, VLSA > 1.2x from 128 bits."""
    for r in fig8_small:
        assert 0.4 <= r.detect_ratio <= 0.95, r.width
        assert 0.9 <= r.recovery_ratio <= 1.6, r.width
        assert r.aca_area < r.traditional_area, r.width
        if r.width >= 128:
            assert r.vlsa_avg_speedup > 1.2, r.width


@pytest.mark.slow
def test_fig8_speedup_reaches_paper_band():
    """Over the paper's 64..2048-bit sweep the speedup passes 1.5x."""
    speedups = [r.aca_speedup for r in ex.fig8_rows()]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 1.5


def test_fig8_tables_render(fig8_small):
    delay, area, chart_d, chart_a = ex.fig8_tables(rows=fig8_small)
    assert len(delay.rows) == 3 and len(area.rows) == 3
    assert "legend" in chart_d and "legend" in chart_a
    assert "ACA" in delay.render()


def test_fig7_trace_small():
    table, diagram = ex.fig7_trace(width=32, operations=2000, seed=1)
    rendered = table.render()
    assert "avg latency" in rendered
    assert "CLK" in diagram
    # The scripted second operand pair must stall.
    assert " S " in diagram


def test_fig7_average_latency_claim():
    """Paper: ~1.0002 cycles on average at the 99.99 % window."""
    table, _ = ex.fig7_trace(width=64, operations=20000, seed=0)
    metrics = {row[0]: row[1] for row in table.rows}
    assert 1.0 <= float(metrics["avg latency [cycles]"]) < 1.001
    assert int(metrics["stalls"]) >= 1  # the scripted Fig. 7 stall


def test_vlsa_rtl_table():
    t = ex.vlsa_rtl_table()
    periods = []
    for row in t.rows:
        width, period, dffs = int(row[0]), float(row[2]), int(row[5])
        assert dffs == 2 * width + 1  # operand registers + controller
        assert period > 0
        periods.append(period)
    assert periods == sorted(periods)  # grows (slowly) with width


def test_error_rate_table():
    t = ex.error_rate_table(bitwidths=(64, 128), samples=20000)
    assert len(t.rows) == 2
    for row in t.rows:
        n, w = int(row[0]), int(row[1])
        assert w == choose_window(n)
        p_err = float(row[2])
        p_flag = float(row[3])
        assert p_err <= p_flag <= 1e-4
        assert float(row[5]) < 1.0002  # the paper's average latency
    assert 0 < aca_error_probability(2048, 24) < 1e-4
    assert 0 <= sample_error_rate(64, 8, 2000, 0) < 0.2


def test_sharing_ablation():
    t = ex.sharing_ablation(bitwidths=(64, 128))
    assert len(t.rows) == 2
    for row in t.rows:
        assert float(row[4]) > 1.5, row[0]  # sharing saves a lot of logic
        assert int(row[7]) <= int(row[8])   # fanout no worse than naive
    # The gap widens with bitwidth (naive O(n*w), shared O(n log w)).
    ratios = [float(r[4]) for r in t.rows]
    assert ratios[-1] >= ratios[0]


def test_window_sweep():
    t = ex.window_sweep(width=64, windows=(4, 8, 18, 32))
    assert len(t.rows) == 4
    p_errs = [float(r[1]) for r in t.rows]
    assert p_errs == sorted(p_errs, reverse=True)  # wider window, fewer errors


def test_window_sweep_design_point():
    """At 1024 bits the 99.99 % window is within 10 % of the best
    average VLSA speedup of the sweep."""
    t = ex.window_sweep(width=1024)
    p_errs = [float(r[1]) for r in t.rows]
    assert p_errs == sorted(p_errs, reverse=True)
    delays = [float(r[3]) for r in t.rows]
    assert delays == sorted(delays)
    by_window = {int(r[0]): float(r[5]) for r in t.rows}
    assert by_window[choose_window(1024)] >= 0.9 * max(by_window.values())


def test_delay_model_ablation():
    """Fig. 8's shape claims hold in every interconnect regime."""
    t = ex.delay_model_ablation()
    assert len(t.rows) == len(ex.DELAY_MODELS)
    for row in t.rows:
        trad, aca, det, rec = (float(c) for c in row[2:6])
        assert aca < trad, row[0]
        assert det < trad, row[0]
        assert 0.8 < rec / trad < 2.0, row[0]
    # Heavier interconnect helps the bounded-window ACA relatively more.
    speedups = [float(r[6]) for r in t.rows]
    assert speedups[-1] > speedups[0]


def test_crypto_attack_experiment():
    t = ex.crypto_attack_experiment(corpus_bytes=1024, key_bits=5,
                                    window=8, seed=3)
    assert len(t.rows) == 2
    # Both adders recover the key (rank 1).
    assert t.rows[0][1] == "1"
    assert t.rows[1][1] == "1"
    # ACA corrupts some blocks, yet the attack runs ~2x faster.
    assert int(t.rows[1][2]) > 0
    assert float(t.rows[1][-1]) > 1.5


def test_future_work_table_small():
    t = ex.future_work_table(mul_width=12, multiop_width=32, operands=4,
                             samples=100)
    assert len(t.rows) == 4
    # Exact rows claim speedup 1.0; note column structure intact.
    assert float(t.rows[0][2]) == 1.0
    assert float(t.rows[2][2]) == 1.0


def test_future_work_claims():
    """Speculative multiplier and multi-operand adder beat their exact
    versions; the measured error rate stays under the flag rate."""
    t = ex.future_work_table(samples=300)
    assert float(t.rows[1][2]) > 1.0   # multiplier speedup
    assert float(t.rows[3][2]) > 1.0   # multi-operand speedup
    err = float(t.rows[1][4].split()[0])
    flag = float(t.rows[1][5].split()[0])
    assert 0 < err <= flag


def test_speculative_family_table():
    t = ex.speculative_family_table()
    delay = {k: float(v) for k, v in _column(t, "delay [ns]").items()}
    area = {k: float(v) for k, v in _column(t, "area").items()}
    # The incrementer (AND strips, no carry cells) is the cheapest and
    # fastest member; multipliers dominate cost.
    assert area["incrementer"] < area["ACA adder"] / 2
    assert delay["incrementer"] < delay["ACA adder"]
    assert area["array multiplier 32x32"] > 5 * area["ACA adder"]


def test_fault_table_small():
    """The error flag is not a fault detector; the exact sum is."""
    t = ex.fault_table(width=12, window=4, vectors=256)
    cov = {row[0]: float(row[3]) for row in t.rows}
    assert len(t.rows) == 4
    assert cov["err flag only"] < cov["sum_exact only"]
    assert cov["all outputs"] >= cov["sum_exact only"]
    assert cov["all outputs"] > 0.9


def test_atpg_table():
    coverage = _column(ex.atpg_table(), "value")["coverage of testable"]
    assert float(coverage) == pytest.approx(1.0)


def test_processor_table_small():
    t = ex.processor_table(iterations=300)
    exact_row, vlsa_row = t.rows
    assert exact_row[1] == vlsa_row[1]          # identical results
    assert int(vlsa_row[3]) < int(exact_row[3])  # fewer cycles


def test_dsp_table_small():
    t = ex.dsp_table(samples=400)
    for row in t.rows:
        assert row[4] == "yes"  # VLSA output always exact
        # Workload dependence: measured stalls far exceed the
        # uniform-operand prediction at every window ...
        assert float(row[2]) > float(row[1])
    # ... and wider windows reduce them.
    rates = [float(r[2]) for r in t.rows]
    assert rates == sorted(rates, reverse=True)


def test_processor_table_on_wide_datapath():
    """Regression: the loop's -1 immediate must match the CPU width or a
    64-bit datapath never terminates."""
    t = ex.processor_table(width=64, iterations=10)
    assert t.rows[0][1] == t.rows[1][1]
