"""Probability theory of speculative addition (paper Section 3.1, Thm. 1).

Exact longest-run combinatorics (:mod:`~repro.analysis.runs`), Schilling /
Gordon asymptotics (:mod:`~repro.analysis.schilling`), the Theorem 1 walk
(:mod:`~repro.analysis.markov`) and the carry-state engine behind every
family's exact and biased error statistics
(:mod:`~repro.analysis.error_model`).
"""

from .runs import (
    count_max_run_at_most,
    expected_longest_run,
    longest_run_distribution,
    longest_run_of_ones,
    prob_max_run_at_least,
    prob_max_run_at_most,
    quantile_longest_run,
    table1_rows,
    variance_longest_run,
)
from .schilling import (
    SCHILLING_VARIANCE,
    exceedance_decay_ratio,
    expected_longest_run_asymptotic,
    feller_prob_max_run_below,
    union_tail_bound,
)
from .markov import (
    expected_flips_closed_form,
    expected_flips_linear_solve,
    expected_flips_monte_carlo,
    expected_flips_recurrence,
)
from .error_model import (
    Boundary,
    aca_error_probability,
    aca_error_probability_biased,
    average_speedup,
    choose_window,
    detector_flag_probability,
    expected_latency_cycles,
    pg_probabilities,
    run_at_least_probability_biased,
    speculation_mass,
)
from .delay_theory import (
    aca_depth,
    aca_speedup_asymptotic,
    brent_kung_depth,
    detector_depth,
    prefix_adder_depth,
)

__all__ = [
    "count_max_run_at_most", "prob_max_run_at_most", "prob_max_run_at_least",
    "longest_run_distribution", "quantile_longest_run",
    "expected_longest_run", "variance_longest_run", "longest_run_of_ones",
    "table1_rows",
    "SCHILLING_VARIANCE", "expected_longest_run_asymptotic",
    "feller_prob_max_run_below", "union_tail_bound", "exceedance_decay_ratio",
    "expected_flips_closed_form", "expected_flips_recurrence",
    "expected_flips_linear_solve", "expected_flips_monte_carlo",
    "aca_error_probability", "detector_flag_probability", "choose_window",
    "expected_latency_cycles", "average_speedup",
    "Boundary", "speculation_mass",
    "aca_error_probability_biased", "pg_probabilities",
    "run_at_least_probability_biased",
    "prefix_adder_depth", "brent_kung_depth", "aca_depth",
    "detector_depth", "aca_speedup_asymptotic",
]
