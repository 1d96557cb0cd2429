"""End-to-end gate acceptance: the CLI catches a synthetic regression.

The ISSUE-5 acceptance criterion, verbatim: a test monkeypatches a 2x
sleep into one benchmark payload and asserts ``bench gate`` exits 1
with that benchmark named ``regressed``, while an unmodified
back-to-back run on the same host gates green.

A private ``toy`` suite of sleep-based benchmarks is registered for
the duration of each test (sleeps are the most run-to-run stable
payloads available, so the green path is not flaky), and
``REPRO_RESULTS_DIR`` is pointed at a tmp dir so no repository
results/baselines are touched.
"""

import json
import os
import time

import pytest

from repro.bench import Benchmark, registry
from repro.cli import main

#: Per-benchmark sleep seconds; tests mutate this to inject slowdowns.
_SLEEP = {}

_BASE_S = 0.002
_GATE_ARGS = ["--samples", "12", "--target-time", "0.005"]


def _toy_suite(preset):
    def mk(name):
        def payload(_state, name=name):
            time.sleep(_SLEEP[name])

        return Benchmark(name=name, suite="toy", payload=payload,
                         ops_per_call=1, samples=12, calibrate=False)

    return [mk(name) for name in sorted(_SLEEP)]


@pytest.fixture
def toy(monkeypatch, tmp_path):
    _SLEEP.clear()
    _SLEEP.update(probe_a=_BASE_S, probe_b=_BASE_S)
    registry.add_suite("toy", _toy_suite)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    yield tmp_path
    registry.remove_suite("toy")


def _gate(extra=()):
    return main(["bench", "gate", "--suite", "toy", *_GATE_ARGS, *extra])


def _summary(tmp_path):
    with open(os.path.join(tmp_path, "bench_summary.md"),
              encoding="utf-8") as f:
        return f.read()


def test_gate_green_then_catches_2x_sleep_regression(toy, capsys):
    # Establish a baseline, then gate an unmodified back-to-back run:
    # same host, same payloads -> green, exit 0.
    assert main(["bench", "run", "--suite", "toy", *_GATE_ARGS]) == 0
    assert main(["bench", "promote", "--suite", "toy"]) == 0
    assert _gate() == 0
    summary = _summary(toy)
    assert "PASS" in summary and "regressed" not in summary

    # Inject the synthetic regression: probe_b's payload now sleeps 2x.
    _SLEEP["probe_b"] = 2 * _BASE_S
    capsys.readouterr()
    assert _gate() == 1
    out = capsys.readouterr().out
    summary = _summary(toy)
    assert "FAIL" in summary
    assert "| `probe_b` | 🔴 regressed |" in summary
    assert "| `probe_a` | 🔴" not in summary
    assert "regressed" in out

    # Reverting the slowdown gates green again (noise didn't latch).
    _SLEEP["probe_b"] = _BASE_S
    assert _gate() == 0


def test_gate_fails_without_baseline_unless_allowed(toy):
    assert main(["bench", "run", "--suite", "toy", *_GATE_ARGS]) == 0
    with pytest.raises(SystemExit, match="no baseline"):
        _gate(["--no-run"])
    assert _gate(["--no-run", "--allow-missing-baseline"]) == 0


def test_compare_verb_is_informational(toy, capsys):
    assert main(["bench", "run", "--suite", "toy", *_GATE_ARGS]) == 0
    assert main(["bench", "promote", "--suite", "toy"]) == 0
    _SLEEP["probe_a"] = 3 * _BASE_S
    assert main(["bench", "run", "--suite", "toy", *_GATE_ARGS]) == 0
    # compare reports the regression but always exits 0.
    capsys.readouterr()
    assert main(["bench", "compare", "--suite", "toy"]) == 0
    assert "regressed" in capsys.readouterr().out


def test_improvement_does_not_fail_the_gate(toy):
    assert main(["bench", "run", "--suite", "toy", *_GATE_ARGS]) == 0
    assert main(["bench", "promote", "--suite", "toy"]) == 0
    _SLEEP["probe_a"] = _BASE_S / 2
    assert _gate() == 0
    assert "improved" in _summary(toy)


def test_run_writes_schema_valid_json_and_trend(toy):
    trend = os.path.join(toy, "trend.jsonl")
    assert main(["bench", "run", "--suite", "toy", *_GATE_ARGS,
                 "--trend", trend]) == 0
    from repro.bench import load_suite_result

    payload = load_suite_result(os.path.join(toy, "BENCH_toy.json"))
    assert payload["suite"] == "toy"
    assert {b["name"] for b in payload["benchmarks"]} == {"probe_a",
                                                          "probe_b"}
    with open(trend, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f]
    assert lines and lines[0]["suite"] == "toy"
    assert "probe_a" in lines[0]["benchmarks"]


def test_bench_list_names_all_builtin_suites(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for suite in ("engine", "service", "verify", "cluster"):
        assert suite in out
    assert "loadgen_uniform_w64" in out


def test_raising_payload_fails_the_gate_and_the_run_goes_on(toy, capsys):
    # A second suite whose one bench starts raising after its baseline
    # is promoted: the gate must still give every suite its rows, mark
    # that bench ``error`` with the exception text, and exit 1.
    raising = {"on": False}

    def flaky_suite(preset):
        def payload(_state):
            if raising["on"]:
                raise RuntimeError("payload blew up")
            time.sleep(_BASE_S)

        return [Benchmark(name="flaky", suite="toy_flaky", payload=payload,
                          ops_per_call=1, samples=12, calibrate=False)]

    registry.add_suite("toy_flaky", flaky_suite)
    try:
        both = ["--suite", "toy,toy_flaky", *_GATE_ARGS]
        assert main(["bench", "run", *both]) == 0
        assert main(["bench", "promote", "--suite", "toy,toy_flaky"]) == 0
        raising["on"] = True
        capsys.readouterr()
        assert main(["bench", "gate", *both]) == 1
        err = capsys.readouterr().err
        summary = _summary(toy)
        assert "FAIL" in summary
        assert "| `probe_a` |" in summary and "| `probe_b` |" in summary
        assert ("| `flaky` | 💥 error | — | — | — | — | "
                "RuntimeError: payload blew up |") in summary
        assert "[bench] ERROR: toy_flaky/flaky" in err
        assert "| `probe_a` | 🔴" not in summary
        # The plain run records the error too, and exits 1.
        assert main(["bench", "run", *both]) == 1
    finally:
        registry.remove_suite("toy_flaky")
