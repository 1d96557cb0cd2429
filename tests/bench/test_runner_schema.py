"""Runner calibration/measurement discipline and the shared schema.

Covers the satellite checklist: warmup calls excluded from samples,
repeat auto-scaling landing in the target-duration window, every
registered suite's JSON validating against the shared schema, and the
host manifest fields being present.
"""

import time

import pytest

from repro.bench import (Benchmark, MetricBand, RunnerConfig, SchemaError,
                         build_payload, host_manifest, load_builtin_suites,
                         registry, run_benchmark, validate_payload)


def counting_benchmark(cost_s=0.0, name="probe", **kw):
    """A benchmark whose payload records every invocation."""
    calls = []

    def payload(state):
        calls.append(time.perf_counter())
        if cost_s:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < cost_s:
                pass
        return len(calls)

    bench = Benchmark(name=name, suite="toy", payload=payload, **kw)
    return bench, calls


# ----------------------------------------------------------------- runner

def test_warmup_calls_are_excluded_from_samples():
    bench, calls = counting_benchmark()
    config = RunnerConfig(warmup=3, samples=4, target_time=0.001,
                          max_repeats=4)
    res = run_benchmark(bench, config)
    assert res.warmup_calls == 3
    assert len(res.samples_s_per_call) == 4
    # Total payload invocations: warmup + calibration probes +
    # samples * repeats; the timed samples never include the warmup
    # share, so invocations strictly exceed samples * repeats.
    assert len(calls) >= 3 + 4 * res.inner_repeats


def test_calibration_hits_the_target_duration_window():
    cost = 0.0004
    bench, _ = counting_benchmark(cost_s=cost)
    config = RunnerConfig(target_time=0.05, samples=3)
    res = run_benchmark(bench, config)
    batch = res.median_s_per_call * res.inner_repeats
    lo = config.target_time / config.window_factor
    hi = config.target_time * config.window_factor
    assert lo <= batch <= hi, (
        f"calibrated batch {batch:.4f}s outside [{lo:.4f}, {hi:.4f}]s")
    # And the per-call estimate reflects the true payload cost.
    assert res.median_s_per_call == pytest.approx(cost, rel=0.5)


def test_calibration_skipped_for_long_benchmarks():
    bench, calls = counting_benchmark(cost_s=0.002, calibrate=False,
                                      samples=2)
    res = run_benchmark(bench, RunnerConfig(warmup=1))
    assert res.inner_repeats == 1
    assert len(res.samples_s_per_call) == 2
    assert len(calls) == 1 + 2   # warmup + one call per sample


def test_setup_runs_once_and_feeds_payload():
    seen = []

    def setup():
        seen.append("setup")
        return {"token": 42}

    def payload(state):
        assert state == {"token": 42}
        return state

    bench = Benchmark(name="with_setup", suite="toy", payload=payload,
                      setup=setup, samples=3)
    run_benchmark(bench, RunnerConfig(target_time=0.001, max_repeats=2))
    assert seen == ["setup"]


def test_metric_bands_record_violations():
    def payload(state):
        return None

    def derive(state, out):
        return {"measured": 2.0, "expected": 1.0}

    bench = Benchmark(name="banded", suite="toy", payload=payload,
                      derive=derive, samples=1,
                      bands=(MetricBand("measured", "expected", 0.05),))
    res = run_benchmark(bench, RunnerConfig(target_time=0.001,
                                            max_repeats=2))
    assert len(res.band_violations) == 1
    assert "measured" in res.band_violations[0]


def test_host_manifest_fields_present():
    host = host_manifest()
    for key in ("platform", "machine", "python_version", "cpu_count",
                "cpu_affinity", "clock", "pid"):
        assert key in host, key
    assert host["cpu_count"] >= 1
    assert host["clock"]["monotonic"] is True
    assert host["clock"]["resolution_s"] > 0


# ----------------------------------------------------------------- schema

def toy_payload():
    bench, _ = counting_benchmark(samples=2)
    config = RunnerConfig(target_time=0.001, max_repeats=4)
    res = run_benchmark(bench, config)
    return build_payload("toy", "small", [res], config)


def test_build_payload_validates():
    validate_payload(toy_payload())


@pytest.mark.parametrize("mutate,fragment", [
    (lambda p: p.pop("host"), "host"),
    (lambda p: p.update(schema_version=99), "schema_version"),
    (lambda p: p.update(benchmarks=[]), "non-empty"),
    (lambda p: p["benchmarks"][0].pop("samples_s_per_call"),
     "samples_s_per_call"),
    (lambda p: p["benchmarks"][0].update(ci95_s_per_call=[2.0, 1.0]),
     "ci95"),
    (lambda p: p["benchmarks"][0].update(ops_per_call=0), "ops_per_call"),
    (lambda p: p["host"].pop("clock"), "clock"),
    (lambda p: p["benchmarks"][0].update(suite="other"), "suite"),
    (lambda p: p.update(errors={"boom": 1}), "errors"),
    (lambda p: p.update(errors={p["benchmarks"][0]["name"]: "x"}),
     "duplicate"),
])
def test_schema_rejects_malformed_payloads(mutate, fragment):
    payload = toy_payload()
    mutate(payload)
    with pytest.raises(SchemaError, match=fragment):
        validate_payload(payload)


def test_errored_benches_may_leave_benchmarks_empty():
    payload = toy_payload()
    payload.update(benchmarks=[], errors={"boom": "RuntimeError: x"})
    validate_payload(payload)


def test_schema_rejects_duplicate_benchmark_names():
    payload = toy_payload()
    payload["benchmarks"].append(dict(payload["benchmarks"][0]))
    with pytest.raises(SchemaError, match="duplicate"):
        validate_payload(payload)


# --------------------------------------------------- registered suites

def test_all_registered_suites_load_and_validate():
    """`repro bench list` smoke: every builtin suite instantiates at
    both presets with well-formed benchmarks."""
    load_builtin_suites()
    names = registry.suites()
    assert set(names) >= {"engine", "service", "verify", "cluster"}
    for preset in ("small", "full"):
        for name in names:
            benches = registry.build(name, preset)
            assert benches, (name, preset)
            seen = set()
            for b in benches:
                assert b.suite == name
                assert b.name not in seen
                assert b.ops_per_call >= 1
                seen.add(b.name)


def test_registry_rejects_unknown_suite_and_preset():
    load_builtin_suites()
    with pytest.raises(KeyError, match="unknown suite"):
        registry.build("nonexistent")
    with pytest.raises(ValueError, match="preset"):
        registry.build("engine", "huge")
