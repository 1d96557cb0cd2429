"""Load generator: workloads, analytic agreement, reporting."""

import hashlib
import json

import numpy as np
import pytest

from repro.engine import RunContext
from repro.service import make_workload, run_loadgen


def test_uniform_loadgen_matches_analytic_latency():
    report = run_loadgen("uniform", ops=60000, width=64, chunk=2048,
                         concurrency=4, ctx=RunContext(seed=1))
    assert report.ops == 60000
    assert report.analytic_latency_cycles is not None
    # The acceptance bound: mean latency within 5% of 1 + P * recovery.
    assert report.mean_latency_cycles == pytest.approx(
        report.analytic_latency_cycles, rel=0.05)
    assert report.total_cycles == (
        60000 + round(report.stall_rate * 60000))
    assert report.rejected == 0


def test_adversarial_loadgen_pins_latency_at_worst_case():
    report = run_loadgen("adversarial", ops=4000, width=32, chunk=512,
                         recovery_cycles=2, ctx=RunContext(seed=2))
    assert report.stall_rate == 1.0
    assert report.mean_latency_cycles == pytest.approx(3.0)
    assert report.analytic_stall_rate == 1.0
    assert report.total_cycles == 3 * 4000


def test_biased_loadgen_matches_biased_markov_model():
    # alpha=0.5 degenerates to uniform; use a strong bias instead.
    report = run_loadgen("biased", ops=40000, width=32, window=4,
                         alpha=0.75, chunk=2048, ctx=RunContext(seed=3))
    assert report.params["alpha"] == pytest.approx(0.75)
    assert report.analytic_stall_rate is not None
    # Biased traffic stalls far more than uniform at this window.
    assert report.stall_rate == pytest.approx(report.analytic_stall_rate,
                                              rel=0.15)
    assert report.stall_rate > 0.01


def test_attack_workload_replays_cipher_traffic():
    report = run_loadgen("attack", ops=3000, chunk=512,
                         ctx=RunContext(seed=4))
    assert report.width == 32  # ARX block halves
    assert report.ops == 3000
    assert report.analytic_stall_rate is None  # correlated, no closed form
    assert report.mean_latency_cycles >= 1.0


def test_mixed_workload_analytic_blend():
    report = run_loadgen("mixed", ops=20000, width=64,
                         adversarial_fraction=0.25, chunk=1024,
                         ctx=RunContext(seed=5))
    assert report.analytic_stall_rate == pytest.approx(0.25, rel=0.01)
    assert report.stall_rate == pytest.approx(0.25, rel=0.2)


def test_wide_width_loadgen():
    report = run_loadgen("uniform", ops=2000, width=96, chunk=256,
                         ctx=RunContext(seed=6))
    assert report.backend == "local"
    assert report.ops == 2000


def test_report_serializes_and_renders():
    report = run_loadgen("uniform", ops=1000, chunk=256,
                         ctx=RunContext(seed=7))
    payload = report.as_dict()
    assert payload["workload"] == "uniform"
    assert payload["metrics"]["ops_total"]["value"] == 1000
    text = report.render()
    assert "adds/second" in text
    assert "p50=" in text


def test_loadgen_records_context_events():
    ctx = RunContext(seed=8, label="loadgen-test")
    run_loadgen("uniform", ops=500, chunk=128, ctx=ctx)
    assert ctx.counters["loadgen_ops"] == 500
    assert any(e["kind"] == "loadgen_done" for e in ctx.events)
    assert "loadgen" in ctx.phases


def test_make_workload_validation():
    with pytest.raises(ValueError):
        make_workload("nope", 64, 18, 100)
    with pytest.raises(ValueError):
        make_workload("biased", 128, 18, 100)
    with pytest.raises(ValueError):
        make_workload("mixed", 64, 18, 100, adversarial_fraction=1.5)


def test_workload_streams_are_seeded():
    def chunks(seed):
        rng = np.random.default_rng(seed)
        wl = make_workload("uniform", 64, 18, 512, chunk=256, rng=rng)
        return [pair for chunk in wl.chunks for pair in chunk.tolist()]

    assert chunks(0) == chunks(0)
    assert chunks(0) != chunks(1)


#: SHA-256 prefixes of each stream's chunks as JSON (1000 ops in chunks
#: of 300, window 8), recorded from the generators that built Python
#: pairs: the array streams must replay the same pairs in the same
#: chunks for every seed.
STREAM_DIGESTS = {
    "uniform-64-0": "7f597b89ae3ef7fe",
    "uniform-64-1": "9c687fbe729c35df",
    "uniform-64-2": "d00680226ea178ef",
    "biased-64-0": "9de58391caa153b6",
    "biased-64-1": "6a02ef9afae16dd9",
    "biased-64-2": "d58e8715e5e2ca9d",
    "adversarial-64-0": "73f09cd639659b90",
    "adversarial-64-1": "7918c3cc7243afa1",
    "adversarial-64-2": "3a2d66940d729ee9",
    "mixed-64-0": "ed8eff243179f9a7",
    "mixed-64-1": "9020c792ce438de3",
    "mixed-64-2": "fc458844d244b230",
    "drift-64-0": "a3481b5bbe894777",
    "drift-64-1": "ff8b59d911d81219",
    "drift-64-2": "d91406c93c674aa5",
    "attack-32-0": "7d9e3e58ae5be466",
    "attack-32-1": "969ee35e0b69ac6f",
    "attack-32-2": "b9f2d0c1c26fc483",
    "uniform-96-0": "1266d5e60eaa5bae",
    "uniform-96-1": "0b48ecff794d9e92",
    "uniform-96-2": "17620841104a9c67",
    "adversarial-96-0": "2e91abaa26129be4",
    "adversarial-96-1": "990c1ed34dfcd09e",
    "adversarial-96-2": "26eb11bc86d4a451",
    "mixed-96-0": "0fba64979128c7b6",
    "mixed-96-1": "3a297f3af1fac951",
    "mixed-96-2": "8e37531edf280505",
}


@pytest.mark.parametrize("name,width", sorted({
    tuple(key.rsplit("-", 2)[:2]) for key in STREAM_DIGESTS}))
def test_workload_streams_yield_arrays_of_the_recorded_pairs(name, width):
    width = int(width)
    for seed in range(3):
        wl = make_workload(name, width, 8, 1000, chunk=300,
                           rng=np.random.default_rng(seed))
        chunks = list(wl.chunks)
        for chunk in chunks:
            assert isinstance(chunk, np.ndarray)
            assert chunk.dtype == (np.uint64 if width <= 64 else object)
            assert chunk.ndim == 2 and chunk.shape[1] == 2
        text = json.dumps([chunk.tolist() for chunk in chunks])
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == STREAM_DIGESTS[f"{name}-{width}-{seed}"]
