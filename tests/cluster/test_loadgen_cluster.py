"""loadgen --target cluster: every workload drives the real pool."""

import pytest

from repro.engine import RunContext
from repro.service import run_loadgen

WIDTH, WINDOW = 32, 8


def _cluster_report(workload, ops, **kw):
    kw.setdefault("width", WIDTH)
    kw.setdefault("window", WINDOW)
    return run_loadgen(workload, ops=ops, target="cluster", workers=2,
                       chunk=512, concurrency=4,
                       ctx=RunContext(seed=11), **kw)


def test_cluster_target_uniform_full_accounting():
    report = _cluster_report("uniform", 6000)
    assert report.ops == 6000
    assert report.backend == "cluster:2"
    assert report.params["target"] == "cluster"
    assert report.params["workers"] == 2
    # A healthy run touches none of the failure paths.
    assert report.params["worker_restarts"] == 0
    assert report.params["worker_failures"] == 0
    assert report.params["degraded_requests"] == 0
    assert report.params["failed_requests"] == 0
    assert report.rejected == 0
    # The pool still honours the analytic stall model.
    assert report.analytic_stall_rate is not None
    assert report.stall_rate == pytest.approx(report.analytic_stall_rate,
                                              abs=0.02)


@pytest.mark.parametrize("workload", ["adversarial", "mixed", "attack"])
def test_cluster_target_other_workloads(workload):
    report = _cluster_report(workload, 2000)
    assert report.ops == 2000
    assert report.backend == "cluster:2"
    assert report.mean_latency_cycles >= 1.0
    if workload == "adversarial":
        assert report.stall_rate == 1.0


def test_cluster_target_shard_policies():
    for policy in ("least_loaded", "hash"):
        report = _cluster_report("uniform", 2000, shard_policy=policy)
        assert report.ops == 2000
        assert report.params["shard_policy"] == policy


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        run_loadgen("uniform", ops=10, target="mainframe")
