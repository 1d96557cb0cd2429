"""Differential verification of the cluster implementation.

The cluster must be bit-identical to the single-process numpy service
on fuzz vectors and exhaustively at tiny widths — the ISSUE's bar for
registering it as a first-class implementation.
"""

import os

import pytest

from repro.cluster.sync import close_shared_cluster
from repro.verify.differential import (
    DifferentialVerifier,
    available_implementations,
    run_exhaustive,
)


@pytest.fixture(autouse=True, scope="module")
def _cluster_pool():
    os.environ["REPRO_CLUSTER_VERIFY_WORKERS"] = "2"
    yield
    close_shared_cluster()
    os.environ.pop("REPRO_CLUSTER_VERIFY_WORKERS", None)


def test_cluster_is_registered():
    impls = available_implementations()
    assert "cluster" in impls


def test_cluster_fuzz_matches_service_numpy():
    verifier = DifferentialVerifier(
        width=16, window=4, impls=["service:numpy", "cluster"])
    report = verifier.run(
        vectors=1500, seed=0xBEEF,
        streams=["uniform", "adversarial", "boundary"])
    assert report.ok, report.render()
    assert report.mismatch_count == 0
    # Every implementation actually ran every stream's vectors.
    for cov in report.coverage:
        assert cov.vectors >= 3 * 1500


def test_cluster_exhaustive_tiny_width():
    report = run_exhaustive(
        widths=[3], impls=["service:numpy", "cluster"])
    assert report.ok, report.render()
    assert report.mismatch_count == 0
    # Complete cells carry the analytic expected counts and match them.
    assert report.exhaustive
    for cell in report.exhaustive:
        assert cell.complete
        assert cell.error_count == cell.expected_error_count
        assert cell.flag_count == cell.expected_flag_count
