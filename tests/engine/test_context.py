"""RunContext: seeds, counters, phases, manifests, default context."""

import json

import numpy as np
import pytest

from repro.engine import (
    RunContext,
    get_default_context,
    resolve_rng,
    set_default_context,
    spawn_seeds,
)
from repro.engine.context import DEFAULT_SEED


def test_spawn_seeds_deterministic_and_order_free():
    a = spawn_seeds(42, 5)
    b = spawn_seeds(42, 5)
    assert a == b
    assert len(set(a)) == 5  # children are distinct
    # A prefix of a longer spawn matches: child i depends only on
    # (root, i), which is what makes sharded runs order-independent.
    assert spawn_seeds(42, 3) == a[:3]
    assert spawn_seeds(43, 5) != a


def test_spawn_seed_records_provenance():
    ctx = RunContext(seed=9)
    s0 = ctx.spawn_seed("shard0")
    s1 = ctx.spawn_seed("shard1")
    assert s0 != s1
    spawned = ctx.snapshot()["spawned_seeds"]
    assert [e["label"] for e in spawned] == ["shard0", "shard1"]
    assert [e["seed"] for e in spawned] == [s0, s1]
    # Same seed, same spawn sequence -> same children.
    ctx2 = RunContext(seed=9)
    assert ctx2.spawn_seed("x") == s0


def test_counters_accumulate():
    ctx = RunContext()
    ctx.add("gate_evals", 10)
    ctx.add("gate_evals", 5)
    ctx.add("vectors")
    assert ctx.gate_evals == 15
    assert ctx.counters["vectors"] == 1


def test_phase_timer_accumulates():
    ctx = RunContext()
    with ctx.phase("run"):
        pass
    first = ctx.phases["run"]
    with ctx.phase("run"):
        pass
    assert ctx.phases["run"] >= first
    assert set(ctx.snapshot()["phase_seconds"]) == {"run"}


def test_snapshot_is_json_serialisable(tmp_path):
    ctx = RunContext(seed=4, label="unit")
    ctx.add("gate_evals", 3)
    with ctx.phase("p"):
        pass
    path = ctx.write_manifest(str(tmp_path / "m.json"))
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    assert manifest["seed"] == 4
    assert manifest["label"] == "unit"
    assert manifest["gate_evals"] == 3
    assert "p" in manifest["phase_seconds"]
    assert manifest == ctx.as_manifest()


def test_rng_seeded_from_context_seed():
    x = RunContext(seed=123).rng.integers(0, 1 << 30)
    y = RunContext(seed=123).rng.integers(0, 1 << 30)
    assert x == y


def test_resolve_rng_precedence():
    explicit = np.random.default_rng(1)
    assert resolve_rng(explicit) is explicit
    ctx = RunContext(seed=2)
    assert resolve_rng(None, ctx) is ctx.rng
    assert resolve_rng() is get_default_context().rng


@pytest.fixture
def restore_default_context():
    original = get_default_context()
    yield
    set_default_context(original)


def test_set_default_context(restore_default_context):
    ctx = RunContext(seed=77)
    assert set_default_context(ctx) is ctx
    assert get_default_context() is ctx
    assert get_default_context().seed == 77


def test_default_seed_is_zero():
    assert DEFAULT_SEED == 0
    assert RunContext().seed == 0
