"""Tests of the differential verification engine itself.

The interesting direction is negative: a clean run must pass, and an
injected bug — elementwise *or* purely statistical — must fail the run
with an actionable report.  The statistical mutants are the acceptance
criterion for the analytic cross-check: their sums are perfect, so only
the binomial rate comparison can catch them.
"""

import json

import pytest

from repro.engine import RunContext
from repro.families import BlockSpecModel, CesaModel
from repro.mc.fastsim import AcaModel, detector_flag
from repro.service.metrics import MetricsRegistry
from repro.verify import (
    DifferentialVerifier,
    ImplResult,
    Implementation,
    VerificationError,
    available_implementations,
    default_implementations,
    make_implementation,
    register_implementation,
    unregister_implementation,
)

WIDTH, WINDOW = 16, 4


@pytest.fixture
def mutant_registry():
    """Register mutants for one test; always unregister afterwards."""
    registered = []

    def register(name, factory):
        register_implementation(name, factory)
        registered.append(name)

    yield register
    for name in registered:
        unregister_implementation(name)


class _ExactBase(Implementation):
    """Correct exact-family implementation to mutate from."""

    family = "exact"

    def __init__(self, width, window, recovery_cycles=1):
        self.width = width
        self.window = window
        self.recovery_cycles = recovery_cycles
        self.mask = (1 << width) - 1

    def run(self, pairs):
        sums, couts, flags, lats, errs = [], [], [], [], []
        for a, b in pairs:
            total = a + b
            flag = self._flag(a, b)
            sums.append(total & self.mask)
            couts.append(total >> self.width)
            flags.append(flag)
            lats.append(1 + (self.recovery_cycles if flag else 0))
            errs.append(flag and not self._spec_ok(a, b))
        return ImplResult(sums=sums, couts=couts, flags=flags,
                          latencies=lats, spec_errors=errs)

    def _flag(self, a, b):
        return detector_flag(a, b, self.width, self.window)

    def _spec_ok(self, a, b):
        from repro.mc.fastsim import aca_is_correct

        return aca_is_correct(a, b, self.width, self.window)


class LazyDetectorMutant(_ExactBase):
    """Statistically wrong: under-fires by using window+1.

    Sums stay exact and no per-vector flags are exposed, so elementwise
    comparison sees nothing — only the stall-count rate check can catch
    it (a real hardware bug class: the detector samples one strip late).
    """

    def run(self, pairs):
        res = super().run(pairs)
        stalls = sum(
            1 for a, b in pairs
            if detector_flag(a, b, self.width, self.window + 1))
        return ImplResult(sums=res.sums, couts=res.couts,
                          stall_count=stalls)


class WrongSumMutant(_ExactBase):
    """Elementwise wrong: flips the LSB whenever bit 3 of ``a`` is set."""

    def run(self, pairs):
        res = super().run(pairs)
        res.sums = [s ^ 1 if (a >> 3) & 1 else s
                    for s, (a, _) in zip(res.sums, pairs)]
        return res


class CrashingMutant(_ExactBase):
    """Raises on every chunk (a broken implementation, not a wrong one)."""

    def run(self, pairs):
        raise RuntimeError("boom")


# ----------------------------------------------------------------------
def test_clean_run_passes_and_counts_coverage():
    ctx = RunContext(seed=7, label="test")
    registry = MetricsRegistry()
    verifier = DifferentialVerifier(WIDTH, window=WINDOW, ctx=ctx,
                                    registry=registry)
    streams = ("uniform", "adversarial", "boundary")
    report = verifier.run(vectors=400, streams=streams, chunk=128)

    assert report.ok
    assert report.mismatch_count == 0 and not report.discrepancies
    n_impls = len(default_implementations(WIDTH))
    assert len(report.coverage) == n_impls
    for cov in report.coverage:
        assert cov.vectors == 400 * len(streams)
        assert set(cov.per_stream) == set(streams)
    # The uniform rate checks ran: reference error+flag, plus one per
    # exact-family implementation.
    names = {rc.name for rc in report.rate_checks}
    assert {"error_rate/reference", "detector_rate/reference"} <= names
    assert "detector_rate/service:numpy" in names
    # Instrumentation reached both the context and the registry.
    assert ctx.counters["verify_vectors"] == 400 * len(streams) * n_impls
    assert ctx.counters["verify_mismatches"] == 0
    assert registry.counter("verify_vectors_total", "").value > 0
    assert registry.counter("verify_mismatches_total", "").value == 0


def test_report_is_json_serialisable():
    report = DifferentialVerifier(WIDTH, window=WINDOW).run(
        vectors=64, streams=("uniform",))
    blob = json.dumps(report.as_dict())
    parsed = json.loads(blob)
    assert parsed["ok"] is True
    assert parsed["width"] == WIDTH and parsed["window"] == WINDOW


def test_statistical_mutant_caught_without_any_mismatch(mutant_registry):
    """The acceptance-criterion mutation test.

    The mutant's sums are all exact, so the elementwise oracle is blind;
    the binomial cross-check against the analytic detector rate must be
    what fails the run.
    """
    mutant_registry("mutant:lazy", LazyDetectorMutant)
    registry = MetricsRegistry()
    verifier = DifferentialVerifier(
        WIDTH, window=WINDOW, impls=("functional", "mutant:lazy"),
        registry=registry)
    report = verifier.run(vectors=4000, streams=("uniform",))

    assert report.mismatch_count == 0          # sums were perfect ...
    assert not report.ok                        # ... and it still failed
    bad = [rc for rc in report.stat_failures]
    assert bad and all(rc.name == "detector_rate/mutant:lazy"
                       for rc in bad)
    assert registry.counter("verify_stat_failures_total", "").value >= 1


def test_elementwise_mutant_yields_shrunk_reproducer(mutant_registry):
    mutant_registry("mutant:sum", WrongSumMutant)
    verifier = DifferentialVerifier(WIDTH, window=WINDOW,
                                    impls=("mutant:sum",))
    report = verifier.run(vectors=300, streams=("uniform",), seed=5)

    assert not report.ok and report.mismatch_count > 0
    disc = next(d for d in report.discrepancies if d.kind == "sum")
    assert disc.impl == "mutant:sum" and disc.stream == "uniform"
    # The recorded vector triggers the bug condition ...
    assert (disc.a >> 3) & 1
    # ... and the minimised reproducer still does, at minimal weight.
    assert disc.shrunk_a is not None
    assert (disc.shrunk_a >> 3) & 1
    assert bin(disc.shrunk_a).count("1") == 1 and disc.shrunk_b == 0
    # Replaying the reproducer through the mutant re-triggers the bug.
    impl = make_implementation("mutant:sum", WIDTH, WINDOW)
    res = impl.run([(disc.shrunk_a, disc.shrunk_b)])
    assert res.sums[0] != (disc.shrunk_a + disc.shrunk_b) & 0xFFFF


def test_registry_lists_builtins_and_rejects_unknown():
    names = available_implementations()
    for expected in ("functional", "interpreter", "service:numpy",
                     "engine:bigint"):
        assert expected in names
    with pytest.raises(KeyError, match="no implementation registered"):
        make_implementation("nonsense", WIDTH, WINDOW)
    with pytest.raises(ValueError, match="refusing"):
        unregister_implementation("functional")


def test_mutants_never_leak_into_defaults(mutant_registry):
    mutant_registry("mutant:leak", WrongSumMutant)
    assert "mutant:leak" in available_implementations()
    assert "mutant:leak" not in default_implementations(WIDTH)


def test_default_rows_are_the_five_paths_at_every_width():
    for width in (16, 64, 96):
        assert default_implementations(width) == [
            "engine:bigint", "functional", "interpreter", "recovery",
            "service:numpy"]


def test_verification_error_carries_the_report(mutant_registry):
    mutant_registry("mutant:sum2", WrongSumMutant)
    report = DifferentialVerifier(WIDTH, window=WINDOW,
                                  impls=("mutant:sum2",)).run(
        vectors=200, streams=("uniform",))
    err = VerificationError(report)
    assert err.report is report
    assert "mismatches" in str(err)


def test_crashing_implementation_is_reported_not_raised(mutant_registry):
    mutant_registry("mutant:crash", CrashingMutant)
    report = DifferentialVerifier(
        WIDTH, window=WINDOW, impls=("functional", "mutant:crash")).run(
        vectors=300, streams=("uniform",), chunk=100)

    assert not report.ok
    rows = {c.impl: c for c in report.coverage}
    assert rows["functional"].mismatches == 0
    assert rows["mutant:crash"].mismatches == 3  # one per chunk
    assert rows["mutant:crash"].vectors == 300
    disc = report.discrepancies[0]
    assert (disc.kind, disc.impl, disc.index) == ("crash", "mutant:crash", 0)
    assert disc.got.startswith("Traceback")
    assert disc.got.endswith("RuntimeError: boom\n")


def _rows_with_mismatches(monkeypatch, attr, fault, width=WIDTH):
    """Default run with one fault injected into ``AcaModel``."""
    monkeypatch.setattr(AcaModel, attr, fault)
    report = DifferentialVerifier(width, ctx=RunContext(seed=3),
                                  shrink=False).run(vectors=2000, seed=3)
    assert not report.ok
    return {c.impl for c in report.coverage if c.mismatches}


def test_narrow_window_fault_in_shared_model_is_caught(monkeypatch):
    """The oracle does not share the functional model, so a wrong
    speculative sum in it surfaces on every row that uses it."""
    add = AcaModel.add

    def narrow_add(self, a, b, cin=0):
        return add(AcaModel(self.width, self.window - 1), a, b, cin)

    rows = _rows_with_mismatches(monkeypatch, "add", narrow_add)
    assert {"functional"} <= rows


def test_silent_detector_fault_in_shared_model_is_caught(monkeypatch):
    rows = _rows_with_mismatches(monkeypatch, "flags_error",
                                 lambda self, a, b: False)
    assert {"functional"} <= rows


_ACA_ADD = AcaModel.add


def _narrow_add(self, a, b, cin=0):
    return _ACA_ADD(AcaModel(self.width, self.window - 1), a, b, cin)


@pytest.mark.parametrize("attr, fault, expected", [
    ("add", _narrow_add, {"functional"}),
    ("flags_error", lambda self, a, b: False, {"functional"}),
], ids=["narrow-window", "silent-detector"])
def test_model_faults_caught_at_benchmarked_width(monkeypatch, attr, fault,
                                                   expected):
    """The same faults at width 64, where the rows run on uint64
    lanes."""
    assert expected <= _rows_with_mismatches(monkeypatch, attr, fault,
                                             width=64)


def _exact_add(self, a, b, cin=0):
    """An adder that never mis-speculates."""
    return self.exact(a, b, cin)


@pytest.mark.parametrize("family, model, attr, fault", [
    ("blockspec", BlockSpecModel, "flags_error", lambda self, a, b: False),
    ("cesa", CesaModel, "add", _exact_add),
], ids=["blockspec-silent-detector", "cesa-exact-add"])
def test_block_model_faults_caught_at_benchmarked_width(
        monkeypatch, family, model, attr, fault):
    """Faults in the block families' model wrappers reach every row
    that runs the model on uint64 lanes at width 64."""
    monkeypatch.setattr(model, attr, fault)
    report = DifferentialVerifier(64, family=family, ctx=RunContext(seed=3),
                                  shrink=False).run(vectors=2000, seed=3)
    assert not report.ok
    rows = {c.impl for c in report.coverage if c.mismatches}
    assert {"functional"} <= rows


class DropLastMutant(_ExactBase):
    """Answers every vector of a chunk but the last (a transpose that
    loses its padding tail)."""

    def run(self, pairs):
        return super().run(list(pairs)[:-1])


class ExtraResultMutant(_ExactBase):
    """Answers one vector too many per chunk."""

    def run(self, pairs):
        pairs = list(pairs)
        return super().run(pairs + pairs[-1:])


@pytest.mark.parametrize("mutant, got", [
    (DropLastMutant, 255), (ExtraResultMutant, 257),
], ids=["shorter", "longer"])
def test_wrong_result_count_is_a_length_mismatch(mutant_registry, mutant,
                                                  got):
    """Every value the mutant returns is right, so only the result count
    can fail it: one ``length`` discrepancy per chunk."""
    mutant_registry("mutant:length", mutant)
    report = DifferentialVerifier(
        WIDTH, window=WINDOW, impls=("functional", "mutant:length")).run(
        vectors=1000, streams=("uniform",), chunk=256)

    assert not report.ok
    rows = {c.impl: c for c in report.coverage}
    assert rows["functional"].mismatches == 0
    assert rows["mutant:length"].mismatches == 4  # chunks of 256 .. 232
    assert rows["mutant:length"].vectors == 1000
    assert report.mismatch_count == 4
    assert {d.kind for d in report.discrepancies} == {"length"}
    first = report.discrepancies[0]
    columns = ("sum", "cout", "flag", "latency", "spec_error")
    assert first.expected == {k: 256 for k in columns}
    assert first.got == {k: got for k in columns}
    assert first.index == 255
    assert report.discrepancies[-1].index == 999


def test_registering_before_the_builtins_load_stays_external(monkeypatch):
    from repro.verify import differential

    monkeypatch.setattr(differential, "_FACTORIES", {})
    monkeypatch.setattr(differential, "_BUILTIN", [])
    register_implementation("my_mutant", WrongSumMutant)

    assert "my_mutant" not in default_implementations(WIDTH)
    assert "my_mutant" in available_implementations()
    assert "functional" in default_implementations(WIDTH)
    unregister_implementation("my_mutant")
    assert "my_mutant" not in available_implementations()
    with pytest.raises(ValueError, match="refusing"):
        unregister_implementation("functional")
