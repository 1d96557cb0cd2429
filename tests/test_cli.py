"""CLI entry point."""

import json

import pytest

from repro import __version__
from repro.cli import main


@pytest.fixture(autouse=True)
def _results_tmpdir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


def test_table1_command(capsys, _results_tmpdir):
    assert main(["table1", "--widths", "16,32"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert (_results_tmpdir / "table1.txt").exists()


def test_theorem1_command(capsys):
    assert main(["theorem1", "--max-k", "4", "--no-save"]) == 0
    assert "closed form" in capsys.readouterr().out


def test_fig7_command(capsys):
    assert main(["fig7", "--width", "32", "--ops", "500", "--no-save"]) == 0
    assert "Timing diagram" in capsys.readouterr().out


def test_errors_command(capsys):
    assert main(["errors", "--widths", "32", "--samples", "500",
                 "--no-save"]) == 0
    assert "error rates" in capsys.readouterr().out


def test_sharing_command(capsys):
    assert main(["sharing", "--widths", "32", "--no-save"]) == 0
    assert "shared" in capsys.readouterr().out


def test_attack_command(capsys):
    assert main(["attack", "--corpus", "512", "--key-bits", "4",
                 "--no-save"]) == 0
    assert "attack" in capsys.readouterr().out.lower()


def test_rtl_command(capsys):
    assert main(["rtl", "--widths", "16", "--no-save"]) == 0
    assert "flip-flops" in capsys.readouterr().out


def test_delaymodel_command(capsys):
    assert main(["delaymodel", "--no-save"]) == 0
    assert "heavy interconnect" in capsys.readouterr().out


def test_speculative_command(capsys):
    assert main(["speculative", "--width", "16", "--no-save"]) == 0
    assert "incrementer" in capsys.readouterr().out


def test_atpg_command(capsys):
    assert main(["atpg", "--no-save"]) == 0
    assert "coverage of testable" in capsys.readouterr().out


def test_no_save_writes_nothing(capsys, _results_tmpdir):
    assert main(["theorem1", "--max-k", "3", "--no-save"]) == 0
    assert list(_results_tmpdir.iterdir()) == []


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_futurework_command(capsys):
    # Uses the full default sizes; just check it runs and renders.
    assert main(["faults", "--width", "8", "--no-save"]) == 0
    assert "coverage" in capsys.readouterr().out


def test_cpu_command(capsys):
    assert main(["cpu", "--width", "32", "--no-save"]) == 0
    assert "CPI" in capsys.readouterr().out


def test_dsp_command(capsys):
    assert main(["dsp", "--no-save"]) == 0
    assert "stall" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_manifest_written_by_default(_results_tmpdir):
    assert main(["theorem1", "--max-k", "3"]) == 0
    manifest = json.loads(
        (_results_tmpdir / "theorem1_manifest.json").read_text())
    assert manifest["label"] == "theorem1"
    assert manifest["backend"] == "bigint"
    assert "theorem1" in manifest["phase_seconds"]
    assert (_results_tmpdir / "theorem1.txt").exists()


def test_manifest_flag_overrides_no_save(_results_tmpdir):
    assert main(["theorem1", "--max-k", "3", "--manifest",
                 "--no-save"]) == 0
    names = [p.name for p in _results_tmpdir.iterdir()]
    assert names == ["theorem1_manifest.json"]


def test_loadgen_command(capsys, _results_tmpdir):
    assert main(["loadgen", "--ops", "2000", "--chunk", "256"]) == 0
    out = capsys.readouterr().out
    assert "adds/second" in out
    metrics = json.loads(
        (_results_tmpdir / "loadgen_metrics.json").read_text())
    assert metrics["ops"] == 2000
    assert metrics["workload"] == "uniform"
    assert (_results_tmpdir / "loadgen_manifest.json").exists()


def test_loadgen_workload_choices_enforced():
    with pytest.raises(SystemExit):
        main(["loadgen", "--workload", "nope", "--no-save"])


def test_commands_reject_irrelevant_flags():
    # Flags are attached per command; --ops belongs to fig7/loadgen only.
    with pytest.raises(SystemExit):
        main(["table1", "--ops", "5"])
    with pytest.raises(SystemExit):
        main(["theorem1", "--width", "8"])
    with pytest.raises(SystemExit):
        main(["dsp", "--samples", "10"])


def test_per_command_help_mentions_its_flags(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["loadgen", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--workload" in out
    assert "--queue-capacity" in out


def test_serve_command_bounded_duration(capsys):
    assert main(["serve", "--port", "0", "--duration", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "vlsa_ops_total 0" in out  # prometheus dump on exit
