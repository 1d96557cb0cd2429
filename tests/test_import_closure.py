"""Import-closure guard: what serving start-up and the verifier load.

A ``repro serve --workers N`` parent parses argv, and every spawned
worker imports ``repro.cluster.supervisor`` and ``repro.cluster.worker``
before it can heartbeat.  Neither needs netlists, adders, experiments,
the load generator or the bench harness; loading them cost ~0.15 s per
process.  The verifier is the opposite case: it imports its gate-level
dependencies up front, so none lands inside its (timed) set-up.

Each check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Packages and modules that serving start-up must not import.
HEAVY = ("repro.circuit", "repro.core", "repro.adders", "repro.experiments",
         "repro.service.loadgen", "repro.bench")

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def _modules_after(code):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import repro.cluster.supervisor, repro.cluster.worker",
    "import repro.cli; repro.cli._build_parser().parse_args(['serve'])",
], ids=["worker", "cli-parse"])
def test_serving_start_up_skips_the_netlist_stack(code):
    loaded = _modules_after(code)
    heavy = [m for m in loaded
             if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == []


def test_verifier_set_up_imports_nothing_new():
    loaded = _modules_after("""
import sys
import repro.verify
from repro.verify import DifferentialVerifier
before = set(sys.modules)
report = DifferentialVerifier(width=64).run(
    vectors=4096, streams=("uniform",), seed=1, chunk=4096)
assert report.ok
new = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
assert not new, new
""")
    assert "repro.verify.differential" in loaded
