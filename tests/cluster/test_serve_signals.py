"""Graceful-shutdown contract of ``python -m repro serve``.

SIGINT/SIGTERM must drain the queue, stop the batcher (or cluster),
flush the manifest and exit 0 — for the single-process service and the
multi-process cluster alike.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _spawn_serve(tmp_path, workers):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO, "src"),
               REPRO_RESULTS_DIR=str(tmp_path))
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--width", "32", "--window", "8", "--duration", "120"]
    if workers:
        cmd += ["--workers", str(workers)]
    proc = subprocess.Popen(cmd, env=env, cwd=REPO, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    port = None
    deadline = time.time() + 90
    seen = []
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        seen.append(line)
        m = re.search(r"listening on [\w.]+:(\d+)", line)
        if m:
            port = int(m.group(1))
            break
    if port is None:
        proc.kill()
        raise AssertionError(f"server never listened: {seen!r}")
    return proc, port


def _roundtrip(port, n=20):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        f = s.makefile("rw")
        for i in range(n):
            f.write(json.dumps({"a": i, "b": 100 + i, "id": i}) + "\n")
        f.flush()
        for i in range(n):
            reply = json.loads(f.readline())
            assert reply["sum"] == 100 + 2 * i, reply
        f.write(json.dumps({"cmd": "info"}) + "\n")
        f.flush()
        return json.loads(f.readline())


@pytest.mark.parametrize("workers,sig", [
    (0, signal.SIGINT),
    (0, signal.SIGTERM),
    (2, signal.SIGTERM),
])
def test_serve_signal_drains_and_exits_clean(tmp_path, workers, sig):
    proc, port = _spawn_serve(tmp_path, workers)
    try:
        info = _roundtrip(port)
        if workers:
            assert info["backend"].startswith(f"cluster:{workers}x")
        else:
            assert info["backend"] == "local"
        proc.send_signal(sig)
        out, err = proc.communicate(timeout=90)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert "signal received; drained and shut down" in err
    # Served ops survived into the final metrics dump on stdout.
    assert "vlsa_ops_total 20" in out, out[:800]
    manifest = tmp_path / "serve_manifest.json"
    assert manifest.exists()
    json.loads(manifest.read_text())
