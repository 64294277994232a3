"""The CLI paths the wire and Session tests do not reach: ``repro serve``
driven by ``repro submit`` in separate processes, and ``repro tune`` on
a Python program (the runpy path under ``REPRO_TUNE=1``)."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.serve import ServiceClient

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


def _repro(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=ROOT,
                          env=ENV, capture_output=True, text=True,
                          timeout=60)


def _wait_until_up(client: ServiceClient, server: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30
    while True:
        try:
            if client.ping():
                return
        except (OSError, EOFError):
            assert server.poll() is None, "repro serve exited early"
            assert time.monotonic() < deadline, "repro serve never came up"
            time.sleep(0.01)


def test_serve_submit_stats_shutdown(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    # relative: AF_UNIX paths are limited to ~100 bytes
    socket = os.path.relpath(tmp_path / "serve.sock", ROOT)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket],
        cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        _wait_until_up(ServiceClient(socket), server)

        run = _repro("submit", "examples/jacobi_do.hpf", "-D", "N=16",
                     "--socket", socket)
        assert run.returncode == 0, run.stderr
        assert any(line.startswith("plan store:")
                   for line in run.stdout.splitlines()), run.stdout

        stats = _repro("submit", "--stats", "--socket", socket)
        assert stats.returncode == 0, stats.stderr
        assert "hit_rate=" in stats.stdout

        down = _repro("submit", "--shutdown", "--socket", socket)
        assert down.returncode == 0, down.stderr
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def test_tune_python_program():
    proc = _repro("tune", "examples/load_balancing.py")
    assert proc.returncode == 0, proc.stderr
    assert "ADAPT X -> GENERAL_BLOCK(" in proc.stdout
