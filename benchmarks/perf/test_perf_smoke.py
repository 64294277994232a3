"""Self-check of the benchmark (not part of tier-1: run it explicitly with
``PYTHONPATH=src python -m pytest benchmarks/perf``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402


def _texts(seed: int) -> list[str]:
    return [p.text for p in corpus.generate(seed)]


def test_corpus_is_deterministic_per_seed():
    assert _texts(5) == _texts(5)
    assert _texts(5) != _texts(6)
    shares: dict[str, int] = {}
    for prog in corpus.generate(5):
        shares[prog.family] = shares.get(prog.family, 0) + 1
    assert shares == corpus.FAMILY_SHARES
    assert [p.text for p in corpus.catalogue()] == \
        [p.text for p in corpus.catalogue()]


def test_closed_forms_and_oracle_agree():
    # 2x2 BLOCK Jacobi at N=512: the figure the issue quotes
    assert reference.halo_words(512, 2, 2) == 2040
    # the owner oracle reproduces the transposition closed form
    block, colon = corpus.BLOCK, corpus.COLON
    assert reference.remap_words((256, 256), (block, colon),
                                 (colon, block), 8) \
        == reference.transposition_words(256, 8) == 256 * 256 * 7 // 8


def test_benchmark_json_names_every_metric_the_driver_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/perf"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.PER_LAYER_UNITS
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) == set(layers.EXERCISED) == set(layers.BYPASSED)
    for name in names:
        assert not layers.EXERCISED[name] & layers.BYPASSED[name]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s", "first_op_s": "s", "op_ms": "ms",
        "ops_per_s": "1/s", "numpy_ratio": "ratio", "peak_rss_mb": "MB",
        "ok_share": "share", "charged_words_per_op": "words",
        "charged_msgs_per_op": "count", "modeled_time_per_op": "model"}


def test_smoke_run_passes():
    """Every workload, one short traced slice: all metrics emitted with
    their units, reference checks pass, exercised layers > 0 and
    bypassed layers == 0."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: PASS")
