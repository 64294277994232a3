"""``BENCH_core.json`` is a deterministic snapshot: regenerating it must
reproduce the committed file exactly, and the claims it records are
asserted on the rows directly."""

import json
from pathlib import Path

import pytest

from repro.bench.harness import run_quick_bench

SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: every field a row may carry: each is a function of the program and
#: the machine model, none of the host or the clock
FIELDS = {"name", "size", "words_moved", "messages", "barriers",
          "cache_hit_rate", "words_reduction_vs_O0", "msgs_reduction_vs_O0",
          "pattern", "time_p2p", "time_collective", "modeled_makespan",
          "imbalance", "adaptations", "backend", "workers", "replay",
          "opt_level", "opt", "sessions"}


@pytest.fixture(scope="module")
def rows():
    return {row["name"]: row for row in run_quick_bench()}


def test_regenerated_rows_equal_committed_snapshot(rows):
    committed = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert list(rows.values()) == committed, (
        "the modelled counts moved; if that is intended, regenerate with "
        "`python -m repro bench -o BENCH_core.json` and commit the diff")


def test_no_row_carries_a_wall_or_host_field(rows):
    for name, row in rows.items():
        assert set(row) <= FIELDS, name


def test_opt_rows_reduce_words_and_messages(rows):
    opt_rows = [r for name, r in rows.items() if name.endswith("_opt_O2")]
    assert len(opt_rows) == 2
    for row in opt_rows:
        assert row["words_reduction_vs_O0"] > 0, row["name"]
        assert row["msgs_reduction_vs_O0"] > 0, row["name"]


def test_warm_tenants_compile_nothing(rows):
    assert rows["serve_cross_session_O2"]["cache_hit_rate"] == 1.0


def test_quick_bench_emits_autotune_rows(rows):
    auto, general, static = (rows["jacobi_imbalanced_auto"],
                             rows["jacobi_imbalanced_general"],
                             rows["jacobi_imbalanced_static"])
    assert auto["adaptations"] == 1
    assert static["adaptations"] == general["adaptations"] == 0
    # auto converges on exactly the hand-tuned layout's makespan
    assert auto["modeled_makespan"] == general["modeled_makespan"]
    assert auto["modeled_makespan"] <= static["modeled_makespan"] * 0.75
    # the remap is charged honestly: auto moves more words than static
    assert auto["words_moved"] > static["words_moved"]
