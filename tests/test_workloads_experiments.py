"""Tests for workload generators, the experiment registry and the CLI."""

import numpy as np
import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.harness import ExperimentResult, format_table
from repro.cli import main as cli_main
from repro.workloads.generators import seeded_rng
from repro.workloads.irregular import (
    imbalance_of_partition,
    power_law_costs,
    stepped_costs,
    triangular_costs,
)
from repro.workloads.stencil import jacobi_case, staggered_grid_case


class TestWorkloads:
    def test_triangular_costs(self):
        c = triangular_costs(5)
        np.testing.assert_array_equal(c, [1, 2, 3, 4, 5])

    def test_power_law(self):
        c = power_law_costs(4, 2.0)
        np.testing.assert_array_equal(c, [1, 4, 9, 16])

    def test_stepped_deterministic(self):
        a = stepped_costs(100, seed=3)
        b = stepped_costs(100, seed=3)
        np.testing.assert_array_equal(a, b)
        assert (a == 50.0).sum() == 10

    def test_imbalance_metric(self):
        costs = np.ones(8)
        owners = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        ratio, work = imbalance_of_partition(costs, owners, 2)
        assert ratio == 1.0
        np.testing.assert_array_equal(work, [4, 4])

    def test_seeded_rng_reproducible(self):
        assert seeded_rng("k", 1).integers(1 << 30) == \
            seeded_rng("k", 1).integers(1 << 30)

    def test_staggered_strategies_build(self):
        for strategy in ("template-cyclic", "template-block",
                         "direct-block", "direct-hpf-block",
                         "direct-cyclic", "direct-general-block",
                         "max-align"):
            case = staggered_grid_case(8, 2, 2, strategy)
            assert case.statement.iteration_size(case.ds) == 64

    def test_staggered_unknown_strategy(self):
        from repro.errors import MappingError
        with pytest.raises(MappingError):
            staggered_grid_case(8, 2, 2, "nope")

    def test_jacobi_case(self):
        case = jacobi_case(16, 2, 2)
        assert case.statement.iteration_size(case.ds) == 14 * 14

    def test_template_strategies_carry_tds(self):
        case = staggered_grid_case(8, 2, 2, "template-cyclic")
        assert case.tds is not None
        assert "T" in case.tds.templates


class TestHarness:
    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_result_render_and_checks(self):
        r = ExperimentResult(rows=[{"v": 1.23456}], headline="h",
                             checks={"ok": True}, experiment="EX",
                             title="t")
        text = r.render()
        assert "EX" in text and "PASS" in text
        assert r.all_checks_pass
        r.checks["bad"] = False
        assert not r.all_checks_pass


class TestExperimentRegistry:
    def test_registry_complete(self):
        assert list(EXPERIMENTS) == [f"E{i}" for i in range(1, 13)]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    # Every experiment at the size `python -m repro --all` prints; all
    # paper-claim checks must PASS.  The ids keep the suite's historical
    # "<id>-kwargs<i>" form so test reports stay comparable.
    @pytest.mark.parametrize(
        "exp_id", list(EXPERIMENTS),
        ids=[f"{e}-kwargs{i}" for i, e in enumerate(EXPERIMENTS)])
    def test_experiment_checks_pass(self, exp_id):
        result = run_experiment(exp_id)
        failing = [k for k, v in result.checks.items() if not v]
        assert not failing, f"{exp_id} failing checks: {failing}"
        assert result.rows, f"{exp_id} produced no rows"
        assert result.title == EXPERIMENTS[exp_id][0]
        assert result.render()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E8" in out and "E12" in out

    def test_single_experiment(self, capsys):
        assert cli_main(["--experiment", "E4"]) == 0
        assert "CYCLIC" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--experiment", "E99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'E99'; choose from E1, " in err

    def test_no_args_shows_help(self, capsys):
        assert cli_main([]) == 2

    def test_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert cli_main(["--experiment", "E4",
                         "--output", str(out_file)]) == 0
        text = out_file.read_text()
        assert "E4" in text and "PASS" in text
