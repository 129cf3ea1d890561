"""Tests for the bench harness, experiment definitions, and the CLI."""

import pytest

from repro.bench import (
    ExperimentOutcome,
    RunRow,
    default_recommendation,
    execute_experiment,
    format_outcome,
    format_paper_comparison,
)
from repro.bench.experiments import (
    FIG10_RATE_CONTROL,
    FIG11_REORDERING,
    TABLE3_EXPECTED,
    make_synthetic,
    make_usecase,
    synthetic_spec,
    usecase_plans,
)
from repro.cli import main
from repro.core import BlockOptR, OptimizationKind as K
from repro.fabric import run_workload
from repro.workloads.spec import WorkloadType


class TestExperimentSpecs:
    def test_all_table3_experiments_resolvable(self):
        for name in TABLE3_EXPECTED:
            spec = synthetic_spec(name)
            assert spec.total_transactions > 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            synthetic_spec("nope")

    def test_policy_experiments_use_four_orgs(self):
        assert synthetic_spec("endorsement_policy_p1").num_orgs == 4
        assert synthetic_spec("endorsement_policy_p2_skew").endorser_dist_skew == 6.0

    def test_workload_experiments_set_type(self):
        spec = synthetic_spec("workload_rangeread_heavy")
        assert spec.workload_type is WorkloadType.RANGEREAD_HEAVY

    def test_phased_experiment(self):
        spec = synthetic_spec("send_rate_500_1000")
        assert spec.send_rate_phases is not None
        assert sum(count for count, _ in spec.send_rate_phases) == spec.total_transactions

    def test_paper_value_tables_have_without_rows(self):
        for table in (FIG10_RATE_CONTROL, FIG11_REORDERING):
            for experiment, rows in table.items():
                assert "without" in rows, experiment

    def test_usecase_plans_known(self):
        for usecase in ("scm", "drm", "ehr", "voting", "loan", "synthetic"):
            assert usecase_plans(usecase)
        with pytest.raises(KeyError):
            usecase_plans("nope")

    def test_make_usecase_unknown(self):
        with pytest.raises(KeyError):
            make_usecase("nope")()

    @pytest.mark.parametrize("maker", ["synthetic", "scenario", "usecase", "loan"])
    def test_every_maker_returns_config_family_and_requests(self, maker):
        """One bundle shape for every maker: a scenario rides on the config."""
        from repro.bench.experiments import MAKERS
        from repro.bench.registry import all_specs
        from repro.contracts.registry import ContractFamily
        from repro.fabric.config import NetworkConfig
        from repro.fabric.transaction import TxRequest

        assert maker in MAKERS
        spec = next(spec for spec in all_specs() if spec.maker == maker)
        bundle = spec.with_overrides(total_transactions=200).make_bundle()()
        assert len(bundle) == 3
        config, family, requests = bundle
        assert isinstance(config, NetworkConfig)
        assert isinstance(family, ContractFamily)
        assert requests and all(isinstance(r, TxRequest) for r in requests)
        assert (config.scenario is not None) == (maker == "scenario")


class TestHarness:
    @pytest.fixture(scope="class")
    def small_outcome(self):
        make = make_usecase("voting", total_transactions=500, seed=3)
        plans = [("data model alteration", (K.DATA_MODEL_ALTERATION,))]
        return execute_experiment(
            "test-dv", make, plans, paper={"without": (4.2, 4.6, 10.2)}
        )

    def test_outcome_rows(self, small_outcome):
        assert small_outcome.rows[0].label == "without"
        assert len(small_outcome.rows) == 2
        assert small_outcome.row("data model alteration").success_pct > (
            small_outcome.row("without").success_pct
        )

    def test_missing_row_raises(self, small_outcome):
        with pytest.raises(KeyError):
            small_outcome.row("missing")

    def test_formatting(self, small_outcome):
        text = format_outcome(small_outcome)
        assert "test-dv" in text and "without" in text
        comparison = format_paper_comparison(small_outcome)
        assert "paper tput" in comparison
        assert "4.6" in comparison

    def test_default_recommendations_constructible(self):
        make = make_synthetic("default", seed=3)
        config, family, requests = make()
        spec = synthetic_spec("default", seed=3)
        spec.total_transactions = 400
        from repro.workloads import synthetic_workload

        config, family, requests = synthetic_workload(spec)
        network, _ = run_workload(config, family.deploy().contracts, requests)
        report = BlockOptR().analyze_network(network)
        for kind in K:
            rec = default_recommendation(kind, report)
            assert rec.kind is kind


class TestCli:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--usecase", "voting", "--transactions", "400"]) == 0
        out = capsys.readouterr().out
        assert "without" in out

    def test_analyze_exported_log(self, tmp_path, capsys, finished_network):
        from repro.logs import extract_blockchain_log, log_to_csv

        network, _ = finished_network
        path = tmp_path / "log.csv"
        log_to_csv(extract_blockchain_log(network), path)
        assert main(["analyze", str(path)]) == 0
        assert "BlockOptR analysis" in capsys.readouterr().out

    def test_export_conversion(self, tmp_path, capsys, finished_network):
        from repro.logs import extract_blockchain_log, log_from_json, log_to_csv

        network, _ = finished_network
        csv_path = tmp_path / "log.csv"
        json_path = tmp_path / "log.json"
        log_to_csv(extract_blockchain_log(network), csv_path)
        assert main(["export", str(csv_path), "--out", str(json_path)]) == 0
        assert len(log_from_json(json_path)) == 200

    @pytest.mark.parametrize(
        "command, log",
        [
            ("analyze", "missing"),
            ("analyze", "empty"),
            ("analyze", "header-only"),
            ("analyze", "short-row"),
            ("analyze", "txt-suffix"),
            ("export", "missing"),
            ("export", "empty"),
            ("export", "short-row"),
        ],
    )
    def test_unreadable_log_is_one_error_line(
        self, tmp_path, capsys, finished_network, command, log
    ):
        """A log that cannot be read exits 2 with one line naming it, no traceback."""
        import csv

        from repro.logs import extract_blockchain_log, log_to_csv

        network, _ = finished_network
        exported = tmp_path / "exported.csv"
        log_to_csv(extract_blockchain_log(network), exported)
        with open(exported, newline="") as handle:
            rows = list(csv.reader(handle))
        path = tmp_path / ("log.txt" if log == "txt-suffix" else f"{log}.csv")
        edited = {
            "empty": [],
            "header-only": rows[:2],
            "short-row": [*rows[:3], rows[3][:-1], *rows[4:]],
            "txt-suffix": rows,
        }
        if log in edited:
            with open(path, "w", newline="") as handle:
                csv.writer(handle).writerows(edited[log])
        argv = [command, str(path)]
        if command == "export":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err

    def test_export_to_a_missing_directory_is_one_error_line(
        self, tmp_path, capsys, finished_network
    ):
        from repro.logs import extract_blockchain_log, log_to_csv

        network, _ = finished_network
        source = tmp_path / "log.csv"
        log_to_csv(extract_blockchain_log(network), source)
        out = tmp_path / "missing" / "out.json"
        assert main(["export", str(source), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out}: No such file or directory\n"

    def test_bad_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_suite_list(self, capsys):
        assert main(["suite", "--list", "--only", "fig09"]) == 0
        out = capsys.readouterr().out
        assert "fig09_block_size/block_count_50" in out
        assert "4 experiments" in out

    def test_suite_list_total_is_what_a_cold_suite_simulates(self, tmp_path, capsys):
        """Table 3 and Figures 11 and 12 share the ``block_count_1000``
        bundle and one plan: three experiments, five listed runs, two
        simulated."""
        only = ["--only", "table3/block_count_1000,fig11_reordering/block_count_1000,"
                "fig12_combined/block_count_1000", "--txs", "200"]
        assert main(["suite", "--list", *only]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert sum(int(line.split("runs=")[1].split()[0]) for line in listed[:-1]) == 5
        assert listed[-1] == "3 experiments, 2 simulation runs when cold"
        assert main(["suite", *only, "--cache-dir", str(tmp_path), "--quiet"]) == 0
        assert ", 2 simulation runs," in capsys.readouterr().out

    def test_suite_seed_runs_every_experiment_at_that_seed(self, capsys):
        """``--seed N`` runs every experiment at seed N, as a matrix cell
        does: at the registry's seed it lists what no ``--seed`` lists,
        and at another seed the experiments that build one bundle still
        share it."""
        assert main(["suite", "--list"]) == 0
        pinned = capsys.readouterr().out
        assert main(["suite", "--list", "--seed", "7"]) == 0
        assert capsys.readouterr().out == pinned
        assert main(["suite", "--list", "--seed", "3"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed[-1] == "106 experiments, 149 simulation runs when cold"

    def test_suite_and_matrix_share_the_executor_flags(self):
        """The four executor flags: the same names and defaults on both."""
        from repro.cli import build_parser

        parser = build_parser()
        shared = ("jobs", "no_cache", "cache_dir", "clear_cache")
        flags = ["--jobs", "2", "--no-cache", "--cache-dir", "d", "--clear-cache"]
        for extra, expected in (([], [1, False, None, False]), (flags, [2, True, "d", True])):
            for argv in (["suite", *extra], ["matrix", "--spec", "m.yaml", *extra]):
                parsed = parser.parse_args(argv)
                assert [getattr(parsed, name) for name in shared] == expected

    def test_suite_runs_and_caches(self, tmp_path, capsys):
        args = [
            "suite",
            "--only", "fig08",
            "--txs", "300",
            "--jobs", "2",
            "--cache-dir", str(tmp_path),
            "--quiet",
        ]
        assert main(args) == 0
        assert "1 experiments" in capsys.readouterr().out
        assert main(args) == 0  # warm: everything served from cache
        assert "0 simulation runs" in capsys.readouterr().out

    def test_suite_unknown_only_token(self, capsys):
        # Exit 1 (selection error), distinct from exit 2 (bad arguments):
        # a typo must fail loudly before any simulation runs.
        assert main(["suite", "--only", "fig99", "--no-cache"]) == 1
        assert "fig99" in capsys.readouterr().err

    def test_suite_only_lists_every_unmatched_token(self, capsys):
        assert main(["suite", "--only", "fig99,fig09,also_bogus", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "fig99" in err and "also_bogus" in err
        assert "known groups" in err

    def test_suite_only_blank_selection_rejected(self, capsys):
        assert main(["suite", "--only", " , ", "--no-cache"]) == 1
        assert "empty" in capsys.readouterr().err
