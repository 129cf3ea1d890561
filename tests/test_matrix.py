"""Declarative experiment matrices: parsing, expansion, stats, CLI, resume."""

import json

import pytest

from repro.bench.cache import ResultCache
from repro.bench.executor import run_suite
from repro.bench.matrix import (
    MatrixError,
    MatrixSpec,
    aggregate,
    bootstrap_ci,
    expand,
    load_matrix,
    matrix_from_dict,
    run_table_csv,
    summary_markdown,
    write_outputs,
)
from repro.bench.registry import UnknownSelectionError, select
from repro.cli import main

SMALL = {
    "name": "tiny",
    "maker": "synthetic",
    "txs": 300,
    "seeds": [7, 11],
    "factors": {"experiment": ["default", "block_count_100"]},
}


def small_matrix(**overrides) -> MatrixSpec:
    data = dict(SMALL)
    data.update(overrides)
    return matrix_from_dict(data)


def only_runs(runs, tokens):
    """``repro matrix --only``: the registry's matcher over expanded runs,
    with each run's cell id as its group."""
    return select(tokens, runs, group=lambda run: run.cell_id)


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestParsing:
    def test_round_trip_counts(self):
        matrix = small_matrix()
        assert matrix.cell_count() == 2
        assert matrix.run_count() == 4
        assert matrix.factor_names() == ["experiment"]

    def test_yaml_and_json_files_load(self, tmp_path):
        json_path = write_spec(tmp_path, SMALL)
        assert load_matrix(json_path) == small_matrix()
        yaml_path = tmp_path / "spec.yaml"
        yaml_path.write_text(
            "name: tiny\nmaker: synthetic\ntxs: 300\nseeds: [7, 11]\n"
            "factors:\n  experiment: [default, block_count_100]\n"
        )
        assert load_matrix(yaml_path) == small_matrix()

    def test_scalar_factor_and_scalar_seed_become_lists(self):
        matrix = matrix_from_dict(
            {
                "name": "one",
                "seeds": 7,
                "factors": {"experiment": "default"},
            }
        )
        assert matrix.seeds == (7,)
        assert matrix.factors == (("experiment", ("default",)),)

    @pytest.mark.parametrize(
        "broken, message",
        [
            ({"name": ""}, "non-empty string 'name'"),
            ({"name": "a/b"}, "must not contain"),
            ({"maker": "nope"}, "unknown maker"),
            ({"seeds": []}, "non-empty list"),
            ({"seeds": [7, 7]}, "repeats a value"),
            ({"seeds": [7, "x"]}, "must be integers"),
            ({"txs": 0}, "positive integer"),
            ({"factors": {}}, "non-empty 'factors'"),
            ({"factors": {"experiment": []}}, "empty value list"),
            ({"factors": {"experiment": ["default", "default"]}}, "repeats a value"),
            ({"factors": {"bogus": ["x"]}}, "does not accept factor"),
            ({"factors": {"scheduler": ["fifo"]}}, "requires factor"),
            ({"extra_key": 1}, "unknown spec key"),
            # Retired maker names: no alias, the error lists the four makers.
            ({"maker": "tuned"}, "valid: loan, scenario, synthetic, usecase"),
            ({"maker": "forensics"}, "unknown maker 'forensics'; valid: loan,"),
            ({"maker": "control"}, "unknown maker 'control'; valid: loan,"),
        ],
    )
    def test_malformed_specs_rejected(self, broken, message):
        data = dict(SMALL)
        data.update(broken)
        with pytest.raises(MatrixError, match=message):
            matrix_from_dict(data)

    def test_invalid_json_and_yaml_rejected(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(MatrixError, match="invalid JSON"):
            load_matrix(bad_json)
        bad_yaml = tmp_path / "bad.yaml"
        bad_yaml.write_text("a: [unclosed")
        with pytest.raises(MatrixError, match="invalid YAML"):
            load_matrix(bad_yaml)
        scalar = tmp_path / "scalar.yaml"
        scalar.write_text("just a string")
        with pytest.raises(MatrixError, match="must be a mapping"):
            load_matrix(scalar)


class TestExpansion:
    def test_cells_cross_factors_and_seeds(self):
        runs = expand(small_matrix())
        assert len(runs) == 4
        assert [run.exp_id for run in runs] == [
            "tiny/default@s7",
            "tiny/default@s11",
            "tiny/block_count_100@s7",
            "tiny/block_count_100@s11",
        ]
        assert all(run.spec.total_transactions == 300 for run in runs)
        assert {run.spec.seed for run in runs} == {7, 11}
        # exp_ids are unique — the executor's outcome map depends on it.
        assert len({run.exp_id for run in runs}) == len(runs)

    def test_tuned_cells_cross_numeric_knobs(self):
        matrix = matrix_from_dict(
            {
                "name": "grid",
                "maker": "synthetic",
                "txs": 200,
                "seeds": [7],
                "factors": {
                    "experiment": "default",
                    "block_count": [50, 100],
                    "send_rate": [150, 300],
                },
            }
        )
        runs = expand(matrix)
        assert len(runs) == 4
        assert dict(runs[0].spec.maker_args) == {
            "experiment": "default",
            "block_count": 50,
            "send_rate": 150,
        }
        # The bundle materializes with the overrides applied.
        config, _, requests = runs[0].spec.make_bundle()()
        assert config.block_count == 50
        assert len(requests) == 200

    def test_forensics_cells_default_optional_factors(self):
        matrix = matrix_from_dict(
            {
                "name": "faults",
                "maker": "scenario",
                "seeds": [7],
                "factors": {"base": ["default"], "scenario": ["crash_burst"]},
            }
        )
        (run,) = expand(matrix)
        assert run.spec.maker_args == (("base", "default"), ("scenario", "crash_burst"))
        config = run.spec.with_overrides(total_transactions=100).make_bundle()()[0]
        assert config.mitigation == "none"
        assert config.retry is None
        assert config.control is None

    def test_matrix_cell_and_registry_cell_describe_the_same_run(self):
        """The registry and a matrix spell one run the same way: same
        maker, same keyword arguments, same run."""
        from repro.bench.registry import get
        from repro.fabric.network import run_workload
        from repro.scenario.engine import run_digest

        matrix = matrix_from_dict(
            {
                "name": "same",
                "maker": "scenario",
                "txs": 400,
                "seeds": [7],
                "factors": {
                    "base": "default",
                    "scenario": "partial_outage",
                    "mitigation": "early_abort",
                    "retry_attempts": 3,
                },
            }
        )
        (run,) = expand(matrix)
        registered = get(
            "failure_forensics/partial_outage__early_abort_retry"
        ).with_overrides(total_transactions=400)
        assert run.spec.maker == registered.maker
        assert dict(run.spec.maker_args) == dict(registered.maker_args)
        digests = []
        for spec in (run.spec, registered):
            config, family, requests = spec.make_bundle()()
            network, _ = run_workload(config, family.deploy().contracts, requests)
            digests.append(run_digest(network))
        assert digests[0] == digests[1]

    def test_duplicate_cell_ids_rejected(self):
        matrix = matrix_from_dict(
            {
                "name": "dup",
                "maker": "synthetic",
                "seeds": [7],
                # 150 and 150.0 survive parse-time dedup (distinct str())
                # but slug to the same cell id fragment.
                "factors": {"experiment": "default", "send_rate": [150, 150.0]},
            }
        )
        with pytest.raises(MatrixError, match="duplicate cell id"):
            expand(matrix)

    def test_tuned_rejects_impossible_combination_at_bundle_time(self):
        matrix = matrix_from_dict(
            {
                "name": "bad",
                "maker": "synthetic",
                "seeds": [7],
                "factors": {
                    "experiment": "default",
                    "endorsement_policy": ["P1"],  # needs 4 orgs
                },
            }
        )
        (run,) = expand(matrix)
        with pytest.raises(ValueError, match="orgs"):
            run.spec.make_bundle()()


    def test_select_runs_matches_cells_runs_and_prefixes(self):
        runs = expand(small_matrix())
        assert [r.exp_id for r in only_runs(runs, ["tiny/default"])] == [
            "tiny/default@s7",
            "tiny/default@s11",
        ]
        assert [r.exp_id for r in only_runs(runs, ["tiny/default@s11"])] == [
            "tiny/default@s11"
        ]
        assert len(only_runs(runs, ["tiny/"])) == 4

    def test_select_runs_lists_every_unmatched_token(self):
        runs = expand(small_matrix())
        with pytest.raises(UnknownSelectionError) as excinfo:
            only_runs(runs, ["tiny/default", "nope", "also_nope"])
        assert excinfo.value.unmatched == ["nope", "also_nope"]
        with pytest.raises(UnknownSelectionError, match="empty"):
            only_runs(runs, ["", "  "])


class TestStatistics:
    def test_bootstrap_ci_is_deterministic_and_ordered(self):
        values = [10.0, 12.0, 11.0, 14.0, 9.0]
        first = bootstrap_ci(values, key="cell:tput")
        assert first == bootstrap_ci(values, key="cell:tput")
        low, high = first
        assert low <= high
        assert min(values) <= low and high <= max(values)

    def test_single_seed_ci_degrades_to_the_point(self):
        assert bootstrap_ci([42.0], key="x") == (42.0, 42.0)
        with pytest.raises(ValueError):
            bootstrap_ci([], key="x")

    def test_aggregate_single_seed_matrix(self, tmp_path):
        matrix = small_matrix(seeds=[7])
        runs = expand(matrix)
        report = run_suite([run.spec for run in runs], jobs=1, cache=None)
        outcomes = dict(zip([run.exp_id for run in runs], report.outcomes))
        cells = aggregate(runs, outcomes)
        assert [cell.n for cell in cells] == [1, 1]
        for cell in cells:
            for stats in cell.metrics.values():
                assert stats.ci_low == stats.median == stats.ci_high
        # Markdown renders the degenerate interval as a bare median.
        text = summary_markdown(matrix, cells)
        lines = text.splitlines()
        separator = next(i for i, line in enumerate(lines) if line.startswith("|---"))
        rows = [line for line in lines[separator + 1:] if line.startswith("|")]
        assert len(rows) == len(cells)
        assert not any("[" in row for row in rows)
        assert f"{cells[0].metrics['latency'].median:.2f}" in text


class TestPipeline:
    @pytest.fixture(scope="class")
    def executed(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("matrix-cache")
        matrix = small_matrix()
        runs = expand(matrix)
        cache = ResultCache(cache_dir)
        report = run_suite([run.spec for run in runs], jobs=1, cache=cache)
        outcomes = dict(zip([run.exp_id for run in runs], report.outcomes))
        return matrix, runs, outcomes, cache

    def test_run_table_rows_follow_expansion_order(self, executed):
        matrix, runs, outcomes, _ = executed
        text = run_table_csv(runs, outcomes)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "run_id,cell_id,experiment,seed,txs,"
            "throughput_tps,latency_s,success_pct"
        )
        assert len(lines) == 1 + len(runs)
        assert lines[1].startswith("tiny/default@s7,tiny/default,default,7,300,")

    def test_summary_markdown_has_median_and_ci_columns(self, executed):
        matrix, runs, outcomes, _ = executed
        text = summary_markdown(matrix, aggregate(runs, outcomes))
        assert "| cell | experiment | n | tput (tps) | latency (s) | success (%) |" in text
        assert "2 cells × 2 seeds = 4 runs" in text
        assert "[" in text  # at least one non-degenerate interval

    def test_outputs_are_byte_stable(self, executed, tmp_path):
        matrix, runs, outcomes, cache = executed
        first = write_outputs(tmp_path / "a", matrix, runs, outcomes)
        # A second pass served entirely from cache must write identical bytes.
        warm = run_suite([run.spec for run in runs], jobs=1, cache=cache)
        assert warm.simulated_runs == 0
        warm_outcomes = dict(zip([run.exp_id for run in runs], warm.outcomes))
        second = write_outputs(tmp_path / "b", matrix, runs, warm_outcomes)
        for path_a, path_b in zip(first, second):
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_interrupted_sweep_resumes_from_partial_cache(self, tmp_path):
        matrix = small_matrix()
        runs = expand(matrix)
        cache = ResultCache(tmp_path)
        # Simulate an interrupt: only the first cell's runs completed.
        partial = [run.spec for run in runs if run.cell_id == "tiny/default"]
        run_suite(partial, jobs=1, cache=cache)
        resumed = run_suite([run.spec for run in runs], jobs=1, cache=cache)
        assert sorted(resumed.cached) == sorted(spec.exp_id for spec in partial)
        assert resumed.simulated_runs == len(runs) - len(partial)


class TestCli:
    def spec_path(self, tmp_path):
        return write_spec(tmp_path, SMALL)

    def test_dry_run_lists_cells(self, tmp_path, capsys):
        assert main(["matrix", "--spec", str(self.spec_path(tmp_path)), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "tiny/default@s7" in out and "4 runs" in out

    def test_end_to_end_writes_tables_and_resumes(self, tmp_path, capsys):
        args = [
            "matrix",
            "--spec", str(self.spec_path(tmp_path)),
            "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
            "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 simulation runs" in out
        table = (tmp_path / "out" / "run_table.csv").read_bytes()
        assert (tmp_path / "out" / "summary.md").exists()
        assert main(args) == 0
        assert "0 simulation runs" in capsys.readouterr().out
        assert (tmp_path / "out" / "run_table.csv").read_bytes() == table

    def test_unknown_only_token_exits_1_listing_ids(self, tmp_path, capsys):
        code = main(
            ["matrix", "--spec", str(self.spec_path(tmp_path)),
             "--only", "tiny/default,ghost", "--dry-run"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "ghost" in err

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"name": "x", "seeds": [], "factors": {}})
        assert main(["matrix", "--spec", str(path), "--dry-run"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main(["matrix", "--spec", str(tmp_path / "nope.yaml")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "maker, factors, cell, message",
        [
            (
                "scenario",
                "base: workload_update_heavy\n  scenario: conflict_storm\n"
                "  mitigation: [none, early_abrot]",
                "typo/workload_update_heavy_conflict_storm_early_abrot",
                "mitigation='early_abrot' not one of none, early_abort, reorder",
            ),
            (
                # Unquoted, YAML reads ``off`` as the boolean False.
                "scenario",
                "base: default\n  scenario: crash_burst\n  policy: [off]",
                "typo/default_crash_burst_False",
                "unknown control policy False",
            ),
            (
                "scenario",
                "base: [defualt]\n  scenario: crash_burst",
                "typo/defualt_crash_burst",
                "unknown synthetic experiment 'defualt'",
            ),
            (
                # A value of the wrong type: the factory's TypeError.
                "scenario",
                "base: default\n  scenario: crash_burst\n  retry_attempts: [three]",
                "typo/default_crash_burst_three",
                "'>' not supported between instances of 'str' and 'int'",
            ),
            (
                "synthetic",
                "experiment: default\n  scheduler: [fabricshrp]",
                "typo/default_fabricshrp",
                "unknown scheduler 'fabricshrp'",
            ),
        ],
        ids=["mitigation", "policy", "base", "type", "scheduler"],
    )
    def test_value_typo_exits_2_at_dry_run_naming_the_cell(
        self, tmp_path, capsys, maker, factors, cell, message
    ):
        """A mistyped value stops the sweep before anything runs, and
        ``--dry-run`` already reports it."""
        path = tmp_path / "typo.yaml"
        path.write_text(
            f"name: typo\nmaker: {maker}\ntxs: 200\nseeds: [7]\n"
            f"factors:\n  {factors}\n"
        )
        assert main(["matrix", "--spec", str(path), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert f"cell {cell!r}" in err
        assert message in err
        assert main(["matrix", "--spec", str(path), "--no-cache",
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["[[10, 20], 30]", "[{a: 1}]", "[null]"])
    def test_non_scalar_value_exits_2_at_dry_run_naming_the_factor(
        self, tmp_path, capsys, value
    ):
        """A list, mapping or null inside a factor's values is no cell
        value: the spec is refused before any cell is listed."""
        path = tmp_path / "nested.yaml"
        path.write_text(
            "name: nested\nmaker: synthetic\ntxs: 200\nseeds: [1]\n"
            f"factors:\n  experiment: default\n  block_count: {value}\n"
        )
        assert main(["matrix", "--spec", str(path), "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert "factor 'block_count' has a non-scalar value" in captured.err
        assert "nested/" not in captured.out


class TestExampleMatrices:
    def test_examples_expand_to_documented_sizes(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples" / "matrices"
        sizes = {
            "smoke_8cell.yaml": (8, 16),
            "block_rate_sweep.yaml": (75, 225),
            "mitigation_scenarios.yaml": (36, 108),
        }
        for name, (cells, runs) in sizes.items():
            matrix = load_matrix(examples / name)
            assert matrix.cell_count() == cells, name
            assert matrix.run_count() == runs, name
            expanded = expand(matrix)
            assert len(expanded) == runs
            assert len({run.exp_id for run in expanded}) == runs
            assert len(matrix.seeds) >= 2

    def test_flagship_example_is_a_200_cell_multi_seed_table(self):
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples" / "matrices"
        matrix = load_matrix(examples / "block_rate_sweep.yaml")
        assert matrix.run_count() >= 200
        assert len(matrix.seeds) >= 3
