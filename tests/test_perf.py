"""Tests for the repro.bench.perf subsystem.

Timings are machine noise and never asserted on; what is pinned down is
(1) the *measured code* is deterministic — identical digests across trials
and across independent runner invocations, (2) the JSON schema round-trips
losslessly, and (3) ``--compare`` flags regressions and only regressions.
"""

import json

import pytest

from repro.bench.perf import (
    SCHEMA_VERSION,
    BenchResult,
    PerfReport,
    all_benchmarks,
    benchmark_names,
    compare_reports,
    format_comparison,
    get_benchmark,
    report_from_json,
    report_to_dict,
    report_to_json,
    run_benchmarks,
)
from repro.bench.perf.benchmarks import Microbenchmark
from repro.bench.perf.compare import regressions
from repro.bench.perf.runner import NondeterministicBenchmarkError
from repro.cli import main

# Cheap benchmarks used to exercise the runner in tests.
FAST = ["kernel_event_churn"]


# -- registry ----------------------------------------------------------------------


def test_registry_names_are_unique_and_cover_the_required_hot_paths():
    names = benchmark_names()
    assert len(names) == len(set(names))
    for required in (
        "kernel_event_churn",
        "pipeline_round_trip",
        "metrics_accumulation",
        "small_experiment",
    ):
        assert required in names


def test_registry_lookup_and_unknown_name():
    bench = get_benchmark("kernel_event_churn")
    assert bench.description
    with pytest.raises(KeyError, match="unknown benchmark"):
        get_benchmark("nope")


def test_every_benchmark_has_a_description():
    for bench in all_benchmarks():
        assert bench.name and bench.description


# -- runner ------------------------------------------------------------------------


def test_runner_trial_count_and_digest_stability():
    report = run_benchmarks(FAST, warmup=0, trials=3)
    (result,) = report.results
    assert result.name == "kernel_event_churn"
    assert len(result.trials) == 3
    assert all(trial >= 0.0 for trial in result.trials)
    assert result.median_s >= 0.0
    assert result.mad_s >= 0.0


def test_measured_code_is_deterministic_across_runner_invocations():
    """The determinism the ratchet relies on: digests (describing what the
    measured code computed, timings excluded) are identical across runs."""
    first = run_benchmarks(FAST, warmup=0, trials=2)
    second = run_benchmarks(FAST, warmup=0, trials=2)
    assert first.get("kernel_event_churn").digest == second.get("kernel_event_churn").digest
    assert first.get("kernel_event_churn").trials != []


def test_runner_validates_arguments():
    with pytest.raises(ValueError, match="at least one trial"):
        run_benchmarks(FAST, trials=0)
    with pytest.raises(ValueError, match="warmup"):
        run_benchmarks(FAST, warmup=-1)
    with pytest.raises(KeyError):
        run_benchmarks(["missing_benchmark"])


def test_runner_rejects_nondeterministic_measured_code(monkeypatch):
    ticks = iter(range(100))

    def flaky_make():
        return lambda: {"value": next(ticks)}

    flaky = Microbenchmark(name="flaky", description="varies", make=flaky_make)
    monkeypatch.setattr(
        "repro.bench.perf.runner.get_benchmark", lambda name: flaky
    )
    with pytest.raises(NondeterministicBenchmarkError, match="flaky"):
        run_benchmarks(["flaky"], warmup=0, trials=2)


def test_full_registry_executes_end_to_end():
    """Every registered benchmark must build and run (one trial each)."""
    report = run_benchmarks(None, warmup=0, trials=1)
    assert report.names() == benchmark_names()
    for result in report.results:
        assert len(result.trials) == 1
        assert len(result.digest) == 64


def test_runner_progress_lines(capsys):
    run_benchmarks(FAST, warmup=0, trials=1, progress=print)
    out = capsys.readouterr().out
    assert "kernel_event_churn" in out and "median" in out


# -- JSON schema -------------------------------------------------------------------


def _report(**overrides) -> PerfReport:
    defaults = dict(
        results=[
            BenchResult(
                name="a",
                description="bench a",
                trials=[0.010, 0.011, 0.012],
                digest="d" * 64,
                warmup=1,
            )
        ],
        python="3.11",
        platform="test",
    )
    defaults.update(overrides)
    return PerfReport(**defaults)


def test_json_round_trip_preserves_every_field():
    report = run_benchmarks(FAST, warmup=0, trials=2)
    loaded = report_from_json(report_to_json(report))
    assert loaded.names() == report.names()
    assert loaded.python == report.python
    assert loaded.platform == report.platform
    for name in report.names():
        original, parsed = report.get(name), loaded.get(name)
        assert parsed.trials == original.trials
        assert parsed.digest == original.digest
        assert parsed.warmup == original.warmup
        assert parsed.description == original.description
        assert parsed.median_s == original.median_s
        assert parsed.mad_s == original.mad_s


def test_report_dict_is_schema_versioned():
    data = report_to_dict(_report())
    assert data["schema"] == SCHEMA_VERSION
    assert data["results"][0]["median_s"] == pytest.approx(0.011)


def test_report_parsing_rejects_bad_payloads():
    with pytest.raises(ValueError, match="not valid JSON"):
        report_from_json("{nope")
    with pytest.raises(ValueError, match="JSON object"):
        report_from_json("[1, 2]")
    with pytest.raises(ValueError, match="schema"):
        report_from_json(json.dumps({"schema": 999, "results": []}))
    with pytest.raises(ValueError, match="malformed"):
        report_from_json(json.dumps({"schema": SCHEMA_VERSION, "results": [{}]}))
    no_trials = {
        "schema": SCHEMA_VERSION,
        "results": [{"name": "a", "trials": [], "digest": "x"}],
    }
    with pytest.raises(ValueError, match="no trials"):
        report_from_json(json.dumps(no_trials))


def test_report_get_unknown_name():
    with pytest.raises(KeyError):
        _report().get("missing")


# -- comparison --------------------------------------------------------------------


def _single(name: str, trials: list[float], digest: str = "same") -> PerfReport:
    return PerfReport(
        results=[
            BenchResult(
                name=name, description="", trials=trials, digest=digest, warmup=0
            )
        ]
    )


def test_compare_flags_a_clear_regression():
    old = _single("a", [0.010, 0.010, 0.010])
    new = _single("a", [0.020, 0.020, 0.020])
    (delta,) = compare_reports(old, new, threshold=0.25)
    assert delta.verdict == "regression"
    assert delta.ratio == pytest.approx(2.0)
    assert regressions([delta]) == [delta]


def test_compare_flags_a_clear_improvement():
    old = _single("a", [0.020, 0.020, 0.020])
    new = _single("a", [0.010, 0.010, 0.010])
    (delta,) = compare_reports(old, new)
    assert delta.verdict == "improvement"
    assert delta.percent == pytest.approx(-50.0)


def test_compare_within_threshold_is_unchanged():
    old = _single("a", [0.0100, 0.0100, 0.0100])
    new = _single("a", [0.0110, 0.0110, 0.0110])  # +10% < 25% threshold
    (delta,) = compare_reports(old, new)
    assert delta.verdict == "unchanged"


def test_compare_noise_floor_suppresses_jittery_regressions():
    """A big ratio whose shift is inside 3x the MAD is noise, not signal."""
    old = _single("a", [0.010, 0.002, 0.030])  # median 0.010, MAD 0.008
    new = _single("a", [0.014, 0.014, 0.014])  # +40% but shift 0.004 < 0.024
    (delta,) = compare_reports(old, new)
    assert delta.verdict == "unchanged"


def test_compare_zero_mad_keeps_a_minimum_noise_floor():
    """Identical trials give MAD 0; the relative floor must keep the
    ratchet from treating any sub-percent wobble as signal."""
    old = _single("a", [0.0100, 0.0100, 0.0100])  # MAD exactly 0
    new = _single("a", [0.01015, 0.01015, 0.01015])  # +1.5% < 2% floor
    (delta,) = compare_reports(old, new, threshold=0.01)
    assert delta.verdict == "unchanged"


def test_compare_zero_mad_still_flags_real_shifts():
    old = _single("a", [0.0100, 0.0100, 0.0100])
    new = _single("a", [0.0150, 0.0150, 0.0150])  # +50% clears floor and threshold
    (delta,) = compare_reports(old, new, threshold=0.25)
    assert delta.verdict == "regression"


def test_compare_detects_digest_changes():
    from repro.bench.perf.compare import digest_changes

    old = _single("a", [0.010], digest="one")
    new = _single("a", [0.010], digest="two")
    (delta,) = compare_reports(old, new)
    assert delta.verdict == "digest-changed"
    assert regressions([delta]) == []
    assert digest_changes([delta]) == [delta]


def test_compare_skips_benchmarks_missing_from_the_baseline():
    old = _single("a", [0.010])
    new = PerfReport(
        results=_single("a", [0.010]).results + _single("b", [0.010]).results
    )
    deltas = compare_reports(old, new)
    assert [delta.name for delta in deltas] == ["a"]


def test_compare_validates_threshold():
    with pytest.raises(ValueError, match="threshold"):
        compare_reports(_single("a", [0.01]), _single("a", [0.01]), threshold=0.0)


def test_format_comparison_renders_verdicts():
    old = _single("a", [0.010, 0.010, 0.010])
    new = _single("a", [0.030, 0.030, 0.030])
    table = format_comparison(compare_reports(old, new))
    assert "regression" in table and "a" in table
    assert format_comparison([]).startswith("no benchmarks in common")


# -- CLI ---------------------------------------------------------------------------


def test_cli_perf_list(capsys):
    assert main(["perf", "--list"]) == 0
    out = capsys.readouterr().out
    assert "kernel_event_churn" in out and "small_experiment" in out


def test_cli_perf_unknown_benchmark(capsys):
    assert main(["perf", "--only", "bogus"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_cli_perf_json_and_self_compare_pass(tmp_path, capsys):
    baseline = tmp_path / "BENCH_perf.json"
    assert (
        main(
            [
                "perf",
                "--only",
                "kernel_event_churn",
                "--trials",
                "2",
                "--warmup",
                "0",
                "--json",
                str(baseline),
                "--quiet",
            ]
        )
        == 0
    )
    assert "wrote" in capsys.readouterr().out
    report = report_from_json(baseline.read_text())
    assert report.names() == ["kernel_event_churn"]

    # Comparing against itself can never regress beyond threshold + noise.
    assert (
        main(
            [
                "perf",
                "--only",
                "kernel_event_churn",
                "--trials",
                "2",
                "--warmup",
                "0",
                "--compare",
                str(baseline),
                "--quiet",
            ]
        )
        == 0
    )
    assert "verdict" in capsys.readouterr().out


def test_cli_perf_compare_detects_doctored_regression(tmp_path, capsys):
    """A baseline claiming near-zero cost must make the real run regress."""
    doctored = PerfReport(
        results=[
            BenchResult(
                name="kernel_event_churn",
                description="",
                trials=[1e-9, 1e-9, 1e-9],
                digest=run_benchmarks(FAST, warmup=0, trials=1)
                .get("kernel_event_churn")
                .digest,
                warmup=0,
            )
        ]
    )
    baseline = tmp_path / "old.json"
    baseline.write_text(report_to_json(doctored))
    assert (
        main(
            [
                "perf",
                "--only",
                "kernel_event_churn",
                "--trials",
                "2",
                "--warmup",
                "0",
                "--compare",
                str(baseline),
                "--quiet",
            ]
        )
        == 1
    )
    assert "regression" in capsys.readouterr().out


def test_cli_perf_json_plus_compare_reads_baseline_before_overwriting(
    tmp_path, capsys
):
    """`--json X --compare X` must ratchet against the recorded numbers,
    not the report this invocation writes to the same path."""
    digest = (
        run_benchmarks(FAST, warmup=0, trials=1).get("kernel_event_churn").digest
    )
    doctored = PerfReport(
        results=[
            BenchResult(
                name="kernel_event_churn",
                description="",
                trials=[1e-9, 1e-9, 1e-9],
                digest=digest,
                warmup=0,
            )
        ]
    )
    baseline = tmp_path / "BENCH_perf.json"
    baseline.write_text(report_to_json(doctored))
    code = main(
        [
            "perf",
            "--only",
            "kernel_event_churn",
            "--trials",
            "2",
            "--warmup",
            "0",
            "--json",
            str(baseline),
            "--compare",
            str(baseline),
            "--quiet",
        ]
    )
    assert code == 1  # the doctored baseline was read first -> regression
    assert "regression" in capsys.readouterr().out
    # ... and the file now holds the freshly recorded (real) numbers.
    assert report_from_json(baseline.read_text()).get("kernel_event_churn").trials != [
        1e-9,
        1e-9,
        1e-9,
    ]


def test_cli_perf_compare_fails_on_digest_change(tmp_path, capsys):
    """A hot-path behaviour change must fail the ratchet even at equal speed."""
    real = run_benchmarks(FAST, warmup=0, trials=2).get("kernel_event_churn")
    forged = PerfReport(
        results=[
            BenchResult(
                name="kernel_event_churn",
                description="",
                trials=list(real.trials),
                digest="not-the-real-digest",
                warmup=0,
            )
        ]
    )
    baseline = tmp_path / "old.json"
    baseline.write_text(report_to_json(forged))
    code = main(
        [
            "perf",
            "--only",
            "kernel_event_churn",
            "--trials",
            "2",
            "--warmup",
            "0",
            "--compare",
            str(baseline),
            "--quiet",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "digest-changed" in captured.out
    assert "regenerate the baseline" in captured.err


def test_cli_perf_nondeterministic_benchmark_exits_2(monkeypatch, capsys):
    """Runner nondeterminism is an error (2), not a regression (1)."""
    from repro.bench.perf.runner import NondeterministicBenchmarkError

    def explode(*args, **kwargs):
        raise NondeterministicBenchmarkError("benchmark 'x' diverged")

    monkeypatch.setattr("repro.bench.perf.run_benchmarks", explode)
    assert main(["perf", "--only", "kernel_event_churn", "--quiet"]) == 2
    assert "diverged" in capsys.readouterr().err


def test_cli_perf_compare_missing_and_corrupt_baseline(tmp_path, capsys):
    args = ["perf", "--only", "kernel_event_churn", "--trials", "1", "--warmup", "0"]
    assert main(args + ["--compare", str(tmp_path / "absent.json"), "--quiet"]) == 2
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{broken")
    assert main(args + ["--compare", str(corrupt), "--quiet"]) == 2


def test_cli_perf_rejects_bad_flags_before_running(tmp_path, capsys):
    """--threshold and the --json destination fail fast, not post-run."""
    args = ["perf", "--only", "kernel_event_churn", "--trials", "1", "--quiet"]
    assert main(args + ["--threshold", "0"]) == 2
    assert "--threshold" in capsys.readouterr().err
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
    assert main(args + ["--json", str(missing_dir)]) == 2
    assert "--json" in capsys.readouterr().err
