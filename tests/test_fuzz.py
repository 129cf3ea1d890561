"""Scenario fuzzer: generator, oracles, shrinking, corpus, CLI (ISSUE 8).

The fuzzer is only useful if it is itself deterministic, so most tests
here pin bit-reproducibility: the same seed and budget must regenerate
the same compositions, the same oracle verdicts and the same corpus
bytes.  The committed corpus under ``tests/corpus/fuzz`` is replayed in
full — the same check CI's fuzz-smoke step runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenario.fuzz import (
    GENERATED_KINDS,
    ORACLES,
    FuzzConfig,
    FuzzHarness,
    generate_spec,
    label_report,
    replay_corpus,
    run_campaign,
    save_corpus,
    shrink_spec,
)
from repro.scenario.spec import KINDS, Intervention, ScenarioSpec

REPO = Path(__file__).resolve().parent.parent
COMMITTED_CORPUS = REPO / "tests" / "corpus" / "fuzz"

#: One small campaign shared by the tests that only need *a* campaign.
SMALL = FuzzConfig(seed=5, budget=3, transactions=250)


@pytest.fixture(scope="module")
def small_campaign():
    return run_campaign(SMALL)


# -- generator ------------------------------------------------------------------------


class TestGenerator:
    def test_same_seed_and_index_reproduce_the_spec(self):
        for index in range(10):
            assert generate_spec(21, index) == generate_spec(21, index)

    def test_generated_specs_are_valid_by_construction(self):
        # Interventions validate in __post_init__, so constructing 40
        # specs without raising is the real assertion; the rest pins the
        # generator's envelope.
        for index in range(40):
            spec = generate_spec(3, index)
            assert spec.name == f"fuzz_3_{index:04d}"
            assert 1 <= len(spec.interventions) <= 4
            for iv in spec.interventions:
                assert iv.kind in GENERATED_KINDS

    def test_generated_specs_round_trip_json(self):
        for index in range(20):
            spec = generate_spec(9, index)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_different_seeds_and_indices_vary(self):
        specs = {
            generate_spec(seed, index).to_json()
            for seed in (1, 2)
            for index in range(10)
        }
        assert len(specs) > 10

    def test_generator_covers_every_generated_kind(self):
        # peer_recover is excluded by design (crashes carry a duration);
        # everything else must be reachable.
        assert set(GENERATED_KINDS) == KINDS - {"peer_recover"}
        seen = set()
        for index in range(80):
            for iv in generate_spec(1, index).interventions:
                seen.add(iv.kind)
        assert seen == set(GENERATED_KINDS)


# -- oracles and campaign -------------------------------------------------------------


class TestCampaign:
    def test_campaign_is_bit_reproducible(self, small_campaign):
        again = run_campaign(SMALL)
        assert [e.to_dict() for e in again.entries] == [
            e.to_dict() for e in small_campaign.entries
        ]

    def test_oracles_are_clean_on_the_current_engine(self, small_campaign):
        for entry in small_campaign.entries:
            assert entry.survived, entry.violations
            assert set(entry.oracles) == set(ORACLES)

    def test_labels_quantify_severity(self, small_campaign):
        for entry in small_campaign.entries:
            label = entry.label
            assert label.severity == pytest.approx(
                label.abort_rate + label.retry_rate, abs=1e-6
            )
            if label.dominant_cause is not None:
                assert label.dominant_cause in label.why
                assert label.cause_counts[label.dominant_cause] == max(
                    label.cause_counts.values()
                )

    def test_survivors_rank_most_severe_first(self, small_campaign):
        severities = [e.label.severity for e in small_campaign.survivors()]
        assert severities == sorted(severities, reverse=True)

    def test_forensics_label_matches_a_direct_report(self, small_campaign):
        harness = FuzzHarness(SMALL)
        entry = small_campaign.entries[0]
        assert label_report(harness.primary(entry.spec).report) == entry.label

    def test_config_rejects_bad_budget_and_oracles(self):
        with pytest.raises(ValueError, match="budget"):
            FuzzConfig(budget=0)
        with pytest.raises(ValueError, match="unknown oracles"):
            FuzzConfig(oracles=("determinism", "nope"))


# -- shrinking ------------------------------------------------------------------------


class TestShrinking:
    def test_injected_bug_shrinks_to_a_minimal_reproducer(self):
        # Injected bug: "any composition containing a latency spike
        # fails".  The generated 4-intervention composition must shrink
        # to just its latency spikes — greedy 1-minimal removal.
        spec = ScenarioSpec(
            name="injected",
            interventions=(
                Intervention(kind="peer_crash", at=0.3, duration=0.5, target="Org1"),
                Intervention(kind="latency_spike", at=0.2, duration=0.8, factor=3.0),
                Intervention(kind="burst_arrivals", at=0.1, duration=0.5, factor=2.0),
                Intervention(
                    kind="orderer_degradation", at=0.4, duration=0.5, factor=4.0
                ),
            ),
        )

        def failing(candidate: ScenarioSpec) -> bool:
            return any(iv.kind == "latency_spike" for iv in candidate.interventions)

        minimal = shrink_spec(spec, failing)
        assert len(minimal.interventions) == 1
        assert minimal.interventions[0].kind == "latency_spike"

    def test_passing_spec_is_returned_unchanged(self):
        spec = generate_spec(5, 0)
        assert shrink_spec(spec, lambda candidate: False) is spec

    def test_shrinker_runs_inside_a_campaign_on_a_broken_oracle(self, monkeypatch):
        # End-to-end: break one oracle so every composition fails, and
        # check the campaign shrinks each entry and records the original.
        def broken(self, spec):
            return (
                ["injected failure"]
                if any(iv.kind == "latency_spike" for iv in spec.interventions)
                else []
            )

        monkeypatch.setattr(FuzzHarness, "check_conservation", broken)
        config = FuzzConfig(seed=7, budget=4, transactions=250, oracles=("conservation",))
        campaign = run_campaign(config)
        failures = campaign.failures()
        assert failures  # every seed-7 composition contains a latency spike
        for entry in failures:
            assert len(entry.spec.interventions) <= 3
            assert all(
                iv.kind == "latency_spike" for iv in entry.spec.interventions
            )
            if entry.shrunk_from is not None:
                assert len(entry.shrunk_from.interventions) > len(
                    entry.spec.interventions
                )


# -- corpus persistence ---------------------------------------------------------------


class TestCorpus:
    def test_save_is_byte_stable(self, small_campaign, tmp_path):
        save_corpus(small_campaign, tmp_path / "a")
        save_corpus(small_campaign, tmp_path / "b")
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b and "campaign.json" in files_a
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_replay_round_trips_clean(self, small_campaign, tmp_path):
        save_corpus(small_campaign, tmp_path)
        results = replay_corpus(tmp_path)
        assert len(results) == len(small_campaign.entries)
        assert all(result.clean for result in results)

    def test_replay_detects_digest_drift(self, small_campaign, tmp_path):
        save_corpus(small_campaign, tmp_path)
        victim = tmp_path / f"{small_campaign.entries[0].spec.name}.json"
        data = json.loads(victim.read_text())
        data["run_digest"] = "0" * 64
        victim.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        results = {result.name: result for result in replay_corpus(tmp_path)}
        assert not results[victim.name].clean
        assert any("run digest drifted" in line for line in results[victim.name].drift)

    def test_replay_rejects_unknown_format(self, small_campaign, tmp_path):
        save_corpus(small_campaign, tmp_path)
        manifest = tmp_path / "campaign.json"
        data = json.loads(manifest.read_text())
        data["format_version"] = 99
        manifest.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        with pytest.raises(ValueError, match="format"):
            replay_corpus(tmp_path)

    def test_committed_corpus_replays_clean(self):
        # The exact check CI's fuzz-smoke step runs: the committed corpus
        # must reproduce its stored digests and stay oracle-clean.
        results = replay_corpus(COMMITTED_CORPUS)
        assert results, "committed corpus is empty"
        for result in results:
            assert result.clean, (result.name, result.violations, result.drift)


# -- promoted scenarios ---------------------------------------------------------------


class TestPromotedScenarios:
    def test_promoted_digests_match_the_golden(self):
        from repro.bench.experiments import make_synthetic
        from repro.fabric.network import FabricNetwork
        from repro.scenario import get_scenario, run_digest

        golden = json.loads(
            (REPO / "tests" / "golden" / "fuzzed__library_digests.json").read_text()
        )
        assert len(golden["digests"]) >= 3
        for name, expected in golden["digests"].items():
            config, family, requests = make_synthetic(
                golden["base"],
                seed=golden["seed"],
                total_transactions=golden["total_transactions"],
            )()
            config.scenario = get_scenario(name)
            network = FabricNetwork(config, family.deploy().contracts)
            network.run(requests)
            assert run_digest(network) == expected, (
                f"promoted scenario {name} drifted from its pinned digest"
            )

    def test_promoted_scenarios_use_realism_primitives(self):
        from repro.scenario import get_scenario

        kinds = {
            iv.kind
            for name in ("flash_crowd_outage", "org_blackout_storm", "rolling_contention")
            for iv in get_scenario(name).interventions
        }
        assert {"rate_curve", "hot_key_drift", "region_lag"} <= kinds


# -- CLI ------------------------------------------------------------------------------


class TestFuzzCli:
    def test_small_campaign_runs_clean(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "--seed", "5", "--budget", "2", "--txs", "250"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fuzz campaign: seed 5" in out
        assert "survived" in out

    def test_corpus_save_and_replay(self, tmp_path, capsys):
        from repro.cli import main

        corpus = str(tmp_path / "corpus")
        assert main(
            ["fuzz", "--seed", "5", "--budget", "2", "--txs", "250", "--corpus", corpus]
        ) == 0
        assert main(["fuzz", "--replay", "--corpus", corpus]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_promote_prints_candidate_specs(self, capsys):
        from repro.cli import main

        rc = main(
            ["fuzz", "--seed", "5", "--budget", "2", "--txs", "250", "--promote", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        start = out.index("promotion candidates")
        spec = ScenarioSpec.from_json(out[out.index("{", start):])
        assert spec.name.startswith("fuzz_5_")

    def test_bad_budget_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--budget", "0"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_unknown_oracle_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--budget", "1", "--oracle", "nope"]) == 2
        assert "unknown oracles" in capsys.readouterr().err

    def test_replay_without_corpus_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--replay"]) == 2
        assert "--replay requires --corpus" in capsys.readouterr().err

    def test_replay_of_missing_corpus_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fuzz", "--replay", "--corpus", str(tmp_path / "nope")]) == 2
        assert "cannot replay corpus" in capsys.readouterr().err
