"""Shard layer tests: deterministic planning and stitching."""

import pytest

from repro.shard import (
    assign_clients,
    derive_channel_seed,
    plan_shards,
    run_sharded,
    stitch,
)


class TestPlanning:
    def test_plan_is_deterministic(self):
        first = plan_shards("default", channels=4, total_transactions=10_001, seed=11)
        second = plan_shards("default", channels=4, total_transactions=10_001, seed=11)
        assert first == second
        assert first.to_dict() == second.to_dict()

    def test_transactions_partition_with_remainder_to_front(self):
        plan = plan_shards("default", channels=4, total_transactions=10_002, seed=7)
        budgets = [channel.transactions for channel in plan.channels]
        assert sum(budgets) == 10_002
        assert budgets == [2501, 2501, 2500, 2500]

    def test_channel_seeds_are_distinct_and_name_derived(self):
        plan = plan_shards("default", channels=6, total_transactions=6_000, seed=7)
        seeds = [channel.seed for channel in plan.channels]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [
            derive_channel_seed(7, f"channel{index}") for index in range(6)
        ]

    def test_different_plan_seeds_give_different_channel_seeds(self):
        first = plan_shards("default", channels=2, total_transactions=100, seed=1)
        second = plan_shards("default", channels=2, total_transactions=100, seed=2)
        assert first.channels[0].seed != second.channels[0].seed

    def test_every_channel_keeps_at_least_one_client_per_org(self):
        # Enough channels that the hash is likely to leave gaps the
        # minimum-membership rule must fill.
        for split in assign_clients(["Org1", "Org2"], 1, 16):
            for _org, count in split:
                assert count >= 1

    def test_client_assignment_is_deterministic(self):
        assert assign_clients(["Org1", "Org2"], 2, 4) == assign_clients(
            ["Org1", "Org2"], 2, 4
        )

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="cannot cover"):
            plan_shards("default", channels=8, total_transactions=4)
        with pytest.raises(ValueError, match="interval_seconds"):
            plan_shards("default", channels=2, total_transactions=100, interval_seconds=0)
        with pytest.raises(KeyError):
            plan_shards("no_such_base", channels=2, total_transactions=100)


class TestStitching:
    @pytest.fixture(scope="class")
    def small_run(self):
        plan = plan_shards("default", channels=2, total_transactions=600, seed=7)
        return plan, run_sharded(plan)

    def test_totals_are_channel_sums(self, small_run):
        _, stitched = small_run
        for field in ("issued", "committed", "aborted", "submitted", "successes",
                      "blocks", "data_blocks"):
            assert getattr(stitched, field) == sum(
                getattr(channel, field) for channel in stitched.channels
            )
        assert stitched.committed == 600

    def test_digest_is_stable_across_runs(self, small_run):
        plan, stitched = small_run
        again = run_sharded(plan)
        assert again.digest() == stitched.digest()
        assert again.to_dict() == stitched.to_dict()

    def test_stitch_rejects_mismatched_summaries(self, small_run):
        plan, stitched = small_run
        with pytest.raises(ValueError):
            stitch(plan, list(stitched.channels[:1]))

    def test_makespan_spans_channels_not_their_sum(self, small_run):
        _, stitched = small_run
        longest = max(channel.makespan for channel in stitched.channels)
        assert longest <= stitched.makespan < sum(
            channel.makespan for channel in stitched.channels
        )

    def test_all_aborts_stitches_to_defined_values(self):
        # A channel (or a whole run) with zero commits — a harsh fault
        # scenario aborting everything — must stitch cleanly: defined
        # latency/throughput/success (0.0), a digestable summary, no
        # ZeroDivisionError out of the latency or success-rate merges.
        from repro.shard.summary import ChannelSummary

        plan = plan_shards("default", channels=2, total_transactions=10, seed=7)
        all_aborts = [
            ChannelSummary(
                name=channel.name,
                seed=channel.seed,
                planned_transactions=channel.transactions,
                issued=channel.transactions,
                committed=0,
                aborted=channel.transactions,
                blocks=0,
                data_blocks=0,
                max_block_transactions=0,
                cut_reasons={},
                submitted=0,
                successes=0,
                failures=channel.transactions,
                cause_counts={"policy_endorsement_timeout": channel.transactions},
                hot_keys=[],
                key_families=[],
                org_policy_failures={},
                max_attempt=1,
                latency_sum=0.0,
                latency_count=0,
                latency_max=0.0,
                first_submit=0.0,
                last_commit=0.0,
                rate_series=[],
            )
            for channel in plan.channels
        ]
        stitched = stitch(plan, all_aborts)
        assert stitched.avg_latency == 0.0
        assert stitched.success_rate == 0.0
        assert stitched.throughput == 0.0
        for channel in stitched.channels:
            assert channel.avg_latency == 0.0
            assert channel.success_rate == 0.0
        totals = stitched.to_dict()["totals"]
        assert totals["committed"] == 0
        assert totals["avg_latency"] == 0.0
        assert len(stitched.digest()) == 64
