"""Multi-channel sharding: large-scale runs with bounded memory.

One large workload is split over N independent channels — each with its
own orderer, validation pipeline and kernel timeline — by a
deterministic :class:`ShardPlan`; each channel runs in streaming mode
(:mod:`repro.logs.stream`) with bounded accumulators, and the per-channel
summaries are stitched into one digestable report.  See docs/SCALING.md.
"""

from repro.shard.plan import (
    ChannelPlan,
    ShardPlan,
    assign_clients,
    derive_channel_seed,
    plan_shards,
)
from repro.shard.runner import run_channel, run_sharded
from repro.shard.summary import (
    ChannelSummary,
    RateSeriesAccumulator,
    StitchedSummary,
    stitch,
    summarize_channel,
)

__all__ = [
    "ChannelPlan",
    "ChannelSummary",
    "RateSeriesAccumulator",
    "ShardPlan",
    "StitchedSummary",
    "assign_clients",
    "derive_channel_seed",
    "plan_shards",
    "run_channel",
    "run_sharded",
    "stitch",
    "summarize_channel",
]
