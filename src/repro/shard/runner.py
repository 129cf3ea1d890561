"""Execute a :class:`~repro.shard.plan.ShardPlan`: one network per channel.

Each channel is a full, independent
:class:`~repro.fabric.network.FabricNetwork` — its own ordering service,
validation pipeline and simulation kernel — built on a
:class:`~repro.logs.stream.RunStream` of its own, so it keeps no chain;
the workload is pulled from
:func:`~repro.workloads.synthetic.iter_synthetic_requests` one request
at a time, and the only things that survive the run are the stream's
counters and the bounded accumulators of :mod:`repro.shard.summary`.  Peak memory is
therefore independent of the transaction budget — the property the
CI smoke step asserts via ``repro shard --max-rss-mb`` and the 1M-tx
digest golden demonstrates (docs/SCALING.md).

Channels run sequentially in this process but are logically concurrent:
every channel's kernel timeline starts at t = 0, so the stitched
makespan is the max across channels, not the sum.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.forensics import OutcomeTally
from repro.shard.plan import ChannelPlan, ShardPlan
from repro.shard.summary import (
    ChannelSummary,
    RateSeriesAccumulator,
    StitchedSummary,
    stitch,
    summarize_channel,
)

#: Optional progress sink: one human-readable line per channel.
Progress = Callable[[str], None]


def run_channel(plan: ShardPlan, channel: ChannelPlan) -> ChannelSummary:
    """Run one channel of the plan to completion, streaming everything."""
    from repro.bench.experiments import _rescale_transactions, synthetic_spec
    from repro.contracts.registry import genchain_family
    from repro.fabric.network import FabricNetwork
    from repro.logs.stream import RunStream
    from repro.workloads.synthetic import iter_synthetic_requests

    spec = synthetic_spec(plan.base, seed=channel.seed)
    _rescale_transactions(spec, channel.transactions)
    _split_send_rate(spec, len(plan.channels))
    config = spec.to_network_config()
    for org_name, count in channel.clients:
        config.org(org_name).num_clients = count

    deployment = genchain_family(num_keys=spec.num_keys).deploy()
    contract_name = deployment.contracts[0].name

    stream = RunStream()
    tally = OutcomeTally()
    rates = RateSeriesAccumulator(plan.interval_seconds)
    stream.add_transaction_consumer(tally).add_record_consumer(rates)

    network = FabricNetwork(config, deployment.contracts, stream=stream)
    stats = network.run_streamed(iter_synthetic_requests(spec, contract_name))
    return summarize_channel(channel, stats, tally, rates, stream)


def _split_send_rate(spec, channels: int) -> None:
    """Divide the base spec's arrival rate across ``channels``.

    Sharding splits *one* workload over N channels, so the aggregate
    arrival rate is the base spec's rate and each channel sees 1/N of
    it.  Without the split every channel would submit at the full base
    rate — N times the intended load — and, because the base specs are
    tuned near the network's service capacity, each channel would run in
    open-loop overload with an in-flight backlog (and therefore peak
    memory) growing linearly in its transaction budget, defeating the
    flat-memory property the sharded mode exists to provide.
    """
    spec.send_rate = spec.send_rate / channels
    if spec.send_rate_phases is not None:
        spec.send_rate_phases = [
            (count, rate / channels) for count, rate in spec.send_rate_phases
        ]


def run_sharded(plan: ShardPlan, progress: Progress | None = None) -> StitchedSummary:
    """Run every channel of ``plan`` and stitch the summaries."""
    note = progress or (lambda message: None)
    summaries = []
    for channel in plan.channels:
        summary = run_channel(plan, channel)
        note(
            f"{channel.name}: {summary.committed} committed / "
            f"{summary.aborted} aborted in {summary.blocks} blocks, "
            f"{summary.throughput:.1f} tps, "
            f"{summary.success_rate * 100.0:.1f}% success"
        )
        summaries.append(summary)
    return stitch(plan, summaries)
