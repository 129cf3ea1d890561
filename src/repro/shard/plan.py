"""Multi-channel shard planning: split one big run into N channels.

A Fabric deployment scales writes by running several *channels*, each an
independent ordering service with its own ledger; clients are spread
across channels and a transaction lives entirely inside one of them.
:func:`plan_shards` reproduces that shape deterministically:

* the transaction budget is split across channels (remainder to the
  front, so channel order — not floating point — decides who gets one
  more);
* every channel derives its own seed from the plan seed and the channel
  name via SHA-256, so channels are statistically independent but
  bit-reproducible;
* the *global* client population — ``clients_per_org × channels``
  clients per organization — is partitioned over channels by hashing
  each client's name, mirroring how a real operator pins client pools to
  channels.  A channel that the hash leaves without a client for some
  org is bumped to one (a channel cannot run without clients).

The plan is pure data: :func:`repro.shard.runner.run_sharded` executes
it, one kernel-driven :class:`~repro.fabric.network.FabricNetwork` per
channel, and stitches the streamed summaries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class ChannelPlan:
    """One channel of a sharded run: its seed, budget and client slice."""

    index: int
    name: str
    seed: int
    transactions: int
    #: ``(org name, client count)`` per organization, in org order.
    clients: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        """JSON-able form (embedded in summaries and digest goldens)."""
        return {
            "index": self.index,
            "name": self.name,
            "seed": self.seed,
            "transactions": self.transactions,
            "clients": [[org, count] for org, count in self.clients],
        }


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic multi-channel split of one large workload."""

    #: Synthetic base experiment (a :func:`repro.bench.experiments.synthetic_spec` name).
    base: str
    seed: int
    total_transactions: int
    #: Width of the stitched rate-series intervals (seconds).
    interval_seconds: float
    channels: tuple[ChannelPlan, ...]

    def to_dict(self) -> dict:
        """JSON-able form."""
        return {
            "base": self.base,
            "seed": self.seed,
            "total_transactions": self.total_transactions,
            "interval_seconds": self.interval_seconds,
            "channels": [channel.to_dict() for channel in self.channels],
        }


def derive_channel_seed(base_seed: int, channel_name: str) -> int:
    """Deterministic per-channel seed (stable across processes/versions)."""
    digest = hashlib.sha256(f"{base_seed}:{channel_name}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


def assign_clients(
    org_names: list[str], clients_per_org: int, channels: int
) -> list[list[tuple[str, int]]]:
    """Partition the global client population over ``channels`` by name hash.

    The population is ``clients_per_org * channels`` clients per org —
    the same per-channel density the base experiment would have if every
    channel simply copied it — assigned to channels by SHA-256 of the
    client name, so the split is deterministic and independent of channel
    count elsewhere in the plan.  Organizations the hash leaves empty on
    some channel get one client there (minimum viable channel membership).
    """
    if channels < 1:
        raise ValueError(f"need at least one channel, got {channels}")
    if clients_per_org < 1:
        raise ValueError(f"need at least one client per org, got {clients_per_org}")
    counts = [{org: 0 for org in org_names} for _ in range(channels)]
    for org in org_names:
        for index in range(clients_per_org * channels):
            name = f"{org}-client{index}"
            digest = hashlib.sha256(name.encode()).digest()
            channel = int.from_bytes(digest[:8], "big") % channels
            counts[channel][org] += 1
    return [
        [(org, max(1, by_org[org])) for org in org_names] for by_org in counts
    ]


def plan_shards(
    base: str = "default",
    channels: int = 4,
    total_transactions: int = 100_000,
    seed: int = 7,
    interval_seconds: float = 1.0,
) -> ShardPlan:
    """Build the deterministic :class:`ShardPlan` for one sharded run."""
    from repro.bench.experiments import synthetic_spec

    if total_transactions < channels:
        raise ValueError(
            f"{total_transactions} transactions cannot cover {channels} channels"
        )
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be positive, got {interval_seconds}")
    spec = synthetic_spec(base, seed=seed)  # validates the base name
    org_names = [f"Org{i}" for i in range(1, spec.num_orgs + 1)]
    client_split = assign_clients(org_names, spec.clients_per_org, channels)

    share, remainder = divmod(total_transactions, channels)
    plans = []
    for index in range(channels):
        name = f"channel{index}"
        plans.append(
            ChannelPlan(
                index=index,
                name=name,
                seed=derive_channel_seed(seed, name),
                transactions=share + (1 if index < remainder else 0),
                clients=tuple(client_split[index]),
            )
        )
    return ShardPlan(
        base=base,
        seed=seed,
        total_transactions=total_transactions,
        interval_seconds=interval_seconds,
        channels=tuple(plans),
    )
