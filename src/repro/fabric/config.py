"""Network, organization, and timing configuration.

``TimingConfig`` holds the calibrated service times of each pipeline stage.
The constants were tuned (see EXPERIMENTS.md and ``repro.bench.claims``)
so that the simulated network saturates in the 150-250 TPS band of the
paper's testbed and reproduces its qualitative behaviours: endorser
bottlenecks under mandatory-org policies, orderer collapse with tiny
blocks, timeout-bound latency with oversized blocks, and MVCC conflict
growth with backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.fabric.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario.spec import ScenarioSpec

#: Selectable failure-mitigation strategies (see docs/FAILURES.md):
#: ``none`` is the seed behaviour, ``early_abort`` drops transactions with
#: already-stale read sets at the client before ordering, ``reorder``
#: swaps in the conflict-aware in-block scheduler.
MITIGATIONS = ("none", "early_abort", "reorder")


@dataclass(frozen=True)
class TimingConfig:
    """Service times (seconds) and delays for every pipeline stage.

    Calibration (see EXPERIMENTS.md): the *client proposal* stage is the
    default bottleneck at 300 TPS — matching the Fabric/Caliper stack,
    where backlog accumulates before chaincode execution, so the
    execute-to-commit staleness window stays small and success rates stay
    high even at multi-second latencies.  Endorsers saturate only under
    mandatory-org policies (P1/P2+skew), which adds latency but not
    staleness — reproducing Figure 7's high-latency, high-success runs.
    The large per-block ordering cost (Raft round + assembly +
    dissemination) is what makes small block counts collapse (Figure 9).
    """

    #: Client work to build/sign one transaction proposal (Caliper worker).
    client_per_tx: float = 0.014
    #: Client packaging cost per endorsement response to verify; the total
    #: packaging time is ``(1 + num_endorsements) * package_per_endorsement``.
    package_per_endorsement: float = 0.0005
    #: Chaincode execution + signing on an endorsing peer, per transaction.
    endorse_per_tx: float = 0.003
    #: One-way network delay between any two components.
    network_delay: float = 0.002
    #: Ordering-service cost per block (Raft round + block assembly).
    order_per_block: float = 0.4
    #: Ordering-service cost per transaction within a block.
    order_per_tx: float = 0.001
    #: Validation pipeline cost per transaction (signature + MVCC check).
    validate_per_tx: float = 0.0022
    #: Per-block commit cost on the validating peer.
    commit_per_block: float = 0.03
    #: How long a client waits for an endorser before giving up on it.
    endorse_timeout: float = 8.0


@dataclass
class OrgConfig:
    """One organization: its clients and endorsing peers."""

    name: str
    num_clients: int = 5
    endorsers_per_org: int = 1

    def client_names(self) -> list[str]:
        """The org's client process names (``<org>-client<i>``)."""
        return [f"{self.name}-client{i}" for i in range(self.num_clients)]

    def endorser_names(self) -> list[str]:
        """The org's endorsing peer names (``<org>-peer<i>``)."""
        return [f"{self.name}-peer{i}" for i in range(self.endorsers_per_org)]


@dataclass
class NetworkConfig:
    """Complete configuration of a simulated Fabric network.

    Block cutting follows Fabric's three conditions: a block is cut when the
    buffered transaction count reaches ``block_count``, the oldest buffered
    transaction is ``block_timeout`` seconds old, or the buffered payload
    reaches ``block_bytes``.
    """

    orgs: list[OrgConfig] = field(default_factory=lambda: default_orgs(2))
    endorsement_policy: str = "OutOf(1,Org1,Org2)"
    block_count: int = 100
    block_timeout: float = 1.0
    block_bytes: int = 2 * 1024 * 1024
    #: Zipf skew for how clients pick among policy alternatives; 0 = uniform.
    endorser_selection_skew: float = 0.0
    #: Ordering-stage scheduler, one of :data:`repro.fabric.reorder.SCHEDULERS`.
    scheduler: str = "fifo"
    #: Sliding-window (in blocks) for the FabricSharp-style scheduler.
    scheduler_window: int = 5
    timing: TimingConfig = field(default_factory=TimingConfig)
    seed: int = 7
    #: Client retry/resubmission policy; ``None`` = fire-and-forget clients
    #: (the seed behaviour — baseline runs stay bit-identical).
    retry: RetryPolicy | None = None
    #: Failure-mitigation strategy, one of :data:`MITIGATIONS`.
    mitigation: str = "none"
    #: SLO-guardian controller configuration
    #: (:class:`repro.control.spec.ControlSpec`); ``None`` — the default —
    #: keeps the run controller-free and byte-identical to builds without
    #: the control package.
    control: "object | None" = None
    #: Fault-injection scenario (:class:`repro.scenario.spec.ScenarioSpec`)
    #: the network installs after its genesis block and whose workload
    #: transforms :meth:`~repro.fabric.network.FabricNetwork.run` applies;
    #: ``None`` — the default — runs the static network.
    scenario: "ScenarioSpec | None" = None

    def __post_init__(self) -> None:
        if self.control is not None:
            # Imported lazily: repro.control.bounds imports this module.
            from repro.control.spec import ControlSpec

            if not isinstance(self.control, ControlSpec):
                raise ValueError(
                    f"control must be a ControlSpec or None, got {self.control!r}"
                )
        if self.mitigation not in MITIGATIONS:
            raise ValueError(
                f"unknown mitigation {self.mitigation!r}; known: {', '.join(MITIGATIONS)}"
            )
        if self.block_count < 1:
            raise ValueError(f"block_count must be >= 1, got {self.block_count}")
        if self.block_timeout <= 0:
            raise ValueError(f"block_timeout must be positive, got {self.block_timeout}")
        if not self.orgs:
            raise ValueError("need at least one organization")
        names = [org.name for org in self.orgs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate organization names in {names}")

    def org_names(self) -> list[str]:
        """Organization names, in configuration order."""
        return [org.name for org in self.orgs]

    def org(self, name: str) -> OrgConfig:
        """Look one organization up by name."""
        for org in self.orgs:
            if org.name == name:
                return org
        raise KeyError(f"unknown organization {name!r}")

    def copy(self) -> "NetworkConfig":
        """Deep-enough copy: orgs are cloned, immutable members shared."""
        return replace(self, orgs=[replace(org) for org in self.orgs])


def default_orgs(n: int, num_clients: int = 5, endorsers_per_org: int = 1) -> list[OrgConfig]:
    """``n`` organizations named Org1..OrgN with uniform resources."""
    if n < 1:
        raise ValueError(f"need at least one org, got {n}")
    return [
        OrgConfig(name=f"Org{i}", num_clients=num_clients, endorsers_per_org=endorsers_per_org)
        for i in range(1, n + 1)
    ]
