"""Endorsing peers and the endorsement phase.

The client selects one alternative among the policy's minimal satisfying
org sets (a Zipf-weighted choice: skew 0 spreads load evenly, high skew
reproduces the paper's *endorser distribution skew* where clients always
hit the same orgs).  Each selected org executes the chaincode on one of
its peers; the read-write set is produced by whichever peer starts first,
against the committed state at that instant — the staleness that later
causes MVCC conflicts.

If a peer's queue is longer than ``endorse_timeout``, the client gives up
on that org: the transaction is submitted with a *missing endorsement* and
fails policy validation — the mechanism behind endorsement-policy failures
under endorser bottlenecks.  A *crashed* peer (scenario intervention)
behaves the same way: clients cannot reach it, so its org's endorsement
goes missing until the peer recovers.
"""

from __future__ import annotations

from typing import Callable

from repro.fabric.chaincode import ChaincodeAbort, ChaincodeContext, Contract
from repro.fabric.conditions import NetworkConditions
from repro.fabric.config import NetworkConfig
from repro.fabric.policy import EndorsementPolicy
from repro.fabric.state import StateDatabase
from repro.fabric.transaction import ReadWriteSet, Transaction
from repro.sim.kernel import Kernel
from repro.sim.resources import Server
from repro.sim.rng import SimRng, WeightedSampler, zipf_weights


class EndorserPool:
    """All endorsing peers, plus the endorsement orchestration logic."""

    def __init__(
        self,
        kernel: Kernel,
        config: NetworkConfig,
        policy: EndorsementPolicy,
        state_db: StateDatabase,
        contracts: dict[str, Contract],
        rng: SimRng,
        conditions: NetworkConditions,
    ) -> None:
        self._kernel = kernel
        self._timing = config.timing
        self._conditions = conditions
        self._policy = policy
        self._state_db = state_db
        self._contracts = contracts
        self._rng = rng
        self._selection_skew = config.endorser_selection_skew
        self._peers_by_org: dict[str, list[Server]] = {}
        for org in config.orgs:
            self._peers_by_org[org.name] = [
                Server(kernel, name) for name in org.endorser_names()
            ]
        alternatives = [
            alt
            for alt in policy.minimal_satisfying_sets()
            if all(org in self._peers_by_org for org in alt)
        ]
        if not alternatives:
            raise ValueError(
                f"policy {policy.to_expression()} has no satisfiable alternative "
                f"with orgs {sorted(self._peers_by_org)}"
            )
        # Hot-path caches: each alternative's orgs are sorted once; the
        # selection draw goes through a precomputed-CDF sampler
        # (bit-identical to ``choice(n, p=weights)``, built once); and the
        # endorsement service time per (contract, activity) pair is a pure
        # function of static config, so it is computed at most once.
        self._alternatives = [tuple(sorted(alt)) for alt in alternatives]
        self._selection = WeightedSampler(
            rng.stream("endorser-selection"),
            zipf_weights(len(alternatives), self._selection_skew),
        )
        self._service_time_cache: dict[tuple[str, str], float] = {}

    def servers(self) -> list[Server]:
        """Every endorsing peer (for utilization reporting)."""
        return [p for peers in self._peers_by_org.values() for p in peers]

    def peers(self, target: str | None = None) -> list[Server]:
        """Resolve an intervention target to endorsing peers.

        ``None`` means every peer; an organization name means that org's
        peers; otherwise ``target`` must be a full peer name like
        ``Org1-peer0``.
        """
        if target is None:
            return self.servers()
        if target in self._peers_by_org:
            return list(self._peers_by_org[target])
        for peer in self.servers():
            if peer.name == target:
                return [peer]
        raise KeyError(
            f"unknown endorser target {target!r}; expected an org "
            f"({sorted(self._peers_by_org)}) or a peer name"
        )

    def _least_loaded_peer(self, org: str) -> Server | None:
        """The org's least busy *reachable* peer, or ``None`` if all are down.

        Ties go to the first such peer, as with ``min``.
        """
        best = None
        for peer in self._peers_by_org[org]:
            if peer.enabled and (best is None or peer.busy_until < best.busy_until):
                best = peer
        return best

    def endorse(
        self,
        tx: Transaction,
        on_done: Callable[[], None],
        on_abort: Callable[[], None],
    ) -> None:
        """Run the endorsement phase for ``tx``.

        Fills ``tx.endorsers`` / ``tx.missing_endorsements`` / ``tx.rwset``
        and schedules ``on_done`` for when the slowest endorsement returns
        to the client, or ``on_abort`` if the chaincode early-aborts the
        transaction (pruned contracts).
        """
        orgs = self._alternatives[self._selection.draw()]
        endorsing: list[Server] = []
        missing: list[str] = []
        reasons: list[str] = []
        # The earliest-starting peer executes the chaincode and produces the
        # read-write set (endorsers are deterministic, so one execution
        # stands for all); ties go to the first, as with ``min``.
        executor = None
        for org in orgs:
            peer = self._least_loaded_peer(org)
            if peer is None:
                missing.append(org)
                reasons.append("crashed")
            elif peer.queue_delay() > self._timing.endorse_timeout:
                missing.append(org)
                reasons.append("timeout")
            else:
                endorsing.append(peer)
                if executor is None or peer.busy_until < executor.busy_until:
                    executor = peer

        tx.missing_endorsements = tuple(missing)
        tx.missing_reasons = tuple(reasons)
        if not endorsing:
            # Every selected org timed out or crashed; the client submits an
            # envelope with no endorsements at all, doomed to a policy failure.
            tx.endorsers = ()
            self._kernel.schedule_in(
                self._conditions.network_delay(tx.invoker_org), on_done
            )
            return

        tx.endorsers = tuple([peer.name for peer in endorsing])
        cache_key = (tx.contract, tx.activity)
        service_time = self._service_time_cache.get(cache_key)
        if service_time is None:
            contract = self._contracts.get(tx.contract)
            cost = contract.cost_factor(tx.activity) if contract is not None else 1.0
            service_time = self._timing.endorse_per_tx * cost
            self._service_time_cache[cache_key] = service_time

        round_ = _EndorsementRound(self, tx, len(endorsing), on_done, on_abort)
        # Fixed conditions: no peer completion event (see Server).
        fixed = self._conditions.fixed
        peer_done = None if fixed else round_.peer_done
        latest = 0.0
        for peer in endorsing:
            execute = round_.execute if peer is executor else None
            finish = peer.submit(service_time, peer_done, execute)
            if finish > latest:
                latest = finish
        if fixed:
            delay = self._conditions.network_delay(tx.invoker_org)
            self._kernel.schedule(latest + delay, round_.back)

    def _execute_chaincode(self, tx: Transaction) -> None:
        contract = self._contracts.get(tx.contract)
        if contract is None:
            raise ChaincodeAbort(f"unknown contract {tx.contract!r}")
        ctx = ChaincodeContext(
            self._state_db.namespace(tx.contract), tx.rwset, tx.invoker_client, tx.tx_id
        )
        try:
            contract.invoke(ctx, tx.activity, tx.args)
        except ChaincodeAbort:
            tx.rwset = ReadWriteSet()
            raise
        tx.endorse_time = self._kernel.now


class _EndorsementRound:
    """One transaction's endorsement in flight: the peers still working and
    the chaincode's abort reason, if it aborted.

    Its methods are the kernel callbacks of the endorsement; the round is
    freed once it is back at the client.
    """

    __slots__ = ("pool", "tx", "pending", "abort_reason", "on_done", "on_abort")

    def __init__(
        self,
        pool: EndorserPool,
        tx: Transaction,
        pending: int,
        on_done: Callable[[], None],
        on_abort: Callable[[], None],
    ) -> None:
        self.pool = pool
        self.tx = tx
        self.pending = pending
        self.abort_reason: str | None = None
        self.on_done = on_done
        self.on_abort = on_abort

    def execute(self) -> None:
        """The executor starts service: run the chaincode against state now."""
        try:
            self.pool._execute_chaincode(self.tx)
        except ChaincodeAbort as abort:
            self.abort_reason = str(abort)

    def peer_done(self) -> None:
        """One endorsement is done; the last reads the delay and sends the round back."""
        self.pending -= 1
        if self.pending:
            return
        pool = self.pool
        pool._kernel.schedule_in(
            pool._conditions.network_delay(self.tx.invoker_org), self.back
        )

    def back(self) -> None:
        """The endorsements are back at the client."""
        (self.on_done if self.abort_reason is None else self.on_abort)()
