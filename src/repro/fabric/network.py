"""End-to-end network orchestration.

:class:`FabricNetwork` wires clients, endorsers, the ordering service and
the validation pipeline onto one simulation kernel and drives a workload
through the full execute-order-validate lifecycle:

1. at its scheduled submit time a request occupies its client (proposal);
2. the endorsement phase runs on the selected orgs' peers, snapshotting the
   committed state at execution start;
3. the client packages the endorsed envelope and submits it to ordering;
4. the block cutter batches envelopes; each block costs ordering service
   time, then validation + commit time, after which statuses are final and
   the block — failures included — is on the ledger.

The genesis block (block 0) carries a config transaction recording block
count, block timeout and the endorsement policy, so that BlockOptR can
later *extract the configuration from the ledger*, as the paper does.

Every block and every abort goes to one sink, the network's
:class:`~repro.logs.stream.RunStream`; whatever reads the run is a
consumer registered on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.fabric.chaincode import Contract
from repro.fabric.client import ClientPool
from repro.fabric.conditions import NetworkConditions
from repro.fabric.config import MITIGATIONS, NetworkConfig
from repro.fabric.endorser import EndorserPool
from repro.fabric.ledger import Block, KeptChain, Ledger
from repro.fabric.orderer import OrderingService
from repro.fabric.policy import parse_policy
from repro.fabric.reorder import make_scheduler
from repro.fabric.results import RunResult
from repro.fabric.state import StateDatabase
from repro.fabric.transaction import Transaction, TxRequest, TxStatus
from repro.fabric.validator import ValidationPipeline, rwset_conflict
from repro.sim.kernel import ARRIVAL_PRIORITY, Kernel
from repro.sim.rng import SimRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.forensics import ForensicsAccumulator
    from repro.logs.stream import RunStream


@dataclass(frozen=True)
class StreamedRunStats:
    """Headline accounting of one run, read off its stream's counters."""

    issued: int
    committed: int
    aborted: int
    blocks: int
    data_blocks: int
    first_submit: float
    last_commit: float


class FabricNetwork:
    """A simulated Fabric network ready to execute workloads.

    A config carrying a :class:`~repro.scenario.spec.ScenarioSpec`
    (``config.scenario``) turns the static network into a dynamic one:
    its interventions are installed on the kernel's intervention lane at
    construction time and its workload transforms are applied to the
    requests in :meth:`run`.

    Built without a ``stream``, the network makes one and keeps the
    chain on it (:attr:`ledger`, :attr:`aborted`); built on a caller's
    stream, it keeps nothing and reading the chain back raises.
    """

    def __init__(
        self,
        config: NetworkConfig,
        contracts: list[Contract],
        stream: "RunStream | None" = None,
    ) -> None:
        if not contracts:
            raise ValueError("a network needs at least one smart contract")
        self.config = config
        self.kernel = Kernel()
        self.rng = SimRng(config.seed)
        fixed = config.scenario is None and config.control is None  # no writer
        self.conditions = NetworkConditions(config.timing, fixed)
        self.policy = parse_policy(config.endorsement_policy)
        unknown = self.policy.organizations() - set(config.org_names())
        if unknown:
            raise ValueError(
                f"policy references organizations missing from the network: {sorted(unknown)}"
            )
        self.state_db = StateDatabase()
        #: The outcome fold :meth:`run` registers (``None`` until then).
        self.outcomes: ForensicsAccumulator | None = None
        self._chain: KeptChain | None = None
        if stream is None:
            from repro.logs.stream import RunStream

            self._chain = KeptChain()
            stream = RunStream().add_chain_consumer(self._chain)
        #: The run's one output seam (see :mod:`repro.logs.stream`).
        self.stream: RunStream = stream
        self.contracts = {contract.name: contract for contract in contracts}
        if len(self.contracts) != len(contracts):
            raise ValueError("duplicate contract names")
        for contract in contracts:
            contract.setup(self.state_db.namespace(contract.name))

        self.clients = ClientPool(self.kernel, config)
        self.endorsers = EndorserPool(
            self.kernel,
            config,
            self.policy,
            self.state_db,
            self.contracts,
            self.rng,
            conditions=self.conditions,
        )
        self._scheduler = self._scheduler_for(config.mitigation)
        self.validator = ValidationPipeline(
            self.kernel, config, self.policy, self.state_db, stream
        )
        self.orderer = OrderingService(
            self.kernel,
            config,
            self._scheduler,
            deliver=self.validator.receive_block,
            conditions=self.conditions,
        )
        self._tx_counter = 0
        self._retry = config.retry
        self._mitigation = config.mitigation
        #: Retry-traffic counters (see docs/FAILURES.md): resubmissions
        #: issued, retries that ultimately committed, and logical
        #: transactions whose final allowed attempt still failed.
        self.retries_issued = 0
        self.retries_recovered = 0
        self.retries_exhausted = 0
        # Admission-pacing state (the controller's rate throttle): a FIFO
        # of deferred arrivals, the next free admission slot, and whether
        # a drain event is already on the kernel.
        self._pace_queue: deque[_Flight] = deque()
        self._pace_slot = 0.0
        self._pace_draining = False
        self._append_genesis()

        self.scenario_engine = None
        if config.scenario is not None:
            from repro.scenario.engine import ScenarioEngine

            self.scenario_engine = ScenarioEngine(config.scenario)
            self.scenario_engine.install(self)

        #: The SLO-guardian controller (:mod:`repro.control`), installed
        #: only when the config carries a ControlSpec — ``None`` keeps
        #: this network byte-identical to a controller-less build.
        self.controller = None
        if config.control is not None:
            from repro.control.controller import SLOGuardian

            self.controller = SLOGuardian(self, config.control)
            self.controller.install()

    # -- the kept chain ---------------------------------------------------------

    @property
    def ledger(self) -> Ledger:
        """The kept chain's ledger, genesis block included."""
        return self._kept().ledger

    @property
    def aborted(self) -> list[Transaction]:
        """Transactions that aborted before reaching the chain, in order."""
        return self._kept().aborted

    def _kept(self) -> KeptChain:
        if self._chain is None:
            raise RuntimeError(
                "a network built on a caller's RunStream keeps no chain; "
                "register consumers on the stream before the run instead"
            )
        return self._chain

    # -- live actuation seams ---------------------------------------------------

    @property
    def mitigation(self) -> str:
        """The mitigation currently in effect (live, controller-adjustable)."""
        return self._mitigation

    @property
    def retry_policy(self):
        """The retry policy currently in effect (``None`` = no retries)."""
        return self._retry

    def set_mitigation(self, mitigation: str) -> None:
        """Switch the live mitigation strategy mid-run.

        Affects transactions from this kernel instant on: ``early_abort``
        gates the *next* packaging checks, and the reorder scheduler swap
        applies to the *next* block cut.  The shared config is untouched —
        it may be reused by offline re-runs.
        """
        self._scheduler = self._scheduler_for(mitigation)
        self._mitigation = mitigation
        self.orderer.set_scheduler(self._scheduler)

    def _scheduler_for(self, mitigation: str):
        """The ordering scheduler ``mitigation`` runs with.

        The ``reorder`` mitigation swaps in the abort-free conflict-aware
        scheduler; every other mitigation keeps the configured one.  An
        unknown mitigation name raises ``ValueError``.
        """
        if mitigation not in MITIGATIONS:
            raise ValueError(
                f"unknown mitigation {mitigation!r}; known: {', '.join(MITIGATIONS)}"
            )
        name = "conflict_aware" if mitigation == "reorder" else self.config.scheduler
        return make_scheduler(name, self.config.scheduler_window)

    def set_retry_policy(self, policy) -> None:
        """Replace the live client retry policy (``None`` disables retries)."""
        self._retry = policy

    # -- lifecycle -------------------------------------------------------------

    def _append_genesis(self) -> None:
        config_tx = Transaction(
            tx_id="config-0",
            client_timestamp=0.0,
            activity="__config__",
            args=(
                ("block_count", self.config.block_count),
                ("block_timeout", self.config.block_timeout),
                ("block_bytes", self.config.block_bytes),
                ("endorsement_policy", self.config.endorsement_policy),
            ),
            contract="__channel__",
            invoker_client="admin",
            invoker_org="OrdererOrg",
            is_config=True,
            status=TxStatus.SUCCESS,
            commit_time=0.0,
            block_number=0,
        )
        genesis = Block(
            number=0,
            transactions=[config_tx],
            previous_hash=Ledger.GENESIS_HASH,
            cut_reason="genesis",
            created_at=0.0,
            committed_at=0.0,
        )
        self.stream.accept_block(genesis)

    def _next_tx_id(self) -> str:
        self._tx_counter += 1
        return f"tx-{self._tx_counter:06d}"

    # -- pipeline stages --------------------------------------------------------

    def submit_request(self, request: TxRequest) -> None:
        """Schedule ``request`` for execution at its submit time."""
        self.kernel.schedule(request.submit_time, _Flight(self, request).arrive)

    def _admit(self, flight: _Flight) -> None:
        # Admission pacing (the controller's rate throttle).  Uncapped
        # with an empty queue — the default — this is a straight
        # passthrough, so controller-off runs are byte-identical.  Under
        # a cap, arrivals join a FIFO queue drained one per ``1 / cap``
        # seconds; the cap is re-read at every drain, so relaxing it
        # speeds the drain up and clearing it flushes the whole backlog
        # at the next slot instead of leaving work booked far out.
        if self.conditions.send_rate_cap is None and not self._pace_queue:
            flight.start()
            return
        self._pace_queue.append(flight)
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        """Arm one drain event at the next admission slot (idempotent)."""
        if self._pace_draining or not self._pace_queue:
            return
        self._pace_draining = True
        now = self.kernel.now
        when = self._pace_slot if self._pace_slot > now else now
        self.kernel.schedule(when, self._drain_paced)

    def _drain_paced(self) -> None:
        """Admit the oldest deferred arrival and book the next slot."""
        self._pace_draining = False
        if not self._pace_queue:
            return
        flight = self._pace_queue.popleft()
        cap = self.conditions.send_rate_cap
        if cap is not None:
            self._pace_slot = self.kernel.now + 1.0 / cap
        else:
            self._pace_slot = self.kernel.now
        flight.start()
        self._schedule_drain()

    def _abort_if_stale(self, tx: Transaction) -> bool:
        """The ``early_abort`` mitigation: drop a doomed envelope at the client.

        At packaging time the client re-checks the endorsed read set
        against the *currently committed* state — the same check the
        validator will run after ordering.  A transaction that already
        conflicts cannot possibly validate (versions only move forward),
        so submitting it would waste ordering and block space; it is
        aborted here and, when a retry policy is active, resubmitted with
        a fresh read set.  Returns True when the transaction was dropped.
        """
        if tx.endorsers == ():
            return False  # doomed to a policy failure, not a stale read
        namespace = self.state_db.namespace(tx.contract)
        verdict = rwset_conflict(namespace, tx.rwset)
        if verdict is None:
            return False
        _, key = verdict
        tx.status = TxStatus.EARLY_ABORT
        tx.abort_stage = "stale_read"
        tx.conflict_key = key
        tx.commit_time = self.kernel.now
        self.stream.accept_abort(tx)
        self._maybe_retry(tx)
        return True

    def _record_early_abort(self, tx: Transaction, at: float) -> None:
        tx.status = TxStatus.EARLY_ABORT
        tx.abort_stage = "ordering"
        tx.commit_time = at
        self.stream.accept_abort(tx)
        self._maybe_retry(tx)

    def _after_block(self, block: Block) -> None:
        """Post-commit hook: account retries, resubmit failures."""
        for tx in block.transactions:
            if tx.is_config:
                continue
            if tx.status is TxStatus.SUCCESS:
                if tx.attempt > 1:
                    self.retries_recovered += 1
            else:
                self._maybe_retry(tx)

    def _maybe_retry(self, tx: Transaction) -> None:
        """Resubmit a failed transaction under the configured retry policy."""
        if self._retry is None:
            return
        if tx.attempt >= self._retry.max_attempts:
            self.retries_exhausted += 1
            return
        uniform = (
            (lambda: float(self.rng.stream("client-retry").random()))
            if self._retry.jitter > 0.0
            else None
        )
        delay = self._retry.delay(tx.attempt, uniform)
        self.retries_issued += 1
        self.submit_request(
            TxRequest(
                submit_time=self.kernel.now + delay,
                activity=tx.activity,
                args=tuple(tx.args),
                contract=tx.contract,
                invoker_org=tx.invoker_org,
                attempt=tx.attempt + 1,
                retry_of=tx.retry_of or tx.tx_id,
            )
        )

    # -- running ----------------------------------------------------------------

    def _pump_arrivals(self, requests: Iterable[TxRequest]) -> StreamedRunStats:
        """Pump submit-time-ordered ``requests`` through the kernel to completion.

        The one run body behind :meth:`run` and :meth:`run_streamed` (see
        :class:`_ArrivalPump`).  Returns the run's counters once every
        issued transaction, retries included, has committed or aborted
        exactly once.
        """
        pump = _ArrivalPump(self, requests)
        first = pump.request
        if first is None:
            raise ValueError("empty workload")
        # The stages call back into this network only while it runs;
        # dropping the links once the heap drains leaves no reference
        # cycle, so a finished network is freed by reference counting.
        self.orderer.early_abort = self._record_early_abort
        self.validator.on_block_committed = self._after_block
        try:
            self.kernel.schedule(
                first.submit_time, pump.arrive, priority=ARRIVAL_PRIORITY
            )
            self.kernel.run()
        finally:
            self.orderer.early_abort = None
            self.validator.on_block_committed = None
        stream = self.stream
        total_issued = pump.issued + self.retries_issued
        accounted = stream.committed_txs + stream.aborts
        if accounted != total_issued:
            raise RuntimeError(
                f"transaction accounting mismatch: {accounted} finished "
                f"of {total_issued} issued ({self.retries_issued} retries)"
            )
        return StreamedRunStats(
            issued=pump.issued,
            committed=stream.committed_txs,
            aborted=stream.aborts,
            blocks=stream.height,
            data_blocks=stream.data_blocks,
            first_submit=first.submit_time,
            last_commit=(
                stream.last_commit_time
                if stream.last_commit_time is not None
                else first.submit_time
            ),
        )

    def run(self, requests: list[TxRequest]) -> RunResult:
        """Execute a workload to completion and summarize it.

        Applies the scenario's workload transforms, sorts the requests by
        submit time (stably) and runs them like :meth:`run_streamed`,
        with a :class:`~repro.analysis.forensics.ForensicsAccumulator` on
        the stream.  It stays on the network as :attr:`outcomes`, the
        run's one outcome fold: the :class:`RunResult` is read off it,
        and ``outcomes.finish_run(network)`` is the run's forensics
        report.
        """
        from repro.analysis.forensics import ForensicsAccumulator

        if not requests:
            raise ValueError("empty workload")
        if self.scenario_engine is not None:
            requests = self.scenario_engine.transform_requests(requests)
        self.outcomes = ForensicsAccumulator()
        self.stream.add_transaction_consumer(self.outcomes)
        stats = self._pump_arrivals(sorted(requests, key=lambda r: r.submit_time))
        return RunResult.from_outcomes(self.outcomes, stats)

    def run_streamed(self, requests: Iterable[TxRequest]) -> StreamedRunStats:
        """Execute a submit-time-ordered request *stream* to completion.

        Neither the request list nor a summary is ever materialized: with
        only the caller's accumulators registered on the
        :class:`~repro.logs.stream.RunStream` of a network built on it, a
        run's live state is the in-flight transactions plus O(blocks)
        bookkeeping, independent of how many transactions flow through.
        Workload transforms need the whole request list, so a scenario
        carrying them must run through :meth:`run`.
        """
        engine = self.scenario_engine
        if engine is not None and engine.spec.workload_interventions():
            raise ValueError(
                "run_streamed() cannot apply workload-transform interventions: "
                "they need the full request list (apply the transforms to the "
                "request iterable up front and pass a network-only scenario)"
            )
        return self._pump_arrivals(requests)


class _ArrivalPump:
    """Feeds a submit-time-ordered request stream to the kernel, one at a time.

    Each arrival admits its request and schedules the next on the arrival
    lane (see ARRIVAL_PRIORITY), so the kernel holds one pending arrival,
    never the whole workload.  Only the kernel's heap refers to the pump,
    so it is freed with the last arrival.
    """

    __slots__ = ("network", "iterator", "request", "issued")

    def __init__(self, network: FabricNetwork, requests: Iterable[TxRequest]) -> None:
        self.network = network
        self.iterator = iter(requests)
        #: The request whose arrival is on the kernel (``None`` when done).
        self.request: TxRequest | None = next(self.iterator, None)
        self.issued = 0

    def arrive(self) -> None:
        """Admit the current request, then put the next one on the kernel."""
        request = self.request
        network = self.network
        self.issued += 1
        network._admit(_Flight(network, request))
        upcoming = self.request = next(self.iterator, None)
        if upcoming is not None:
            if upcoming.submit_time < request.submit_time:
                raise ValueError(
                    "request stream must be ordered by submit time: "
                    f"{upcoming.submit_time} after {request.submit_time}"
                )
            network.kernel.schedule(
                upcoming.submit_time, self.arrive, priority=ARRIVAL_PRIORITY
            )


class _Flight:
    """One transaction's trip through the execute-order-validate pipeline.

    Each stage is a method handed to the kernel or to a ``Server`` as it
    stands, so a transaction allocates no closure; the transaction and
    its client ride along in two slots.  In order:
    :meth:`start` (admission: the proposal at a client), :meth:`proposed`,
    :meth:`endorse`, then :meth:`endorsed` or :meth:`aborted`,
    :meth:`packaged` and :meth:`submit` (to ordering).  With fixed
    conditions the client's jobs skip :meth:`proposed` and (except under
    ``early_abort``, checked at the packaging finish) :meth:`packaged`.
    Only the kernel's heap refers to a flight, so it is freed once the
    transaction reaches the orderer or aborts.
    """

    __slots__ = ("network", "request", "tx", "client")

    def __init__(self, network: FabricNetwork, request: TxRequest) -> None:
        self.network = network
        self.request = request

    def arrive(self) -> None:
        """A resubmission reaches admission at its submit time."""
        self.network._admit(self)

    def start(self) -> None:
        """Admitted: create the transaction and queue its proposal."""
        network = self.network
        request = self.request
        clients = network.clients
        client = self.client = clients.assign(request.invoker_org)
        self.tx = Transaction(
            tx_id=network._next_tx_id(),
            client_timestamp=network.kernel.now,
            activity=request.activity,
            args=tuple(request.args),
            contract=request.contract,
            invoker_client=client.name,
            invoker_org=clients.org_of(client.name),
            attempt=request.attempt,
            retry_of=request.retry_of,
        )
        if network.conditions.fixed:
            hop = network.conditions.network_delay(self.tx.invoker_org)
            clients.propose(client, self.endorse, hop)
        else:
            clients.propose(client, self.proposed)

    def proposed(self) -> None:
        """The client built the proposal; send it to the endorsers."""
        network = self.network
        network.kernel.schedule_in(
            network.conditions.network_delay(self.tx.invoker_org), self.endorse
        )

    def endorse(self) -> None:
        """The proposal reached the endorsing peers."""
        self.network.endorsers.endorse(
            self.tx, on_done=self.endorsed, on_abort=self.aborted
        )

    def endorsed(self) -> None:
        """The endorsements are back: the client packages the envelope."""
        network, tx = self.network, self.tx
        if network.conditions.fixed and network._mitigation != "early_abort":
            hop = network.conditions.network_delay(tx.invoker_org)
            network.clients.package(self.client, len(tx.endorsers), self.submit, hop)
        else:
            network.clients.package(self.client, len(tx.endorsers), self.packaged)

    def packaged(self) -> None:
        """The envelope is packed; send it to ordering unless it is stale."""
        network = self.network
        if network._mitigation == "early_abort" and network._abort_if_stale(self.tx):
            return
        network.kernel.schedule_in(
            network.conditions.network_delay(self.tx.invoker_org), self.submit
        )

    def submit(self) -> None:
        """The envelope reached the ordering service."""
        self.network.orderer.submit(self.tx)

    def aborted(self) -> None:
        """The chaincode rejected the transaction during endorsement.

        No retry: the chaincode deterministically rejects these arguments,
        so a resubmission would abort identically.
        """
        tx = self.tx
        tx.status = TxStatus.EARLY_ABORT
        tx.abort_stage = "endorsement"
        tx.commit_time = self.network.kernel.now
        self.network.stream.accept_abort(tx)


def run_workload(
    config: NetworkConfig, contracts: list[Contract], requests: list[TxRequest]
) -> tuple[FabricNetwork, RunResult]:
    """Build a fresh network, run ``requests``, return (network, result).

    The paper restarts the Fabric network for every experiment; this helper
    is that restart.  ``config.scenario`` injects faults and dynamic
    network conditions into the run (see :mod:`repro.scenario`).
    """
    network = FabricNetwork(config, contracts)
    result = network.run(requests)
    return network, result
