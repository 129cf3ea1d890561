"""Span recorder for the traced run: per-layer self time from outside the program.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install` wraps the
public entry points of each ``repro`` layer (the :data:`BOUNDARIES` table)
and every callback handed to the simulation kernel or to a ``Server``, so
each call becomes a span: its layer, the span that was open when it
started (the parent link), and its start and end in host seconds.  Spans
stay in memory as flat arrays and are written out at the end.  A span's
self time is its duration minus the time its child spans cover.

Charging rule: a kernel event, a ``Server`` callback and a stream consumer
are charged to the layer whose module defines the callable — a fabric
closure scheduled on the kernel is fabric work, a controller tick is
control work, a shard accumulator fed by the stream is shard work.  Time
in the standard library or numpy goes to the span that called it.

A boundary whose target no longer exists is skipped and reported, never an
error, so the program can delete or rename code without editing this file.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

#: The program's layers: one per top-level package under ``repro``.
LAYERS = (
    "sim",
    "fabric",
    "workloads",
    "contracts",
    "logs",
    "mining",
    "core",
    "analysis",
    "scenario",
    "control",
    "shard",
    "bench",
)
LAYER_ID = {name: index for index, name in enumerate(LAYERS)}

#: ``(module, attribute path, layer)``: the public entry points wrapped as
#: spans.  The layer is the package the call enters, except for
#: ``Contract.invoke``, the base-class dispatcher through which every
#: smart-contract function runs.  Kernel scheduling and ``Server.submit``
#: also wrap the callbacks they receive (see :class:`Tracer`).
BOUNDARIES = (
    ("repro.sim.kernel", "Kernel.run", "sim"),
    ("repro.sim.kernel", "Kernel.schedule", "sim"),
    ("repro.sim.resources", "Server.submit", "sim"),
    ("repro.fabric.network", "FabricNetwork.__init__", "fabric"),
    ("repro.fabric.network", "FabricNetwork.run", "fabric"),
    ("repro.fabric.network", "FabricNetwork.run_streamed", "fabric"),
    ("repro.workloads.synthetic", "synthetic_workload", "workloads"),
    ("repro.workloads.synthetic", "iter_synthetic_requests", "workloads"),
    ("repro.workloads.usecases", "scm_workload", "workloads"),
    ("repro.workloads.usecases", "drm_workload", "workloads"),
    ("repro.workloads.usecases", "ehr_workload", "workloads"),
    ("repro.workloads.usecases", "voting_workload", "workloads"),
    ("repro.workloads.loan", "loan_workload", "workloads"),
    ("repro.workloads.loan", "generate_loan_event_log", "workloads"),
    ("repro.fabric.chaincode", "Contract.invoke", "contracts"),
    ("repro.contracts.registry", "ContractFamily.deploy", "contracts"),
    ("repro.logs.stream", "RunStream.accept_block", "logs"),
    ("repro.logs.stream", "RunStream.accept_abort", "logs"),
    ("repro.logs.extract", "extract_blockchain_log", "logs"),
    ("repro.logs.export", "log_from_csv", "logs"),
    ("repro.logs.eventlog", "EventLog.from_blockchain_log", "logs"),
    ("repro.mining.dfg", "DirectlyFollowsGraph.from_traces", "mining"),
    ("repro.mining.heuristics", "heuristics_miner", "mining"),
    ("repro.mining.footprint", "FootprintMatrix.from_dfg", "mining"),
    ("repro.core.recommender", "BlockOptR.analyze_file", "core"),
    ("repro.core.recommender", "BlockOptR.analyze_network", "core"),
    ("repro.core.recommender", "BlockOptR.analyze_log", "core"),
    ("repro.core.metrics", "compute_metrics", "core"),
    ("repro.core.rules", "evaluate_rules", "core"),
    ("repro.core.report", "render_report", "core"),
    ("repro.core.apply", "apply_recommendations", "core"),
    ("repro.analysis.forensics", "forensics_report", "analysis"),
    ("repro.scenario.engine", "ScenarioEngine.install", "scenario"),
    ("repro.scenario.engine", "ScenarioEngine.transform_requests", "scenario"),
    ("repro.control.controller", "SLOGuardian.install", "control"),
    ("repro.control.monitor", "WindowedMonitor.consume", "control"),
    ("repro.shard.plan", "plan_shards", "shard"),
    ("repro.shard.runner", "run_sharded", "shard"),
    ("repro.shard.runner", "run_channel", "shard"),
    ("repro.shard.summary", "stitch", "shard"),
    ("repro.bench.executor", "run_suite", "bench"),
    ("repro.bench.executor", "run_spec", "bench"),
    ("repro.bench.harness", "execute_experiment", "bench"),
    ("repro.bench.cache", "ResultCache.get", "bench"),
    ("repro.bench.cache", "ResultCache.put", "bench"),
)

#: Stream-consumer registration points: each registered consumer's
#: ``consume`` methods are charged to the layer of the consumer's class.
CONSUMER_REGISTRATION = (
    ("repro.logs.stream", "RunStream.add_record_consumer"),
    ("repro.logs.stream", "RunStream.add_transaction_consumer"),
)


def layer_of_module(module: str | None) -> int | None:
    """Layer id of a ``repro.<layer>...`` module name, else ``None``."""
    if not module or not module.startswith("repro."):
        return None
    return LAYER_ID.get(module.split(".", 2)[1])


class Tracer:
    """Spans as flat arrays: call site, parent index, start, end.

    A *site* is one wrapped entry point (a :data:`BOUNDARIES` row), or the
    callbacks of one defining module, or one consumer method; each site
    belongs to one layer.
    """

    def __init__(self) -> None:
        self.site = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: ``(label, layer id)`` per site id.
        self.sites: list[tuple[str, int]] = []
        #: Kernel schedule calls seen (for the cancelled-event share).
        self.scheduled = 0
        #: ``module:attr`` of every boundary that could not be wrapped.
        self.skipped: list[str] = []
        self._callback_site: dict[str | None, int | None] = {}
        self._patched_consumers: set[tuple[type, str]] = set()
        self.span = self._make_span()

    # -- recording ------------------------------------------------------------

    def _make_span(self):
        sites, parents, starts, ends = self.site, self.parent, self.start, self.end
        add_site, add_parent = sites.append, parents.append
        add_start, add_end = starts.append, ends.append
        open_spans = [-1]
        push, pop = open_spans.append, open_spans.pop
        clock = time.perf_counter

        def span(site: int, fn, *args, **kwargs):
            """Call ``fn`` inside a span of ``site``."""
            index = len(sites)
            add_site(site)
            add_parent(open_spans[-1])
            add_end(0.0)
            push(index)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                pop()

        return span

    def _site(self, label: str, layer: int) -> int:
        self.sites.append((label, layer))
        return len(self.sites) - 1

    def charged(self, callback):
        """``callback`` wrapped in a span of the layer that defines it."""
        module = getattr(callback, "__module__", None)
        try:
            site = self._callback_site[module]
        except KeyError:
            layer = layer_of_module(module)
            site = None if layer is None else self._site(f"callbacks {module}", layer)
            self._callback_site[module] = site
        if site is None:
            return callback
        span = self.span

        def charged_callback(*args, **kwargs):
            return span(site, callback, *args, **kwargs)

        return charged_callback

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`; record the misses."""
        for module, path, layer in BOUNDARIES:
            label = f"{module}:{path}"
            if not _patch(module, path, self._wrapper(label, path, LAYER_ID[layer])):
                self.skipped.append(label)
        for module, path in CONSUMER_REGISTRATION:
            if not _patch(module, path, self._registration_wrapper):
                self.skipped.append(f"{module}:{path}")

    def _wrapper(self, label: str, path: str, layer: int):
        span = self.span
        charged = self.charged
        site = self._site(label, layer)
        if path in ("Kernel.schedule", "Server.submit"):
            # Callbacks passed in are charged to their own layer when fired.
            counts_schedules = path == "Kernel.schedule"

            def make(original):
                def wrapper(*args, **kwargs):
                    if counts_schedules:
                        self.scheduled += 1
                    args = [charged(a) if callable(a) else a for a in args]
                    for key, value in kwargs.items():
                        if callable(value):
                            kwargs[key] = charged(value)
                    return span(site, original, *args, **kwargs)

                return wrapper

            return make

        next_site = None

        def make(original):
            def wrapper(*args, **kwargs):
                nonlocal next_site
                result = span(site, original, *args, **kwargs)
                if hasattr(result, "__next__") and hasattr(result, "gi_frame"):
                    # A generator does its work on each next(): charge that.
                    if next_site is None:
                        next_site = self._site(f"{label} next()", layer)
                    return _SpanIterator(span, next_site, result)
                return result

            return wrapper

        return make

    def _registration_wrapper(self, original):
        def wrapper(stream, consumer, *args, **kwargs):
            self._charge_consumer(type(consumer))
            return original(stream, consumer, *args, **kwargs)

        return wrapper

    def _charge_consumer(self, cls: type) -> None:
        for name in ("consume", "consume_batch"):
            owner = next((k for k in cls.__mro__ if name in k.__dict__), None)
            if owner is None or (owner, name) in self._patched_consumers:
                continue
            self._patched_consumers.add((owner, name))
            layer = layer_of_module(owner.__module__)
            if layer is not None:
                label = f"{owner.__module__}:{owner.__qualname__}.{name}"
                method = owner.__dict__[name]
                setattr(owner, name, _spanned(self.span, self._site(label, layer), method))

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Per-layer self seconds and calls, per-site calls, top-level time."""
        import numpy as np

        layer_count = len(LAYERS)
        site = np.frombuffer(self.site, dtype=np.int16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        site_layer = np.array([layer for _, layer in self.sites] or [0], dtype=np.int64)
        layer = site_layer[site]
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(site)
        )
        own = duration - child_time
        self_s = np.bincount(layer, weights=own, minlength=layer_count)
        calls = np.bincount(layer, minlength=layer_count)
        site_calls = np.bincount(site, minlength=len(self.sites))
        return {
            "self_s": {name: float(self_s[i]) for i, name in enumerate(LAYERS)},
            "calls": {name: int(calls[i]) for i, name in enumerate(LAYERS)},
            "site_calls": {
                label: int(site_calls[i])
                for i, (label, _) in enumerate(self.sites)
                if site_calls[i]
            },
            "spans": len(site),
            "top_level_s": float(duration[~nested].sum()),
        }

    def write(self, path) -> None:
        """Write the spans and their site table as a numpy ``.npz`` archive."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(LAYERS),
            site_labels=np.array([label for label, _ in self.sites] or [""]),
            site_layers=np.array([layer for _, layer in self.sites] or [0]),
            site=np.frombuffer(self.site, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


class _SpanIterator:
    """Charges each ``next()`` of a wrapped generator to its own site."""

    def __init__(self, span, site: int, inner) -> None:
        self._span = span
        self._site = site
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(self._site, next, self._inner)


def _spanned(span, site: int, method):
    def wrapper(*args, **kwargs):
        return span(site, method, *args, **kwargs)

    return wrapper


def _patch(module_name: str, path: str, make) -> bool:
    """Replace ``module.path`` with ``make(original)``; False when absent.

    A module-level function is also replaced wherever another loaded
    ``repro`` module imported it by name; a method is replaced on its
    class, keeping ``staticmethod``/``classmethod`` wrappers.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        if owner is None or attr not in owner.__dict__:
            return False
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return True
    original = getattr(module, attr, None)
    if original is None:
        return False
    replacement = make(original)
    for name, loaded in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)
    return True
