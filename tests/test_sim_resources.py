"""Unit tests for FIFO servers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.kernel import Kernel
from repro.sim.resources import Server, ServerStats


def test_single_job_completes_after_service_time():
    kernel = Kernel()
    server = Server(kernel, "s")
    done = []
    kernel.schedule(1.0, lambda: server.submit(0.5, lambda: done.append(kernel.now)))
    kernel.run()
    assert done == [1.5]


def test_on_done_fires_delay_after_finish_and_none_books_only():
    kernel = Kernel()
    server = Server(kernel, "s")
    done = []
    assert server.submit(1.0) == 1.0
    assert server.submit(0.5, lambda: done.append(kernel.now), delay=0.25) == 1.5
    kernel.run()
    assert done == [1.75]
    assert kernel.events_processed == 1
    assert server.stats.jobs == 2


def test_fifo_queueing():
    kernel = Kernel()
    server = Server(kernel, "s")
    done = []
    for at, job in ((0.0, "a"), (0.0, "b"), (0.1, "c")):
        kernel.schedule(
            at, lambda job=job: server.submit(1.0, lambda: done.append((job, kernel.now)))
        )
    kernel.run()
    assert done == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_on_start_fires_at_service_start():
    kernel = Kernel()
    server = Server(kernel, "s")
    starts = []

    def start() -> None:
        starts.append(kernel.now)

    kernel.schedule(0.0, lambda: server.submit(2.0, on_start=start))
    kernel.schedule(0.0, lambda: server.submit(1.0, on_start=start))
    kernel.run()
    assert starts == [0.0, 2.0]


def test_idle_gap_does_not_accumulate_busy_time():
    kernel = Kernel()
    server = Server(kernel, "s")
    kernel.schedule(0.0, lambda: server.submit(1.0))
    kernel.schedule(5.0, lambda: server.submit(1.0))
    kernel.run()
    assert server.busy_until == 6.0
    assert server.stats.jobs == 2
    assert server.stats.total_wait == 0.0


def test_queue_delay_reflects_backlog():
    kernel = Kernel()
    server = Server(kernel, "s")
    observed = []

    def submit_two():
        server.submit(1.0)
        server.submit(1.0)
        observed.append(server.queue_delay())

    kernel.schedule(0.0, submit_two)
    kernel.run()
    assert observed == [2.0]


def test_negative_service_time_rejected():
    kernel = Kernel()
    server = Server(kernel, "s")
    with pytest.raises(ValueError):
        server.submit(-1.0)


def test_mean_wait_accounts_queueing():
    kernel = Kernel()
    server = Server(kernel, "s")

    def submit_three():
        for _ in range(3):
            server.submit(1.0)

    kernel.schedule(0.0, submit_three)
    kernel.run()
    # Waits: 0, 1, 2
    assert server.stats.total_wait == 3.0
    assert server.stats.jobs == 3


@given(st.lists(st.floats(min_value=0.001, max_value=5.0), min_size=1, max_size=30))
def test_property_completions_ordered_and_spaced(service_times):
    """FIFO: completion k is at least the sum of the first k service times."""
    kernel = Kernel()
    server = Server(kernel, "s")
    completions = []

    def submit_all():
        for s in service_times:
            server.submit(s, lambda: completions.append(kernel.now))

    kernel.schedule(0.0, submit_all)
    kernel.run()
    assert completions == sorted(completions)
    running = 0.0
    for s, done in zip(service_times, completions):
        running += s
        assert done == pytest.approx(running)


def test_service_multiplier_inflates_subsequent_jobs():
    kernel = Kernel()
    server = Server(kernel, "s")
    done = []
    server.submit(1.0, lambda: done.append(kernel.now))
    server.set_service_multiplier(3.0)
    server.submit(1.0, lambda: done.append(kernel.now))
    kernel.run()
    # First job at nominal speed, second 3x slower, queued behind it.
    assert done == [1.0, 4.0]


def test_service_multiplier_restore_returns_to_nominal():
    kernel = Kernel()
    server = Server(kernel, "s")
    server.set_service_multiplier(5.0)
    server.set_service_multiplier(1.0)
    done = []
    server.submit(2.0, lambda: done.append(kernel.now))
    kernel.run()
    assert done == [2.0]


def test_service_multiplier_must_be_positive():
    server = Server(Kernel(), "s")
    with pytest.raises(ValueError, match="positive"):
        server.set_service_multiplier(0.0)
    with pytest.raises(ValueError, match="positive"):
        server.set_service_multiplier(-2.0)


def test_servers_start_enabled_at_nominal_speed():
    server = Server(Kernel(), "s")
    assert server.enabled
    assert server.service_multiplier == 1.0


class _ClosureServer:
    """A closure-per-job server: the reference the property test below
    checks ``Server`` against.

    Every job schedules its own closures, which capture ``start`` and
    ``finish`` and hand them to the callbacks.  ``delay`` moves the
    completion closure ``delay`` seconds past the finish; a ``None``
    callback schedules nothing.
    """

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.stats = ServerStats()
        self._busy_until = 0.0
        self._service_multiplier = 1.0

    def set_service_multiplier(self, factor: float) -> None:
        self._service_multiplier = factor

    def submit(self, service_time, on_done, on_start=None, delay=0.0) -> float:
        service_time *= self._service_multiplier
        now = self.kernel.now
        start = max(now, self._busy_until)
        finish = start + service_time
        self._busy_until = finish

        self.stats.jobs += 1
        self.stats.total_wait += start - now

        if on_start is not None:
            self.kernel.schedule(start, lambda: on_start(start))
        if on_done is not None:
            self.kernel.schedule(finish + delay, lambda: on_done(finish + delay))
        return finish


_JOB = st.tuples(
    # gap since the previous submission: zero gives same-instant ties
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
    # service time: zero-length jobs included
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=5.0)),
    # with or without an on_start callback
    st.booleans(),
    # a multiplier change just before this submission, or none
    st.one_of(st.none(), st.floats(min_value=0.1, max_value=4.0)),
    # the completion: none, at the finish, or a hop past it
    st.one_of(st.none(), st.just(0.0), st.floats(min_value=1e-6, max_value=2.0)),
)


def _drive(server_cls, script):
    kernel = Kernel()
    trace = kernel.enable_trace()
    server = server_cls(kernel, "s")
    log = []
    finishes = []
    # ``Server`` callbacks take no argument and read the clock; the
    # reference hands its callbacks the time it captured.
    if server_cls is Server:
        def callback(job, what):
            return lambda: log.append((job, what, kernel.now))
    else:
        def callback(job, what):
            return lambda t: log.append((job, what, t))

    at = 0.0
    for job, (gap, service, with_start, multiplier, delay) in enumerate(script):
        at += gap

        def submit(job=job, service=service, with_start=with_start, m=multiplier, delay=delay):
            if m is not None:
                server.set_service_multiplier(m)
            on_start = callback(job, "start") if with_start else None
            on_done = None if delay is None else callback(job, "done")
            finishes.append(server.submit(service, on_done, on_start, delay or 0.0))

        kernel.schedule(at, submit)
    kernel.run()
    return log, finishes, server.stats, trace


@given(st.lists(_JOB, min_size=1, max_size=25))
def test_property_queue_server_matches_the_closure_server(script):
    """Same job script, same callbacks in the same order at the same
    instants, same statistics and the same kernel event trace."""
    log, finishes, stats, trace = _drive(Server, script)
    ref_log, ref_finishes, ref_stats, ref_trace = _drive(_ClosureServer, script)
    assert log == ref_log
    assert finishes == ref_finishes
    assert stats == ref_stats
    assert trace == ref_trace
    assert len(log) == sum(job[2] for job in script) + sum(
        job[4] is not None for job in script
    )
