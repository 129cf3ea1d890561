"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.kernel import ARRIVAL_PRIORITY, INTERVENTION_PRIORITY, Kernel


def test_events_fire_in_time_order():
    kernel = Kernel()
    fired = []
    kernel.schedule(3.0, lambda: fired.append("c"))
    kernel.schedule(1.0, lambda: fired.append("a"))
    kernel.schedule(2.0, lambda: fired.append("b"))
    kernel.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_insertion_order():
    kernel = Kernel()
    fired = []
    for label in "abcde":
        kernel.schedule(1.0, lambda label=label: fired.append(label))
    kernel.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    kernel = Kernel()
    seen = []
    kernel.schedule(5.5, lambda: seen.append(kernel.now))
    kernel.run()
    assert seen == [5.5]
    assert kernel.now == 5.5


def test_schedule_in_past_raises():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    with pytest.raises(ValueError):
        kernel.schedule(0.5, lambda: None)


def test_schedule_in_negative_delay_raises():
    kernel = Kernel()
    with pytest.raises(ValueError):
        kernel.schedule_in(-0.1, lambda: None)


def test_schedule_in_is_relative():
    kernel = Kernel()
    times = []
    kernel.schedule(2.0, lambda: kernel.schedule_in(3.0, lambda: times.append(kernel.now)))
    kernel.run()
    assert times == [5.0]


def test_cancelled_event_does_not_fire():
    kernel = Kernel()
    fired = []
    event = kernel.schedule_cancellable(1.0, lambda: fired.append("x"))
    event.cancel()
    kernel.run()
    assert fired == []
    assert kernel.events_processed == 0


def test_events_scheduled_during_run_are_processed():
    kernel = Kernel()
    fired = []

    def chain(depth: int):
        fired.append(depth)
        if depth < 3:
            kernel.schedule_in(1.0, lambda: chain(depth + 1))

    kernel.schedule(0.0, lambda: chain(0))
    kernel.run()
    assert fired == [0, 1, 2, 3]
    assert kernel.now == 3.0


def test_pending_counts_non_cancelled():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    event = kernel.schedule_cancellable(2.0, lambda: None)
    event.cancel()
    assert kernel.pending() == 1


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
def test_property_firing_times_are_sorted(times):
    kernel = Kernel()
    observed = []
    for t in times:
        kernel.schedule(t, lambda: observed.append(kernel.now))
    kernel.run()
    assert observed == sorted(observed)
    assert len(observed) == len(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_events_never_fire(items):
    kernel = Kernel()
    fired = []
    events = []
    for t, cancel in items:
        events.append((kernel.schedule_cancellable(t, lambda t=t: fired.append(t)), cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    kernel.run()
    expected = sorted(t for (t, cancel) in items if not cancel)
    assert fired == expected


def test_pending_tracks_cancel_then_pop():
    """The live-event counter must survive a cancel followed by the pop.

    ``pending()`` is tracked incrementally (O(1), not a heap scan): cancel
    decrements immediately, and popping the already-cancelled event must
    not decrement again.
    """
    kernel = Kernel()
    seen = []
    cancelled = kernel.schedule_cancellable(1.0, lambda: None)
    kernel.schedule(2.0, lambda: seen.append(kernel.pending()))
    kernel.schedule(3.0, lambda: None)
    assert kernel.pending() == 3
    cancelled.cancel()
    assert kernel.pending() == 2
    kernel.run()
    # By 2.0 the cancelled event was popped and dropped, and the 2.0 one fired.
    assert seen == [1]
    assert kernel.pending() == 0


def test_double_cancel_decrements_once():
    kernel = Kernel()
    event = kernel.schedule_cancellable(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert kernel.pending() == 1


def test_cancel_after_fire_is_a_noop():
    """Cancelling a fired timeout (the orderer does this) must not corrupt
    the live count of still-queued events."""
    kernel = Kernel()
    seen = []
    fired = kernel.schedule_cancellable(1.0, lambda: None)

    def after_fire():
        seen.append(kernel.pending())
        fired.cancel()
        seen.append(kernel.pending())

    kernel.schedule(2.0, after_fire)
    kernel.schedule(5.0, lambda: None)
    kernel.run()
    assert seen == [1, 1]
    assert kernel.pending() == 0


def test_cancel_from_inside_its_own_callback_is_a_noop():
    """The orderer's timeout cuts a block, and the cut cancels the timeout:
    a handle cancelled while its own callback runs has already left the
    heap, so the cancel must change nothing."""
    kernel = Kernel()
    seen = []
    handle = None

    def on_fire():
        handle.cancel()
        seen.append((handle.cancelled, kernel.pending(), kernel.events_processed))

    handle = kernel.schedule_cancellable(1.0, on_fire)
    kernel.schedule(2.0, lambda: seen.append(kernel.pending()))
    kernel.schedule(3.0, lambda: None)
    kernel.run()
    assert seen == [(False, 2, 1), 1]
    assert kernel.pending() == 0
    assert kernel.events_processed == 3


def test_schedule_cancellable_keeps_the_event_order():
    """Taking a handle allocates the same ``seq`` on the same lane as a
    plain schedule, so the trace is identical either way."""
    traces = []
    for cancellable in (False, True):
        kernel = Kernel()
        trace = kernel.enable_trace()
        kernel.schedule(1.0, lambda: None)
        if cancellable:
            kernel.schedule_cancellable(1.0, lambda: None)
        else:
            kernel.schedule(1.0, lambda: None)
        kernel.schedule_intervention(1.0, lambda: None)
        kernel.run()
        traces.append(trace)
    assert traces[0] == traces[1]
    assert [seq for _, _, seq in traces[1]] == [2, 0, 1]


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_pending_matches_heap_scan(items):
    kernel = Kernel()
    events = [kernel.schedule_cancellable(t, lambda: None) for t, _ in items]
    for event, (_, cancel) in zip(events, items):
        if cancel:
            event.cancel()
            event.cancel()  # idempotent
    live = sum(1 for _, cancel in items if not cancel)
    assert kernel.pending() == live
    kernel.run()
    assert kernel.pending() == 0


def test_intervention_lane_fires_before_ordinary_events_at_same_time():
    kernel = Kernel()
    order = []
    kernel.schedule(2.0, lambda: order.append("late-workload"))
    kernel.schedule(1.0, lambda: order.append("workload"))
    # Scheduled last, still fires first at t=1.0.
    kernel.schedule_intervention(1.0, lambda: order.append("intervention"))
    kernel.run()
    assert order == ["intervention", "workload", "late-workload"]


def test_intervention_lane_preserves_insertion_order_within_lane():
    kernel = Kernel()
    order = []
    kernel.schedule_intervention(1.0, lambda: order.append("first"))
    kernel.schedule_intervention(1.0, lambda: order.append("second"))
    kernel.run()
    assert order == ["first", "second"]


def test_trace_records_fired_events_only():
    kernel = Kernel()
    trace = kernel.enable_trace()
    kernel.schedule(1.0, lambda: None)
    cancelled = kernel.schedule_cancellable(2.0, lambda: None)
    cancelled.cancel()
    kernel.schedule_intervention(3.0, lambda: None)
    kernel.run()
    assert [(time, priority) for time, priority, _ in trace] == [
        (1.0, 0),
        (3.0, INTERVENTION_PRIORITY),
    ]


def test_priority_lanes_order_same_instant_events():
    # Interventions beat arrivals beat ordinary events at equal
    # timestamps, regardless of scheduling order — the lane contract the
    # scenario engine and streamed runs rely on.
    kernel = Kernel()
    order: list[str] = []
    kernel.schedule(1.0, lambda: order.append("ordinary"))
    kernel.schedule(1.0, lambda: order.append("arrival"), priority=ARRIVAL_PRIORITY)
    kernel.schedule_intervention(1.0, lambda: order.append("intervention"))
    kernel.run()
    assert order == ["intervention", "arrival", "ordinary"]
    assert INTERVENTION_PRIORITY < ARRIVAL_PRIORITY < 0


def test_enable_trace_is_idempotent():
    kernel = Kernel()
    first = kernel.enable_trace()
    second = kernel.enable_trace()
    assert first is second
