"""Property-based tests for the event engine's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
@settings(max_examples=200)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False),
                          st.integers(min_value=0, max_value=4)),
                min_size=1, max_size=100))
@settings(max_examples=100)
def test_same_timestamp_fifo_even_with_duplicates(entries):
    sim = Simulator()
    fired = []
    for index, (delay, bucket) in enumerate(entries):
        # Quantize delays so duplicates are common.
        sim.schedule(round(delay, 1), lambda i=index: fired.append(i))
    sim.run()
    # Among events with equal timestamps, scheduling order is preserved.
    by_time = {}
    for index, (delay, _) in enumerate(entries):
        by_time.setdefault(round(delay, 1), []).append(index)
    position = {event: pos for pos, event in enumerate(fired)}
    for group in by_time.values():
        group_positions = [position[e] for e in group]
        assert group_positions == sorted(group_positions)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
                min_size=2, max_size=50),
       st.data())
@settings(max_examples=100)
def test_cancellation_removes_only_cancelled_events(delays, data):
    sim = Simulator()
    fired = []
    handles = [sim.schedule(d, lambda i=i: fired.append(i))
               for i, d in enumerate(delays)]
    to_cancel = data.draw(st.sets(st.integers(0, len(delays) - 1)))
    for index in to_cancel:
        handles[index].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


# Delays across three magnitudes, quantized so ties are common.
_delays = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
        st.floats(min_value=0.2, max_value=0.3, allow_nan=False),
        st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
    ).map(lambda d: round(d, 4)),
    min_size=1, max_size=120)


@given(_delays)
@settings(max_examples=150)
def test_exact_global_order_matches_a_stable_sort(delays):
    """Firing order is exactly (time, seq): a stable sort of the
    schedule calls by time, ties in scheduling order."""
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda i=index: fired.append(i))
    sim.run()
    expected = [i for _, i in sorted((d, i) for i, d in enumerate(delays))]
    assert fired == expected


@given(_delays, st.data())
@settings(max_examples=100)
def test_exact_global_order_under_random_cancellation(delays, data):
    sim = Simulator()
    fired = []
    handles = [sim.schedule(d, lambda i=i: fired.append(i))
               for i, d in enumerate(delays)]
    cancelled = data.draw(st.sets(st.integers(0, len(delays) - 1)))
    for index in cancelled:
        handles[index].cancel()
    sim.run()
    expected = [i for _, i in sorted((d, i) for i, d in enumerate(delays))
                if i not in cancelled]
    assert fired == expected


@given(_delays)
@settings(max_examples=100)
def test_rescheduling_from_callbacks_preserves_order(delays):
    """Events scheduled while running (the periodic-timer shape) still
    interleave correctly with everything already queued."""
    sim = Simulator()
    fired = []

    def fire_and_rearm(i, d):
        fired.append(sim.now)
        if d > 0.001:
            sim.schedule(d / 2, fire_and_rearm, i, d / 2)

    for index, delay in enumerate(delays):
        sim.schedule(delay, fire_and_rearm, index, delay)
    sim.run()
    assert fired == sorted(fired)
