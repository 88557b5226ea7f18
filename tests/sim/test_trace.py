"""Unit tests for the trace subsystem."""

import pytest

from repro.sim import Simulator
from repro.sim.trace import NULL_TRACER, NullTracer, TraceEvent, Tracer


def make_tracer(capacity=100):
    sim = Simulator()
    return sim, Tracer(sim, capacity=capacity)


def test_emit_records_time_and_detail():
    sim, tracer = make_tracer()
    tracer.enable_all()
    sim.run(until=1.5)
    tracer.emit("irq", "deliver", vector=0x40)
    [event] = tracer.events()
    assert event.time == 1.5
    assert event.category == "irq"
    assert event.get("vector") == 0x40
    assert event.get("missing", "d") == "d"


def test_categories_filter_at_capture_time():
    sim, tracer = make_tracer()
    tracer.enable("irq")
    tracer.emit("irq", "a")
    tracer.emit("mailbox", "b")  # not enabled: dropped silently
    assert len(tracer) == 1
    assert tracer.is_enabled("irq")
    assert not tracer.is_enabled("mailbox")


def test_enable_all_then_specific_disable_rejected():
    sim, tracer = make_tracer()
    tracer.enable_all()
    with pytest.raises(ValueError):
        tracer.disable("irq")


def test_disable_specific():
    sim, tracer = make_tracer()
    tracer.enable("irq", "mailbox")
    tracer.disable("mailbox")
    tracer.emit("mailbox", "x")
    assert len(tracer) == 0


def test_ring_buffer_drops_oldest():
    sim, tracer = make_tracer(capacity=3)
    tracer.enable_all()
    for i in range(5):
        tracer.emit("c", f"e{i}")
    assert len(tracer) == 3
    assert [e.name for e in tracer.events()] == ["e2", "e3", "e4"]
    assert tracer.evicted == 2
    assert tracer.emitted == 5


def test_select_filters():
    sim, tracer = make_tracer()
    tracer.enable_all()
    for t, cat, name in [(1.0, "irq", "a"), (2.0, "irq", "b"),
                         (3.0, "mbx", "a")]:
        sim.run(until=t)
        tracer.emit(cat, name)
    assert len(list(tracer.select(category="irq"))) == 2
    assert len(list(tracer.select(name="a"))) == 2
    assert len(list(tracer.select(after=1.5, before=2.5))) == 1


def test_counts_by_name():
    sim, tracer = make_tracer()
    tracer.enable_all()
    for _ in range(3):
        tracer.emit("irq", "deliver")
    tracer.emit("irq", "blocked")
    assert tracer.counts_by_name("irq") == {"deliver": 3, "blocked": 1}


def test_clear():
    sim, tracer = make_tracer()
    tracer.enable_all()
    tracer.emit("c", "x")
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.emitted == 0


def test_null_tracer_is_inert():
    NULL_TRACER.emit("anything", "goes", huge=list(range(10)))
    NULL_TRACER.begin("anything", "span")
    NULL_TRACER.end("anything", "span")
    assert not NULL_TRACER.is_enabled("anything")


def test_span_begin_end_phases():
    sim, tracer = make_tracer()
    tracer.enable_all()
    tracer.begin("irq", "deliver", vector=1)
    tracer.emit("apic", "eoi")
    tracer.end("irq", "deliver")
    phases = [e.phase for e in tracer.events()]
    assert phases == ["B", "i", "E"]
    begin = tracer.events()[0]
    assert begin.get("vector") == 1
    assert str(begin).startswith("[0.000000] B irq:deliver")


def test_spans_respect_category_filter():
    sim, tracer = make_tracer()
    tracer.enable("irq")
    tracer.begin("mbx", "vf0")
    tracer.end("mbx", "vf0")
    assert len(tracer) == 0


def test_evicted_means_pushed_out_and_invariant_holds():
    sim, tracer = make_tracer(capacity=4)
    tracer.enable_all()
    for i in range(10):
        tracer.emit("c", f"e{i}")
    assert tracer.evicted == 6
    assert len(tracer) == tracer.emitted - tracer.evicted


def test_counts_by_name_tracks_evictions():
    sim, tracer = make_tracer(capacity=3)
    tracer.enable_all()
    tracer.emit("c", "old")
    for _ in range(3):
        tracer.emit("c", "new")  # third emit evicts "old"
    assert tracer.counts_by_name("c") == {"new": 3}
    # Counts always mirror a fresh walk of the buffer.
    walked = {}
    for event in tracer.events():
        walked[event.name] = walked.get(event.name, 0) + 1
    assert tracer.counts_by_name("c") == walked


def test_span_eviction_accounting():
    """A span's B can be evicted while its E survives; the running
    counters stay exact through the mixed-phase churn."""
    sim, tracer = make_tracer(capacity=2)
    tracer.enable_all()
    tracer.begin("irq", "deliver", vector=64)   # B
    tracer.emit("c", "fill0")
    tracer.emit("c", "fill1")                   # evicts the B
    tracer.end("irq", "deliver")                # orphan E, evicts fill0
    assert tracer.emitted == 4
    assert tracer.evicted == 2
    assert len(tracer) == tracer.emitted - tracer.evicted
    assert [e.phase for e in tracer.events()] == ["i", "E"]
    # The evicted B no longer counts; the surviving orphan E does.
    assert tracer.counts_by_name("irq") == {"deliver": 1}


def test_interleaved_spans_evict_in_emit_order():
    """Eviction is strictly FIFO over phases: with two interleaved
    spans in a 3-slot ring, the outer B goes first, never the newest
    E."""
    sim, tracer = make_tracer(capacity=3)
    tracer.enable_all()
    tracer.begin("irq", "outer")
    tracer.begin("mbx", "inner")
    tracer.end("mbx", "inner")
    tracer.end("irq", "outer")  # outer B was evicted to admit this
    assert tracer.evicted == 1
    names = [(e.name, e.phase) for e in tracer.events()]
    assert names == [("inner", "B"), ("inner", "E"), ("outer", "E")]


def test_clear_resets_running_counts():
    sim, tracer = make_tracer(capacity=2)
    tracer.enable_all()
    for i in range(5):
        tracer.emit("c", "x")
    tracer.clear()
    assert tracer.counts_by_name() == {}
    assert tracer.evicted == 0
    tracer.emit("c", "y")
    assert tracer.counts_by_name() == {"y": 1}


def test_event_str_rendering():
    event = TraceEvent(1.25, "irq", "deliver", (("vector", 64),))
    assert str(event) == "[1.250000] irq:deliver vector=64"


def test_capacity_validated():
    with pytest.raises(ValueError):
        Tracer(Simulator(), capacity=0)


def test_hypervisor_trace_integration():
    """Installing a tracer on Xen captures the interrupt path."""
    from repro.core import Testbed, TestbedConfig
    from repro.net import Packet
    from repro.net.mac import MacAddress
    bed = Testbed(TestbedConfig(ports=1))
    tracer = Tracer(bed.sim)
    tracer.enable("irq")
    bed.platform.trace = tracer
    guest = bed.add_sriov_guest()
    guest.port.wire_receive([Packet(src=MacAddress(0x02_9999), dst=guest.vf.mac)])
    bed.sim.run(until=0.01)
    deliveries = list(tracer.select(category="irq", name="deliver"))
    assert deliveries
    assert deliveries[0].get("domain") == guest.domain.id
