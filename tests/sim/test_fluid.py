"""Fluid-vs-exact equivalence: the collapsed-window fast path's contract.

``sim_mode="fluid"`` promises *byte-identical* results, not approximate
ones: for every eligible flow the collapse replays the exact engine's
event arithmetic, and for every ineligible flow (or run) it falls back
to the exact path.  These tests pin both halves:

* identical ``RunResult.to_dict()`` payloads across the fig. 15/16
  scenario shapes (HVM, PVM, native; UDP and TCP; randomized seeded
  rates/sizes/frequencies), the fig. 8-10 adaptive-ITR shapes, the
  fig. 13 inter-VM loopback shapes and shared-port multi-stream runs;
* the event identity ``events_executed + collapsed_events ==
  exact.events_executed`` (the collapse skips dispatch, never work);
* exact fallbacks (faults, a sub-window ITR interval, a 2.6.18 guest,
  a mid-run rate change, a mid-run joiner on a collapsed port) that
  decollapse or never attach, with results still identical;
* the exact mode's own event stream is untouched (the golden digest of
  ``tests/sim/test_determinism.py`` stays the arbiter for that).
"""

import random

from repro.api import Scenario, _dispatch
from repro.core.costs import CostModel
from repro.core.experiment import ExperimentRunner
from repro.core.testbed import Testbed, TestbedConfig


def _run(scenario: Scenario):
    runner = ExperimentRunner(warmup=scenario.warmup,
                              duration=scenario.duration,
                              seed=scenario.seed,
                              faults=scenario.faults,
                              sim_mode=scenario.sim_mode)
    result = _dispatch(runner, scenario)
    bed = runner.last_bed
    return (result.to_dict(), bed.sim.events_executed,
            bed.sim.collapsed_events)


def _assert_equivalent(base: Scenario, expect_collapsed=True):
    """Run ``base`` in both modes and assert byte-identity.

    ``expect_collapsed``: True — the fast path must engage; False — it
    must not (exact fallback); None — either is fine (the run merely
    has to be equivalent, used for randomized configs where gate
    eligibility depends on the draw).
    """
    exact, exact_events, exact_collapsed = _run(base)
    fluid, fluid_events, fluid_collapsed = _run(base.with_(sim_mode="fluid"))
    assert exact_collapsed == 0
    assert fluid == exact  # byte-identical RunResult payloads
    assert fluid_events + fluid_collapsed == exact_events
    if expect_collapsed is True:
        assert fluid_collapsed > 0
    elif expect_collapsed is False:
        assert fluid_collapsed == 0
    return exact, fluid


FIXED_2K = {"kind": "fixed_itr", "hz": 2000}


class TestSteadyStateEquivalence:
    """The fig. 15/16 shapes: results and event counts must match."""

    def test_fig15_shape_hvm(self):
        _assert_equivalent(Scenario(mode="sriov", kind="hvm",
                                    policy=FIXED_2K, vm_count=2,
                                    warmup=0.1, duration=0.1))

    def test_fig16_shape_pvm(self):
        _assert_equivalent(Scenario(mode="sriov", kind="pvm",
                                    policy=FIXED_2K, vm_count=2,
                                    warmup=0.1, duration=0.1))

    def test_native_baseline(self):
        _assert_equivalent(Scenario(mode="native", policy=FIXED_2K,
                                    vm_count=2, warmup=0.1, duration=0.1))

    def test_tcp_stream(self):
        _assert_equivalent(Scenario(mode="sriov", kind="hvm",
                                    policy=FIXED_2K, protocol="tcp",
                                    vm_count=2, warmup=0.1, duration=0.1))

    def test_throughput_anchor_equality(self):
        exact, fluid = _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=2, warmup=0.1, duration=0.1))
        # Exact float equality of the throughput anchor, not a
        # tolerance.
        assert fluid["throughput_bps"] == exact["throughput_bps"]
        assert fluid["interrupt_hz"] == exact["interrupt_hz"]
        assert fluid["latency_mean"] == exact["latency_mean"]

    def test_randomized_eligible_configs(self):
        rng = random.Random(0xF1D)
        for _ in range(4):
            scenario = Scenario(
                mode="sriov",
                kind=rng.choice(["hvm", "pvm"]),
                policy={"kind": "fixed_itr",
                        "hz": rng.choice([1000, 2000, 4000])},
                vm_count=rng.randint(1, 3),
                offered_bps=rng.choice([200e6, 450e6, 900e6]),
                seed=rng.randint(0, 2**16),
                warmup=0.05, duration=0.05,
            )
            # Gate eligibility depends on the draw (a fast stream with
            # a fast timer can fail the min-ticks-per-window gate);
            # byte-identity is required either way.
            _assert_equivalent(scenario, expect_collapsed=None)


class TestExactFallbacks:
    """Ineligible runs must silently take the exact path — identical
    results, zero collapsed events."""

    def test_dynamic_itr_short_interval_falls_back(self):
        # DynamicItr opens at ~111 us, under MIN_TICKS_PER_WINDOW burst
        # intervals at these rates: the per-flow itr_window gate (not a
        # wholesale fallback) keeps every stream exact.
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy={"kind": "dynamic_itr"},
                     vm_count=2, warmup=0.05, duration=0.05),
            expect_collapsed=False)

    def test_linux_2618_msi_masking_falls_back(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", kernel="2.6.18",
                     policy=FIXED_2K, vm_count=2, warmup=0.05,
                     duration=0.05),
            expect_collapsed=False)

    def test_shared_port_slow_streams_fall_back(self):
        # Sharing a wire no longer forces exact by itself, but these
        # line-share streams tick too slowly for the throttle window:
        # each flow fails the itr_window gate individually.
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=3, ports=1, warmup=0.05, duration=0.05),
            expect_collapsed=False)

    def test_faults_fall_back_wholesale(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=2, warmup=0.05, duration=0.05,
                     faults=[{"kind": "link_flap", "at": 0.06,
                              "port": 0, "duration": 0.005}]),
            expect_collapsed=False)


class TestAdaptiveItrCollapse:
    """Fig. 8-10: AIC flows collapse between ITR sample ticks, and the
    per-sample rate updates replay float-identically."""

    def test_fig08_aic_ladder_rung_collapses(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy={"kind": "aic"},
                     vm_count=1, ports=1, offered_bps=900e6,
                     warmup=0.05, duration=0.05))

    def test_fig09_aic_tcp_collapses(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy={"kind": "aic"},
                     protocol="tcp", vm_count=1, ports=1,
                     warmup=0.05, duration=0.05))

    def test_aic_sample_trajectory_is_float_identical(self):
        # Shrink the sample period so several AIC samples land inside
        # the measured window: each sample executes as a real event
        # between collapsed windows, reads counters the replay must
        # already have settled, and reprograms VTEITR through the
        # fluid listener.
        def run(mode):
            runner = ExperimentRunner(
                duration=0.05, warmup=0.005, sim_mode=mode,
                costs=CostModel(aic_sample_period=5e-3))
            result = runner.run_sriov(vm_count=1, ports=1,
                                      offered_bps_per_vm=900e6,
                                      policy={"kind": "aic"})
            guest = runner.last_bed.sriov_guests[0]
            return result, guest.vf.throttle.interval
        exact, exact_interval = run("exact")
        fluid, fluid_interval = run("fluid")
        assert fluid.to_dict() == exact.to_dict()
        assert fluid_interval == exact_interval  # the AIC trajectory
        assert fluid.fluid["collapsed_events"] > 0
        assert fluid.fluid["events_executed"] > 0  # the samples ran

    def test_itr_write_below_window_decollapses(self):
        # A guest reprogramming VTEITR under the window floor mid-run
        # must push the flow off the fast path, seamlessly.
        from repro.devices.igb_regs import REG_VTEITR_BASE
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, guest, stream = _one_guest_bed(mode)
            bed.sim.run(until=0.0103)
            guest.vf.regs.write(REG_VTEITR_BASE, 50)  # 50 us interval
            bed.sim.run(until=0.02)
            bed.settle_fluid()
            if mode == "fluid":
                assert all(not f.active for f in bed.fluid_flows)
            snaps[mode] = _counters_snapshot(bed, guest, stream)
        assert snaps["fluid"] == snaps["exact"]


class TestSharedPortCollapse:
    """Fig. 13/14 multi-stream shapes: streams sharing one port collapse
    together through the merged-replay group."""

    def test_two_streams_one_port_collapse(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=2, ports=1, offered_bps=900e6,
                     warmup=0.05, duration=0.05))

    def test_three_streams_one_port_collapse(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=3, ports=1, offered_bps=900e6,
                     warmup=0.05, duration=0.05))

    def test_shared_port_aic_collapses(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy={"kind": "aic"},
                     vm_count=2, ports=1, offered_bps=900e6,
                     warmup=0.05, duration=0.05))

    def test_unequal_burst_intervals_evict(self):
        # The merged-replay ordering proof needs phase-locked members;
        # different rates mean different burst intervals, so the port
        # falls back whole at the second stream's begin.
        bed = Testbed(TestbedConfig(ports=1, sim_mode="fluid"))
        g1 = bed.add_sriov_guest(name="vm0")
        g2 = bed.add_sriov_guest(name="vm1")
        s1 = bed.attach_client_to_sriov(g1, 900e6)
        s2 = bed.attach_client_to_sriov(g2, 600e6)
        s1.start()
        s2.start()
        assert all(not f.active for f in bed.fluid_flows)
        assert bed.fluid_rejections.get("port_evicted")

    def test_group_rate_change_decollapses_whole_port(self):
        def run(mode):
            bed = Testbed(TestbedConfig(ports=1, sim_mode=mode))
            guests = [bed.add_sriov_guest(name=f"vm{i}") for i in range(2)]
            streams = [bed.attach_client_to_sriov(g, 900e6) for g in guests]
            for s in streams:
                s.start()
            if mode == "fluid":
                assert all(f.active for f in bed.fluid_flows)
            bed.sim.run(until=0.0203)
            streams[0].set_rate(250e6)  # one member leaves: all must
            if mode == "fluid":
                assert all(not f.active for f in bed.fluid_flows)
            bed.sim.run(until=0.04)
            bed.settle_fluid()
            return [_counters_snapshot(bed, g, s)
                    for g, s in zip(guests, streams)]
        assert run("fluid") == run("exact")


def _loopback_bed(sim_mode, sender="guest", offered_bps=5e9, mtu=1500):
    """The run_intervm_sriov wiring, built by hand so tests can poke
    the stream mid-run (fig. 10 when dom0 sends, fig. 13 when a guest
    does)."""
    from repro.net.netperf import NetperfStream
    from repro.net.packet import Protocol
    bed = Testbed(TestbedConfig(ports=1, sim_mode=sim_mode))
    if sender == "guest":
        tx_guest = bed.add_sriov_guest(name="tx")
        transmit = tx_guest.driver.transmit
        src = tx_guest.vf.mac
        sender_domain = tx_guest.domain
        tx_function, tx_driver = tx_guest.vf, tx_guest.driver
    else:
        pf_driver = bed.pf_drivers[0]
        transmit = pf_driver.transmit
        src = bed.ports[0].pf.mac
        sender_domain = pf_driver.dom0
        tx_function, tx_driver = bed.ports[0].pf, pf_driver
    receiver = bed.add_sriov_guest(name="rx")
    stream = NetperfStream(
        bed.sim, transmit, src, receiver.vf.mac, offered_bps,
        Protocol.UDP, mtu=mtu, burst_interval=100e-6, name="intervm",
        pool=bed.packet_pool)
    if sim_mode == "fluid":
        from repro.sim.fluid import FluidLoopbackFlow
        flow = FluidLoopbackFlow(bed, receiver, stream, sender_domain,
                                 tx_function, tx_driver)
        assert flow.try_attach(), bed.fluid_rejections
        bed.fluid_flows.append(flow)
    stream.start()
    if sim_mode == "fluid":
        assert bed.fluid_flows[0].active
    return bed, receiver, stream, tx_function, sender_domain


def _loopback_snapshot(bed, receiver, stream, tx_function, sender_domain):
    snap = _counters_snapshot(bed, receiver, stream)
    snap.update({
        "loopback": receiver.port.internal_loopback_packets,
        "tx_packets": tx_function.tx_packets,
        "tx_bytes": tx_function.tx_bytes,
        "tx_backlog_drops": tx_function.tx_backlog_drops,
        "tx_cycles": sender_domain.cycles_consumed,
        "dma_transfers": receiver.port.datapath.transfers.value,
    })
    return snap


class TestLoopbackCollapse:
    """Inter-VM traffic through the NIC's internal switch collapses:
    sender ticks, per-packet DMA completions and receiver fires merge
    into one virtual clock."""

    def test_fig13_guest_sender_collapses(self):
        for message_bytes in (64, 1500):
            _assert_equivalent(
                Scenario(mode="intervm", variant="sriov", kind="hvm",
                         message_bytes=message_bytes,
                         warmup=0.02, duration=0.02))

    def test_fig10_dom0_sender_collapses(self):
        _assert_equivalent(
            Scenario(mode="intervm", variant="sriov", kind="hvm",
                     sender="dom0", warmup=0.02, duration=0.02))

    def test_intervm_pv_is_ineligible(self):
        _assert_equivalent(
            Scenario(mode="intervm", variant="pv", kind="pvm",
                     warmup=0.02, duration=0.02),
            expect_collapsed=False)

    def test_midrun_rate_change_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, receiver, stream, tx, dom = _loopback_bed(mode)
            bed.sim.run(until=0.0103)
            stream.set_rate(1e9)
            bed.sim.run(until=0.02)
            bed.settle_fluid()
            snaps[mode] = _loopback_snapshot(bed, receiver, stream, tx, dom)
        assert snaps["fluid"] == snaps["exact"]

    def test_midrun_stop_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, receiver, stream, tx, dom = _loopback_bed(mode)
            bed.sim.run(until=0.0151)
            stream.stop()
            bed.sim.run(until=0.03)
            bed.settle_fluid()
            snaps[mode] = _loopback_snapshot(bed, receiver, stream, tx, dom)
        assert snaps["fluid"] == snaps["exact"]

    def test_tx_rate_limit_never_attaches(self):
        from repro.sim.fluid import FluidLoopbackFlow
        bed = Testbed(TestbedConfig(ports=1, sim_mode="exact"))
        tx_guest = bed.add_sriov_guest(name="tx")
        receiver = bed.add_sriov_guest(name="rx")
        from repro.net.netperf import NetperfStream
        from repro.net.packet import Protocol
        stream = NetperfStream(
            bed.sim, tx_guest.driver.transmit, tx_guest.vf.mac,
            receiver.vf.mac, 5e9, Protocol.UDP, mtu=1500,
            burst_interval=100e-6, name="intervm", pool=bed.packet_pool)
        tx_guest.vf.tx_rate_limit_bps = 1e9
        flow = FluidLoopbackFlow(bed, receiver, stream, tx_guest.domain,
                                 tx_guest.vf, tx_guest.driver)
        assert not flow.try_attach()
        assert bed.fluid_rejections == {"tx_rate_limit": 1}


class TestRejectionDiagnostics:
    """Satellite: every refused try_attach names its gate, per flow,
    and the counts surface in RunResult.fluid and the metrics tree."""

    def test_rejections_name_the_gate(self):
        runner = ExperimentRunner(duration=0.02, warmup=0.005,
                                  sim_mode="fluid")
        # 300 Mb/s ticks too slowly for the 2 kHz window: itr_window.
        result = runner.run_sriov(vm_count=1, ports=1,
                                  offered_bps_per_vm=300e6,
                                  policy=FIXED_2K)
        assert result.fluid["rejections"] == {"itr_window": 1}
        assert result.fluid["collapsed_events"] == 0

    def test_collapsed_run_reports_diagnostics(self):
        runner = ExperimentRunner(duration=0.02, warmup=0.005,
                                  sim_mode="fluid")
        result = runner.run_sriov(vm_count=1, ports=1,
                                  offered_bps_per_vm=900e6)
        assert result.fluid["collapsed_events"] > 0
        assert result.fluid["flows"] == 1
        assert result.fluid["rejections"] == {}
        # Diagnostics never enter the canonical payload: byte-equality
        # with exact mode (and cache keys) must not depend on them.
        assert "fluid" not in result.to_dict()

    def test_exact_mode_has_no_diagnostics(self):
        runner = ExperimentRunner(duration=0.02, warmup=0.005)
        result = runner.run_sriov(vm_count=1, ports=1,
                                  offered_bps_per_vm=900e6)
        assert result.fluid is None

    def test_rejection_metric_when_telemetry_on(self):
        bed = Testbed(TestbedConfig(ports=1, sim_mode="fluid",
                                    telemetry=True))
        guest = bed.add_sriov_guest(name="vm0")
        bed.attach_client_to_sriov(guest, 900e6)
        # The live tracer itself makes the flow ineligible (observers
        # must see real events), so the tracer gate fires — and lands
        # in the metrics registry.
        assert bed.fluid_rejections == {"tracer": 1}
        counter = bed.platform.metrics.scope("fluid").counter(
            "rejected.tracer")
        assert counter.value == 1


def _counters_snapshot(bed, guest, stream):
    """Every externally observable number a flow touches."""
    vf = guest.vf
    driver = guest.driver
    app = guest.app
    ring = vf.rx_ring
    lat = app.latency
    return {
        "sent": stream.sent.value,
        "sent_bytes": stream.sent_bytes.value,
        "wire_rx": guest.port.wire_rx_packets,
        "dma_busy": guest.port.datapath._busy_until,
        "dma_bytes": guest.port.datapath.transferred_bytes.value,
        "rx_offered": vf.rx_offered,
        "rx_packets": vf.rx_packets,
        "rx_bytes": vf.rx_bytes,
        "no_desc": vf.rx_no_desc_drops,
        "posted": ring.posted,
        "completed": ring.completed,
        "head": ring.head,
        "tail": ring.tail,
        "fired": vf.throttle.fired,
        "last_fired": vf.throttle._last_fired,
        "msi_posted": vf.msix.interrupts_posted,
        "interrupts": driver.interrupts_handled,
        "napi_polls": driver.napi.polls,
        "napi_packets": driver.napi.packets,
        "app_rx_packets": app.rx_packets,
        "app_rx_bytes": app.rx_bytes,
        "app_dropped": app.dropped_packets,
        "lat_count": lat._count,
        "lat_sum": lat._sum,
        "lat_sum_sq": lat._sum_sq,
        "cycles": driver.domain.cycles_consumed,
        "events_total": bed.sim.events_executed + bed.sim.collapsed_events,
    }


def _one_guest_bed(sim_mode):
    # 900 Mb/s: fast enough that the flow passes the min-ticks-per-
    # window gate against the default 2 kHz throttle (slower rates
    # would silently stay exact and make the paired runs vacuous).
    bed = Testbed(TestbedConfig(ports=1, sim_mode=sim_mode))
    guest = bed.add_sriov_guest(name="vm0")
    stream = bed.attach_client_to_sriov(guest, 900e6)
    stream.start()
    if sim_mode == "fluid":
        assert bed.fluid_flows and bed.fluid_flows[0].active
    return bed, guest, stream


class TestDecollapse:
    """Leaving the fast path mid-run must leave no observable seam."""

    def test_midrun_rate_change_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, guest, stream = _one_guest_bed(mode)
            bed.sim.run(until=0.0203)
            stream.set_rate(250e6)  # decollapses at an off-window instant
            bed.sim.run(until=0.04)
            bed.settle_fluid()
            snaps[mode] = _counters_snapshot(bed, guest, stream)
        assert snaps["fluid"] == snaps["exact"]

    def test_midrun_stop_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, guest, stream = _one_guest_bed(mode)
            bed.sim.run(until=0.0151)
            stream.stop()
            # The re-armed throttle fire still drains the ring tail.
            bed.sim.run(until=0.03)
            bed.settle_fluid()
            snaps[mode] = _counters_snapshot(bed, guest, stream)
        assert snaps["fluid"] == snaps["exact"]

    def test_driver_stop_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, guest, stream = _one_guest_bed(mode)
            bed.sim.run(until=0.0101)
            guest.driver.stop()
            stream.stop()
            bed.sim.run(until=0.02)
            bed.settle_fluid()
            snaps[mode] = _counters_snapshot(bed, guest, stream)
        assert snaps["fluid"] == snaps["exact"]

    def test_second_stream_on_port_decollapses_first(self):
        bed = Testbed(TestbedConfig(ports=1, sim_mode="fluid"))
        first = bed.add_sriov_guest(name="vm0")
        s1 = bed.attach_client_to_sriov(first, 900e6)
        s1.start()
        assert len(bed.fluid_flows) == 1
        bed.sim.run(until=0.01)
        second = bed.add_sriov_guest(name="vm1")
        s2 = bed.attach_client_to_sriov(second, 900e6)
        s2.start()
        # The shared wire evicted the collapsed flow.
        assert first.stream._fluid is None
        assert all(not flow.active for flow in bed.fluid_flows)

    def test_decollapse_materializes_pending_packets(self):
        bed, guest, stream = _one_guest_bed("fluid")
        bed.sim.run(until=0.0102)  # mid-window: undrained ticks pending
        flow = bed.fluid_flows[0]
        assert flow.active
        flow.decollapse()
        assert not flow.active
        ring = guest.vf.rx_ring
        # The ticks since the last virtual fire replayed as real ring
        # occupancy: undrained packets sit in device-completed slots,
        # exactly where the exact run would have them.
        occupied = sum(1 for slot in ring.slots if slot.packet is not None)
        assert occupied > 0
        assert occupied == sum(1 for slot in ring.slots if slot.done)
        # Bookkeeping stayed consistent: completions count only what
        # the device actually wrote back so far.
        assert ring.completed == guest.vf.rx_packets


class TestEligibilityGates:
    def test_jittered_stream_never_attaches(self):
        from repro.sim.fluid import FluidFlow
        bed = Testbed(TestbedConfig(ports=1, sim_mode="exact"))
        guest = bed.add_sriov_guest(name="vm0")
        stream = bed.attach_client_to_sriov(guest, 900e6)
        stream.jitter = 0.2
        assert not FluidFlow(bed, guest, stream).try_attach()
        stream.jitter = 0.0
        assert FluidFlow(bed, guest, stream).try_attach()

    def test_slow_stream_never_attaches(self):
        # A window must span MIN_TICKS_PER_WINDOW burst intervals; a
        # 300 Mb/s stream against the default 2 kHz throttle does not.
        bed = Testbed(TestbedConfig(ports=1, sim_mode="fluid"))
        guest = bed.add_sriov_guest(name="vm0")
        bed.attach_client_to_sriov(guest, 300e6).start()
        assert not bed.fluid_flows

    def test_exact_mode_never_builds_flows(self):
        bed = Testbed(TestbedConfig(ports=1, sim_mode="exact"))
        guest = bed.add_sriov_guest(name="vm0")
        bed.attach_client_to_sriov(guest, 900e6).start()
        assert not bed.fluid_flows


def test_golden_exact_digest_is_unchanged():
    """The exact mode's event stream is the repo's determinism anchor;
    the fluid mode must not have perturbed it (same constant as
    tests/sim/test_determinism.py)."""
    from tests.sim.test_determinism import (GOLDEN_DIGEST,
                                            _run_fixed_scenario)
    assert _run_fixed_scenario() == GOLDEN_DIGEST
