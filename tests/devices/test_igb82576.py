"""Unit tests for the 82576 SR-IOV port model."""

import pytest

from repro.devices import Igb82576Port
from repro.devices.igb82576 import (
    DEFAULT_RING_SIZE,
    IGB_VF_DEVICE_ID,
    InterruptThrottle,
    RX_BUFFER_BYTES,
)
from repro.devices.l2switch import SwitchTarget
from repro.hw import Iommu, IoPageTable
from repro.hw.pcie import RootComplex
from repro.net import Packet
from repro.net.mac import MacAddress
from repro.sim import Simulator

MAC_REMOTE = MacAddress.parse("02:00:00:00:99:99")


def build_port(sim=None, vf_count=2, with_iommu=True):
    """A port with its PF attached, VFs enabled, MACs programmed, and
    each VF's RX ring pre-filled the way a driver would."""
    sim = sim or Simulator()
    iommu = Iommu() if with_iommu else None
    rc = RootComplex(iommu)
    port = Igb82576Port(sim, iommu=iommu)
    rc.attach(port.pf.pci, bus=1, device=0)
    interrupts = []
    port.interrupt_sink = lambda fn, msg: interrupts.append((fn.name, msg.vector))
    vfs = port.enable_vfs(vf_count)
    for i, vf in enumerate(vfs):
        mac = MacAddress(0x020000000010 + i)
        vf.mac = mac
        port.switch.program(mac, i)
        vf.enabled = True
        if iommu is not None:
            table = IoPageTable(domain_id=i + 1)
            table.map(0x0, 0x1000000 * (i + 1), size=DEFAULT_RING_SIZE * 4096)
            iommu.attach(vf.pci.rid, table)
        _fill_rx_ring(vf)
        _configure_msix(vf, base_vector=0x40 + 16 * i)
    return sim, port, vfs, interrupts


def _fill_rx_ring(fn):
    while not fn.rx_ring.full:
        fn.rx_ring.post(fn.rx_ring.tail * 4096, RX_BUFFER_BYTES)


def _configure_msix(fn, base_vector):
    from repro.hw import MsiMessage
    for i in range(2):
        fn.msix.configure(i, MsiMessage(0xFEE00000, base_vector + i))
        fn.msix.unmask(i)


class TestVfLifecycle:
    def test_enable_vfs_assigns_stride_rids(self):
        _, port, vfs, _ = build_port(vf_count=7)
        rids = [vf.pci.rid for vf in vfs]
        assert len(set(rids)) == 7
        stride = port.pf.sriov.vf_stride
        assert all(b - a == stride for a, b in zip(rids, rids[1:]))

    def test_vfs_invisible_to_bus_scan(self):
        _, port, vfs, _ = build_port()
        assert all(not vf.pci.responds_to_scan for vf in vfs)
        assert vfs[0].pci.config.device_id == IGB_VF_DEVICE_ID

    def test_enable_requires_attached_pf(self):
        port = Igb82576Port(Simulator())
        with pytest.raises(RuntimeError):
            port.enable_vfs(2)

    def test_double_enable_rejected(self):
        _, port, _, _ = build_port()
        with pytest.raises(RuntimeError):
            port.enable_vfs(2)

    def test_disable_vfs_resets(self):
        _, port, vfs, _ = build_port()
        port.disable_vfs()
        assert port.vfs == []
        assert not port.pf.sriov.vf_enabled


class TestReceivePath:
    def test_wire_packet_lands_in_owning_vf(self):
        sim, port, vfs, interrupts = build_port()
        packet = Packet(src=MAC_REMOTE, dst=vfs[1].mac)
        port.wire_receive([packet])
        assert vfs[1].rx_packets == 1
        assert vfs[0].rx_packets == 0
        assert interrupts and interrupts[0][0].endswith("vf1")

    def test_ring_exhaustion_drops(self):
        sim, port, vfs, _ = build_port()
        vfs[0].rx_ring.reset()  # empty ring: no descriptors posted
        port.wire_receive([Packet(src=MAC_REMOTE, dst=vfs[0].mac)])
        assert vfs[0].rx_packets == 0
        assert vfs[0].rx_no_desc_drops == 1

    def test_disabled_vf_drops(self):
        sim, port, vfs, _ = build_port()
        vfs[0].enabled = False
        port.wire_receive([Packet(src=MAC_REMOTE, dst=vfs[0].mac)])
        assert vfs[0].rx_packets == 0

    def test_dma_goes_through_iommu(self):
        sim, port, vfs, _ = build_port()
        translations_before = port.iommu.translations
        port.wire_receive([Packet(src=MAC_REMOTE, dst=vfs[0].mac)])
        assert port.iommu.translations == translations_before + 1

    def test_unmapped_buffer_faults_and_drops(self):
        sim, port, vfs, _ = build_port()
        port.iommu.detach(vfs[0].pci.rid)
        port.wire_receive([Packet(src=MAC_REMOTE, dst=vfs[0].mac)])
        assert vfs[0].rx_dma_faults == 1
        assert vfs[0].rx_packets == 0

    def test_corruption_exhaustion_and_faults_keep_every_counter(self):
        """Injected corruption, a dry ring and an unmapped buffer in
        successive bursts: each counter moves as the per-packet model
        says, and offered == packets + no_desc + dma_faults + corrupt."""
        sim, port, vfs, interrupts = build_port()
        vf = vfs[0]
        ring = vf.rx_ring
        iommu = port.iommu
        ring.reset()
        for _ in range(3):
            ring.post(ring.tail * 4096, RX_BUFFER_BYTES)

        def burst(n):
            return [Packet(src=MAC_REMOTE, dst=vf.mac) for _ in range(n)]

        def counters():
            assert vf.rx_offered == (vf.rx_packets + vf.rx_no_desc_drops
                                     + vf.rx_dma_faults
                                     + vf.rx_corrupt_drops)
            return (vf.rx_offered, vf.rx_packets, vf.rx_no_desc_drops,
                    vf.rx_dma_faults, vf.rx_corrupt_drops,
                    port.rx_corrupted, port.rx_corrupt_budget,
                    ring.completed, iommu.translations, iommu.faults)

        base_translations = iommu.translations
        base_faults = iommu.faults
        size = Packet(src=MAC_REMOTE, dst=vf.mac).size_bytes

        # A budget smaller than the burst, then the ring runs dry: the
        # corrupted frames consume no descriptor.
        port.rx_corrupt_budget = 2
        assert vf.device_receive(burst(7)) == 3
        assert counters() == (7, 3, 2, 0, 2, 2, 0, 3,
                              base_translations + 3, base_faults)
        assert vf.rx_bytes == 3 * size
        assert [fn for fn, _ in interrupts] == [vf.name]

        # An unmapped buffer at head faults every frame behind it.
        ring.post(DEFAULT_RING_SIZE * 4096, RX_BUFFER_BYTES)
        assert vf.device_receive(burst(2)) == 0
        assert counters() == (9, 3, 2, 2, 2, 2, 0, 3,
                              base_translations + 3, base_faults + 2)

        # A budget that spans two bursts: the second burst's first
        # frame is still corrupted, the rest land.
        ring.reset()
        for _ in range(4):
            ring.post(ring.tail * 4096, RX_BUFFER_BYTES)
        port.rx_corrupt_budget = 4
        assert vf.device_receive(burst(3)) == 0
        assert counters() == (12, 3, 2, 2, 5, 5, 1, 3,
                              base_translations + 3, base_faults + 2)
        assert vf.device_receive(burst(3)) == 2
        assert counters() == (15, 5, 2, 2, 6, 6, 0, 5,
                              base_translations + 5, base_faults + 2)
        assert vf.rx_bytes == 5 * size
        assert ring.head == 2


class TestInterruptThrottle:
    def test_first_request_fires_immediately(self):
        sim = Simulator()
        fired = []
        throttle = InterruptThrottle(sim, lambda: fired.append(sim.now),
                                     interval=1e-3)
        throttle.request()
        sim.run()
        assert fired == [0.0]

    def test_requests_within_interval_coalesce(self):
        sim = Simulator()
        fired = []
        throttle = InterruptThrottle(sim, lambda: fired.append(sim.now),
                                     interval=1e-3)
        throttle.request()
        sim.schedule(1e-4, throttle.request)
        sim.schedule(2e-4, throttle.request)
        sim.run()
        assert fired == [0.0, pytest.approx(1e-3)]

    def test_rate_capped_at_itr_frequency(self):
        sim = Simulator()
        fired = []
        throttle = InterruptThrottle(sim, lambda: fired.append(sim.now),
                                     interval=1e-3)
        t = 0.0
        while t < 0.1:
            sim.schedule_at(t, throttle.request)
            t += 1e-4  # request at 10 kHz against a 1 kHz throttle
        sim.run(until=0.2)
        assert len(fired) == pytest.approx(100, abs=2)

    def test_set_interval_reprograms(self):
        sim = Simulator()
        throttle = InterruptThrottle(sim, lambda: None, interval=1e-3)
        throttle.set_interval(1e-4)
        assert throttle.interval == 1e-4
        with pytest.raises(ValueError):
            throttle.set_interval(-1)

    def test_cancel_clears_pending(self):
        sim = Simulator()
        fired = []
        throttle = InterruptThrottle(sim, lambda: fired.append(sim.now),
                                     interval=1e-3)
        throttle.request()
        sim.step()  # immediate firing
        throttle.request()  # schedules deferred
        throttle.cancel()
        sim.run()
        assert len(fired) == 1


class TestTransmitPath:
    def test_wire_transmit_counts(self):
        sim, port, vfs, _ = build_port()
        packet = Packet(src=vfs[0].mac, dst=MAC_REMOTE)
        sent = vfs[0].hw_transmit([packet])
        assert sent == 1
        assert port.wire_tx_packets == 1
        assert vfs[0].tx_packets == 1

    def test_spoofed_transmit_dropped(self):
        sim, port, vfs, _ = build_port()
        forged = Packet(src=vfs[1].mac, dst=MAC_REMOTE)
        assert vfs[0].hw_transmit([forged]) == 0
        assert vfs[0].tx_spoof_drops == 1

    def test_internal_loopback_delivers_to_peer_vf(self):
        sim, port, vfs, _ = build_port()
        packet = Packet(src=vfs[0].mac, dst=vfs[1].mac)
        vfs[0].hw_transmit([packet])
        sim.run()  # wait out the DMA transfer
        assert vfs[1].rx_packets == 1
        assert port.internal_loopback_packets == 1

    def test_internal_loopback_costs_two_dma_crossings(self):
        sim, port, vfs, _ = build_port()
        before = port.datapath.transferred_bytes.value
        vfs[0].hw_transmit([Packet(src=vfs[0].mac, dst=vfs[1].mac,
                                   size_bytes=1500)])
        assert port.datapath.transferred_bytes.value - before == 3000

    def test_backlogged_datapath_drops(self):
        sim, port, vfs, _ = build_port()
        port.datapath.transfer(int(1e9))  # hog the pipe for seconds
        assert vfs[0].hw_transmit([Packet(src=vfs[0].mac, dst=MAC_REMOTE)]) == 0
        assert vfs[0].tx_backlog_drops == 1

    def test_disabled_vf_does_not_transmit(self):
        sim, port, vfs, _ = build_port()
        vfs[0].enabled = False
        assert vfs[0].hw_transmit([Packet(src=vfs[0].mac, dst=MAC_REMOTE)]) == 0


def test_interrupt_requires_sink():
    sim = Simulator()
    rc = RootComplex()
    port = Igb82576Port(sim)
    rc.attach(port.pf.pci, bus=1, device=0)
    vfs = port.enable_vfs(1)
    vf = vfs[0]
    vf.enabled = True
    vf.mac = MacAddress(0x020000000010)
    port.switch.program(vf.mac, 0)
    _fill_rx_ring(vf)
    _configure_msix(vf, 0x40)
    with pytest.raises(RuntimeError):
        port.wire_receive([Packet(src=MAC_REMOTE, dst=vf.mac)])
