"""Coverage for remaining branches: switch flooding, lazy body fetch,
MAC transmit pacing, and spare-cycle accounting."""


from repro.engine import Simulator
from repro.hosts.pci import I2OMessage, I2OQueuePair, PCIBus
from repro.hosts.pentium import PentiumHost
from repro.net.mac import MACPort, PortSpeed
from repro.net.mp import segment_packet
from repro.net.packet import make_tcp_packet


def test_switch_drops_unknown_destination():
    from repro.core.cluster import EthernetSwitch, member_mac

    sim = Simulator()
    switch = EthernetSwitch(sim, poll_cycles=50)
    port = MACPort(sim, 0, PortSpeed.GBPS_1)
    switch.attach(member_mac(0), port)
    stray = make_tcp_packet("1.1.1.1", "2.2.2.2")  # dst MAC not attached
    for mp in segment_packet(stray):
        port.put_mp(mp)
    sim.run(until=50_000)
    assert switch.flooded_drops == 1
    assert switch.forwarded == 0


def test_mac_tx_pacing_blocks_until_wire_free():
    sim = Simulator()
    port = MACPort(sim, 0, PortSpeed.MBPS_100)
    assert port.tx_ready(0)
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2")
    for mp in segment_packet(packet):
        port.put_mp(mp)
    # A 64-byte frame occupies the 100 Mbps wire for 1344 cycles.
    assert not port.tx_ready(10)
    assert port.tx_ready(1400)


def test_pentium_lazy_body_fetch_costs_bus_time():
    """fetch_body=True moves the body; False moves only the eager 72 B."""

    def run(fetch_body):
        sim = Simulator()
        bus = PCIBus(sim)
        rx, tx = I2OQueuePair(name="rx"), I2OQueuePair(name="tx")
        pentium = PentiumHost(sim, rx, tx, bus, fetch_body=fetch_body)
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", payload=b"x" * 1000)
        rx.try_send(I2OMessage(packet, 72, 1000, {}))
        sim.run(until=50_000)
        return pentium.processed, bus.bytes_moved

    processed_lazy, lazy_bytes = run(False)
    processed_eager, eager_bytes = run(True)
    assert processed_lazy == processed_eager == 1
    assert lazy_bytes == 2 * 72
    assert eager_bytes == 72 + 1000 + 72 + 1000


def test_pentium_spare_cycles_undefined_when_idle():
    # An idle window used to report float("inf"), which leaks as invalid
    # JSON (``Infinity``) from exported reports; None marks it undefined.
    sim = Simulator()
    pentium = PentiumHost(sim, I2OQueuePair(), I2OQueuePair(), PCIBus(sim))
    pentium.start_window()
    sim.run(until=10_000)
    assert pentium.spare_cycles_per_packet(10_000) is None


def test_pentium_drop_action_consumes_packet():
    sim = Simulator()
    rx, tx = I2OQueuePair(), I2OQueuePair()
    pentium = PentiumHost(sim, rx, tx, PCIBus(sim))
    pentium.register("blackhole", 50, lambda packet: False)
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2")
    packet.meta["pentium_forwarder"] = "blackhole"
    rx.try_send(I2OMessage(packet, 72, 0, dict(packet.meta)))
    sim.run(until=20_000)
    assert pentium.processed == 1
    assert pentium.returned == 0
    assert tx.occupancy == 0


def test_signal_fire_returns_woken_count():
    sim = Simulator()
    signal = sim.signal()

    def waiter():
        yield signal

    sim.spawn(waiter())
    sim.spawn(waiter())
    sim.run(max_events=4)
    assert signal.fire() == 2
    assert signal.fire() == 0
