"""Tests for traffic generators and the MAC port model."""

from repro.engine import Simulator
from repro.net import IPv4Address, MACPort, PortSpeed
from repro.net.mac import EVALUATION_BOARD_PORTS, make_board_ports
from repro.net.traffic import (
    address_for_port,
    flow_stream,
    round_robin_merge,
    single_port_flood,
    standard_table,
    syn_flood,
    take,
    uniform_flood,
)


def test_standard_table_maps_ports():
    table = standard_table()
    for port in range(10):
        addr = IPv4Address(address_for_port(port, host=42))
        assert table.lookup(addr).out_port == port


def test_uniform_flood_round_robins_ports():
    table = standard_table()
    packets = take(uniform_flood(16, num_ports=8), 16)
    ports = [table.lookup(p.ip.dst).out_port for p in packets]
    assert ports == list(range(8)) * 2
    assert all(p.frame_len == 64 for p in packets)


def test_uniform_flood_is_deterministic_per_seed():
    a = [p.ip.src for p in uniform_flood(10, seed=7)]
    b = [p.ip.src for p in uniform_flood(10, seed=7)]
    c = [p.ip.src for p in uniform_flood(10, seed=8)]
    assert a == b
    assert a != c


def test_single_port_flood_targets_one_queue():
    table = standard_table()
    packets = take(single_port_flood(10, out_port=5), 10)
    assert {table.lookup(p.ip.dst).out_port for p in packets} == {5}


def test_flow_stream_sequences_advance():
    packets = take(flow_stream(5, payload_len=100, start_seq=1000), 5)
    assert [p.tcp.seq for p in packets] == [1000, 1100, 1200, 1300, 1400]
    keys = {p.flow_key() for p in packets}
    assert len(keys) == 1


def test_syn_flood_all_syn_random_sources():
    packets = take(syn_flood(50), 50)
    assert all(p.tcp.flags & 0x02 for p in packets)
    assert len({p.ip.src for p in packets}) > 25


def test_round_robin_merge_interleaves():
    a = flow_stream(2, src_port=1)
    b = flow_stream(4, src_port=2)
    ports = [p.tcp.src_port for p in round_robin_merge(a, b)]
    assert ports == [1, 2, 1, 2, 2, 2]


# -- MAC ports ----------------------------------------------------------------


def test_board_has_eight_fast_two_gig_ports():
    assert len(EVALUATION_BOARD_PORTS) == 10
    sim = Simulator()
    ports = make_board_ports(sim)
    assert sum(1 for p in ports if p.speed is PortSpeed.MBPS_100) == 8
    assert sum(1 for p in ports if p.speed is PortSpeed.GBPS_1) == 2


def test_frame_cycles_matches_line_speed():
    sim = Simulator()
    port = MACPort(sim, 0, PortSpeed.MBPS_100)
    # 64B frame + 20B overhead = 672 bits at 100 Mbps = 6.72 us = 1344 cycles.
    assert port.frame_cycles(64) == 1344
    gig = MACPort(sim, 8, PortSpeed.GBPS_1)
    assert gig.frame_cycles(64) == 134


def test_rx_pacing_at_line_speed():
    sim = Simulator()
    port = MACPort(sim, 0, PortSpeed.MBPS_100, rx_buffer_mps=10_000)
    port.attach_source(uniform_flood(10, num_ports=1))
    sim.run()
    assert port.rx_packets == 10
    # 10 min-sized frames at 100 Mbps -> 13440 cycles.
    assert sim.now == 13_440


def test_rx_buffer_overflow_drops():
    sim = Simulator()
    port = MACPort(sim, 0, rx_buffer_mps=2)
    packets = take(uniform_flood(3, num_ports=1), 3)
    assert port.deliver(packets[0])
    assert port.deliver(packets[1])
    assert not port.deliver(packets[2])  # buffer full -> drop
    assert port.rx_dropped_packets == 1


def test_port_rdy_and_take_mp():
    sim = Simulator()
    port = MACPort(sim, 3)
    assert not port.port_rdy()
    packet = take(uniform_flood(1, num_ports=1), 1)[0]
    port.deliver(packet)
    assert port.port_rdy()
    mp = port.take_mp()
    assert mp.port == 3
    assert not port.port_rdy()


def test_tx_reassembles_and_counts():
    sim = Simulator()
    port = MACPort(sim, 0)
    packet = take(uniform_flood(1, num_ports=1), 1)[0]
    from repro.net import segment_packet

    for mp in segment_packet(packet):
        port.put_mp(mp)
    assert port.tx_packets == 1
    assert port.transmitted == [packet]
