"""Failure-injection tests: the robustness claims under adverse and
degenerate conditions.

The paper's central promise is isolation: no workload, extension or
overload may stop the router from receiving and classifying packets at
line speed.  These tests push each failure mode and check the blast
radius stays contained.
"""

import pytest

from repro import ALL, Router, RouterConfig
from repro.core.forwarders import port_filter
from repro.net.packet import make_tcp_packet
from repro.net.traffic import flow_stream, single_port_flood, take


def booted(**kwargs):
    router = Router(RouterConfig(**kwargs)) if kwargs else Router()
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)
    return router


@pytest.mark.slow
def test_slow_egress_port_does_not_block_other_ports():
    """Congest one 100 Mbps egress far beyond line rate; traffic to the
    other ports must be completely unaffected."""
    router = booted(queue_capacity=16)
    jam = take(single_port_flood(150, out_port=1), 150)
    clean = take(flow_stream(10, out_port=5, payload_len=6), 10)
    router.warm_route_cache([p.ip.dst for p in jam + clean])
    router.inject(8, iter(jam))    # gigabit ingress -> 100 Mbps egress
    router.inject(0, iter(clean))
    router.run(2_500_000)
    assert len(router.transmitted(5)) == 10  # untouched
    # The jammed port dropped in its own queue only.
    port1_queues = router.chip.bank.queues_for_port(1)
    assert sum(q.dropped for q in port1_queues) > 0
    port5_queues = router.chip.bank.queues_for_port(5)
    assert sum(q.dropped for q in port5_queues) == 0


def test_queue_overflow_counted_not_crashed():
    router = booted(queue_capacity=4)
    packets = take(single_port_flood(120, out_port=2), 120)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(9, iter(packets))
    router.run(2_000_000)
    stats = router.stats()
    delivered = len(router.transmitted(2))
    dropped = sum(q.dropped for q in router.chip.bank.queues_for_port(2))
    rx_dropped = router.ports[9].rx_dropped_packets
    assert delivered + dropped + rx_dropped == 120
    assert delivered > 0


def test_ttl_expiry_dropped_in_data_plane():
    router = booted()
    dying = [make_tcp_packet("1.1.1.1", "10.1.0.5", ttl=1) for __ in range(3)]
    living = take(flow_stream(3, out_port=1, payload_len=6), 3)
    router.warm_route_cache([p.ip.dst for p in dying + living])
    router.inject(0, iter(dying + living))
    router.run(1_200_000)
    assert len(router.transmitted(1)) == 3
    assert router.stats()["vrp_dropped"] == 3
    assert router.getdata(router.ip_fid)["ttl_expired"] == 3


def test_malformed_frames_do_not_wedge_the_port():
    """Garbage frames interleaved with good traffic: the good traffic
    flows, the garbage is dropped at classification."""
    router = booted()
    good = take(flow_stream(5, out_port=3, payload_len=6), 5)
    router.warm_route_cache([p.ip.dst for p in good])
    # Deliver raw garbage directly into the port buffer between packets.
    bad = make_tcp_packet("2.2.2.2", "10.3.0.9")
    bad_frame = b"\xff" * 64
    router.ports[0].deliver(bad, bad_frame)
    router.inject(0, iter(good))
    router.run(1_500_000)
    assert len(router.transmitted(3)) == 5
    assert router.stats()["classifier_failures"] >= 1


@pytest.mark.slow
def test_buffer_overwrite_loses_only_stale_packets():
    """Shrink the buffer pool so the circular allocator laps itself while
    an egress port is congested: stale packets are lost (counted), and
    the router keeps running."""

    router = booted(queue_capacity=256)
    # Replace the pool with a tiny one to force reuse.
    from repro.ixp.buffers import BufferPool

    router.chip.pool = BufferPool(buffer_count=24, buffer_bytes=2048)
    packets = take(single_port_flood(200, out_port=1), 200)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(8, iter(packets))
    router.run(4_000_000)
    stats = router.stats()
    assert stats["lost_buffers"] > 0          # the documented failure mode
    assert len(router.transmitted(1)) > 0     # but service continued
    assert stats["lost_buffers"] + len(router.transmitted(1)) \
        + sum(q.dropped for q in router.chip.bank.queues_for_port(1)) \
        + router.ports[8].rx_dropped_packets \
        + len(router.chip.bank.queues_for_port(1)[0]) == 200


def test_filter_dropping_everything_keeps_router_alive():
    router = booted()
    router.install(ALL, port_filter([(0, 65535)]))  # drop all TCP
    packets = take(flow_stream(10, out_port=1, payload_len=6), 10)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(0, iter(packets))
    router.run(1_200_000)
    assert router.stats()["vrp_dropped"] == 10
    assert len(router.transmitted()) == 0
    # Forwarding machinery is still healthy for non-TCP traffic.
    from repro.net.packet import make_udp_like_packet

    udp = [make_udp_like_packet("9.9.9.9", "10.2.0.1", payload=b"u") for __ in range(3)]
    router.warm_route_cache([p.ip.dst for p in udp])
    router.inject(1, iter(udp))
    router.run(1_200_000)
    assert len(router.transmitted(2)) == 3


@pytest.mark.slow
def test_sa_queue_overflow_confined_to_exceptional_stream():
    """Unroutable packets flood the StrongARM queue; once it fills, the
    excess is dropped there while routable traffic is untouched."""
    router = booted()
    # 60 unroutable packets (no matching prefix -> route-fill fails).
    unroutable = [make_tcp_packet("5.5.5.5", f"172.31.{i}.1") for i in range(60)]
    good = take(flow_stream(8, out_port=4, payload_len=6), 8)
    router.warm_route_cache([p.ip.dst for p in good])
    router.inject(0, iter(unroutable))
    router.inject(1, iter(good))
    router.run(2_500_000)
    assert len(router.transmitted(4)) == 8
    assert router.stats()["exceptional"] == 60
    # Unroutable packets were dropped by the StrongARM's route-fill.
    assert router.strongarm.dropped_local == 60


def test_remove_nonexistent_fid_raises_cleanly():
    router = booted()
    with pytest.raises(KeyError):
        router.remove(424242)
    with pytest.raises(KeyError):
        router.getdata(424242)


def test_zero_traffic_run_is_quiet():
    router = booted()
    router.run(150_000)
    stats = router.stats()
    assert stats["input_packets"] == 0
    assert stats["output_packets"] == 0
    assert stats["queue_drops"] == 0
