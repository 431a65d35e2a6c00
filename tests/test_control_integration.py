"""Integration tests: the link-state protocol over the router's real
control path (classifier -> StrongARM -> PCI -> Pentium forwarder)."""

import pytest

from repro import Router
from repro.control import LinkStateAd, LinkStateNode
from repro.control.channel import NeighborChannel
from repro.control.integration import ControlPlaneBinding, make_lsa_packet
from repro.net import IPv4Address
from repro.net.traffic import flow_stream, take

NEIGHBOR_IP = "192.0.2.2"


def bound_router():
    router = Router()
    router.add_route("10.0.0.0", 16, 0)  # a local network
    node = LinkStateNode(router_id=1)
    node.add_link(2, cost=1, via_port=7)  # neighbor 2 via port 7
    node.attach_network("10.0.0.0", 16, 0)
    node.originate()
    binding = ControlPlaneBinding(router, node)
    binding.listen_to_neighbor(NEIGHBOR_IP)
    return router, node, binding


def neighbor_lsa(sequence=1):
    """Router 2 advertises 10.77.0.0/16 behind itself."""
    return LinkStateAd(
        router_id=2, sequence=sequence,
        neighbors=((1, 1),),
        networks=(("10.77.0.0", 16, 3),),
    )


@pytest.mark.slow
def test_lsa_packet_climbs_to_pentium_and_programs_route():
    router, node, binding = bound_router()
    packet = make_lsa_packet(neighbor_lsa().to_bytes(), src=NEIGHBOR_IP)
    router.inject(7, iter([packet]))
    router.run(2_000_000)

    assert binding.lsas_received == 1
    assert router.stats()["pentium_processed"] == 1
    assert 2 in node.lsdb
    # The remote network is now routed via the port toward router 2.
    route = router.routing_table.lookup(IPv4Address("10.77.0.1"))
    assert route is not None
    assert route.out_port == 7


@pytest.mark.slow
def test_data_plane_follows_protocol_learned_route():
    router, node, binding = bound_router()
    router.inject(7, iter([make_lsa_packet(neighbor_lsa().to_bytes(), src=NEIGHBOR_IP)]))
    router.run(2_000_000)
    # Now send data to the learned prefix.
    data = take(flow_stream(4, dst="10.77.0.1", payload_len=6), 4)
    router.inject(0, iter(data))
    router.run(2_000_000)
    assert len(router.transmitted(7)) == 4


@pytest.mark.slow
def test_duplicate_lsa_does_not_reprogram():
    router, node, binding = bound_router()
    packets = [
        make_lsa_packet(neighbor_lsa().to_bytes(), src=NEIGHBOR_IP) for __ in range(3)
    ]
    router.inject(7, iter(packets))
    router.run(2_500_000)
    assert binding.lsas_received == 3
    # Only the first changed anything.
    first_programs = binding.route_programs
    assert first_programs == len(node.routes)


@pytest.mark.slow
def test_newer_sequence_reroutes():
    router, node, binding = bound_router()
    router.inject(7, iter([make_lsa_packet(neighbor_lsa(1).to_bytes(), src=NEIGHBOR_IP)]))
    router.run(1_500_000)
    # Router 2 moves the prefix behind a different local port of ours?
    # It can't -- but it can withdraw and re-advertise with new metadata;
    # here it bumps the sequence with the same content plus a new net.
    updated = LinkStateAd(
        router_id=2, sequence=2, neighbors=((1, 1),),
        networks=(("10.77.0.0", 16, 3), ("10.88.0.0", 16, 4)),
    )
    router.inject(7, iter([make_lsa_packet(updated.to_bytes(), src=NEIGHBOR_IP)]))
    router.run(1_500_000)
    assert router.routing_table.lookup(IPv4Address("10.88.0.9")) is not None


def test_spf_cycles_charged_to_pentium():
    router, node, binding = bound_router()
    before = router.pentium.busy_pentium_cycles
    router.inject(7, iter([make_lsa_packet(neighbor_lsa().to_bytes(), src=NEIGHBOR_IP)]))
    router.run(1_500_000)
    assert binding.pentium_cycles_charged > 20_000  # SPF ran
    assert router.pentium.busy_pentium_cycles - before > 20_000


@pytest.mark.slow
def test_protocol_keeps_share_under_pentium_flood():
    """Section 4.1's isolation: a greedy Pentium-bound data flow cannot
    starve the routing protocol's reserved share."""
    from repro.core.forwarders import tcp_proxy
    from repro.net.packet import FlowKey

    router, node, binding = bound_router()
    # A hungry proxy flow hogging the Pentium.
    proxy = tcp_proxy()
    proxy.expected_pps = 10_000
    key = FlowKey(IPv4Address("192.168.1.2"), 5001, IPv4Address("10.0.0.1"), 80)
    router.install(key, proxy)
    flood = take(
        flow_stream(80, src="192.168.1.2", src_port=5001, dst="10.0.0.1",
                    dst_port=80, payload_len=6),
        80,
    )
    lsa_packets = [
        make_lsa_packet(neighbor_lsa(seq).to_bytes(), src=NEIGHBOR_IP)
        for seq in range(1, 4)
    ]
    router.inject(0, iter(flood))
    router.inject(7, iter(lsa_packets))
    router.run(4_000_000)
    # All LSAs processed despite the flood; routes learned.
    assert binding.lsas_received == 3
    assert router.routing_table.lookup(IPv4Address("10.77.0.1")) is not None


# ---------------------------------------------------------------------------
# Route withdrawal: vanished destinations must stop resolving
# ---------------------------------------------------------------------------


def test_withdrawn_network_is_removed_from_table():
    """A destination that disappears from SPF's verdict must be
    withdrawn from the data plane -- the stale entry would blackhole
    traffic forever."""
    router, node, binding = bound_router()
    binding.deliver_direct(neighbor_lsa(1).to_bytes(), from_neighbor=2)
    assert router.routing_table.lookup(IPv4Address("10.77.0.1")) is not None

    # Router 2 re-advertises with the network gone.
    gone = LinkStateAd(router_id=2, sequence=2, neighbors=((1, 1),),
                       networks=())
    binding.deliver_direct(gone.to_bytes(), from_neighbor=2)
    assert router.routing_table.lookup(IPv4Address("10.77.0.1")) is None
    assert binding.route_withdrawals >= 1


def test_withdrawal_spares_statically_installed_routes():
    """The binding only withdraws what it programmed: operator-installed
    routes (here 10.0.0.0/16 from bound_router) survive reconciles."""
    router, node, binding = bound_router()
    binding.deliver_direct(neighbor_lsa(1).to_bytes(), from_neighbor=2)
    gone = LinkStateAd(router_id=2, sequence=2, neighbors=((1, 1),),
                       networks=())
    binding.deliver_direct(gone.to_bytes(), from_neighbor=2)
    static = router.routing_table.lookup(IPv4Address("10.0.0.1"))
    assert static is not None and static.out_port == 0


def test_neighbor_loss_withdraws_learned_routes():
    """Losing the adjacency itself (not just the LSA contents) must
    withdraw everything learned through that neighbor."""
    router, node, binding = bound_router()
    channel = NeighborChannel(1, 2, transmit=lambda data, kind: None,
                              schedule=lambda delay, fn: None, now=lambda: 0)
    binding.attach_channel(2, cost=1, via_port=7, channel=channel)
    binding.deliver_direct(neighbor_lsa(1).to_bytes(), from_neighbor=2)
    assert router.routing_table.lookup(IPv4Address("10.77.0.1")) is not None

    # No hello ever arrives: one dead interval later the tick declares
    # the neighbor down, withdraws the link and reprograms the table.
    binding.tick(binding.dead_interval)
    assert binding.neighbor_deaths == 1
    assert router.routing_table.lookup(IPv4Address("10.77.0.1")) is None


def test_partition_leaves_no_stale_blackhole_route():
    """Regression for the stale-blackhole bug: after a partition the
    near-side router must stop resolving the far side's prefix instead
    of forwarding into the dead link forever."""
    from repro.topo import builders

    topo = builders.line(2, seed=7)
    topo.converge()
    r1 = topo.nodes["r1"]
    h2 = topo.hosts["h2"]
    far = IPv4Address(h2.address)
    assert r1.router.routing_table.lookup(far) is not None

    topo.fail_link("r1", "r2", at=1_000)
    topo.run(60_000)
    # The only path is gone; SPF has no route, so neither may the table.
    assert r1.router.routing_table.lookup(far) is None
    assert r1.binding.route_withdrawals >= 1

    # Traffic to the lost prefix is now *accountably* dropped (unroutable
    # on the slow path), not silently forwarded into the dead link.
    h1 = topo.hosts["h1"]
    h1.start_flow(h2, count=5, interval=2_000, flow="post-partition")
    topo.run(80_000)
    assert h2.received_by_flow.get("post-partition", 0) == 0
    assert r1.router.strongarm.dropped_local >= 5
    acct = topo.accounting()
    assert acct["residual"] == 0
