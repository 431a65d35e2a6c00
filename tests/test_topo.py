"""Unit tests for the multi-router topology package.

Covers graph construction, link delivery ordering, TTL/ICMP behavior
across multiple hops, builder connectivity, link-state routes checked
against an independent Dijkstra (hand-rolled here -- the protocol uses
networkx, so the reference must not), and the multi-instance regression:
two routers in one engine keep fully independent state.
"""

import heapq

import pytest

from repro.topo import builders
from repro.topo.network import Topology

pytestmark = []


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------

def test_basic_construction():
    topo = Topology(seed=1)
    a = topo.add_router("a")
    b = topo.add_router("b")
    link = topo.connect("a", "b", cost=3, latency=500)
    host = topo.add_host("h", "a")
    assert topo.nodes["a"] is a and topo.nodes["b"] is b
    assert link.cost == 3 and link.latency == 500 and link.up
    assert topo.link_between("b", "a") is link
    assert a.node.neighbors == {b.router_id: 3}
    assert b.node.neighbors == {a.router_id: 3}
    # The host's /24 is advertised by its gateway.
    assert (host.prefix, 24) in [(p, l) for p, l, _ in a.node.networks]
    assert host.address.startswith(host.prefix[:-1])


def test_duplicate_names_and_links_rejected():
    topo = Topology()
    topo.add_router("a")
    topo.add_router("b")
    topo.connect("a", "b")
    with pytest.raises(ValueError):
        topo.add_router("a")
    with pytest.raises(ValueError):
        topo.connect("a", "b")
    with pytest.raises(ValueError):
        topo.connect("a", "a")
    with pytest.raises(KeyError):
        topo.link_between("a", "nope")


def test_port_exhaustion_is_loud():
    topo = Topology()
    topo.add_router("a", num_ports=1)
    topo.add_router("b")
    topo.connect("a", "b")
    topo.add_router("c")
    with pytest.raises(RuntimeError, match="out of ports"):
        topo.connect("a", "c")


# ---------------------------------------------------------------------------
# Delivery: ordering, TTL, ICMP.
# ---------------------------------------------------------------------------

def _deliver(topo, src, dst, count, ttl=64, interval=2_000, cycles=150_000,
             warm=True):
    topo.converge()
    if warm:
        # The first packet on a cold route cache crosses via the slow
        # path (route-fill) without the fast path's TTL decrement; one
        # long-TTL packet warms every cache on the path so the packets
        # under test all take the fast path.
        topo.hosts[src].start_flow(topo.hosts[dst], count=1, interval=interval,
                                   ttl=64, flow="warm")
    topo.hosts[src].start_flow(topo.hosts[dst], count=count,
                               interval=interval, start=10_000, ttl=ttl,
                               flow="probe")
    topo.run(cycles)


def test_link_delivery_preserves_order():
    """FIFO per link direction: packets arrive in send order."""
    topo = builders.line(2, seed=3)
    _deliver(topo, "h1", "h2", count=20)
    sink = topo.hosts["h2"]
    seqs = [seq for flow, seq, _ in sink.received_log if flow == "probe"]
    assert seqs == sorted(seqs)
    assert len(seqs) == 20


def test_ttl_decrements_per_hop():
    topo = builders.line(3, seed=3)
    _deliver(topo, "h1", "h3", count=5)
    sink = topo.hosts["h3"]
    ttls = {ttl for flow, _, ttl in sink.received_log if flow == "probe"}
    # 3 routers on the path, TTL decremented by the forwarder at each.
    assert ttls == {64 - 3}


def test_ttl_expiry_generates_icmp_to_source():
    topo = builders.line(3, seed=3)
    _deliver(topo, "h1", "h3", count=4, ttl=2)
    src, sink = topo.hosts["h1"], topo.hosts["h3"]
    # TTL 2 dies inside the line (3 router hops needed); every expired
    # packet is answered with Time Exceeded routed back to the source.
    assert sink.received_by_flow.get("probe", 0) == 0
    assert src.received_icmp == 4
    acct = topo.accounting()
    # The expired packets are consumed by the ICMP generator: residual
    # equals the answered errors, nothing silently vanishes.
    assert acct["residual"] == acct["icmp_errors"] == 4


def test_packets_that_fit_ttl_are_delivered():
    topo = builders.line(3, seed=3)
    _deliver(topo, "h1", "h3", count=4, ttl=4)
    assert topo.hosts["h3"].received_by_flow.get("probe", 0) == 4
    assert topo.hosts["h1"].received_icmp == 0


def test_meta_is_scrubbed_across_links():
    """A router's private annotations must not reach the next hop."""
    topo = builders.line(2, seed=3)
    topo.converge()
    captured = []
    gateway_link = topo.hosts["h2"].link

    original_deliver = gateway_link._ends[1].deliver

    def spy(packet, frame):
        captured.append(dict(packet.meta))
        original_deliver(packet, frame)

    gateway_link._ends[1].deliver = spy
    topo.hosts["h1"].start_flow(topo.hosts["h2"], count=3, interval=2_000)
    topo.run(120_000)
    assert len(captured) == 3
    for meta in captured:
        assert all(k.startswith("topo_") or k == "icmp" for k in meta), meta


# ---------------------------------------------------------------------------
# Builders vs an independent Dijkstra.
# ---------------------------------------------------------------------------

def _independent_spf(topo, source_id):
    """Hand-rolled Dijkstra over the built graph (adjacency from the
    Topology's links, not from the protocol's LSDB).  Returns
    {router_id: first_hop_id}."""
    graph = {}
    for link in topo.links:
        if not link.nodes:
            continue  # host access link
        a, b = link.nodes
        graph.setdefault(a.router_id, {})[b.router_id] = link.cost
        graph.setdefault(b.router_id, {})[a.router_id] = link.cost
    dist = {source_id: 0}
    first_hop = {}
    heap = [(0, source_id, None)]
    visited = set()
    while heap:
        d, node, hop = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if hop is not None:
            first_hop[node] = hop
        for neighbor, cost in graph.get(node, {}).items():
            nd = d + cost
            if neighbor not in dist or nd < dist[neighbor]:
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor,
                                      neighbor if hop is None else hop))
    return dist, first_hop


@pytest.mark.parametrize("build", [
    lambda: builders.line(4, seed=2),
    lambda: builders.ring(5, seed=2),
    lambda: builders.mesh(4, seed=2),
    lambda: builders.fat_tree(2, seed=2),
    lambda: builders.isp(seed=2),
], ids=["line", "ring", "mesh", "fat-tree", "isp"])
def test_builder_routes_match_independent_dijkstra(build):
    topo = build()
    topo.converge()
    ids = {node.router_id: node for node in topo.nodes.values()}
    for node in topo.nodes.values():
        dist, first_hop = _independent_spf(topo, node.router_id)
        # Connected: every other router reachable.
        assert set(dist) == set(ids), f"{node.name} cannot reach everyone"
        for host in topo.hosts.values():
            target = host.node.router_id
            route = node.node.routes.get((host.prefix, 24))
            assert route is not None, (
                f"{node.name} has no route to {host.prefix}/24")
            next_hop, out_port = route
            if target == node.router_id:
                assert next_hop == node.router_id
                continue
            # The protocol's next hop must be *a* shortest first hop;
            # verify its distance is optimal along that hop.
            hop_id = node.node.port_to_neighbor[out_port]
            assert hop_id == next_hop
            cost_to_hop = node.node.neighbors[hop_id]
            hop_dist, _ = _independent_spf(topo, hop_id)
            assert cost_to_hop + hop_dist[target] == dist[target], (
                f"{node.name} -> {host.prefix}/24 via {hop_id} is not shortest")


@pytest.mark.parametrize("build,routers,links", [
    (lambda: builders.line(4), 4, 3),
    (lambda: builders.ring(6), 6, 6),
    (lambda: builders.mesh(4), 4, 6),
    (lambda: builders.fat_tree(2), 5, 4),
    (lambda: builders.isp(), 6, 7),
], ids=["line", "ring", "mesh", "fat-tree", "isp"])
def test_builder_shapes(build, routers, links):
    topo = build()
    inter_router = [l for l in topo.links if l.nodes]
    assert len(topo.nodes) == routers
    assert len(inter_router) == links
    assert topo.hosts  # every builder attaches at least one host


def test_from_spec_round_trip(tmp_path):
    import json

    path = tmp_path / "net.json"
    path.write_text(json.dumps(builders.ISP_SPEC))
    topo = builders.from_spec(str(path), seed=5)
    assert set(topo.nodes) == {"core1", "core2", "agg1", "agg2", "edge1", "edge2"}
    assert topo.seed == 5
    assert topo.link_between("core1", "core2").latency == 400
    with pytest.raises(TypeError):
        builders.from_spec(42)


# ---------------------------------------------------------------------------
# Multi-instance regression: two routers in one engine stay independent.
# ---------------------------------------------------------------------------

def test_two_routers_one_engine_independent_state():
    """The satellite regression: module-level or id-keyed state must not
    alias across Router instances sharing one simulator."""
    topo = builders.line(2, seed=9)
    topo.converge()
    r1, r2 = topo.nodes["r1"].router, topo.nodes["r2"].router
    # Independent routing tables and caches.
    assert r1.routing_table is not r2.routing_table
    gen_before = r2.routing_table.generation
    r1.add_route("172.16.0.0", 16, 0)
    assert r2.routing_table.generation == gen_before
    from repro.net.addresses import IPv4Address

    assert r2.routing_table.lookup_linear(IPv4Address("172.16.1.1")) is None
    # Traffic through r1 -> r2 leaves each router's own counters telling
    # its own story: r1 and r2 both forward, but their flow tables,
    # classifiers and stats objects are distinct.
    topo.hosts["h1"].start_flow(topo.hosts["h2"], count=10, interval=2_000)
    topo.run(100_000)
    s1, s2 = r1.stats(), r2.stats()
    assert s1["input_packets"] >= 10 and s2["input_packets"] >= 10
    assert r1.flow_table is not r2.flow_table
    assert r1.classifier is not r2.classifier


def test_shared_injector_faults_do_not_alias_across_routers():
    """Flapping r1's port 0 must not drop frames on r2's port 0 (plans
    were once keyed by port_id, which restarts at 0 on every router)."""
    topo = builders.line(2, seed=9)
    inj = topo.enable_faults(seed=9)
    topo.converge()
    r1_node, r2_node = topo.nodes["r1"], topo.nodes["r2"]
    # Arm a flap on r1's port 0 covering the whole run.
    inj.schedule_link_flap(r1_node.port(0), at=5_000, down_cycles=400_000)
    # And a full-drop plan on the same-numbered port of r1.
    inj.schedule_packet_faults(r1_node.port(0), start=0, stop=500_000, drop=1.0)
    topo.run(20_000)
    # Deliver a frame directly to r2's port 0: same port_id, different
    # router -- it must get through.
    from repro.net.packet import make_tcp_packet

    packet = make_tcp_packet("10.9.9.1", "10.9.9.2")
    assert r2_node.port(0).deliver(packet, packet.to_bytes())
    assert r2_node.port(0).rx_fault_dropped == 0
    assert r2_node.port(0).rx_packets >= 1


def test_reprogramming_routes_reroutes_the_trie():
    """Reconvergence reprograms the same prefix with a new port; the CPE
    trie must follow (it once kept the stale equal-length entry)."""
    from repro.net.addresses import IPv4Address
    from repro.net.routing import RoutingTable

    table = RoutingTable()
    table.add("10.3.0.0", 24, 1)
    assert table.lookup(IPv4Address("10.3.0.7")).out_port == 1
    table.add("10.3.0.0", 24, 3)   # reconvergence: same prefix, new port
    assert len(table) == 1
    assert table.lookup(IPv4Address("10.3.0.7")).out_port == 3
    assert table.lookup_linear(IPv4Address("10.3.0.7")).out_port == 3
