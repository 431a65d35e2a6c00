"""Tests for the input-side WFQ approximation (section 3.4.1), the
StrongARM proportional-share option (section 4.1), and the multi-router
cluster (section 6)."""

import pytest

from repro.core.cluster import RouterCluster, cluster_vrp_budget, member_mac
from repro.core.router import Router, RouterConfig
from repro.core.wfq import InputSideWFQ
from repro.hosts.scheduling import StrideScheduler
from repro.net.traffic import flow_stream, take


# -- InputSideWFQ -----------------------------------------------------------------


def make_wfq():
    wfq = InputSideWFQ(num_priorities=4)
    wfq.add_class("heavy", 3.0, lambda p: p.tcp is not None and p.tcp.src_port == 1111)
    wfq.add_class("light", 1.0, lambda p: p.tcp is not None and p.tcp.src_port == 2222)
    return wfq


def test_wfq_validation():
    wfq = InputSideWFQ()
    with pytest.raises(ValueError):
        InputSideWFQ(num_priorities=1)
    with pytest.raises(ValueError):
        wfq.add_class("x", 0, lambda p: True)
    wfq.add_class("x", 1, lambda p: True)
    with pytest.raises(ValueError):
        wfq.add_class("x", 1, lambda p: True)


def test_wfq_class_within_share_gets_top_priority():
    wfq = make_wfq()
    heavy = take(flow_stream(1, src_port=1111), 1)[0]
    light = take(flow_stream(1, src_port=2222), 1)[0]
    # Alternating arrivals at the fair ratio: everyone stays on top.
    priorities = []
    for __ in range(3):
        priorities.append(wfq.priority_for(heavy))
        priorities.append(wfq.priority_for(heavy))
        priorities.append(wfq.priority_for(heavy))
        priorities.append(wfq.priority_for(light))
    assert max(priorities) <= 1


def test_wfq_overspending_class_demoted_under_contention():
    """Both classes backlogged at equal arrival rates: the light class
    (entitled to 1/4 of the link) runs ahead of its share and is demoted,
    while the heavy class stays on top."""
    wfq = make_wfq()
    heavy = take(flow_stream(1, src_port=1111), 1)[0]
    light = take(flow_stream(1, src_port=2222), 1)[0]
    heavy_levels, light_levels = [], []
    for __ in range(10):
        heavy_levels.append(wfq.priority_for(heavy))
        light_levels.append(wfq.priority_for(light))
    assert light_levels[-1] == 3     # demoted to the lowest level
    assert light_levels[0] < light_levels[-1]
    assert max(heavy_levels) == 0    # within its share throughout


def test_wfq_lone_sender_keeps_top_priority():
    """Work conservation: with every other class idle, a bursting class
    is entitled to the whole link and must not be demoted."""
    wfq = make_wfq()
    light = take(flow_stream(1, src_port=2222), 1)[0]
    levels = [wfq.priority_for(light) for __ in range(20)]
    assert max(levels) == 0


def test_wfq_unclassified_gets_lowest_priority():
    wfq = make_wfq()
    other = take(flow_stream(1, src_port=9999), 1)[0]
    assert wfq.priority_for(other) == wfq.num_priorities - 1
    assert wfq.unclassified == 1


@pytest.mark.slow
def test_wfq_in_router_shares_congested_port_by_weight():
    """Both classes flood one output port beyond its line rate; delivered
    packets approximate the 3:1 weights (FIFO would be ~1:1)."""
    wfq = make_wfq()
    router = Router(RouterConfig(wfq=wfq, queue_capacity=8))
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)

    count = 120
    heavy = take(flow_stream(count, src_port=1111, out_port=1, payload_len=6), count)
    light = take(flow_stream(count, src_port=2222, src="192.168.9.9", out_port=1, payload_len=6), count)
    router.warm_route_cache([heavy[0].ip.dst, light[0].ip.dst])
    # Inject on two gig-capable... use two 100M ports at full tilt toward
    # the single 100 Mbps output port 1: 2x offered load = congestion.
    router.inject(2, iter(heavy))
    router.inject(3, iter(light))
    router.run(2_500_000)

    delivered = router.transmitted(1)
    heavy_out = sum(1 for p in delivered if p.tcp.src_port == 1111)
    light_out = sum(1 for p in delivered if p.tcp.src_port == 2222)
    # The heavy class dominates, the light class is not starved.  The
    # input-side approximation is coarser than true WFQ (finish times
    # advance even for packets that are later tail-dropped), so the
    # realized ratio overshoots the 3:1 weights; FIFO would give ~1:1.
    assert light_out > 5
    ratio = heavy_out / light_out
    assert 2.0 < ratio < 12.0, (heavy_out, light_out)
    # And packets were actually dropped (the port really was congested).
    assert heavy_out + light_out < 2 * count
    drops = sum(q.dropped for q in router.chip.bank.queues_for_port(1))
    assert drops > 0


# -- StrongARM proportional share ----------------------------------------------------


def test_strongarm_scheduler_divides_local_capacity():
    from repro.hosts.strongarm import LocalForwarder, StrongARM
    from repro.ixp.buffers import BufferHandle
    from repro.ixp.chip import ChipConfig, IXP1200
    from repro.ixp.queues import PacketDescriptor
    from repro.net.traffic import take, uniform_flood

    chip = IXP1200(ChipConfig(input_contexts=0, output_contexts=0))
    scheduler = StrideScheduler(queue_capacity=4096)
    scheduler.add_flow("gold", tickets=300)
    scheduler.add_flow("bronze", tickets=100)
    sa = StrongARM(chip, scheduler=scheduler)
    sa.register_local(LocalForwarder("gold", 400))
    sa.register_local(LocalForwarder("bronze", 400))

    for i in range(800):
        packet = take(uniform_flood(1, num_ports=1, seed=i), 1)[0]
        packet.meta["sa_forwarder"] = "gold" if i % 2 else "bronze"
        packet.meta["out_port"] = 0
        chip.sa_local_queue.enqueue(
            PacketDescriptor(BufferHandle(0, 0), packet, 1, 0, 0)
        )
    chip.sim.run(until=150_000)  # not enough time for all 800
    stats = scheduler.stats()
    gold, bronze = stats["gold"]["work_done"], stats["bronze"]["work_done"]
    assert bronze > 0
    assert gold / bronze == pytest.approx(3.0, rel=0.25)


# -- RouterCluster --------------------------------------------------------------------


@pytest.mark.slow
def test_cluster_routes_across_members():
    cluster = RouterCluster(num_routers=2)
    cluster.add_route("10.1.0.0", 16, owner=0, out_port=1)
    cluster.add_route("10.2.0.0", 16, owner=1, out_port=2)
    for router in cluster.routers:
        router.warm_route_cache(["10.1.0.1", "10.2.0.1"])

    # Traffic enters member 0 destined for a prefix member 1 owns.
    packets = take(flow_stream(6, dst="10.2.0.1", out_port=2, payload_len=6), 6)
    cluster.inject(0, 0, iter(packets))
    cluster.run(3_000_000)

    stats = cluster.stats()
    assert stats["switch"]["forwarded"] == 6
    delivered = cluster.routers[1].transmitted(2)
    assert len(delivered) == 6
    # Two routing hops: TTL decremented twice.
    assert all(p.ip.ttl == 62 for p in delivered)
    # Nothing leaked out of member 0's local ports.
    assert len(cluster.routers[0].transmitted(2)) == 0


@pytest.mark.slow
def test_cluster_local_traffic_stays_local():
    cluster = RouterCluster(num_routers=2)
    cluster.add_route("10.1.0.0", 16, owner=0, out_port=1)
    cluster.routers[0].warm_route_cache(["10.1.0.1"])
    packets = take(flow_stream(4, dst="10.1.0.1", payload_len=6), 4)
    cluster.inject(0, 0, iter(packets))
    cluster.run(1_500_000)
    assert len(cluster.routers[0].transmitted(1)) == 4
    assert cluster.stats()["switch"]["forwarded"] == 0


def test_cluster_validation():
    with pytest.raises(ValueError):
        RouterCluster(num_routers=1)
    cluster = RouterCluster(num_routers=2)
    with pytest.raises(ValueError):
        cluster.add_route("10.0.0.0", 16, owner=5, out_port=0)
    with pytest.raises(ValueError):
        cluster.add_route("10.0.0.0", 16, owner=0, out_port=9)  # internal


def test_member_macs_distinct():
    assert member_mac(0) != member_mac(1)


def test_cluster_vrp_budget_shrinks_with_internal_share():
    """Section 6: budgeting RI capacity for the internal link leaves
    fewer cycles for the VRP."""
    alone = cluster_vrp_budget(1.128e6, internal_fraction=0.0)
    clustered = cluster_vrp_budget(1.128e6, internal_fraction=0.25)
    heavy = cluster_vrp_budget(1.128e6, internal_fraction=0.75)
    assert alone.cycles > clustered.cycles > heavy.cycles
    with pytest.raises(ValueError):
        cluster_vrp_budget(1e6, internal_fraction=1.5)
