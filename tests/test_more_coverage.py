"""Additional coverage: route-cache collisions, larger clusters, chip
internals, and scheduler/VRP extremes."""

import pytest

from repro.net import IPv4Address, RouteCache, RoutingTable
from repro.net.routing import hardware_hash


# -- route cache collision behaviour -----------------------------------------------


def find_colliding_addresses(bits=6):
    """Two distinct addresses mapping to the same cache slot."""
    seen = {}
    for value in range(1, 1 << 16):
        slot = hardware_hash(value, bits)
        if slot in seen:
            return IPv4Address(seen[slot]), IPv4Address(value)
        seen[slot] = value
    raise AssertionError("no collision found")


def test_direct_mapped_cache_evicts_on_collision():
    table = RoutingTable()
    table.add_default(1)
    cache = RouteCache(table, size_bits=6)
    a, b = find_colliding_addresses(6)
    cache.fill(a)
    assert cache.lookup(a) is not None
    cache.fill(b)  # same slot: evicts a
    assert cache.lookup(b) is not None
    assert cache.lookup(a) is None  # conflict miss


def test_cache_hit_rate_accounting_over_mixed_traffic():
    table = RoutingTable()
    table.add_default(0)
    cache = RouteCache(table, size_bits=10)
    addrs = [IPv4Address(f"10.0.{i}.1") for i in range(20)]
    for addr in addrs:
        cache.fill(addr)
    for __ in range(5):
        for addr in addrs:
            assert cache.lookup(addr) is not None
    assert cache.hit_rate > 0.9


# -- four-member cluster ring -----------------------------------------------------------


@pytest.mark.slow
def test_four_member_cluster():
    """The paper's stated section 6 plan: 'four Pentium/IXP pairs
    connected by a Gigabit Ethernet switch'."""
    from repro.core.cluster import RouterCluster
    from repro.net.traffic import flow_stream, take

    cluster = RouterCluster(num_routers=4)
    for owner in range(4):
        cluster.add_route(f"10.{owner + 1}.0.0", 16, owner=owner, out_port=1)
    for router in cluster.routers:
        router.warm_route_cache([f"10.{i + 1}.0.1" for i in range(4)])
    # Member 0 sends to every member's prefix.
    for target in range(1, 4):
        packets = take(flow_stream(3, dst=f"10.{target + 1}.0.1",
                                   src_port=6000 + target, payload_len=6), 3)
        cluster.inject(0, target + 2, iter(packets))
    cluster.run(4_000_000)
    for target in range(1, 4):
        assert len(cluster.routers[target].transmitted(1)) == 3, f"member {target}"
    assert cluster.stats()["switch"]["forwarded"] == 9


# -- chip internals ---------------------------------------------------------------------


def test_synthetic_single_pattern_targets_port_zero():
    from repro.ixp import ChipConfig, IXP1200

    chip = IXP1200(ChipConfig(synthetic_pattern="single"))
    chip.measure(window=30_000, warmup=5_000)
    queues = chip.bank.queues_for_port(0)
    others = [q for p in range(1, 8) for q in chip.bank.queues_for_port(p)]
    assert sum(q.enqueued for q in queues) > 0
    assert sum(q.enqueued for q in others) == 0


def test_chip_start_window_resets_memory_accounting():
    from repro.ixp import ChipConfig, IXP1200

    chip = IXP1200(ChipConfig())
    chip.sim.run(until=20_000)
    busy = chip.dram.busy_cycles
    assert busy > 0
    chip.start_window()
    # The window's memory accounting starts over; the counter itself is
    # left alone for every other reader.
    assert chip.dram.busy_cycles == busy
    assert chip.report().dram_utilization == 0.0
    chip.sim.run(until=30_000)
    assert chip.report().dram_utilization == (chip.dram.busy_cycles - busy) / 10_000


def test_exceptional_flood_drops_counted_per_queue():
    from repro.ixp import ChipConfig, IXP1200

    chip = IXP1200(ChipConfig(
        synthetic_exceptional_every=1,  # everything exceptional
        sa_queue_capacity=8,
    ))
    chip.measure(window=40_000, warmup=5_000)
    # With no StrongARM attached, the local queue fills and drops.
    assert len(chip.sa_local_queue) == 8
    assert chip.counters["sa_drops"] > 0
    # But every MP was still received and classified at line speed
    # (one MP may be mid-pipeline when the window closes).
    assert abs(chip.counters["input_mps"] - chip.counters["exceptional"]) <= 2


# -- VRP / budget extremes ----------------------------------------------------------------


def test_vrp_program_with_forward_jump_compiles():
    from repro.core.vrp import JumpForward, RegOps, VRPProgram

    program = VRPProgram("branchy", [RegOps(5), JumpForward(3), RegOps(4)])
    timed = program.to_timed()
    assert timed.reg_cycles == 5 + 4 + 2  # branch delay counted as busy


def test_budget_for_absurd_rates():
    from repro.core.vrp import budget_for_line_rate

    tiny = budget_for_line_rate(1_000.0)  # 1 Kpps: enormous budget
    assert tiny.cycles > 100_000
    assert tiny.sram_transfers == 64  # capped
    flat = budget_for_line_rate(10e6)  # beyond the hardware: zero budget
    assert flat.cycles == 0
    assert flat.sram_transfers == 0


def test_wfq_three_way_weights():
    from repro.core.wfq import InputSideWFQ
    from repro.net.packet import make_tcp_packet

    wfq = InputSideWFQ(num_priorities=4)
    for name, weight, port in (("a", 4.0, 1), ("b", 2.0, 2), ("c", 1.0, 3)):
        wfq.add_class(name, weight,
                      lambda p, port=port: p.tcp is not None and p.tcp.src_port == port)
    packets = {p: make_tcp_packet("1.1.1.1", "2.2.2.2", src_port=p) for p in (1, 2, 3)}
    levels = {1: [], 2: [], 3: []}
    for __ in range(12):  # equal arrival rates
        for port in (1, 2, 3):
            levels[port].append(wfq.priority_for(packets[port]))
    # Heavier classes end up at better (lower) priorities.
    assert max(levels[1]) <= 1
    assert levels[3][-1] > levels[2][-1] >= levels[1][-1]
