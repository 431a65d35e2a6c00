"""Control-plane survivability: hello-based failure detection, reliable
flooding under loss/corruption, restore handshakes, crash/restart, and
the control-plane health rule.

These tests pin the tentpole behaviors: no oracle tells a router its
link died -- each endpoint must miss hellos past the dead interval and
originate its own withdrawal; LSAs cross real (lossy, faultable) links
with per-neighbor ack/retransmit; a restored link carries no traffic
until the two-way handshake completes."""

from repro import Router
from repro.control.linkstate import ADJ_FULL
from repro.obs import export
from repro.obs.monitor import ControlPlaneRule, HealthSample
from repro.topo.network import Topology


def ring_with_primary(seed=7, **topo_kw):
    """The scenario ring: r1-r2-r3 primary (cost 2), r1-r4-r3 alternate
    (cost 4), hosts h1 at r1 and h3 at r3."""
    topo = Topology(seed=seed, **topo_kw)
    for name in ("r1", "r2", "r3", "r4"):
        topo.add_router(name)
    topo.connect("r1", "r2", cost=1)
    topo.connect("r2", "r3", cost=1)
    topo.connect("r3", "r4", cost=2)
    topo.connect("r4", "r1", cost=2)
    topo.add_host("h1", "r1")
    topo.add_host("h3", "r3")
    return topo


def detect_bound(topo):
    """Worst honest detection latency: a full dead interval plus one
    hello of phase skew plus processing slack."""
    return topo.dead_interval + topo.hello_interval + 1_000


def adjacency_state(topo, a, b):
    na, nb = topo.nodes[a], topo.nodes[b]
    adj = na.binding.adjacencies.get(nb.router_id)
    return None if adj is None else adj.state


# ---------------------------------------------------------------------------
# Hello-based failure detection.
# ---------------------------------------------------------------------------


def test_both_endpoints_detect_failure_within_dead_interval():
    topo = ring_with_primary()
    topo.converge()
    topo.fail_link("r1", "r2", at=5_000)
    topo.run(5_000 + detect_bound(topo) + 5_000)

    by_node = {d["node"]: d for d in topo.detections}
    assert set(by_node) == {"r1", "r2"}
    for d in by_node.values():
        assert d["reason"] == "dead-interval"
        assert d["latency"] is not None
        assert d["latency"] <= detect_bound(topo)
    # Each endpoint withdrew the adjacency from its own SPF view.
    assert topo.nodes["r2"].router_id not in topo.nodes["r1"].node.neighbors
    assert topo.nodes["r1"].router_id not in topo.nodes["r2"].node.neighbors


def test_detection_survives_partial_hello_loss():
    """Sporadic hello loss must not cause false positives: an adjacency
    dies only when *every* hello across the dead interval is lost, so a
    wider interval buys loss tolerance (the paper's liveness/latency
    trade)."""
    topo = ring_with_primary(dead_interval=10_000)
    topo.converge()
    link = topo.link_between("r1", "r2")
    start = topo.sim.now
    topo.enable_faults(seed=7)
    topo.injector.schedule_control_faults(
        link, start=start, stop=start + 40_000, drop=0.3, kinds=("hello",))
    topo.run(50_000)
    assert not topo.detections, (
        f"false neighbor death under 30% hello loss: {topo.detections}")
    assert adjacency_state(topo, "r1", "r2") == ADJ_FULL


def test_gray_link_one_way_hello_loss_detected_by_both_sides():
    topo = ring_with_primary()
    topo.enable_faults(seed=7)
    topo.converge()
    link = topo.link_between("r1", "r2")
    start = topo.sim.now + 2_000
    topo.injector.schedule_control_faults(
        link, start=start, stop=start + 30_000, drop=1.0,
        direction=0, kinds=("hello",))
    topo.run(2_000 + detect_bound(topo) + 8_000)

    reasons = {d["node"]: d["reason"] for d in topo.detections}
    # r2 stops hearing r1 (dead interval); r1 still hears r2 but is no
    # longer seen in r2's hellos (one-way teardown).
    assert reasons.get("r2") == "dead-interval"
    assert reasons.get("r1") == "one-way"
    # Gray detections carry no link-down timestamp: latency is None.
    assert all(d["latency"] is None for d in topo.detections)
    # After the gray window ends, hellos re-form the adjacency.
    topo.run(40_000)
    assert adjacency_state(topo, "r1", "r2") == ADJ_FULL
    assert adjacency_state(topo, "r2", "r1") == ADJ_FULL


# ---------------------------------------------------------------------------
# Restore handshake.
# ---------------------------------------------------------------------------


def test_restored_link_unused_until_handshake_completes():
    topo = ring_with_primary()
    topo.converge()
    h3_prefix = (topo.hosts["h3"].prefix, 24)
    primary_port = topo.link_between("r1", "r2").ports[0]
    alternate_port = topo.link_between("r4", "r1").ports[1]

    restore_at = 1_000 + detect_bound(topo) + 15_001
    topo.fail_link("r1", "r2", at=1_000, restore_at=restore_at)
    topo.run(restore_at - 1)
    route = topo.nodes["r1"].node.routes.get(h3_prefix)
    assert route is not None and route[1] == alternate_port

    topo.run(200)  # physically up, but no handshake yet
    assert topo.link_between("r1", "r2").up
    assert adjacency_state(topo, "r1", "r2") != ADJ_FULL
    route = topo.nodes["r1"].node.routes.get(h3_prefix)
    assert route is not None and route[1] == alternate_port, (
        "restored link entered the routing table before the hello "
        "handshake completed")

    topo.run(4 * topo.hello_interval + 20_000)
    assert adjacency_state(topo, "r1", "r2") == ADJ_FULL
    assert adjacency_state(topo, "r2", "r1") == ADJ_FULL
    route = topo.nodes["r1"].node.routes.get(h3_prefix)
    assert route is not None and route[1] == primary_port


# ---------------------------------------------------------------------------
# Reliable flooding under loss and corruption.
# ---------------------------------------------------------------------------


def _lossy_run(seed):
    """A full fail/restore cycle with 30% control-frame loss on the
    surviving alternate path; returns the deterministic artifact."""
    topo = ring_with_primary(seed=seed)
    topo.enable_observability()
    topo.enable_faults(seed=seed)
    topo.converge()
    base = topo.sim.now
    topo.injector.schedule_control_faults(
        topo.link_between("r4", "r1"), start=base, stop=base + 80_000,
        drop=0.3)
    topo.hosts["h1"].start_flow(topo.hosts["h3"], count=30, interval=2_000,
                                start=5_000)
    topo.fail_link("r1", "r2", at=10_000, restore_at=50_000)
    topo.run(120_000)
    return topo


def test_flooding_converges_despite_control_loss():
    topo = _lossy_run(seed=7)
    assert topo._lsdbs_equal()
    assert topo._control_settled()
    assert adjacency_state(topo, "r1", "r2") == ADJ_FULL
    # Loss made retransmission do real work.
    retransmits = sum(n.binding.retransmits for n in topo.nodes.values())
    assert retransmits > 0
    assert topo.fault_counts.get("ctrl-drop", 0) > 0
    # Both reconvergence episodes (failure + restore) completed.
    assert len(topo.reconvergences) == 2
    assert topo.hosts["h3"].received > 0


def test_control_loss_run_is_byte_identical_per_seed():
    def artifact(topo):
        return export.dumps({
            "incidents": topo.incidents,
            "detections": topo.detections,
            "reconvergences": topo.reconvergences,
            "stats": topo.stats(),
            "trace_hash": topo.trace_hash(),
        }, indent=2, sort_keys=True)

    first, second = artifact(_lossy_run(7)), artifact(_lossy_run(7))
    assert first == second
    assert artifact(_lossy_run(8)) != first


def test_corrupted_lsas_rejected_by_checksum_and_recovered():
    topo = ring_with_primary()
    topo.enable_faults(seed=7)
    topo.converge()
    base = topo.sim.now
    # Corrupt 40% of all control frames on the alternate path while a
    # flap forces LSA traffic across it.
    topo.injector.schedule_control_faults(
        topo.link_between("r4", "r1"), start=base, stop=base + 70_000,
        corrupt=0.4)
    topo.fail_link("r1", "r2", at=5_000, restore_at=40_000)
    topo.run(130_000)

    rejected = sum(n.binding.ctrl_rejected for n in topo.nodes.values())
    assert rejected > 0, "no corrupted frame ever reached a checksum"
    assert topo.fault_counts.get("ctrl-corrupt", 0) >= rejected
    # Retransmission out-waited the corruption window: no divergence.
    assert topo._lsdbs_equal()
    assert sum(n.binding.abandoned for n in topo.nodes.values()) == 0


# ---------------------------------------------------------------------------
# Control-plane crash/restart (the paper's control/data split).
# ---------------------------------------------------------------------------


def test_control_crash_keeps_data_plane_forwarding():
    topo = ring_with_primary()
    topo.enable_faults(seed=7)
    topo.converge()
    flow = topo.hosts["h1"].start_flow(topo.hosts["h3"], count=40,
                                       interval=2_000, start=2_000)
    topo.crash_control("r2", at=10_000, restart_after=30_000)
    topo.run(120_000)

    # Neighbors declared the silent router dead on their own.
    dead_declared = {d["node"] for d in topo.detections
                     if d["neighbor"] == "r2"}
    assert dead_declared == {"r1", "r3"}
    kinds = [i["kind"] for i in topo.incidents]
    assert "ctrl-router-crash" in kinds and "ctrl-router-restart" in kinds
    # Forwarding survived: traffic rerouted around r2, and after the
    # restart the adjacencies re-formed.
    assert topo.hosts["h3"].received_by_flow.get(flow, 0) > 0
    assert adjacency_state(topo, "r1", "r2") == ADJ_FULL
    assert adjacency_state(topo, "r3", "r2") == ADJ_FULL
    assert topo._lsdbs_equal()


# ---------------------------------------------------------------------------
# The control-plane health rule.
# ---------------------------------------------------------------------------


class TestControlPlaneRule:
    def test_green_when_no_binding(self):
        result = ControlPlaneRule().evaluate(HealthSample())
        assert result.level == "green"
        assert "no control-plane binding" in result.detail

    def test_green_when_quiet(self):
        sample = HealthSample(ctrl_neighbor_deaths=0, ctrl_retransmits=0,
                              ctrl_abandoned=0, ctrl_rejected=0,
                              ctrl_unacked=0)
        assert ControlPlaneRule().evaluate(sample).level == "green"

    def test_yellow_on_activity(self):
        sample = HealthSample(ctrl_neighbor_deaths=1, ctrl_retransmits=2,
                              ctrl_abandoned=0, ctrl_rejected=0,
                              ctrl_unacked=1)
        assert ControlPlaneRule().evaluate(sample).level == "yellow"

    def test_red_on_adjacency_flap_storm(self):
        sample = HealthSample(ctrl_neighbor_deaths=3, ctrl_retransmits=0,
                              ctrl_abandoned=0)
        result = ControlPlaneRule().evaluate(sample)
        assert result.level == "red"
        assert "flap storm" in result.detail

    def test_red_on_retransmit_storm(self):
        sample = HealthSample(ctrl_neighbor_deaths=0, ctrl_retransmits=32,
                              ctrl_abandoned=0)
        result = ControlPlaneRule().evaluate(sample)
        assert result.level == "red"
        assert "retransmit storm" in result.detail

    def test_red_on_abandoned_lsa(self):
        sample = HealthSample(ctrl_neighbor_deaths=0, ctrl_retransmits=0,
                              ctrl_abandoned=1)
        result = ControlPlaneRule().evaluate(sample)
        assert result.level == "red"
        assert "abandoned" in result.detail

    def test_plain_router_monitor_has_no_control_rule(self):
        monitor = Router().health_monitor()
        assert "control-plane" not in [r.name for r in monitor.rules]


def test_flap_storm_forces_monitor_red():
    """Three dead-interval flaps of one link inside a single evaluation
    window drive the attached node monitors to red."""
    topo = ring_with_primary()
    topo.converge()
    monitor = topo.nodes["r1"].router.health_monitor()
    assert "control-plane" in [r.name for r in monitor.rules]
    down = topo.dead_interval + 2 * topo.hello_interval
    for i in range(3):
        at = 2_000 + i * (down + 12_000)
        topo.fail_link("r1", "r2", at=at, restore_at=at + down)
    topo.run(3 * (down + 12_000) + 20_000)

    results = {r.rule: r for r in monitor.evaluate()}
    assert results["control-plane"].level == "red"
    assert "flap storm" in results["control-plane"].detail
    assert any(inc["rule"] == "control-plane" and inc["to"] == "red"
               for inc in monitor.incidents)
    # The next quiet window recovers to green (transition logged).
    topo.run(60_000)
    results = {r.rule: r for r in monitor.evaluate()}
    assert results["control-plane"].level == "green"
