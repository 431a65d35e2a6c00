"""Unit tests for the fault-injection subsystem and its recovery
mechanisms (docs/robustness.md).

The campaign-level invariants live in ``test_faults_campaign.py``; this
file pins the mechanisms one at a time: hook verdicts, rate-plan
validation, link flaps, packet drop/corrupt/duplicate, I2O loss, host
crash-with-restart, the bounded SA->Pentium bridge, and the VRP
watchdog's quarantine bound.
"""

import dataclasses

import pytest

from repro.core.cluster import RouterCluster
from repro.core.forwarder import ForwarderSpec, Where
from repro.core.router import Router, RouterConfig
from repro.core.vrp import RegOps, SramRead, VRPProgram
from repro.faults import (
    NULL_INJECTOR,
    RX_OK,
    FaultInjector,
)
from repro.faults.recovery import OverrunningVRPProgram
from repro.net.traffic import flow_stream, take

FOREVER = 10**9


def booted(num_ports=4):
    router = Router(RouterConfig(num_ports=num_ports))
    for port in range(num_ports):
        router.add_route(f"10.{port}.0.0", 16, port)
    return router


def warm_flow(router, count, src, src_port, in_port, out_port):
    packets = take(flow_stream(count, src=src, src_port=src_port,
                               out_port=out_port, payload_len=6), count)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(in_port, iter(packets))
    return packets


# -- the null injector and attachment ---------------------------------------------


def test_null_injector_is_the_default_everywhere():
    router = booted()
    assert router.injector is None
    for port in router.ports:
        assert port.injector is NULL_INJECTOR
    assert router.to_pentium.injector is NULL_INJECTOR
    assert router.from_pentium.injector is NULL_INJECTOR
    assert NULL_INJECTOR.enabled is False
    assert NULL_INJECTOR.on_rx(None, None) == RX_OK
    assert NULL_INJECTOR.on_i2o_send(None) is False


def test_enable_faults_attaches_the_whole_hierarchy():
    router = booted()
    injector = router.enable_faults(seed=3)
    assert isinstance(injector, FaultInjector)
    assert injector.enabled is True
    assert router.injector is injector
    for port in router.ports:
        assert port.injector is injector
    assert router.to_pentium.injector is injector
    assert router.from_pentium.injector is injector
    snap = injector.snapshot()
    assert snap["seed"] == 3
    assert snap["incidents"] == 0 and snap["active"] == 0


def test_fault_rate_validation():
    router = booted()
    injector = router.enable_faults()
    with pytest.raises(ValueError):
        injector.schedule_packet_faults(router.ports[0], 0, FOREVER, drop=-0.1)
    with pytest.raises(ValueError):
        injector.schedule_packet_faults(router.ports[0], 0, FOREVER,
                                        drop=0.6, corrupt=0.6)
    with pytest.raises(ValueError):
        injector.schedule_i2o_loss(router.to_pentium, 0, FOREVER, rate=1.5)


# -- satellite: inject() out-of-range diagnostics ---------------------------------


def test_router_inject_out_of_range_names_valid_ports():
    router = booted(num_ports=4)
    with pytest.raises(ValueError, match=r"no port 4: valid ports are 0\.\.3"):
        router.inject(4, iter([]))
    with pytest.raises(ValueError, match=r"no port -1"):
        router.inject(-1, iter([]))


def test_cluster_inject_out_of_range_names_valid_members():
    cluster = RouterCluster(num_routers=2)
    with pytest.raises(ValueError, match=r"no member 2: valid members are 0\.\.1"):
        cluster.inject(2, 0, iter([]))
    with pytest.raises(ValueError, match=r"no port 99"):
        cluster.inject(0, 99, iter([]))


# -- MAC-layer faults -------------------------------------------------------------


def test_link_flap_drops_frames_while_down():
    router = booted()
    injector = router.enable_faults(seed=0)
    injector.schedule_link_flap(router.ports[0], at=1, down_cycles=FOREVER)
    warm_flow(router, 20, "192.168.1.2", 5001, in_port=0, out_port=1)
    router.run(120_000)
    assert len(router.transmitted(1)) == 0
    assert injector.counts["link-drop"] == 20
    assert router.ports[0].rx_fault_dropped == 20
    kinds = [i["kind"] for i in injector.log]
    assert "link-down" in kinds and "link-up" not in kinds
    assert injector.active == 1


def test_link_restores_after_flap_window():
    router = booted()
    injector = router.enable_faults(seed=0)
    injector.schedule_link_flap(router.ports[0], at=1, down_cycles=2_000)
    warm_flow(router, 30, "192.168.1.2", 5001, in_port=0, out_port=1)
    router.run(150_000)
    kinds = [i["kind"] for i in injector.log]
    assert kinds.count("link-down") == 1 and kinds.count("link-up") == 1
    assert injector.active == 0
    # Frames kept arriving after restoration and were forwarded.
    assert len(router.transmitted(1)) > 0


def test_drop_rate_one_loses_every_frame_by_name():
    router = booted()
    injector = router.enable_faults(seed=0)
    injector.schedule_packet_faults(router.ports[0], 0, FOREVER, drop=1.0)
    warm_flow(router, 15, "192.168.1.2", 5001, in_port=0, out_port=1)
    router.run(120_000)
    assert len(router.transmitted(1)) == 0
    assert injector.counts["mac-drop"] == 15
    assert router.ports[0].rx_fault_dropped == 15


def test_corruption_is_detected_never_transmitted():
    router = booted()
    injector = router.enable_faults(seed=0)
    injector.schedule_packet_faults(router.ports[0], 0, FOREVER, corrupt=1.0)
    warm_flow(router, 12, "192.168.1.2", 5001, in_port=0, out_port=1)
    clean_before = router.stats()["classifier_failures"]
    router.run(120_000)
    stats = router.stats()
    assert injector.counts["mac-corrupt"] == 12
    # Header validation caught every corrupted frame...
    assert stats["classifier_failures"] - clean_before == 12
    # ...and none leaked to any egress port (the silent-corruption invariant).
    assert not any(p.meta.get("fault_corrupted") for p in router.transmitted())


def test_duplicates_forward_but_never_chain():
    router = booted()
    injector = router.enable_faults(seed=0)
    injector.schedule_packet_faults(router.ports[0], 0, FOREVER, duplicate=1.0)
    warm_flow(router, 10, "192.168.1.2", 5001, in_port=0, out_port=1)
    router.run(150_000)
    # Every original duplicated exactly once: a duplicated frame is
    # marked and exempt from further faults, so 10 in -> 20 out, not 2^10.
    assert injector.counts["mac-duplicate"] == 10
    assert len(router.transmitted(1)) == 20


# -- I2O message loss -------------------------------------------------------------


def test_i2o_loss_is_counted_not_silent():
    router = booted()
    injector = router.enable_faults(seed=0)
    injector.schedule_i2o_loss(router.to_pentium, 0, FOREVER, rate=1.0)
    packets = take(flow_stream(25, src="192.168.2.2", src_port=6001,
                               out_port=3, payload_len=6), 25)
    spec = ForwarderSpec(name="pe-unit", where=Where.PE, cycles=1000,
                         expected_pps=50_000.0)
    router.install(packets[0].flow_key(), spec)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))
    router.run(250_000)
    lost = router.to_pentium.messages_lost
    assert lost > 0
    assert lost == injector.counts["i2o-loss"]
    assert router.pentium.processed == 0          # everything vanished in flight
    assert router.strongarm.bridged == lost       # the sender saw success
    # The loss consumed no queue buffers: the pair is not wedged full.
    assert router.to_pentium.occupancy == 0


# -- host crash-with-restart ------------------------------------------------------


def test_pentium_crash_and_restart_lifecycle():
    router = booted()
    injector = router.enable_faults(seed=0)
    injector.schedule_host_crash(router.pentium, at=5_000, restart_after=20_000,
                                 label="pentium")
    packets = take(flow_stream(40, src="192.168.2.2", src_port=6001,
                               out_port=3, payload_len=6), 40)
    spec = ForwarderSpec(name="pe-crash", where=Where.PE, cycles=1000,
                         expected_pps=50_000.0)
    router.install(packets[0].flow_key(), spec)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))
    router.run(400_000)
    pent = router.pentium
    assert pent.crashes == 1 and pent.restarts == 1 and not pent.crashed
    assert pent.processed > 0                      # work resumed after reboot
    kinds = [i["kind"] for i in injector.log]
    assert kinds.index("pentium-crash") < kinds.index("pentium-restart")
    severities = {i["kind"]: i["severity"] for i in injector.log}
    assert severities["pentium-crash"] == "red"
    assert severities["pentium-restart"] == "green"


def test_strongarm_crash_without_restart_stays_down():
    router = booted()
    injector = router.enable_faults(seed=0)
    injector.schedule_host_crash(router.strongarm, at=1, label="strongarm")
    warm_flow(router, 20, "192.168.1.2", 5001, in_port=0, out_port=1)
    router.run(150_000)
    sa = router.strongarm
    assert sa.crashed and sa.crashes == 1 and sa.restarts == 0
    # The MicroEngine fast path never noticed.
    assert len(router.transmitted(1)) == 20


def test_bridge_retries_are_bounded_when_pentium_is_dead():
    """A dead Pentium stops recycling I2O buffers; the SA bridge must
    give up after its retry budget and drop by name, not spin forever."""
    router = booted()
    router.strongarm.params = dataclasses.replace(
        router.strongarm.params, bridge_retry_limit=10)
    injector = router.enable_faults(seed=0)
    injector.schedule_host_crash(router.pentium, at=1, label="pentium")
    # More packets than the 64-deep I2O pair: once it fills, every
    # further bridge attempt exhausts the retry budget.
    packets = take(flow_stream(100, src="192.168.2.2", src_port=6001,
                               out_port=3, payload_len=6), 100)
    spec = ForwarderSpec(name="pe-wedge", where=Where.PE, cycles=1000,
                         expected_pps=50_000.0)
    router.install(packets[0].flow_key(), spec)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))
    fast = warm_flow(router, 30, "192.168.1.2", 5001, in_port=0, out_port=1)
    router.run(1_500_000)
    sa = router.strongarm
    assert sa.bridge_dropped > 0
    assert router.stats()["sa_bridge_dropped"] == sa.bridge_dropped
    # Local forwarding survived the wedged bridge...
    assert not sa.crashed
    # ...and so did the fast path.
    assert len(router.transmitted(1)) == len(fast)


# -- VRP watchdog quarantine ------------------------------------------------------


def _liar_spec(overrun_cycles=400):
    program = OverrunningVRPProgram("liar", [RegOps(20), SramRead(2)],
                                    overrun_cycles=overrun_cycles)
    return ForwarderSpec(name="liar", where=Where.ME, program=program)


def test_overrunning_program_fools_admission_but_not_the_clock():
    program = OverrunningVRPProgram("liar", [RegOps(20), SramRead(2)],
                                    overrun_cycles=400)
    honest = VRPProgram("honest", [RegOps(20), SramRead(2)])
    # The verifier's views are identical...
    assert program.cost().cycles == honest.cost().cycles
    assert program.instruction_count() == honest.instruction_count()
    # ...but the compiled code runs 400 extra register cycles per MP.
    assert program.to_timed().reg_cycles == honest.to_timed().reg_cycles + 400


def test_watchdog_quarantines_within_strike_limit():
    router = booted()
    watchdog = router.enable_vrp_watchdog(strike_limit=5)
    packets = take(flow_stream(50, src="192.168.5.2", src_port=9001,
                               out_port=3, payload_len=6), 50)
    fid = router.install(packets[0].flow_key(), _liar_spec())
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))
    router.run(200_000)
    assert list(watchdog.quarantined) == [fid]
    incident = watchdog.quarantined[fid]
    assert incident["kind"] == "vrp-quarantine"
    assert incident["forwarder"] == "liar"
    # Quarantine landed after exactly strike_limit matched packets.
    assert incident["packets_matched"] == 5
    # The forwarder is gone from the table; its flow now takes the
    # default IP fast path and packets keep flowing.
    with pytest.raises(KeyError):
        router.flow_table.get(fid)
    assert len(router.transmitted(3)) > incident["packets_matched"]


def test_watchdog_leaves_honest_forwarders_alone():
    router = booted()
    watchdog = router.enable_vrp_watchdog(strike_limit=5)
    packets = take(flow_stream(30, src="192.168.5.2", src_port=9001,
                               out_port=3, payload_len=6), 30)
    program = VRPProgram("honest", [RegOps(20), SramRead(2)])
    router.install(packets[0].flow_key(),
                   ForwarderSpec(name="honest", where=Where.ME, program=program))
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))
    router.run(200_000)
    assert watchdog.quarantined == {}
    assert watchdog.strikes == {}
    assert len(router.transmitted(3)) == 30


def test_quarantine_incident_mirrors_into_injector_log():
    router = booted()
    injector = router.enable_faults(seed=0)
    watchdog = router.enable_vrp_watchdog(strike_limit=4)
    packets = take(flow_stream(30, src="192.168.5.2", src_port=9001,
                               out_port=3, payload_len=6), 30)
    router.install(packets[0].flow_key(), _liar_spec())
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))
    router.run(200_000)
    assert len(watchdog.quarantined) == 1
    assert injector.counts.get("vrp-quarantine") == 1
    assert any(i["kind"] == "vrp-quarantine" for i in injector.log)
