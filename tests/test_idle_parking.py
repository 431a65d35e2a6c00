"""Idle parking is invisible: a parked run matches the event-by-event run.

Differential oracle: every scenario below runs twice, once with parking
(the default) and once with ``repro.ixp.parking._PARKING`` switched off,
and the modeled state is compared every 250 cycles -- chip counters,
per-ME busy cycles, token-ring rotations, memory access counts and busy
cycles, and the recorder's trace hash.  An idle 6-port router parks
both stages, then one frame reaches it at phase offsets across one input
rotation plus one output idle period, through each wake path (every
offset in the slow sweep, a stride of them otherwise).  Whole runners
-- every topology scenario, a chaos campaign and a netview report -- are
compared the same way on their serialized outputs.
"""

import pytest

from repro.chaos.campaign import run_campaign
from repro.core.cluster import RouterCluster
from repro.core.router import Router, RouterConfig
from repro.ixp import parking
from repro.ixp.chip import IXP1200
from repro.net.packet import make_tcp_packet
from repro.obs import export
from repro.topo.netview import run_netview
from repro.topo.network import Topology
from repro.topo.scenarios import run_topo

SCHEDULERS = ("calendar", "heap")
CHECK_EVERY = 250
IDLE = 3_000      # both stages of an idle router have parked by now
AFTER = 3_500     # the frame's processing, then parking again
PHASES = 160 + 207  # one input rotation (16 hops x 10) + one output period


def _packet(dst="10.1.2.3"):
    return make_tcp_packet("10.0.0.1", dst, src_port=1000, dst_port=80,
                           payload=b"\x00" * 6)


def _state(sim, chips, recorders):
    """Everything a reader can observe, settled the way readers do."""
    out = []
    for chip in chips:
        chip.settle(sim.now + 1)
        out.append((
            dict(chip.counters),
            [me.busy_cycles for me in chip.engines],
            chip.input_ring.rotations,
            chip.output_ring.rotations,
            [(dict(m.access_counts), m.busy_cycles)
             for m in (chip.dram, chip.sram, chip.scratch)],
        ))
    out.append([export.trace_hash(r.events.to_list()) for r in recorders])
    return out


def _drive(sim, horizon, state, actions=()):
    """Run to ``horizon`` in CHECK_EVERY steps, applying each
    ``(cycle, action)`` between two runs; returns the state series."""
    actions = sorted(actions, key=lambda a: a[0])
    series = []
    while sim.now < horizon:
        t = min(sim.now + CHECK_EVERY, horizon)
        while actions and actions[0][0] <= t:
            at, act = actions.pop(0)
            sim.run(until=at)
            act()
        sim.run(until=t)
        series.append((t, state()))
    return series


def _router():
    router = Router(RouterConfig(num_ports=6))
    router.add_route("10.1.0.0", 16, 2)
    return router, router.enable_observability()


def _single(offset, path):
    router, recorder = _router()
    at = IDLE + offset
    if path == "inject":
        actions = [(at, lambda: router.inject(0, [_packet()]))]
    elif path == "deliver":
        def deliver():
            packet = _packet()
            router.ports[0].deliver(packet, packet.to_bytes())
        actions = [(at, deliver)]
    else:  # an input-engine and an output-engine stall land mid-park
        injector = router.enable_faults(seed=3)
        injector.schedule_engine_stall(router.chip.engines[1], at=at, hold_cycles=300)
        injector.schedule_engine_stall(router.chip.engines[5], at=at + 40, hold_cycles=300)
        actions = [(at + 500, lambda: router.inject(3, [_packet()]))]
    sim = router.sim
    return _drive(sim, IDLE + AFTER, lambda: _state(sim, [router.chip], [recorder]),
                  actions)


def _link(offset):
    topo = Topology(seed=1)
    node = topo.add_router("r1")
    src = topo.add_host("h1", "r1")
    dst = topo.add_host("h2", "r1")
    topo.enable_observability()
    topo.converge()
    src.start_flow(dst, count=1, start=IDLE + offset - topo.sim.now)
    sim = topo.sim
    return _drive(sim, IDLE + AFTER,
                  lambda: _state(sim, [node.router.chip], [node.recorder]))


def _switch(offset):
    # Member 0 forwards over its gigabit port; the switch delivers the
    # frame into member 1.
    cluster = RouterCluster(num_routers=2)
    cluster.add_route("10.9.0.0", 16, owner=1, out_port=2)
    recorders = [r.enable_observability() for r in cluster.routers]
    chips = [r.chip for r in cluster.routers]
    sim = cluster.sim
    return _drive(sim, IDLE + AFTER, lambda: _state(sim, chips, recorders),
                  [(IDLE + offset, lambda: cluster.inject(0, 0, [_packet("10.9.1.1")]))])


def _assert_invisible(monkeypatch, scheduler, build, *args):
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", scheduler)
    monkeypatch.setattr(parking, "_PARKING", False)
    reference = build(*args)
    monkeypatch.setattr(parking, "_PARKING", True)
    parked = build(*args)
    assert len(parked) == len(reference)
    for (t, want), (__, got) in zip(reference, parked):
        assert got == want, f"{build.__name__}{args}: state differs at cycle {t}"


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("path", ["deliver", "inject"])
def test_phases_match_event_by_event(monkeypatch, scheduler, path):
    # Strided sweep: 7 and 11 are coprime to the 10-cycle input hop, so
    # the offsets still land on every position within a hop.
    step = 7 if scheduler == "calendar" else 11
    for offset in range(0, PHASES, step):
        _assert_invisible(monkeypatch, scheduler, _single, offset, path)


@pytest.mark.slow
@pytest.mark.parametrize("path", ["deliver", "inject"])
def test_every_phase_matches_event_by_event(monkeypatch, path):
    for offset in range(PHASES):
        _assert_invisible(monkeypatch, "calendar", _single, offset, path)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_link_arrival_matches(monkeypatch, scheduler):
    for offset in range(0, PHASES, 17):
        _assert_invisible(monkeypatch, scheduler, _link, offset)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_cluster_switch_matches(monkeypatch, scheduler):
    for offset in range(0, PHASES, 37):
        _assert_invisible(monkeypatch, scheduler, _switch, offset)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_engine_stalls_mid_park_match(monkeypatch, scheduler):
    for offset in range(0, PHASES, 23):
        _assert_invisible(monkeypatch, scheduler, _single, offset, "stall")


# -- parked while a backoff still ramps -------------------------------------

PERIOD = 207      # the output stage's idle period
RAMP = 10 * PERIOD  # an output context's backoff ramp
OUT = 6_100       # a frame injected at IDLE has gone out by now
FRAME = 1_344     # a minimum frame's time on a 100 Mbps wire


def _ramp(offset, path):
    """A frame goes out on port 2; one for port 3, whose output context
    shares an engine with port 2's, arrives ``offset`` cycles later,
    while the context that sent the first still ramps its backoff."""
    router, recorder = _router()
    router.add_route("10.3.0.0", 16, 3)
    at = OUT + offset
    if path == "inject":
        second = [(at, lambda: router.inject(3, [_packet("10.3.7.7")]))]
    else:
        def deliver():
            packet = _packet("10.3.7.7")
            router.ports[3].deliver(packet, packet.to_bytes())
        second = [(at, deliver)]
    sim = router.sim
    return _drive(sim, OUT + RAMP + AFTER, lambda: _state(sim, [router.chip], [recorder]),
                  [(IDLE, lambda: router.inject(0, [_packet()]))] + second)


def _wire(offset):
    """Two frames reach port 2 at once, so the second waits for the
    wire; a third is injected ``offset`` cycles after them."""
    router, recorder = _router()
    sim = router.sim

    def first_two():
        router.inject(0, [_packet()])
        router.inject(1, [_packet("10.1.9.9")])
    return _drive(sim, IDLE + 2 * OUT, lambda: _state(sim, [router.chip], [recorder]),
                  [(IDLE, first_two),
                   (IDLE + offset, lambda: router.inject(3, [_packet("10.1.7.7")]))])


def _stall_ramp(offset):
    """A frame goes out, and an output engine stalls ``offset`` cycles
    later, while the sending context still ramps its backoff."""
    router, recorder = _router()
    injector = router.enable_faults(seed=3)
    injector.schedule_engine_stall(router.chip.engines[4], at=OUT + offset, hold_cycles=300)
    sim = router.sim
    return _drive(sim, OUT + RAMP + AFTER, lambda: _state(sim, [router.chip], [recorder]),
                  [(IDLE, lambda: router.inject(0, [_packet()])),
                   (OUT + RAMP, lambda: router.inject(3, [_packet()]))])


def _collisions(monkeypatch):
    """Collisions the parking plans predict from here on."""
    seen = []
    scan = parking.OutputParking._scan

    def recording(self, *args):
        collision = scan(self, *args)
        if collision is not None:
            seen.append(collision)
        return collision

    monkeypatch.setattr(parking.OutputParking, "_scan", recording)
    return seen


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_second_frame_across_the_ramp_matches(monkeypatch, scheduler):
    collisions = _collisions(monkeypatch)
    path = "inject" if scheduler == "calendar" else "deliver"
    for offset in range(0, RAMP, 89):
        _assert_invisible(monkeypatch, scheduler, _ramp, offset, path)
    # The sweep reaches a ramping swap-in that meets a neighbour's.
    assert collisions


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_frame_across_a_wire_wait_matches(monkeypatch, scheduler):
    for offset in range(0, 2 * FRAME, 97):
        _assert_invisible(monkeypatch, scheduler, _wire, offset)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_output_stall_mid_ramp_matches(monkeypatch, scheduler):
    for offset in range(0, RAMP, 113):
        _assert_invisible(monkeypatch, scheduler, _stall_ramp, offset)


@pytest.mark.slow
@pytest.mark.parametrize("path", ["deliver", "inject"])
def test_second_frame_at_every_ramp_phase_matches(monkeypatch, path):
    for offset in range(RAMP):
        _assert_invisible(monkeypatch, "calendar", _ramp, offset, path)


@pytest.mark.slow
def test_every_wire_wait_phase_and_ramp_stall_matches(monkeypatch):
    for offset in range(2 * FRAME):
        _assert_invisible(monkeypatch, "calendar", _wire, offset)
    for offset in range(RAMP):
        _assert_invisible(monkeypatch, "calendar", _stall_ramp, offset)


def test_output_stage_parks_within_the_ramp():
    router, __ = _router()
    router.run(IDLE)
    router.inject(0, [_packet()])
    while not router.ports[2].tx_packets:
        router.run(1)
    router.run(5 * PERIOD)
    assert router.chip.output_parking.parked


def test_parking_saves_events(monkeypatch):
    def events(flag):
        monkeypatch.setattr(parking, "_PARKING", flag)
        router, __ = _router()
        router.run(4 * IDLE)
        return router.sim._events_processed

    assert 4 * events(True) < events(False)


def test_portless_output_contexts_stay_parked():
    # Six ports over eight output contexts: contexts 6 and 7 serve none.
    router, __ = _router()
    out = router.chip.output_parking
    router.run(IDLE)
    for __ in range(20):
        router.run(CHECK_EVERY)
        for slot in (6, 7):
            assert out.parked_at[slot] is not None
            assert out.resume_at[slot] is None
    assert router.chip.input_parking.parked


# -- whole runners -------------------------------------------------------------


def _parked_and_reference(monkeypatch, run):
    """``run()`` event by event, then parked.  Every chip either run
    builds must have seen each frame announced: no parked input stage
    was woken by an unannounced delivery."""
    built = []
    init = IXP1200.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(IXP1200, "__init__", tracking_init)
    outputs = []
    for flag in (False, True):
        monkeypatch.setattr(parking, "_PARKING", flag)
        built.clear()
        outputs.append(run())
        assert built
        assert [chip.unannounced_wakes for chip in built] == [0] * len(built)
    return outputs


def test_topo_all_matches_event_by_event(monkeypatch):
    def run():
        results = run_topo("all", seed=7)
        return ([r.incident_log_json() for r in results],
                [r.trace_hash for r in results])

    reference, parked = _parked_and_reference(monkeypatch, run)
    assert parked == reference


def test_chaos_campaign_matches_event_by_event(monkeypatch):
    reference, parked = _parked_and_reference(
        monkeypatch, lambda: run_campaign(7, 3).to_json())
    assert parked == reference


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_netview_matches_event_by_event(monkeypatch, scheduler):
    # The report carries the sampled utilization series, which read the
    # lazily charged busy cycles.
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", scheduler)
    reference, parked = _parked_and_reference(
        monkeypatch,
        lambda: [v.to_json() for v in run_netview("link-failure", seed=7, window=120_000)])
    assert parked == reference


def test_unannounced_delivery_is_counted():
    router, __ = _router()
    router.run(IDLE)
    chip = router.chip
    assert chip.input_parking.parked

    def deliver():
        packet = _packet()
        router.ports[0].deliver(packet, packet.to_bytes())

    router.sim.schedule(100, deliver)
    router.run(AFTER)
    assert chip.unannounced_wakes == 1
    assert "unannounced_wakes" not in chip.counters
