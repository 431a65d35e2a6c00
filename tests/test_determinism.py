"""Determinism guarantees of the simulation kernel.

The two-tier calendar scheduler exists purely for speed: it must produce
the *identical* event ordering to the reference heap scheduler, and any
run must reproduce itself exactly.  These tests pin both properties with
per-cycle stat traces of a full chip simulation -- the same instrument
the engine docs tell model authors to use when they suspect a
determinism bug (see ``docs/engine.md``).
"""

import pytest

from repro.engine import Resource, SimulationError, Simulator, delay
from repro.ixp.chip import ChipConfig, IXP1200
from repro.ixp.programs import TimedVRP


def _chip_trace(scheduler: str, until: int = 10_000, step: int = 250):
    """Per-cycle-snapshot trace of a full-pipeline run: counters plus
    memory busy time at every ``step`` cycles."""
    sim = Simulator(scheduler=scheduler)
    chip = IXP1200(ChipConfig(vrp=TimedVRP.blocks(4)), sim=sim)
    trace = []
    for t in range(0, until, step):
        sim.run(until=t)
        trace.append(
            (
                sim.now,
                tuple(sorted(chip.counters.items())),
                chip.dram.busy_cycles,
                chip.sram.busy_cycles,
                chip.scratch.busy_cycles,
                tuple(me.busy_cycles for me in chip.engines),
            )
        )
    trace.append(("events", sim._events_processed))
    return trace


def test_same_scenario_twice_is_identical():
    assert _chip_trace("calendar") == _chip_trace("calendar")


def test_calendar_and_heap_schedulers_agree():
    """The fast path is an optimization, not a semantic change: both
    schedulers must produce bit-identical stat traces."""
    assert _chip_trace("calendar") == _chip_trace("heap")


def _parking_trace(scheduler: str, step: int = 250):
    """A ports-mode router that idles (both stages park), wakes on two
    bursts of traffic and parks again in between: counters, per-ME busy
    cycles and ring rotations every ``step`` cycles, settled the way
    readers settle a parked stage."""
    from repro.core.router import Router, RouterConfig
    from repro.net.packet import make_tcp_packet

    router = Router(RouterConfig(num_ports=6), sim=Simulator(scheduler=scheduler))
    router.add_route("10.1.0.0", 16, 2)
    chip = router.chip

    def burst(count):
        return [make_tcp_packet("10.0.0.1", f"10.1.0.{i + 1}", src_port=1000 + i,
                                dst_port=80, payload=b"\x00" * 6)
                for i in range(count)]

    trace = []
    parked_checkpoints = 0
    for t in range(step, 30_000, step):
        if t == 6_000:
            router.inject(0, burst(3))
        if t == 17_000:
            router.inject(4, burst(2))
        router.sim.run(until=t)
        chip.settle(router.sim.now + 1)
        parked_checkpoints += chip.input_parking.parked
        trace.append((
            router.sim.now,
            tuple(sorted(chip.counters.items())),
            tuple(me.busy_cycles for me in chip.engines),
            chip.input_ring.rotations,
            chip.output_ring.rotations,
        ))
    trace.append(("events", router.sim._events_processed, parked_checkpoints))
    return trace


def test_parking_router_calendar_matches_heap_and_rerun():
    """The idle-parking path (park, wake on traffic, re-park) is held to
    the same contract: heap and calendar agree, a rerun reproduces."""
    calendar = _parking_trace("calendar")
    assert calendar[-1][2] > 0  # the stages did park
    assert dict(calendar[-2][1])["output_packets"] == 5  # and forwarded both bursts
    assert calendar == _parking_trace("heap")
    assert calendar == _parking_trace("calendar")


def test_scheduler_flag_validation():
    assert Simulator(scheduler="calendar").scheduler == "calendar"
    assert Simulator(scheduler="heap").scheduler == "heap"
    with pytest.raises(SimulationError):
        Simulator(scheduler="fibonacci")


def test_scheduler_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", "heap")
    assert Simulator().scheduler == "heap"
    monkeypatch.delenv("REPRO_SIM_SCHEDULER")
    assert Simulator().scheduler == "calendar"


def test_same_cycle_fifo_across_schedulers():
    """Same-cycle wakes (resource grants, zero/equal delays) must keep
    FIFO order in both schedulers, including wakes scheduled while the
    cycle is already draining."""

    def run(scheduler):
        sim = Simulator(scheduler=scheduler)
        lock = Resource(sim, capacity=1)
        order = []

        def worker(wid):
            for _ in range(50):
                yield lock.acquire()
                order.append((sim.now, wid))
                yield delay(wid % 3)
                lock.release()
                yield delay(1)

        for wid in range(8):
            sim.spawn(worker(wid))
        sim.run()
        return order

    assert run("calendar") == run("heap")
