"""Determinism guarantees of the simulation kernel.

The two-tier calendar scheduler exists purely for speed: it must produce
the *identical* event ordering to the reference heap scheduler, and any
run must reproduce itself exactly.  These tests pin both properties with
per-cycle stat traces of a full chip simulation -- the same instrument
the engine docs tell model authors to use when they suspect a
determinism bug (see ``docs/engine.md``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Delay, Event, Resource, SimulationError, Simulator, delay
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


# -- calendar vs heap on random process mixes --------------------------------

# One op of a generated process: a Delay, a hold of a shared resource, a
# wait on or a firing of an Event/Signal, a join, or a callback that logs
# and fires.  Delays cross the 1,024-cycle ring horizon.
_CYCLES = st.one_of(
    st.sampled_from([0, 1, 512, 1_023, 1_024, 1_536, 2_048]), st.integers(0, 2_100)
)
_OPS = st.one_of(
    st.tuples(st.just("delay"), _CYCLES),
    st.tuples(st.just("hold"), st.integers(0, 1), st.integers(0, 30)),
    st.tuples(st.just("wait"), st.integers(0, 3)),
    st.tuples(st.just("fire"), st.integers(0, 3)),
    st.tuples(st.just("join"), st.integers(0, 5)),
    st.tuples(st.just("callback"), _CYCLES, st.integers(0, 3)),
)
_PROGRAMS = st.lists(st.lists(_OPS, min_size=1, max_size=8), min_size=2, max_size=6)


def _random_mix(scheduler, programs, first_until, events, second_until, stop_at):
    """Run ``programs`` in slices -- ``run(until)``, a ``max_events`` slice,
    a late spawn, a second ``run(until)`` and two open runs, one of them
    cut by a ``stop()`` from a callback -- and return the ``(cycle, tag)``
    log plus the clock and event count after every slice."""
    sim = Simulator(scheduler=scheduler)
    resources = [Resource(sim, capacity=1), Resource(sim, capacity=2)]
    waitables = [sim.event(), sim.event(), sim.signal(), sim.signal()]
    procs = []
    log = []

    def fire(k):
        target = waitables[k]
        if isinstance(target, Event):
            if not target.triggered:
                target.succeed(k)
        else:
            target.fire(k)

    def process(pid, ops):
        for n, op in enumerate(ops):
            kind = op[0]
            if kind == "delay":
                yield delay(op[1]) if op[1] < 1_024 else Delay(op[1])
            elif kind == "hold":
                resource = resources[op[1]]
                yield resource.acquire()
                log.append((sim.now, pid, n, "granted"))
                yield delay(op[2])
                resource.release()
            elif kind == "wait":
                value = yield waitables[op[1]]
                log.append((sim.now, pid, n, "woken", value))
            elif kind == "fire":
                fire(op[1])
            elif kind == "join":
                yield procs[op[1] % len(procs)]
            else:
                def callback(pid=pid, n=n, k=op[2]):
                    log.append((sim.now, pid, n, "callback"))
                    fire(k)
                sim.schedule(op[1], callback)
            log.append((sim.now, pid, n, kind))
        return pid

    def ticker():
        # Ring wakes every 512 cycles, so a far-heap wake at a multiple of
        # 512 matures into a bucket that already holds a ring wake.
        for __ in range(10):
            yield delay(512)
            log.append((sim.now, "tick"))

    for pid, ops in enumerate(programs):
        procs.append(sim.spawn(process(pid, ops)))
    sim.spawn(ticker())
    sim.schedule(stop_at, sim.stop)

    checkpoints = []
    sim.run(until=first_until)
    checkpoints.append((sim.now, sim._events_processed))
    sim.run(max_events=events)
    checkpoints.append((sim.now, sim._events_processed))
    # A wake scheduled between runs lands on the current cycle, possibly
    # behind the entries a limited run left there.
    procs.append(sim.spawn(process(len(programs), programs[0])))
    sim.run(until=sim.now + second_until)
    checkpoints.append((sim.now, sim._events_processed))
    sim.run()
    checkpoints.append((sim.now, sim._events_processed))
    sim.run()
    checkpoints.append((sim.now, sim._events_processed))
    return log, checkpoints, [p.alive for p in procs]


@settings(max_examples=120, deadline=None)
@given(
    programs=_PROGRAMS,
    first_until=st.integers(0, 3_000),
    events=st.integers(0, 40),
    second_until=st.integers(0, 3_000),
    stop_at=st.integers(0, 6_000),
)
def test_random_process_mixes_agree_across_schedulers(
    programs, first_until, events, second_until, stop_at
):
    """The calendar's drain loop, cycle pick, far-heap maturation and
    leftover buckets (after ``stop()`` and ``max_events``) against the
    reference heap: identical logs, clocks and event counts."""
    args = (programs, first_until, events, second_until, stop_at)
    assert _random_mix("calendar", *args) == _random_mix("heap", *args)
