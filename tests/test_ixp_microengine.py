"""Tests for the MicroEngine/context execution model."""

import pytest

from repro.engine import Resource, Simulator
from repro.ixp.memory import Memory, MemoryKind
from repro.ixp.microengine import MicroContext, MicroEngine
from repro.ixp.params import DEFAULT_PARAMS, MemoryTiming


def make_me(sim):
    return MicroEngine(sim, 0, DEFAULT_PARAMS)


def test_one_context_runs_at_a_time():
    """Two contexts executing pure register code serialize on the engine."""
    sim = Simulator()
    me = make_me(sim)
    done = []

    def program(ctx, tag):
        yield from ctx.start()
        yield from ctx.busy(100)
        done.append((tag, sim.now))
        ctx._swap_out()

    sim.spawn(program(me.new_context(), "a"))
    sim.spawn(program(me.new_context(), "b"))
    sim.run()
    assert done[0][1] == 100
    assert done[1][1] >= 200  # serialized, plus swap overhead


def test_memory_reference_hides_latency():
    """While one context waits on memory, a sibling gets the engine."""
    sim = Simulator()
    me = make_me(sim)
    mem = Memory(sim, MemoryKind.DRAM, MemoryTiming(32, 52, 40, 8))
    mem.jitter.mask = 0
    trace = []

    def blocker(ctx):
        yield from ctx.start()
        yield from ctx.busy(10)
        yield from ctx.mem(mem, "read", "t")   # swaps out for ~52 cycles
        trace.append(("blocker-done", sim.now))
        ctx._swap_out()

    def worker(ctx):
        yield from ctx.start()
        yield from ctx.busy(30)
        trace.append(("worker-done", sim.now))
        ctx._swap_out()

    sim.spawn(blocker(me.new_context()))
    sim.spawn(worker(me.new_context()))
    sim.run()
    times = dict(trace)
    # The worker finished while the blocker was waiting on DRAM.
    assert times["worker-done"] < times["blocker-done"]


def test_busy_requires_engine():
    sim = Simulator()
    me = make_me(sim)
    ctx = me.new_context()

    def bad():
        yield from ctx.busy(5)  # never acquired the engine

    sim.spawn(bad())
    with pytest.raises(RuntimeError):
        sim.run()


def test_negative_busy_rejected():
    sim = Simulator()
    ctx = make_me(sim).new_context()

    def bad():
        yield from ctx.start()
        yield from ctx.busy(-1)

    sim.spawn(bad())
    with pytest.raises(ValueError):
        sim.run()


def test_bad_mem_op_rejected():
    sim = Simulator()
    me = make_me(sim)
    ctx = me.new_context()
    mem = Memory(sim, MemoryKind.SRAM, MemoryTiming(4, 22, 22, 4))

    def bad():
        yield from ctx.start()
        yield from ctx.mem(mem, "erase", "t")

    sim.spawn(bad())
    with pytest.raises(ValueError):
        sim.run()


def test_bad_mem_op_rejected_before_it_acts():
    """A rejected op charges no issue cycle and keeps the engine."""
    sim = Simulator()
    me = make_me(sim)
    ctx = me.new_context()
    mem = Memory(sim, MemoryKind.SRAM, MemoryTiming(4, 22, 22, 4))

    def bad():
        yield from ctx.start()
        yield from ctx.mem(mem, "rd", "t")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="bad memory op"):
        sim.run()
    assert (sim.now, me.busy_cycles, ctx.holding_core, me.core.in_use) == (0, 0, True, 1)
    assert mem.access_counts == {}


def test_context_limit_per_engine():
    sim = Simulator()
    me = make_me(sim)
    for __ in range(4):
        me.new_context()
    with pytest.raises(RuntimeError):
        me.new_context()


def test_ctx_ids_are_global():
    sim = Simulator()
    me0 = MicroEngine(sim, 0, DEFAULT_PARAMS)
    me1 = MicroEngine(sim, 1, DEFAULT_PARAMS)
    assert me0.new_context().ctx_id == 0
    assert me0.new_context().ctx_id == 1
    assert me1.new_context().ctx_id == 4


def test_busy_cycles_accounted_for_utilization():
    sim = Simulator()
    me = make_me(sim)
    ctx = me.new_context()

    def program():
        yield from ctx.start()
        yield from ctx.busy(150)
        ctx._swap_out()

    sim.spawn(program())
    sim.run()
    assert me.busy_cycles == 150
    assert me.utilization(300) == pytest.approx(0.5)
    assert me.utilization(0) == 0.0


def test_lock_blocks_off_engine():
    """A context waiting on a hardware mutex must not hold its engine."""
    sim = Simulator()
    me = make_me(sim)
    mutex = Resource(sim, capacity=1)
    trace = []

    def holder(ctx):
        yield from ctx.start()
        yield from ctx.lock(mutex)
        ctx._swap_out()          # release engine while holding the lock
        from repro.engine import Delay
        yield Delay(100)
        ctx.unlock(mutex)
        trace.append(("holder", sim.now))

    def waiter(ctx):
        yield from ctx.start()
        yield from ctx.lock(mutex)   # blocks ~100 cycles, engine free
        ctx.unlock(mutex)
        trace.append(("waiter", sim.now))
        ctx._swap_out()

    def bystander(ctx):
        yield from ctx.start()
        yield from ctx.busy(20)
        trace.append(("bystander", sim.now))
        ctx._swap_out()

    sim.spawn(holder(me.new_context()))
    sim.spawn(waiter(me.new_context()))
    sim.spawn(bystander(me.new_context()))
    sim.run()
    times = dict(trace)
    assert times["bystander"] < 100  # ran while the waiter was blocked
    assert times["waiter"] >= 100


def test_ix_transfer_serializes_on_bus_slots():
    sim = Simulator()
    me = make_me(sim)
    MicroContext._IX_JITTER = None
    bus = Resource(sim, capacity=1)
    done = []

    def mover(ctx):
        yield from ctx.start()
        yield from ctx.ix_transfer(bus)
        done.append(sim.now)
        ctx._swap_out()

    sim.spawn(mover(me.new_context()))
    sim.spawn(mover(me.new_context()))
    sim.run()
    assert len(done) == 2
    # Second transfer waited for the first (24 cycles each + jitter).
    assert done[1] - done[0] >= 20
