"""Tests for the memory channels, hardware mutex and test-and-set mutex."""

import pytest

from repro.engine import Delay, Simulator
from repro.ixp.memory import AccessJitter, HardwareMutex, Memory, MemoryKind
from repro.ixp.memory import TestAndSetMutex as SpinMutex  # alias: pytest must not collect it
from repro.ixp.params import MemoryTiming


def make_memory(sim, latency_r=52, latency_w=40, occupancy=8):
    mem = Memory(sim, MemoryKind.DRAM, MemoryTiming(32, latency_r, latency_w, occupancy))
    mem.jitter.mask = 0  # deterministic latency for these tests
    return mem


def test_uncontended_read_latency():
    sim = Simulator()
    mem = make_memory(sim)
    done = []

    def reader():
        yield from mem.read(tag="t")
        done.append(sim.now)

    sim.spawn(reader())
    sim.run()
    assert done == [52]


def test_uncontended_write_latency():
    sim = Simulator()
    mem = make_memory(sim)
    done = []

    def writer():
        yield from mem.write(tag="t")
        done.append(sim.now)

    sim.spawn(writer())
    sim.run()
    assert done == [40]


def test_contention_queues_on_occupancy():
    """Two simultaneous reads: the second waits one occupancy slot, not
    the full latency (the channel pipelines)."""
    sim = Simulator()
    mem = make_memory(sim, occupancy=8)
    done = []

    def reader(i):
        yield from mem.read(tag=f"r{i}")
        done.append((i, sim.now))

    sim.spawn(reader(0))
    sim.spawn(reader(1))
    sim.run()
    assert done == [(0, 52), (1, 60)]  # +8, not +52


def test_access_counting_by_tag():
    sim = Simulator()
    mem = make_memory(sim)

    def worker():
        yield from mem.read(tag="input.mp")
        yield from mem.read(tag="input.mp")
        yield from mem.write(tag="output.mp")

    sim.spawn(worker())
    sim.run()
    assert mem.counts_for("input") == (2, 0)
    assert mem.counts_for("output") == (0, 1)
    assert mem.counts_for("") == (2, 1)


def test_utilization_accounting():
    sim = Simulator()
    mem = make_memory(sim, occupancy=8)

    def worker():
        for __ in range(10):
            yield from mem.read(tag="t")

    sim.spawn(worker())
    sim.run()
    assert mem.busy_cycles == 80
    assert mem.utilization(800) == pytest.approx(0.1)
    assert mem.utilization(0) == 0.0


def test_jitter_is_deterministic_and_bounded():
    a, b = AccessJitter(), AccessJitter()
    seq_a = [a.next() for __ in range(100)]
    seq_b = [b.next() for __ in range(100)]
    assert seq_a == seq_b
    assert all(0 <= v <= 3 for v in seq_a)
    assert len(set(seq_a)) > 1  # actually varies


def test_hardware_mutex_blocks_without_memory_traffic():
    sim = Simulator()
    mem = make_memory(sim, occupancy=2)
    mutex = HardwareMutex(sim, mem, name="q0")
    order = []

    def user(i):
        yield from mutex.acquire()
        order.append(("in", i, sim.now))
        yield Delay(50)
        yield from mutex.release()
        order.append(("out", i, sim.now))

    sim.spawn(user(0))
    sim.spawn(user(1))
    sim.run()
    assert [e[:2] for e in order] == [("in", 0), ("out", 0), ("in", 1), ("out", 1)]
    # Two acquires (reads) + two releases (writes): 4 accesses total; a
    # spinning waiter would have generated many more.
    reads, writes = mem.counts_for("mutex")
    assert reads == 2 and writes == 2


def test_test_and_set_mutex_spins_and_floods_memory():
    sim = Simulator()
    mem = make_memory(sim, latency_r=22, latency_w=22, occupancy=4)
    mutex = SpinMutex(sim, mem, name="q0")
    held = []

    def holder():
        yield from mutex.acquire()
        held.append(sim.now)
        yield Delay(500)
        yield from mutex.release()

    def contender():
        yield Delay(1)
        yield from mutex.acquire()
        held.append(sim.now)
        yield from mutex.release()

    sim.spawn(holder())
    sim.spawn(contender())
    sim.run()
    assert len(held) == 2
    # The contender polled many times while the lock was held.
    assert mutex.spin_attempts > 10
    reads, __ = mem.counts_for("tas")
    assert reads == mutex.spin_attempts
