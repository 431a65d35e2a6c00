"""Contended memory channels: DRAM, SRAM, Scratch.

Each memory is a single channel with a fixed uncontended latency per
access (Table 3) and an *occupancy* -- the cycles the channel itself is
busy, derived from the data-path width.  Requests queue FIFO on the
channel, so heavy parallel access produces queueing delay on top of the
base latency; this is the mechanism behind the paper's observation that
the system reaches only ~80% of the register-count bound.
"""

from __future__ import annotations

import enum
from typing import Dict, Generator, Tuple

from repro.engine import Resource, Simulator, delay
from repro.ixp.params import MemoryTiming


class MemoryKind(enum.Enum):
    DRAM = "dram"
    SRAM = "sram"
    SCRATCH = "scratch"


class AccessJitter:
    """Deterministic 0-3 cycle jitter added to each access.

    Real memory systems dither (refresh, bank conflicts, bus arbitration
    phases); a pure fixed-latency model instead phase-locks the 24
    deterministic contexts and produces brittle, configuration-sensitive
    artifacts.  A counter-hash keeps runs reproducible while breaking the
    lockstep.  ``mask`` may only be lowered after construction (to 0 for
    an un-dithered probe): plans and delay tables are built for the 0-3
    range.
    """

    __slots__ = ("_counter", "mask")

    def __init__(self):
        self._counter = 0
        self.mask = 0x3

    def next(self) -> int:
        self._counter += 1
        return (self._counter * 2654435761 >> 7) & self.mask


class Memory:
    """One memory channel with latency, occupancy and access accounting."""

    def __init__(self, sim: Simulator, kind: MemoryKind, timing: MemoryTiming):
        self.sim = sim
        self.kind = kind
        self.timing = timing
        self.channel = Resource(sim, capacity=1, name=f"{kind.value}-channel")
        self.jitter = AccessJitter()
        # (tag, op) -> count; tags attribute traffic to pipeline stages.
        self.access_counts: Dict[Tuple[str, str], int] = {}
        self.busy_cycles = 0
        # Memoized access plans: an access's (occupancy, remaining) split
        # depends only on the op and the 0-3 cycle jitter value, so the
        # four variants per op are resolved once instead of per access.
        self._plans = {
            "read": self._build_plans(timing.read_latency),
            "write": self._build_plans(timing.write_latency),
        }

    def _build_plans(self, base_latency: int):
        plans = []
        for jitter_value in range(self.jitter.mask + 1):
            latency = base_latency + jitter_value
            occupancy = min(self.timing.occupancy, latency)
            remaining = latency - occupancy
            plans.append((occupancy, delay(occupancy), delay(remaining) if remaining > 0 else None))
        return tuple(plans)

    def read(self, tag: str = "untagged") -> Generator:
        """Timed read of one transfer unit; yields from a context program."""
        return self._access("read", tag)

    def write(self, tag: str = "untagged") -> Generator:
        return self._access("write", tag)

    def _access(self, op: str, tag: str) -> Generator:
        counts = self.access_counts
        key = (tag, op)
        counts[key] = counts.get(key, 0) + 1
        occupancy, occupancy_delay, remaining_delay = self._plans[op][self.jitter.next()]
        yield self.channel.acquire()
        self.busy_cycles += occupancy
        yield occupancy_delay
        self.channel.release()
        if remaining_delay is not None:
            yield remaining_delay

    # -- reporting -----------------------------------------------------------

    def counts_for(self, tag_prefix: str) -> Tuple[int, int]:
        """(reads, writes) across all tags starting with ``tag_prefix``."""
        reads = sum(
            count for (tag, op), count in self.access_counts.items()
            if op == "read" and tag.startswith(tag_prefix)
        )
        writes = sum(
            count for (tag, op), count in self.access_counts.items()
            if op == "write" and tag.startswith(tag_prefix)
        )
        return reads, writes

    def utilization(self, window_cycles: int) -> float:
        if window_cycles <= 0:
            return 0.0
        return self.busy_cycles / window_cycles

    def __repr__(self) -> str:
        return f"<Memory {self.kind.value} r={self.timing.read_latency} w={self.timing.write_latency}>"


class HardwareMutex:
    """The IXP1200's blocking mutex on special SRAM regions (section 3.4.2).

    Unlike a test-and-set spin loop, waiting contexts block without
    generating memory traffic; acquire and release each cost one SRAM
    access on the protected region.
    """

    def __init__(self, sim: Simulator, sram: Memory, name: str = ""):
        self.sim = sim
        self.sram = sram
        self.lock = Resource(sim, capacity=1, name=f"hwmutex-{name}")

    def acquire(self, tag: str = "mutex") -> Generator:
        yield from self.sram.read(tag=f"{tag}.lock")
        yield self.lock.acquire()

    def release(self, tag: str = "mutex") -> Generator:
        yield from self.sram.write(tag=f"{tag}.unlock")
        self.lock.release()


class TestAndSetMutex:
    """The rejected alternative: a spin lock built from test-and-set.

    Every polling attempt is a full SRAM access, so contention floods the
    memory channel -- "performance-crippling memory contention when many
    contexts attempt to acquire the lock at the same time".  Implemented
    for the ablation benchmark.
    """

    def __init__(self, sim: Simulator, sram: Memory, name: str = ""):
        self.sim = sim
        self.sram = sram
        self.held = False
        self.spin_attempts = 0

    def acquire(self, tag: str = "tas") -> Generator:
        while True:
            self.spin_attempts += 1
            yield from self.sram.read(tag=f"{tag}.test_and_set")
            if not self.held:
                self.held = True
                return

    def release(self, tag: str = "tas") -> Generator:
        self.held = False
        yield from self.sram.write(tag=f"{tag}.clear")
