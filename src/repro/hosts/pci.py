"""PCI bus and I2O queue pairs between the IXP1200 and the Pentium.

Section 3.7: "For each logical queue ... the implementation uses a pair
of I2O hardware queues.  One queue contains pointers to empty buffers in
Pentium memory, and the other contains pointers to full buffers."  Due to
a silicon error the I2O mechanism had to be simulated in software, so
moving bytes costs Pentium cycles at PCI speed -- the behaviour this
module reproduces.

Only the first 64 bytes of a packet plus an 8-byte internal routing
header cross the bus eagerly; the body is fetched lazily if a forwarder
needs it (section 3.7).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, NamedTuple, Optional

from repro.engine import Resource, Simulator
from repro.faults.injector import NULL_INJECTOR
from repro.ixp.params import CLOCK_HZ
from repro.obs.recorder import NULL_RECORDER

# 32-bit x 33 MHz PCI: 1.056 Gbps.  In 200 MHz simulation cycles, one
# byte takes 8 bits / 1.056e9 * 200e6 = ~1.515 cycles.
PCI_BITS_PER_SECOND = 32 * 33_000_000

# Eager transfer unit: 64 packet bytes + 8-byte internal routing header.
EAGER_BYTES = 64 + 8


def pci_transfer_cycles(num_bytes: int) -> int:
    """Simulation cycles (200 MHz) the bus is occupied moving ``num_bytes``."""
    if num_bytes < 0:
        raise ValueError(f"negative transfer size {num_bytes}")
    return math.ceil(num_bytes * 8 / PCI_BITS_PER_SECOND * CLOCK_HZ)


class PCIBus:
    """The shared bus; one transaction at a time."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.lock = Resource(sim, capacity=1, name="pci")
        self.bytes_moved = 0
        self.busy_cycles = 0
        self.recorder = NULL_RECORDER

    def transfer(self, num_bytes: int):
        """Generator: occupy the bus for the transfer duration."""
        from repro.engine import Delay

        cycles = pci_transfer_cycles(num_bytes)
        yield self.lock.acquire()
        self.bytes_moved += num_bytes
        self.busy_cycles += cycles
        rec = self.recorder
        if rec.enabled:
            rec.account("pci", "busy", cycles)
        yield Delay(cycles)
        self.lock.release()

    def utilization(self, window_cycles: int) -> float:
        if window_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / window_cycles)


class I2OMessage(NamedTuple):
    """What rides through a logical queue: the eagerly-copied header bytes
    plus the metadata needed to lazily fetch the body."""

    packet: Any            # Packet or None
    eager_bytes: int       # bytes copied across the bus eagerly
    body_bytes: int        # bytes left on the IXP, fetchable lazily
    flow_metadata: Any     # classification results (the 8-byte header)


class I2OQueuePair:
    """One logical queue: a free-buffer queue and a full-buffer queue.

    Popping an empty free queue or pushing a full full-queue fails --
    callers must handle backpressure, which is what isolates the Pentium
    from IXP overload.
    """

    #: Fault-injection hook (message loss); the class-level null object
    #: costs one attribute check per send when injection is off.
    injector = NULL_INJECTOR

    def __init__(self, depth: int = 64, name: str = ""):
        if depth <= 0:
            raise ValueError("queue depth must be positive")
        self.depth = depth
        self.name = name
        self.free: Deque[int] = deque(range(depth))
        self.full: Deque[tuple] = deque()
        self.pushed = 0
        self.popped = 0
        self.backpressure_events = 0
        self.messages_lost = 0

    def try_send(self, message: I2OMessage) -> bool:
        """IXP side: claim a free buffer and publish it full."""
        if not self.free:
            self.backpressure_events += 1
            return False
        inj = self.injector
        if inj.enabled and inj.on_i2o_send(self):
            # The message vanishes in flight: the sender sees success
            # (the hardware gave no delivery receipt) but no buffer is
            # consumed and the host never sees it.  Accounted, not silent.
            self.messages_lost += 1
            return True
        buffer_id = self.free.popleft()
        self.full.append((buffer_id, message))
        self.pushed += 1
        return True

    def try_receive(self) -> Optional[I2OMessage]:
        """Host side: take the next full buffer and recycle it."""
        if not self.full:
            return None
        buffer_id, message = self.full.popleft()
        self.free.append(buffer_id)
        self.popped += 1
        return message

    @property
    def occupancy(self) -> int:
        return len(self.full)

    @property
    def occupancy_fraction(self) -> float:
        """Full-queue occupancy as a fraction of depth: 1.0 means the
        next ``try_send`` backpressures."""
        return len(self.full) / self.depth

    def __repr__(self) -> str:
        return f"<I2OQueuePair {self.name} {self.occupancy}/{self.depth} full>"
