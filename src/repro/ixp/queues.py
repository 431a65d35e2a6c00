"""SRAM packet queues and the queueing disciplines of Table 1.

Queues are "contiguous circular arrays of 32-bit entries in SRAM.  Head
and tail pointers are simply indexes into the array, and they are stored
in Scratch memory." (section 3.4).  This module provides the functional
queue (bounded, with drop accounting) and the configuration machinery for
the disciplines the paper measures:

* input side: I.1 private queues per input context (tail kept in
  registers, no locking) vs I.2/I.3 public queues protected by the
  hardware mutex;
* output side: O.1 single queue per port with batching, O.2 single queue
  without batching, O.3 multiple queues per port with a readiness
  bit-array indirection.

Timing is charged by the microengine programs; these objects account for
occupancy, drops and readiness state.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional

from repro.ixp.buffers import BufferHandle
from repro.obs.recorder import NULL_RECORDER


class InputDiscipline(enum.Enum):
    """How input contexts reach output queues (Table 1, I rows)."""

    PRIVATE = "private-queues-in-regs"        # I.1
    PROTECTED = "protected-public-queues"     # I.2 / I.3


class OutputDiscipline(enum.Enum):
    """How output contexts service their queues (Table 1, O rows)."""

    SINGLE_BATCHED = "single-queue-with-batching"      # O.1
    SINGLE_UNBATCHED = "single-queue-without-batching"  # O.2
    MULTI_INDIRECT = "multiple-queues-with-indirection"  # O.3


class PacketDescriptor(NamedTuple):
    """The 32-bit SRAM queue entry: where the packet lives in DRAM plus
    the classification results that ride with it."""

    handle: BufferHandle
    packet: object          # Packet or None for synthetic timing runs
    mp_count: int
    out_port: int
    enqueue_cycle: int


class PacketQueue:
    """One bounded circular-array queue."""

    def __init__(self, queue_id: int, out_port: int, capacity: int = 256, priority: int = 0):
        self.queue_id = queue_id
        self.out_port = out_port
        self.capacity = capacity
        self.priority = priority
        self._entries: Deque[PacketDescriptor] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.max_depth = 0

    def enqueue(self, descriptor: PacketDescriptor) -> bool:
        """Insert at the head; False (and a drop) if the array is full."""
        if len(self._entries) >= self.capacity:
            self.dropped += 1
            return False
        self._entries.append(descriptor)
        self.enqueued += 1
        self.max_depth = max(self.max_depth, len(self._entries))
        return True

    def dequeue(self) -> Optional[PacketDescriptor]:
        if not self._entries:
            return None
        self.dequeued += 1
        return self._entries.popleft()

    def peek_ready(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<PacketQueue {self.queue_id} port={self.out_port} depth={len(self)}>"


class QueueBank:
    """The set of queues between the input and output stages, arranged
    according to the configured disciplines.

    * PROTECTED + SINGLE_*: ``queues_per_port = 1`` shared queue per port.
    * PROTECTED + MULTI_INDIRECT: up to 16 priority queues per port.
    * PRIVATE: one queue per (input context, port) pair; no locks, but the
      output side is forced to service many queues via the bit-array
      ("this forces use of the multiple queueing support on the output
      side").
    """

    def __init__(
        self,
        input_discipline: InputDiscipline,
        output_discipline: OutputDiscipline,
        num_ports: int,
        num_input_contexts: int,
        queues_per_port: int = 1,
        capacity: int = 256,
    ):
        self.input_discipline = input_discipline
        self.output_discipline = output_discipline
        self.num_ports = num_ports
        self.num_input_contexts = num_input_contexts
        self.queues: List[PacketQueue] = []
        self.recorder = NULL_RECORDER
        self._by_port: Dict[int, List[PacketQueue]] = {p: [] for p in range(num_ports)}
        # queue_id -> readiness flag; the Scratch bit-array of 3.4.3.
        self.ready_bits: List[bool] = []

        if input_discipline is InputDiscipline.PRIVATE:
            if output_discipline is not OutputDiscipline.MULTI_INDIRECT:
                raise ValueError(
                    "private input queues force multiple-queue output support (paper 3.5.1)"
                )
            for port in range(num_ports):
                for ctx in range(num_input_contexts):
                    self._add_queue(port, priority=0, capacity=capacity)
        else:
            if output_discipline is OutputDiscipline.MULTI_INDIRECT:
                per_port = max(2, queues_per_port)
            else:
                per_port = 1
            if per_port > 16:
                raise ValueError("at most 16 queues per output context (16 registers)")
            for port in range(num_ports):
                for priority in range(per_port):
                    self._add_queue(port, priority=priority, capacity=capacity)

    def _add_queue(self, port: int, priority: int, capacity: int) -> PacketQueue:
        queue = PacketQueue(len(self.queues), port, capacity=capacity, priority=priority)
        self.queues.append(queue)
        self._by_port[port].append(queue)
        self.ready_bits.append(False)
        return queue

    # -- input side -------------------------------------------------------------

    def input_queue_for(self, out_port: int, input_context: int = 0, priority: int = 0) -> PacketQueue:
        """The queue an input context must use for a packet bound to
        ``out_port``."""
        port_queues = self._by_port[out_port]
        if self.input_discipline is InputDiscipline.PRIVATE:
            return port_queues[input_context % len(port_queues)]
        return port_queues[min(priority, len(port_queues) - 1)]

    def enqueue(self, queue: PacketQueue, descriptor: PacketDescriptor) -> bool:
        ok = queue.enqueue(descriptor)
        if ok:
            self.ready_bits[queue.queue_id] = True
            rec = self.recorder
            if rec.enabled:
                rec.metrics.sample(f"queue{queue.queue_id}.depth",
                                   descriptor.enqueue_cycle, len(queue._entries))
                rec.record(
                    descriptor.enqueue_cycle,
                    f"queue{queue.queue_id}",
                    "enqueue",
                    rec.packet_id(descriptor.packet),
                    queue.out_port,
                )
        return ok

    # -- output side --------------------------------------------------------------

    def queues_for_port(self, out_port: int) -> List[PacketQueue]:
        return self._by_port[out_port]

    def select_queue(self, out_port: int) -> Optional[PacketQueue]:
        """The output scheduler: drain queues in priority order (the
        paper's implemented policy).  ``__init__`` builds each port's
        list in that order."""
        for queue in self._by_port[out_port]:
            if queue.peek_ready():
                return queue
        return None

    def select_via_bits(self, out_port: int) -> Optional[PacketQueue]:
        """O.3: consult the readiness bit-array first, then the queue."""
        for queue in self._by_port[out_port]:
            if self.ready_bits[queue.queue_id] and queue.peek_ready():
                return queue
        return None

    def dequeue(self, queue: PacketQueue) -> Optional[PacketDescriptor]:
        descriptor = queue.dequeue()
        if not queue.peek_ready():
            self.ready_bits[queue.queue_id] = False
        return descriptor

    # -- reporting ------------------------------------------------------------------

    @property
    def total_enqueued(self) -> int:
        return sum(q.enqueued for q in self.queues)

    @property
    def total_dequeued(self) -> int:
        return sum(q.dequeued for q in self.queues)

    @property
    def total_dropped(self) -> int:
        return sum(q.dropped for q in self.queues)
