"""Proportional-share CPU scheduling for the Pentium (and, in principle,
the StrongARM).

Section 4.1: "we run a proportional share scheduler on the Pentium, where
deciding what share to allocate to each flow is a policy issue.  For
example, we allocate sufficient cycles to the OSPF control protocol to
ensure that it is able to update the routing table at an acceptable rate,
and we allow forwarders that implement per-flow services to reserve both
a packet rate and a cycle rate."

Implemented as stride scheduling: each flow has tickets proportional to
its share; the flow with the smallest virtual pass time runs next and its
pass advances by stride * work.  Admission of (packet rate, cycle rate)
reservations is handled by :mod:`repro.core.admission`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

STRIDE1 = 1 << 20  # stride constant (large to keep integer precision)


class _Flow:
    __slots__ = ("name", "tickets", "stride", "pass_value", "queue", "work_done", "enqueued", "dropped")

    def __init__(self, name: str, tickets: int):
        self.name = name
        self.tickets = tickets
        self.stride = STRIDE1 // tickets
        self.pass_value = 0
        self.queue: Deque[Any] = deque()
        self.work_done = 0
        self.enqueued = 0
        self.dropped = 0


class StrideScheduler:
    """Proportional-share scheduler over named flows."""

    def __init__(self, default_tickets: int = 100, queue_capacity: int = 256):
        if default_tickets <= 0:
            raise ValueError("tickets must be positive")
        self.default_tickets = default_tickets
        self.queue_capacity = queue_capacity
        self._flows: Dict[str, _Flow] = {}
        self.total_dropped = 0

    # -- flow management -------------------------------------------------------

    def add_flow(self, name: str, tickets: Optional[int] = None) -> None:
        if name in self._flows:
            raise ValueError(f"flow {name!r} already registered")
        t = self.default_tickets if tickets is None else tickets
        if t <= 0:
            raise ValueError("tickets must be positive")
        flow = _Flow(name, t)
        # New flows join at the current minimum pass so they cannot
        # monopolize the processor by starting at zero.
        if self._flows:
            flow.pass_value = min(f.pass_value for f in self._flows.values())
        self._flows[name] = flow

    def flows(self) -> List[str]:
        return list(self._flows)

    # -- packet path -------------------------------------------------------------

    def enqueue(self, flow_name: str, item: Any) -> bool:
        """Queue work for a flow; unknown flows are auto-registered with
        the default share.  Returns False (drop) when the flow's queue is
        full -- overload of one flow never spills onto others."""
        if flow_name not in self._flows:
            self.add_flow(flow_name)
        flow = self._flows[flow_name]
        if len(flow.queue) >= self.queue_capacity:
            flow.dropped += 1
            self.total_dropped += 1
            return False
        flow.queue.append(item)
        flow.enqueued += 1
        return True

    def select(self) -> Optional[Tuple[str, Any]]:
        """Pick the backlogged flow with the smallest pass value."""
        best: Optional[_Flow] = None
        for flow in self._flows.values():
            if flow.queue and (best is None or flow.pass_value < best.pass_value):
                best = flow
        if best is None:
            return None
        item = best.queue.popleft()
        return best.name, item

    def charge(self, flow_name: str, work: int) -> None:
        """Advance the flow's virtual time by ``work`` (e.g. cycles used)."""
        flow = self._flows[flow_name]
        flow.pass_value += flow.stride * max(1, work)
        flow.work_done += work

    @property
    def backlog(self) -> int:
        return sum(len(f.queue) for f in self._flows.values())

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "enqueued": f.enqueued,
                "dropped": f.dropped,
                "work_done": f.work_done,
                "tickets": f.tickets,
            }
            for name, f in self._flows.items()
        }
