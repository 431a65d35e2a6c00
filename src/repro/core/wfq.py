"""Input-side weighted-fair-queueing approximation (section 3.4.1).

"When multiple queues are available at each output context and when
these have fixed priority levels, the larger computing capacity available
in input-side protocol processing could be used to select the appropriate
priority queue and thereby approximate more complex schemes, such as
weighted fair queuing.  We have not evaluated this in detail."

This module evaluates it.  Each traffic class has a weight and a virtual
finish time; the input stage stamps every packet with a priority level
derived from how far the class has run ahead of the global virtual time.
The output stage's cheap fixed-priority drain (discipline O.3) then
realizes an approximate WFQ schedule: a class exceeding its share is
pushed to lower priorities whose queues overflow first under congestion.

The per-packet work is a handful of register operations plus one 4-byte
SRAM read/write of class state, as the paper anticipated; the stamp is
not charged against the VRP budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional


@dataclass
class _TrafficClass:
    name: str
    weight: float
    matcher: Callable
    finish_time: float = 0.0
    packets: int = 0


class InputSideWFQ:
    """Maps packets to output priority levels in WFQ fashion."""

    def __init__(self, num_priorities: int = 4):
        if num_priorities < 2:
            raise ValueError("need at least two priority levels")
        self.num_priorities = num_priorities
        self.classes: Dict[str, _TrafficClass] = {}
        self.virtual_time = 0.0
        self.unclassified = 0

    def add_class(self, name: str, weight: float, matcher: Callable) -> None:
        """Register a class; ``matcher(packet) -> bool`` selects members."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if name in self.classes:
            raise ValueError(f"class {name!r} already exists")
        self.classes[name] = _TrafficClass(name, weight, matcher)

    def priority_for(self, packet) -> int:
        """Stamp one packet: advance its class's virtual finish time and
        quantize the lead over global virtual time into a priority level
        (0 = highest)."""
        cls = self._match(packet)
        if cls is None:
            self.unclassified += 1
            return self.num_priorities - 1
        cls.finish_time = max(cls.finish_time, self.virtual_time) + 1.0 / cls.weight
        cls.packets += 1
        # Advance global virtual time at the GPS rate: one unit of
        # service shared by the weights of the currently backlogged
        # classes.  A class counts as backlogged if its finish time is
        # within half a quantum of virtual time (so a peer stamped an
        # instant ago still counts); idle classes do not hold virtual
        # time back, keeping the scheme work-conserving.
        active_weight = cls.weight
        for c in self.classes.values():
            if c is cls:
                continue
            if c.finish_time > self.virtual_time - 0.5 / c.weight:
                active_weight += c.weight
        self.virtual_time += 1.0 / active_weight
        lead = cls.finish_time - self.virtual_time
        # Quantize: a class at its fair share has lead ~0; each fair-share
        # quantum it runs ahead costs one priority level.
        quantum = 1.0 / cls.weight
        level = int(lead / max(quantum, 1e-9) + 1e-9)
        return max(0, min(self.num_priorities - 1, level))

    def _match(self, packet) -> Optional[_TrafficClass]:
        for cls in self.classes.values():
            if cls.matcher(packet):
                return cls
        return None
