"""Forwarder specifications: what `install` binds to a flow.

A *data forwarder* processes packets in the data plane; where it runs is
chosen by the ``where`` argument of the install operation (section 4.5):

* ``ME`` -- a VRP program loaded into the input contexts' ISTOREs;
* ``SA`` -- a StrongARM function referenced through a jump table (fixed
  at boot; install merely binds one to a flow);
* ``PE`` -- an index into the Pentium's jump table.

A *control forwarder* is ordinary code on the Pentium that manages its
data partner through the shared flow state (getdata/setdata).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.vrp import VRPProgram


class Where(enum.Enum):
    """The processor a forwarder runs on."""

    ME = "microengine"
    SA = "strongarm"
    PE = "pentium"


#: install()'s wildcard key: apply to all packets (a "general" forwarder).
ALL = "ALL"


@dataclass
class ForwarderSpec:
    """Everything admission control and install need to know."""

    name: str
    where: Where
    # ME forwarders carry a VRP program; SA/PE forwarders carry a cycle
    # cost and a host-level callable.
    program: Optional[VRPProgram] = None
    cycles: int = 0
    action: Optional[Callable] = None
    state_bytes: int = 0
    # Pentium admission (section 4.6): reserved packet and cycle rates.
    expected_pps: float = 0.0
    expected_cycles_per_packet: int = 0
    # Initial contents of the flow-state SRAM region, applied at install.
    initial_state: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.where is Where.ME and self.program is None:
            raise ValueError(f"ME forwarder {self.name!r} needs a VRP program")
        if self.where is not Where.ME and self.program is not None:
            raise ValueError(
                f"{self.where.value} forwarder {self.name!r} must not carry a VRP program"
            )
        if self.state_bytes < 0:
            raise ValueError("state_bytes must be non-negative")

    def summary(self) -> str:
        if self.program is not None:
            cost = self.program.cost()
            return (
                f"{self.name} @{self.where.value}: {cost.cycles} cycles, "
                f"{cost.sram_bytes}B SRAM, {self.program.instruction_count()} instructions"
            )
        return f"{self.name} @{self.where.value}: {self.cycles} cycles"
