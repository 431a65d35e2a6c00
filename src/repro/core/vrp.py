"""The Virtual Router Processor: micro-op IR and resource budget.

Section 4.2 defines the VRP as an abstract machine that runs a fixed
number of cycles of extension code for each 64-byte MP.  Extensions here
are written in a tiny straight-line IR (register ops, 4-byte SRAM
transfers, hardware hashes, forward-only jumps) that stands in for
MicroEngine assembly; admission control inspects it exactly the way the
paper's verifier inspects microcode ("verifying that the forwarder lives
within the available VRP budget is trivial since there is no reason for
the forwarder to contain a loop, and hence, a backwards jump").

The prototype budget (section 4.3, 8 x 100 Mbps line rate):

* 240 cycles of instructions per MP,
* 24 SRAM transfers of 4 bytes each (hence 96 bytes of flow state),
* 3 hardware hashes,
* 8 general-purpose registers + 1 holding the flow-state SRAM address,
* 650 ISTORE instruction slots shared by all installed extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.ixp.params import CLOCK_HZ
from repro.ixp.programs import TimedVRP

BRANCH_DELAY_CYCLES = 2  # per jump: "branch delays must be taken into consideration"


class VRPVerificationError(ValueError):
    """Raised when a program is malformed (e.g. a backward jump)."""


@dataclass(frozen=True)
class RegOps:
    """``count`` single-cycle register instructions."""

    count: int

    def __post_init__(self):
        if self.count <= 0:
            raise VRPVerificationError(f"RegOps count must be positive, got {self.count}")


@dataclass(frozen=True)
class SramRead:
    """A 4-byte-wide SRAM read of flow state ( ``words`` x 4 bytes )."""

    words: int = 1

    def __post_init__(self):
        if self.words <= 0:
            raise VRPVerificationError("SramRead words must be positive")


@dataclass(frozen=True)
class SramWrite:
    words: int = 1

    def __post_init__(self):
        if self.words <= 0:
            raise VRPVerificationError("SramWrite words must be positive")


@dataclass(frozen=True)
class HashOp:
    """Use of the hardware hashing unit."""

    count: int = 1

    def __post_init__(self):
        if self.count <= 0:
            raise VRPVerificationError("HashOp count must be positive")


@dataclass(frozen=True)
class JumpForward:
    """A forward jump of ``offset`` instructions (conditional exits).
    Backward jumps (loops) do not exist in this IR by construction; a
    non-positive offset is rejected, mirroring the paper's verifier."""

    offset: int

    def __post_init__(self):
        if self.offset <= 0:
            raise VRPVerificationError(
                f"backward or zero jump (offset={self.offset}): loops are not allowed in the VRP"
            )


Op = Union[RegOps, SramRead, SramWrite, HashOp, JumpForward]


@dataclass
class VRPCost:
    """Static resource requirements of a program."""

    cycles: int = 0
    sram_read_bytes: int = 0
    sram_write_bytes: int = 0
    sram_transfers: int = 0
    hashes: int = 0
    instructions: int = 0

    @property
    def sram_bytes(self) -> int:
        return self.sram_read_bytes + self.sram_write_bytes


class VRPProgram:
    """A straight-line extension program plus an optional functional
    action applied to real packets.

    ``action(packet, state) -> bool | None`` -- return False to drop the
    packet; ``state`` is the forwarder's mutable flow-state dict (the
    functional view of its SRAM region).
    """

    def __init__(
        self,
        name: str,
        ops: Sequence[Op],
        action: Optional[Callable] = None,
        registers_needed: int = 0,
    ):
        self.name = name
        self.ops: List[Op] = list(ops)
        self.action = action
        self.registers_needed = registers_needed
        self._verify()

    def _verify(self) -> None:
        if not self.ops:
            raise VRPVerificationError(f"program {self.name!r} is empty")
        for op in self.ops:
            if not isinstance(op, (RegOps, SramRead, SramWrite, HashOp, JumpForward)):
                raise VRPVerificationError(
                    f"program {self.name!r} contains unsupported op {op!r}"
                )
        # Jumps must land inside the program (no escapes into the RI).
        position = 0
        length = self.instruction_count()
        for op in self.ops:
            width = op.count if isinstance(op, RegOps) else 1
            if isinstance(op, JumpForward) and position + op.offset > length:
                raise VRPVerificationError(
                    f"program {self.name!r} jumps past its own end"
                )
            position += width

    def register_op_count(self) -> int:
        """Pure register operations (the Table 5 'Register Operations'
        column)."""
        return sum(op.count for op in self.ops if isinstance(op, RegOps))

    def instruction_count(self) -> int:
        """ISTORE slots occupied: one per register instruction, one per
        memory reference / hash / jump."""
        total = 0
        for op in self.ops:
            total += op.count if isinstance(op, RegOps) else 1
        return total

    def cost(self) -> VRPCost:
        cost = VRPCost()
        for op in self.ops:
            if isinstance(op, RegOps):
                cost.cycles += op.count
                cost.instructions += op.count
            elif isinstance(op, SramRead):
                cost.sram_read_bytes += 4 * op.words
                cost.sram_transfers += op.words
                cost.cycles += 1  # issue instruction
                cost.instructions += 1
            elif isinstance(op, SramWrite):
                cost.sram_write_bytes += 4 * op.words
                cost.sram_transfers += op.words
                cost.cycles += 1
                cost.instructions += 1
            elif isinstance(op, HashOp):
                cost.hashes += op.count
                cost.cycles += op.count
                cost.instructions += 1
            elif isinstance(op, JumpForward):
                cost.cycles += BRANCH_DELAY_CYCLES
                cost.instructions += 1
        return cost

    def to_timed(self) -> TimedVRP:
        """Compile to the chip simulator's per-MP timing record.  Busy
        cycles cover register operations, hash cycles and branch delays;
        each SRAM word becomes a separately-issued timed access."""
        cost = self.cost()
        reads = sum(op.words for op in self.ops if isinstance(op, SramRead))
        writes = sum(op.words for op in self.ops if isinstance(op, SramWrite))
        busy = self.register_op_count() + cost.hashes
        busy += sum(
            BRANCH_DELAY_CYCLES for op in self.ops if isinstance(op, JumpForward)
        )
        action = None
        if self.action is not None:
            # Adapt (packet, chip) -> action(packet, state) with per-flow
            # state resolved by the caller at install time; the raw
            # program carries a stateless adapter.
            program_action = self.action

            def action(packet, chip, _fn=program_action):
                _fn(packet, packet.meta.setdefault("flow_state", {}))

        return TimedVRP(
            reg_cycles=busy,
            sram_reads=reads,
            sram_writes=writes,
            hashes=cost.hashes,
            action=action,
        )

    @staticmethod
    def concat(name: str, programs: Sequence["VRPProgram"]) -> "VRPProgram":
        """Serial composition (general forwarders run back to back)."""
        ops: List[Op] = []
        for program in programs:
            ops.extend(program.ops)
        return VRPProgram(name, ops)

    def __repr__(self) -> str:
        cost = self.cost()
        return (
            f"<VRPProgram {self.name!r}: {cost.cycles} cycles, "
            f"{cost.sram_bytes}B SRAM, {cost.hashes} hashes>"
        )


@dataclass(frozen=True)
class VRPBudget:
    """The per-MP budget extensions must fit in (section 4.3)."""

    cycles: int = 240
    sram_transfers: int = 24
    hashes: int = 3
    state_bytes: int = 96
    registers: int = 8
    istore_slots: int = 650

    def check(self, cost: VRPCost, registers_needed: int = 0) -> Tuple[bool, str]:
        if cost.cycles > self.cycles:
            return False, f"cycles {cost.cycles} > budget {self.cycles}"
        if cost.sram_transfers > self.sram_transfers:
            return False, f"SRAM transfers {cost.sram_transfers} > budget {self.sram_transfers}"
        if cost.hashes > self.hashes:
            return False, f"hashes {cost.hashes} > budget {self.hashes}"
        if cost.sram_bytes > self.state_bytes:
            return False, f"state {cost.sram_bytes}B > budget {self.state_bytes}B"
        if registers_needed > self.registers:
            return False, f"registers {registers_needed} > budget {self.registers}"
        return True, "ok"


#: The prototype's budget at 8 x 100 Mbps (1.128 Mpps) line rate.
PROTOTYPE_BUDGET = VRPBudget()


def budget_for_line_rate(
    rate_pps: float,
    input_mes: int = 4,
    base_cycles: int = 270,
    efficiency: float = 0.72,
) -> VRPBudget:
    """Scale the cycle budget to an aggregate line rate with the paper's
    envelope arithmetic: the input engines offer
    ``input_mes * clock / rate`` cycles per MP, of which a measured
    fraction is usable after contention; the RI plus the extended
    classifier (56 instructions, counted against the budget per section
    4.5) consume ``base_cycles``.  At the prototype's 1.128 Mpps this
    yields the paper's 240-cycle budget.  SRAM transfers are capped at
    one per ten cycles, reproducing 24 transfers (96 bytes of state) at
    the prototype operating point.
    """
    if rate_pps <= 0:
        raise ValueError("rate must be positive")
    per_mp = input_mes * CLOCK_HZ / rate_pps
    cycles = max(0, int(per_mp * efficiency) - base_cycles)
    sram = max(0, min(cycles // 10, 64))
    return VRPBudget(
        cycles=cycles,
        sram_transfers=sram,
        hashes=3,
        state_bytes=4 * sram,
        registers=8,
    )
