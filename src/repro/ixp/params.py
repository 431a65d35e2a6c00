"""Hardware parameters and the per-MP cost model.

Every timing constant comes from the paper:

* Table 3 -- memory latencies in MicroEngine cycles (5 ns each):
  DRAM 32-byte read/write 52/40, SRAM 4-byte 22/22, Scratch 4-byte 16/20.
* Table 2 -- instruction counts per MP: input 171 register cycles with
  DRAM (0r/2w), SRAM (2r/1w), Scratch (2r/4w); output 109 register cycles
  with DRAM (2r/0w), SRAM (0r/1w), Scratch (2r/2w).
* Section 2.2 -- clock 200 MHz (actual 199.066), 6 MicroEngines x 4
  contexts, 32 MB DRAM (6.4 Gbps), 2 MB SRAM (3.2 Gbps), 4 KB Scratch,
  64-bit/66 MHz IX bus (4 Gbps peak), 16-slot input and output FIFOs.

The register-cycle totals are broken into named steps so the simulated
loops spend them where the real loops do; tests pin the sums to Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The simulation clock: one cycle is one 200 MHz MicroEngine cycle
#: (section 2.2), the time unit of every simulated component.
CLOCK_HZ = 200e6


@dataclass(frozen=True)
class MemoryTiming:
    """Latency/occupancy for one memory, per access of ``transfer_bytes``."""

    transfer_bytes: int
    read_latency: int
    write_latency: int
    occupancy: int  # cycles the memory channel is busy per access


@dataclass(frozen=True)
class CostModel:
    """Named register-cycle costs for each step of the two loops.

    The *sum* of the input steps must equal the paper's 171 cycles and the
    output steps 109 cycles (Table 2); ``tests/test_ixp_params.py`` pins
    this so refactoring the breakdown cannot silently change totals.
    """

    # -- input loop (Figure 5) --------------------------------------------
    input_port_check: int = 8        # port_rdy(p): device CSR poll
    input_dma_issue: int = 4         # program the DMA state machine
    input_mp_addr_calc: int = 8      # calculate_mp_addr()
    input_fifo_to_regs: int = 32     # copy reg_mp_data <- IN_FIFO[c]
    input_classify: int = 57         # hash + route-cache probe + validation
    input_null_forwarder: int = 24   # the trivial forwarder (dst MAC patch)
    input_enqueue: int = 20          # queue bookkeeping register work
    input_loop_overhead: int = 18    # branch/loop/counter maintenance

    # -- output loop (Figure 6) --------------------------------------------
    output_token: int = 2            # acquire+release output mutex
    output_select_queue: int = 12    # select_queue()
    output_dequeue: int = 14         # dequeue() register work
    output_mp_addr: int = 8          # first_mp()/next_mp()
    output_fifo_addr: int = 4        # calculate_fifo_addr()
    output_dram_issue: int = 4       # issue the two DRAM reads
    output_fifo_copy: int = 44       # stage MP through the FIFO registers
    output_enable_slot: int = 6      # enable IN_FIFO[fifo_addr]
    output_loop_overhead: int = 15   # branch/loop maintenance

    # Discipline-variant costs (not part of the Table 2 totals, which were
    # measured for configuration I.2 + O.1).  Batching (O.1) replaces the
    # full select/dequeue work with cheap in-register bookkeeping for all
    # but the first packet of a batch; the multi-queue discipline (O.3)
    # pays extra scan work after reading the readiness bit-array.
    output_select_batched: int = 2
    output_dequeue_batched: int = 4
    output_select_multi_extra: int = 8

    @property
    def input_register_total(self) -> int:
        return (
            self.input_port_check + self.input_dma_issue + self.input_mp_addr_calc
            + self.input_fifo_to_regs + self.input_classify + self.input_null_forwarder
            + self.input_enqueue + self.input_loop_overhead
        )

    @property
    def output_register_total(self) -> int:
        return (
            self.output_token + self.output_select_queue + self.output_dequeue
            + self.output_mp_addr + self.output_fifo_addr + self.output_dram_issue
            + self.output_fifo_copy + self.output_enable_slot + self.output_loop_overhead
        )


@dataclass(frozen=True)
class IXPParams:
    """The IXP1200 evaluation system (paper section 2.2)."""

    clock_hz: float = CLOCK_HZ
    num_microengines: int = 6
    contexts_per_me: int = 4
    fifo_slots: int = 16

    # Memory system (Table 3 latencies; occupancy derived from the data
    # path widths in section 2.2: DRAM 64-bit x 100 MHz, SRAM 32-bit x
    # 100 MHz, Scratch on-chip).  One 100 MHz bus cycle = 2 ME cycles.
    # Occupancy notes: DRAM moves 32 bytes over a 64-bit x 100 MHz path
    # (4 bus cycles = 8 ME cycles); SRAM/Scratch 4-byte accesses cost ~2
    # bus cycles including the command phase (4 ME cycles) -- this is the
    # value that also reproduces the paper's VRP budget of 24 SRAM
    # transfers per MP at line rate (section 4.3).
    dram: MemoryTiming = field(default_factory=lambda: MemoryTiming(32, 52, 40, 8))
    sram: MemoryTiming = field(default_factory=lambda: MemoryTiming(4, 22, 22, 4))
    scratch: MemoryTiming = field(default_factory=lambda: MemoryTiming(4, 16, 20, 4))

    # IX bus: 64-byte MP = 512 bits over 64-bit x 66 MHz = ~121 ns = ~24
    # cycles at 200 MHz.  Both FIFO DMA directions share it (4 Gbps peak).
    ix_bus_mp_cycles: int = 24

    # Context swap on a MicroEngine (hardware contexts, ~zero cost; one
    # cycle covers the pipeline restart).
    context_swap_cycles: int = 1

    # Hardware inter-thread signalling is on-chip and single-cycle.
    signal_cycles: int = 1

    # ISTORE: 4 KB per MicroEngine = 1K instructions; the fixed RI +
    # classifier leave 650 slots for extensions (section 4.3).
    istore_instructions: int = 1024
    istore_free_for_extensions: int = 650

    # DRAM buffer pool: 16 MB as 8192 x 2 KB circular buffers (3.2.3).
    buffer_count: int = 8192
    buffer_bytes: int = 2048

    cost: CostModel = field(default_factory=CostModel)

    @property
    def total_contexts(self) -> int:
        return self.num_microengines * self.contexts_per_me

    @property
    def cycle_ns(self) -> float:
        return 1e9 / self.clock_hz

    def pps(self, packets: int, cycles: int) -> float:
        """Packets/second given packets forwarded over a cycle window."""
        if cycles <= 0:
            return 0.0
        return packets * self.clock_hz / cycles


DEFAULT_PARAMS = IXPParams()
