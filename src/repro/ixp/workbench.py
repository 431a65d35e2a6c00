"""Experiment harness: one function per measurement the paper reports.

Each helper builds a fresh chip in the right configuration, runs it to
steady state, and returns packets-per-second.  The benchmark modules
under ``benchmarks/`` are thin wrappers over these functions, so every
table row and figure series can also be regenerated programmatically.

Each distinct configuration is simulated once per process: a chip run
depends only on its ``ChipConfig``, its ``IXPParams`` and the window, so
a repeat (Table 1's I.2 and O.1 rows are Figure 7's 16-input and
8-output points) returns the stored :class:`Measurement`.
"""

from __future__ import annotations

from dataclasses import astuple
from typing import Dict, List, Optional, Tuple

from repro.ixp.chip import ChipConfig, IXP1200, Measurement
from repro.ixp.params import DEFAULT_PARAMS, IXPParams
from repro.ixp.programs import TimedVRP
from repro.ixp.queues import InputDiscipline, OutputDiscipline

# Default measurement windows: long enough for steady state, short enough
# to keep the pure-Python event simulation quick.
WARMUP_CYCLES = 30_000
WINDOW_CYCLES = 250_000

HUGE_QUEUE = 1 << 30  # "infinite" queue capacity for stage-isolation runs

# Every measurement this process has simulated, by configuration.
_MEASUREMENTS: Dict[tuple, Measurement] = {}


def _measure(config: ChipConfig, params: IXPParams, window: int) -> Measurement:
    """Measure ``config`` on a fresh chip, or return the stored result of
    the same configuration, parameters and window."""
    key = (astuple(config), params, window)
    measurement = _MEASUREMENTS.get(key)
    if measurement is None:
        chip = IXP1200(config, params=params)
        measurement = chip.measure(window=window, warmup=WARMUP_CYCLES)
        _MEASUREMENTS[key] = measurement
    return measurement


def measure_input_rate(
    contexts: int = 16,
    discipline: InputDiscipline = InputDiscipline.PROTECTED,
    contention: bool = False,
    vrp: Optional[TimedVRP] = None,
    params: IXPParams = DEFAULT_PARAMS,
    window: int = WINDOW_CYCLES,
) -> float:
    """Input-stage-only forwarding rate in packets/second.

    ``contention=True`` directs every packet to the same queue (Table 1
    row I.3); otherwise packets round-robin across ports (rows I.1/I.2).
    """
    config = ChipConfig(
        input_contexts=contexts,
        input_discipline=discipline,
        output_discipline=OutputDiscipline.MULTI_INDIRECT
        if discipline is InputDiscipline.PRIVATE
        else OutputDiscipline.SINGLE_BATCHED,
        input_only=True,
        queue_capacity=HUGE_QUEUE,
        synthetic_pattern="single" if contention else "uniform",
        vrp=vrp,
    )
    return _measure(config, params, window).input_pps


def measure_output_rate(
    contexts: int = 8,
    discipline: OutputDiscipline = OutputDiscipline.SINGLE_BATCHED,
    params: IXPParams = DEFAULT_PARAMS,
    window: int = WINDOW_CYCLES,
) -> float:
    """Output-stage-only forwarding rate (queues never empty)."""
    config = ChipConfig(
        output_contexts=contexts,
        input_discipline=InputDiscipline.PROTECTED,
        output_discipline=discipline,
        output_only=True,
    )
    measurement = _measure(config, params, window)
    return params.pps(measurement.output_packets, measurement.window_cycles)


def measure_system_rate(
    vrp: Optional[TimedVRP] = None,
    params: IXPParams = DEFAULT_PARAMS,
    window: int = WINDOW_CYCLES,
) -> Measurement:
    """Full-pipeline rate with the paper's 4/2 MicroEngine split."""
    config = ChipConfig(input_mes=4, output_mes=2, vrp=vrp)
    return _measure(config, params, window)


def measure_dram_direct_system(
    params: IXPParams = DEFAULT_PARAMS,
    window: int = WINDOW_CYCLES,
) -> Measurement:
    """The section 3.5.2 ablation at full-system scope: ports transfer
    packets directly to/from DRAM, costing four DRAM passes per 64-byte
    MP (port->DRAM, DRAM->regs, regs->DRAM, DRAM->port).  The paper's
    early implementation 'saturated DRAM while forwarding 2.69 Mpps'."""
    config = ChipConfig(
        input_mes=4,
        output_mes=2,
        dram_direct=True,
    )
    return _measure(config, params, window)


def me_split_sweep(
    window: int = WINDOW_CYCLES,
    splits: Optional[List[Tuple[int, int]]] = None,
) -> Dict[Tuple[int, int], float]:
    """Full-system rate for each (input MEs, output MEs) partition.

    Figure 7 exists to justify the paper's static 4/2 split ("some
    insight into how a system that chooses not to use our 4/2
    MicroEngine breakdown might function"); this sweep measures the
    splits directly.  Input is capped at 4 engines by the 16 FIFO slots.
    """
    splits = splits or [(1, 5), (2, 4), (3, 3), (4, 2)]
    results: Dict[Tuple[int, int], float] = {}
    for input_mes, output_mes in splits:
        if input_mes * 4 > 16:
            raise ValueError("input stage is limited to 16 contexts (FIFO slots)")
        config = ChipConfig(input_mes=input_mes, output_mes=output_mes)
        results[(input_mes, output_mes)] = _measure(config, DEFAULT_PARAMS, window).output_pps
    return results


def table1_rows(window: int = WINDOW_CYCLES) -> Dict[str, float]:
    """All six Table 1 measurements, in Mpps."""
    rows = {
        "I.1 private queues in regs": measure_input_rate(
            discipline=InputDiscipline.PRIVATE, window=window
        ),
        "I.2 protected public queues no contention": measure_input_rate(
            discipline=InputDiscipline.PROTECTED, window=window
        ),
        "I.3 protected public queues max contention": measure_input_rate(
            discipline=InputDiscipline.PROTECTED, contention=True, window=window
        ),
        "O.1 single queue with batching": measure_output_rate(
            discipline=OutputDiscipline.SINGLE_BATCHED, window=window
        ),
        "O.2 single queue without batching": measure_output_rate(
            discipline=OutputDiscipline.SINGLE_UNBATCHED, window=window
        ),
        "O.3 multiple queues with indirection": measure_output_rate(
            discipline=OutputDiscipline.MULTI_INDIRECT, window=window
        ),
    }
    return {name: pps / 1e6 for name, pps in rows.items()}


def figure7_series(
    context_counts: Optional[List[int]] = None,
    window: int = WINDOW_CYCLES,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Input-only and output-only rates vs context count (Figure 7).

    Only the minimum number of MicroEngines is used for each point, which
    reproduces the paper's 'dent' at low context counts.
    """
    context_counts = context_counts or [1, 2, 4, 8, 12, 16, 20, 24]
    input_series: Dict[int, float] = {}
    output_series: Dict[int, float] = {}
    for n in context_counts:
        if n <= 16:
            input_series[n] = measure_input_rate(contexts=n, window=window) / 1e6
        output_series[n] = measure_output_rate(contexts=n, window=window) / 1e6
    return input_series, output_series


def figure9_series(
    block_counts: Optional[List[int]] = None,
    window: int = WINDOW_CYCLES,
) -> Dict[str, Dict[int, float]]:
    """Forwarding rate vs number of VRP code blocks, for the three block
    flavours of Figure 9 (full system, no contention)."""
    block_counts = block_counts or [0, 8, 16, 32, 48, 64]
    flavours = {
        "10 register instr": lambda n: TimedVRP.blocks(n, reg_per_block=10, sram_reads_per_block=0),
        "4B SRAM read": lambda n: TimedVRP.blocks(n, reg_per_block=0, sram_reads_per_block=1),
        "10 reg + 4B SRAM": lambda n: TimedVRP.blocks(n, reg_per_block=10, sram_reads_per_block=1),
    }
    out: Dict[str, Dict[int, float]] = {}
    for name, make in flavours.items():
        series = {}
        for count in block_counts:
            m = measure_system_rate(vrp=make(count) if count else None, window=window)
            series[count] = m.output_pps / 1e6
        out[name] = series
    return out


def figure10_series(
    block_counts: Optional[List[int]] = None,
    window: int = WINDOW_CYCLES,
) -> Dict[int, Tuple[float, float]]:
    """Per-packet forwarding time (microseconds) with and without maximal
    queue contention, vs VRP blocks (Figure 10).

    The paper's contention workload sends all traffic to one protected
    queue, so the input stage's enqueue lock serializes (the Table 1 row
    I.3 situation); the figure shows the contention overhead being
    absorbed as the VRP budget grows.  Returns
    ``{blocks: (no_contention_us, with_contention_us)}``.
    """
    block_counts = block_counts or [0, 16, 32, 48, 64]
    out: Dict[int, Tuple[float, float]] = {}
    for count in block_counts:
        vrp = TimedVRP.blocks(count, reg_per_block=10, sram_reads_per_block=1) if count else None
        free = measure_input_rate(vrp=vrp, contention=False, window=window)
        jam = measure_input_rate(vrp=vrp, contention=True, window=window)
        out[count] = (1e6 / free, 1e6 / jam)
    return out
