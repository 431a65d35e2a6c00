"""Smoke tests for the experiment workbench (fast, small windows).

The benchmarks run these at full fidelity; here we pin the interfaces
and the coarse shapes so refactoring cannot silently break the harness.
"""

from dataclasses import replace

import pytest

from repro.ixp import workbench
from repro.ixp.chip import ChipConfig, IXP1200
from repro.ixp.params import DEFAULT_PARAMS
from repro.ixp.queues import InputDiscipline, OutputDiscipline
from repro.ixp.workbench import (
    WARMUP_CYCLES,
    figure7_series,
    figure9_series,
    figure10_series,
    measure_dram_direct_system,
    measure_input_rate,
    measure_output_rate,
    measure_system_rate,
    me_split_sweep,
    table1_rows,
)

TINY = 50_000


def test_measure_input_rate_returns_pps():
    rate = measure_input_rate(window=TINY)
    assert 2e6 < rate < 5e6


def test_measure_output_rate_returns_pps():
    rate = measure_output_rate(window=TINY)
    assert 2e6 < rate < 5e6


def test_measure_system_rate_measurement_fields():
    m = measure_system_rate(window=TINY)
    assert m.output_pps > 0
    assert m.window_cycles == pytest.approx(TINY, abs=500)
    assert m.input_mps >= m.input_packets
    assert 0 <= m.dram_utilization <= 1


def test_table1_has_all_six_rows():
    rows = table1_rows(window=TINY)
    assert len(rows) == 6
    assert all(0.5 < v < 6 for v in rows.values())


def test_figure7_respects_fifo_slot_limit():
    inputs, outputs = figure7_series(context_counts=[4, 20], window=TINY)
    assert 4 in inputs and 20 not in inputs  # >16 impossible for input
    assert 20 in outputs


def test_figure9_flavours():
    series = figure9_series(block_counts=[0, 16], window=TINY)
    assert set(series) == {"10 register instr", "4B SRAM read", "10 reg + 4B SRAM"}
    for flavour in series.values():
        assert flavour[16] < flavour[0]


def test_figure10_returns_microseconds():
    series = figure10_series(block_counts=[0], window=TINY)
    free, jam = series[0]
    assert 0.1 < free < 1.0
    assert jam > free


def test_dram_direct_saturates():
    m = measure_dram_direct_system(window=TINY)
    assert m.dram_utilization > 0.9


def test_me_split_sweep_shapes():
    results = me_split_sweep(window=TINY, splits=[(2, 4), (4, 2)])
    assert results[(4, 2)] > results[(2, 4)]
    with pytest.raises(ValueError):
        me_split_sweep(window=TINY, splits=[(5, 1)])


# -- the measurement memo ----------------------------------------------------

SHORT = 10_000


@pytest.fixture
def built(monkeypatch):
    """An empty measurement memo, and the ``(config, params)`` of every
    chip the workbench builds from here on."""
    monkeypatch.setattr(workbench, "_MEASUREMENTS", {})
    chips = []

    class CountedChip(IXP1200):
        def __init__(self, config, params=DEFAULT_PARAMS):
            chips.append((config, params))
            super().__init__(config, params=params)

    monkeypatch.setattr(workbench, "IXP1200", CountedChip)
    return chips


def test_table1_and_figure7_simulate_each_configuration_once(built):
    """Table 1's I.2 and O.1 rows are Figure 7's 16-input and 8-output
    points: 18 chips, not 20, and the shared values are those of fresh
    runs of the same configurations."""
    rows = table1_rows(window=SHORT)
    inputs, outputs = figure7_series(window=SHORT)
    assert len(built) == 18
    assert inputs[16] == rows["I.2 protected public queues no contention"]
    assert outputs[8] == rows["O.1 single queue with batching"]

    def fresh(config):
        return IXP1200(config).measure(window=SHORT, warmup=WARMUP_CYCLES)

    in16 = next(c for c, __ in built if c.input_only and c.input_contexts == 16
                and c.input_discipline is InputDiscipline.PROTECTED
                and c.synthetic_pattern == "uniform")
    out8 = next(c for c, __ in built if c.output_only and c.output_contexts == 8
                and c.output_discipline is OutputDiscipline.SINGLE_BATCHED)
    assert inputs[16] == fresh(in16).input_pps / 1e6
    m = fresh(out8)
    assert outputs[8] == DEFAULT_PARAMS.pps(m.output_packets, m.window_cycles) / 1e6


def test_one_differing_field_is_a_different_measurement(built):
    """The key is the whole configuration, the parameters and the window:
    change any one and the chip is simulated again."""
    config = ChipConfig(input_mes=2, output_mes=1)
    base = workbench._measure(config, DEFAULT_PARAMS, SHORT)
    assert workbench._measure(config, DEFAULT_PARAMS, SHORT) is base
    assert len(built) == 1
    workbench._measure(replace(config, queue_capacity=64), DEFAULT_PARAMS, SHORT)
    workbench._measure(config, replace(DEFAULT_PARAMS, ix_bus_mp_cycles=30), SHORT)
    workbench._measure(config, DEFAULT_PARAMS, SHORT + 1_000)
    assert len(built) == 4


def test_me_split_sweep_reuses_the_system_rate(built):
    m = measure_system_rate(window=SHORT)
    assert me_split_sweep(window=SHORT, splits=[(4, 2)]) == {(4, 2): m.output_pps}
    assert len(built) == 1
