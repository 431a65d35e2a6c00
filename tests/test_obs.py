"""The observability layer: recorder, export, determinism, profile.

The contract under test (docs/observability.md):

* the null recorder is a true no-op -- a simulation with observability
  left disabled is bit-identical to one that predates the subsystem;
* a live recorder's event stream is deterministic: same seed/scenario,
  same trace hash, across runs and across both schedulers;
* every export path emits *valid* JSON -- no ``Infinity``/``NaN``.
"""

import json

import pytest

from repro.engine import Simulator
from repro.ixp.chip import ChipConfig, IXP1200
from repro.ixp.programs import TimedVRP
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    RingBuffer,
    TraceEvent,
    dumps,
    sanitize,
    trace_hash,
    trace_to_csv,
)


# ---------------------------------------------------------------------------
# Ring buffer
# ---------------------------------------------------------------------------


def test_ring_buffer_keeps_insertion_order():
    ring = RingBuffer(4)
    for i in range(3):
        ring.append(i)
    assert ring.to_list() == [0, 1, 2]
    assert ring.dropped == 0


def test_ring_buffer_overwrites_oldest_and_counts_drops():
    ring = RingBuffer(3)
    for i in range(7):
        ring.append(i)
    assert ring.to_list() == [4, 5, 6]
    assert ring.dropped == 4
    assert len(ring) == 3


def test_ring_buffer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        RingBuffer(0)


# ---------------------------------------------------------------------------
# Null recorder
# ---------------------------------------------------------------------------


def test_null_recorder_is_disabled_and_inert():
    assert NULL_RECORDER.enabled is False
    assert isinstance(NULL_RECORDER, NullRecorder)
    # All hooks are no-ops and allocate no per-call state.
    NULL_RECORDER.record(0, "x", "y")
    NULL_RECORDER.account("x", "busy", 10)
    NULL_RECORDER.metrics.sample("queue1.depth", 0, 2)
    assert NULL_RECORDER.metrics.series("queue1.depth") == []
    assert NULL_RECORDER.packet_id(object()) is None
    assert not hasattr(NULL_RECORDER, "__dict__")  # __slots__ = ()


def test_simulation_objects_default_to_the_null_recorder():
    chip = IXP1200(ChipConfig())
    assert chip.recorder is NULL_RECORDER
    assert chip.sim.recorder is NULL_RECORDER
    assert chip.bank.recorder is NULL_RECORDER
    assert all(me.recorder is NULL_RECORDER for me in chip.engines)


def test_disabled_run_matches_pre_observability_behaviour():
    """With the recorder never enabled, the measurement must be identical
    to a second disabled run -- no hidden state leaks through hooks."""

    def run():
        chip = IXP1200(ChipConfig(vrp=TimedVRP.blocks(2)))
        m = chip.measure(window=15_000, warmup=5_000)
        return (m.input_mps, m.output_mps, chip.sim._events_processed)

    assert run() == run()


# ---------------------------------------------------------------------------
# Live recorder
# ---------------------------------------------------------------------------


def test_recorder_records_events_and_accounting():
    rec = Recorder(capacity=16)
    rec.record(10, "me0.ctx0", "mac_in", packet_id=0, detail=3)
    rec.record(20, "chip", "mac_out", packet_id=0)
    rec.account("me0.ctx0", "busy", 100)
    rec.account("me0.ctx0", "busy", 50)
    rec.metrics.sample("queue2.depth", 15, 4)
    assert rec.events.to_list() == [
        TraceEvent(10, "me0.ctx0", "mac_in", 0, 3),
        TraceEvent(20, "chip", "mac_out", 0, None),
    ]
    assert rec.accounting["me0.ctx0"]["busy"] == 150
    assert rec.metrics.series("queue2.depth") == [(15, 4.0)]
    assert rec.packet_timeline(0) == rec.events.to_list()
    assert rec.stage_summary() == {("me0.ctx0", "mac_in"): 1, ("chip", "mac_out"): 1}


def test_recorder_packet_ids_are_stable_and_sequential():
    class FakePacket:
        def __init__(self):
            self.meta = {}

    rec = Recorder()
    a, b = FakePacket(), FakePacket()
    assert rec.packet_id(a) == 0
    assert rec.packet_id(b) == 1
    assert rec.packet_id(a) == 0  # memoized in packet.meta
    assert rec.packet_id(None) is None


def test_recorder_utilization_derives_idle_remainder():
    rec = Recorder()
    rec.account("me0", "busy", 600)
    util = rec.utilization(1000)
    assert util["me0"]["busy"] == pytest.approx(0.6)
    assert util["me0"]["idle"] == pytest.approx(0.4)
    assert rec.utilization(0) == {}


def test_recorder_exposes_dropped_events():
    """Eviction blindness fix: a wrapped ring is visible on the recorder
    and in every export, so truncated analyses are flagged, not wrong."""
    rec = Recorder(capacity=2)
    for cycle in range(5):
        rec.record(cycle, "chip", "mac_in", packet_id=cycle)
    assert rec.dropped_events == 3
    doc = rec.to_dict()
    assert doc["dropped_events"] == 3
    assert NULL_RECORDER.dropped_events == 0


def test_profile_notes_flag_truncated_trace():
    from repro.obs.profile import profile_scenario

    result = profile_scenario("fastpath", window=20_000, warmup=5_000,
                              trace_capacity=8)
    assert result.trace["dropped_events"] > 0
    assert any("truncated" in note for note in result.notes)
    assert "truncated" in result.table()


def test_recorder_queue_depth_stats():
    """Queue depths are one series family in the recorder's store, so the
    store's one summary covers them."""
    rec = Recorder()
    for cycle, depth in [(0, 1), (10, 3), (20, 2)]:
        rec.metrics.sample("queue7.depth", cycle, depth)
    assert rec.metrics.summary()["queue7.depth"] == {
        "samples": 3.0, "mean": 2.0, "max": 3.0, "last": 2.0}


# ---------------------------------------------------------------------------
# Export: sanitization, CSV, hashing
# ---------------------------------------------------------------------------


def test_sanitize_replaces_non_finite_floats():
    doc = {
        "ok": 1.5,
        "inf": float("inf"),
        "ninf": float("-inf"),
        "nan": float("nan"),
        "nested": [float("inf"), {"deep": float("nan")}],
        "tuple": (1, float("inf")),
        3: "int-key",
    }
    clean = sanitize(doc)
    assert clean["ok"] == 1.5
    assert clean["inf"] is None and clean["ninf"] is None and clean["nan"] is None
    assert clean["nested"] == [None, {"deep": None}]
    assert clean["tuple"] == [1, None]
    assert clean["3"] == "int-key"


def test_dumps_always_emits_valid_json():
    text = dumps({"spare": float("inf"), "rate": float("nan")})
    assert "Infinity" not in text and "NaN" not in text
    assert json.loads(text) == {"spare": None, "rate": None}


def test_trace_to_csv():
    events = [
        TraceEvent(1, "me0.ctx0", "mac_in", 0, 3),
        TraceEvent(2, "chip", "mac_out", 0, None),
    ]
    lines = trace_to_csv(events).splitlines()
    assert lines[0] == "cycle,component,event,packet_id,detail"
    assert lines[1] == "1,me0.ctx0,mac_in,0,3"
    assert len(lines) == 3


def test_trace_hash_sensitive_to_content():
    e = TraceEvent(1, "a", "b", None, None)
    assert trace_hash([e]) == trace_hash([e])
    assert trace_hash([e]) != trace_hash([e._replace(cycle=2)])
    assert trace_hash([]) == trace_hash([])


# ---------------------------------------------------------------------------
# Determinism: the trace is part of the reproducibility contract
# ---------------------------------------------------------------------------


def _traced_chip_hash(scheduler: str, until: int = 12_000) -> str:
    sim = Simulator(scheduler=scheduler)
    chip = IXP1200(ChipConfig(vrp=TimedVRP.blocks(4)), sim=sim)
    rec = chip.enable_observability(Recorder(), sample_period=1_000)
    sim.run(until=until)
    return trace_hash(rec.events.to_list())


def test_trace_hash_identical_across_runs():
    assert _traced_chip_hash("calendar") == _traced_chip_hash("calendar")


def test_trace_hash_identical_across_schedulers():
    assert _traced_chip_hash("calendar") == _traced_chip_hash("heap")


def test_trace_hash_golden():
    """Pinned alongside the golden paper numbers: any change to event
    ordering, hook placement, or the canonical hash encoding shows up
    here first.  If an *intentional* instrumentation change lands,
    re-pin the value (see docs/observability.md)."""
    assert _traced_chip_hash("calendar") == (
        "d1a3d2cacf452f1d326229ba7880794a15a8eb6a7c07aba7499f680e10de502f"
    )


def test_router_trace_hash_identical_across_runs():
    from repro.obs.profile import profile_scenario

    a = profile_scenario("router", window=30_000, warmup=8_000)
    b = profile_scenario("router", window=30_000, warmup=8_000)
    assert a.trace_hash == b.trace_hash
    assert a.throughput == b.throughput


# ---------------------------------------------------------------------------
# Profile scenarios and CLI
# ---------------------------------------------------------------------------


def test_profile_fastpath_measures_table2_pattern():
    from repro.obs.profile import profile_scenario

    result = profile_scenario("fastpath", window=40_000, warmup=10_000)
    stages = {row["stage"]: row for row in result.stages}
    assert stages["input"]["register_cycles_model"] == 171
    assert stages["output"]["register_cycles_model"] == 109
    # Table 2's per-MP memory pattern: input DRAM 0r/2w, SRAM 2r/1w.
    refs = stages["input"]["refs_per_mp"]
    assert refs.get("dram.read", 0.0) == pytest.approx(0.0)
    assert refs["dram.write"] == pytest.approx(2.0, rel=0.05)
    assert refs["sram.read"] == pytest.approx(2.0, rel=0.05)
    assert refs["sram.write"] == pytest.approx(1.0, rel=0.05)
    assert result.trace["dropped_events"] == 0
    table = result.table()
    assert "input" in table and "171" in table


def test_profile_router_traces_full_lifecycle():
    from repro.obs.profile import profile_scenario

    result = profile_scenario("router", window=60_000, warmup=15_000)
    events = {tuple(e)[2] for e in result.trace["events"]}
    assert {"mac_in", "classify", "enqueue", "dequeue", "mac_out"} <= events
    doc = json.loads(result.to_json())
    assert doc["scenario"] == "router"
    assert doc["trace"]["events"]


def test_profile_unknown_scenario_raises():
    from repro.obs.profile import profile_scenario

    with pytest.raises(ValueError, match="unknown profile scenario"):
        profile_scenario("warp-speed")


@pytest.mark.parametrize("window,warmup", [(40_000, 10_000), (5_000, 20_000)])
@pytest.mark.parametrize("name", ["fastpath", "vrp", "router", "overload"])
def test_profile_utilization_covers_the_window_only(name, window, warmup):
    """Opening the window resets no counter the sampler differences: no
    utilization sample goes negative; every component's fractions, the
    engine contexts' and hosts' included, lie in [0, 1] and add up to 1
    even for a window shorter than the warm-up; and each engine's busy
    fraction is its exact busy-cycle movement over the window, warm-up
    excluded."""
    from repro.obs.profile import build_scenario, profile_scenario

    result = profile_scenario(name, window=window, warmup=warmup)
    for series in result.trace["metrics"]["series"].values():
        assert all(value >= 0 for __, value in series)
    assert "me0.ctx0" in result.utilization
    for fractions in result.utilization.values():
        assert all(0.0 <= value <= 1.0 for value in fractions.values())
        assert sum(fractions.values()) == pytest.approx(1.0)

    # The same run replayed by hand, reading the engines when the window
    # opens and when it closes.
    run = build_scenario(name)
    chip, sim = run.chip, run.sim
    opened = {}

    def open_window():
        chip.settle(sim.now)
        opened.update((me.me_id, me.busy_cycles) for me in chip.engines)

    sim.schedule(warmup, open_window)
    sim.run(until=warmup + window)
    chip.settle(sim.now + 1)
    for me in chip.engines:
        if me.contexts:
            exact = (me.busy_cycles - opened[me.me_id]) / window
            assert result.utilization[f"me{me.me_id}"]["busy"] == exact


def test_profile_cli_writes_valid_trace_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.json"
    assert main(["profile", "fastpath", "--window", "20000",
                 "--trace-out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "per-stage cost per MP" in printed
    text = out.read_text()
    assert "Infinity" not in text and "NaN" not in text
    doc = json.loads(text)
    assert doc["scenario"] == "fastpath"
    assert doc["stages"] and doc["trace"]["events"]
