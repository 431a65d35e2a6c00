"""Trace analytics: journeys, percentiles, decomposition, Chrome export.

The load-bearing property: a packet's per-stage deltas are differences
of consecutive timestamps, so they sum *exactly* to its end-to-end
latency -- and per-path mean decompositions therefore sum to the mean
end-to-end latency.  Verified both on synthetic traces and on a real
router scenario run.
"""

import json

import pytest

from repro.obs.analysis import (
    build_journeys,
    latency_report,
    percentile,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.recorder import Recorder, TraceEvent


def _event(cycle, component, event, pid=0, detail=None):
    return TraceEvent(cycle, component, event, pid, detail)


def _fastpath_trace(pid=0, base=0):
    return [
        _event(base + 0, "me0.ctx0", "mac_in", pid),
        _event(base + 50, "me0.ctx0", "classify", pid),
        _event(base + 120, "queue3", "enqueue", pid),
        _event(base + 400, "me4.ctx0", "dequeue", pid, 280),
        _event(base + 500, "chip", "mac_out", pid),
    ]


# ---------------------------------------------------------------------------
# Journeys
# ---------------------------------------------------------------------------


def test_build_journeys_groups_by_packet_and_classifies_path():
    events = _fastpath_trace(pid=0) + _fastpath_trace(pid=1, base=1000)
    journeys = build_journeys(events)
    assert set(journeys) == {0, 1}
    assert journeys[0].complete and journeys[0].path == "fastpath"
    assert journeys[0].end_to_end == 500
    assert journeys[1].end_to_end == 500


def test_journey_transitions_sum_exactly_to_end_to_end():
    journey = build_journeys(_fastpath_trace())[0]
    deltas = journey.transitions()
    assert [name for name, __ in deltas] == [
        "mac_in->classify", "classify->enqueue", "enqueue->dequeue",
        "dequeue->mac_out",
    ]
    assert sum(d for __, d in deltas) == journey.end_to_end


def test_journey_critical_transition_is_the_largest_delta():
    journey = build_journeys(_fastpath_trace())[0]
    assert journey.critical_transition() == ("enqueue->dequeue", 280)


def test_slow_path_classification():
    events = [
        _event(0, "me0.ctx0", "mac_in"),
        _event(40, "me0.ctx0", "classify"),
        _event(90, "chip", "to_sa"),
        _event(300, "strongarm", "sa_dispatch"),
        _event(900, "chip", "requeue"),
        _event(950, "queue0", "enqueue"),
        _event(1200, "me4.ctx0", "dequeue", 0, 250),
        _event(1300, "chip", "mac_out"),
    ]
    journey = build_journeys(events)[0]
    assert journey.path == "sa_local"
    pentium = [e._replace(event="to_pentium") if e.event == "to_sa" else e
               for e in events]
    assert build_journeys(pentium)[0].path == "pentium"


def test_dropped_and_partial_journeys():
    events = [
        _event(0, "me0.ctx0", "mac_in", 0),
        _event(50, "chip", "drop", 0, 3),
        _event(0, "me0.ctx0", "mac_in", 1),
        _event(40, "me0.ctx0", "classify", 1),
    ]
    journeys = build_journeys(events)
    assert journeys[0].path == "dropped" and journeys[0].dropped_at == "drop"
    assert journeys[1].path == "partial" and not journeys[1].complete


def test_stale_timestamps_are_discarded_not_poisoning_deltas():
    events = _fastpath_trace()
    # A stale-stamped event riding in the middle (e.g. an old descriptor).
    events.insert(3, _event(10, "queue1", "enqueue", 0))
    journey = build_journeys(events)[0]
    assert journey.discarded == 1
    assert journey.end_to_end == 500
    assert all(delta >= 0 for __, delta in journey.transitions())


def test_events_without_packet_id_are_ignored():
    events = _fastpath_trace() + [TraceEvent(5, "sim", "spawn", None, "x")]
    journeys = build_journeys(events)
    assert set(journeys) == {0}


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def test_percentile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == pytest.approx(25.0)
    assert percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# ---------------------------------------------------------------------------
# The latency report
# ---------------------------------------------------------------------------


def _recorder_with(events):
    rec = Recorder()
    for e in events:
        rec.events.append(e)
    return rec


def test_latency_report_decomposition_sums_to_end_to_end():
    rec = _recorder_with(
        _fastpath_trace(pid=0)
        + _fastpath_trace(pid=1, base=2000)
        + _fastpath_trace(pid=2, base=5000)
    )
    report = latency_report(rec)
    block = report["paths"]["fastpath"]
    assert block["packets"] == 3
    assert block["stage_mean_sum"] == pytest.approx(block["end_to_end"]["mean"])
    assert not report["truncated"] and report["dropped_events"] == 0
    # Queueing decomposition picked up the dequeue wait details.
    assert report["queueing"]["overall"]["mean"] == pytest.approx(280.0)
    assert "queue3" in report["queueing"]["per_queue"]


def test_latency_report_flags_truncation():
    rec = Recorder(capacity=4)  # too small: evicts the packet starts
    for e in _fastpath_trace(pid=0) + _fastpath_trace(pid=1, base=2000):
        rec.events.append(e)
    report = latency_report(rec)
    assert report["truncated"] is True
    assert report["dropped_events"] == 6


def test_latency_report_on_real_router_scenario():
    """Acceptance criterion: the fastpath decomposition from a real run
    sums (within rounding) to end-to-end mac_in->mac_out latency."""
    from repro.obs.profile import profile_scenario

    result = profile_scenario("router", window=60_000, warmup=15_000)
    report = latency_report(_recorder_with(result.events))
    assert report["complete"] > 0
    block = report["paths"]["fastpath"]
    assert block["packets"] > 10
    assert block["stage_mean_sum"] == pytest.approx(
        block["end_to_end"]["mean"], rel=1e-9
    )
    # The canonical pipeline stages all appear in the decomposition.
    for stage in ("mac_in->classify", "classify->enqueue",
                  "enqueue->dequeue", "dequeue->mac_out"):
        assert stage in block["stages"], block["stage_order"]
    for stats in block["stages"].values():
        assert stats["p50"] <= stats["p90"] <= stats["p99"] <= stats["max"]


def test_latency_report_on_empty_recorder():
    report = latency_report(Recorder())
    assert report["packets"] == 0 and report["paths"] == {}
    assert report["queueing"]["overall"] is None


def _in_order(names, wanted):
    """True when ``wanted`` appears in ``names`` as an ordered subsequence."""
    it = iter(names)
    return all(w in it for w in wanted)


def test_real_run_journeys_on_all_three_switching_paths():
    """One traced router, three flows: a warm flow stays on the
    MicroEngines, a cold flow's route-cache misses climb to the
    StrongARM, and a flow bound to a Pentium forwarder crosses PCI and
    back.  Each path's journeys carry that path's stations in order."""
    from repro import Router
    from repro.core.forwarder import ForwarderSpec, Where
    from repro.net.traffic import flow_stream, take

    router = Router()
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)
    recorder = router.enable_observability()
    warm = take(flow_stream(5, out_port=1, payload_len=6), 5)
    cold = take(flow_stream(5, src="192.168.3.3", src_port=7001,
                            out_port=2, payload_len=6), 5)
    pentium = take(flow_stream(20, src="192.168.2.2", src_port=6001,
                               out_port=3, payload_len=6), 20)
    router.install(pentium[0].flow_key(),
                   ForwarderSpec(name="test-pe", where=Where.PE, cycles=1500,
                                 expected_pps=50_000.0))
    router.warm_route_cache([p.ip.dst for p in warm + pentium])
    router.inject(0, iter(warm))
    router.inject(1, iter(cold))
    router.inject(2, iter(pentium))
    router.run(2_000_000)

    assert recorder.dropped_events == 0
    by_path = {}
    for journey in build_journeys(recorder.events).values():
        by_path.setdefault(journey.path, []).append(journey)
    assert set(by_path) == {"fastpath", "sa_local", "pentium"}
    assert len(by_path["pentium"]) == 20
    # Every warm packet is fast; the cold flow splits between the
    # misses that reached the StrongARM and the hits after its fill.
    assert len(by_path["fastpath"]) >= 5
    assert len(by_path["fastpath"]) + len(by_path["sa_local"]) == 10

    for journey in by_path["fastpath"]:
        assert [e.event for e in journey.events] == [
            "mac_in", "classify", "enqueue", "dequeue", "mac_out"]
    for journey in by_path["sa_local"]:
        assert _in_order([e.event for e in journey.events],
                         ("to_sa", "sa_dispatch", "requeue"))
    for journey in by_path["pentium"]:
        assert _in_order([e.event for e in journey.events],
                         ("to_pentium", "pentium_in", "pentium_done"))
    for members in by_path.values():
        for journey in members:
            cycles = [e.cycle for e in journey.events]
            assert cycles == sorted(cycles) and journey.discarded == 0
            assert sum(d for __, d in journey.transitions()) == journey.end_to_end


# ---------------------------------------------------------------------------
# Chrome-trace export
# ---------------------------------------------------------------------------


def test_chrome_trace_is_valid_and_monotonic():
    events = _fastpath_trace(pid=0) + _fastpath_trace(pid=1, base=1000)
    doc = to_chrome_trace(events)
    assert validate_chrome_trace(doc) == []
    names = {e.get("name") for e in doc["traceEvents"]}
    assert "mac_in" in names and "enqueue->dequeue" in names
    # Packet tracks carry complete (X) events with durations in us.
    x_events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert x_events and all(e["dur"] >= 0 for e in x_events)
    # 200 MHz clock: 500 cycles == 2.5 us.
    packet0 = [e for e in x_events if e["pid"] == 2 and e["tid"] == 0]
    assert sum(e["dur"] for e in packet0) == pytest.approx(2.5)


def test_chrome_trace_export_of_real_scenario_validates():
    from repro.obs.profile import profile_scenario

    result = profile_scenario("router", window=40_000, warmup=10_000)
    doc = json.loads(result.to_chrome())
    assert validate_chrome_trace(doc) == []
    assert doc["traceEvents"]


def test_validate_chrome_trace_catches_problems():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad = {"traceEvents": [
        {"ph": "i", "pid": 1, "tid": 0, "ts": 10.0, "name": "a"},
        {"ph": "i", "pid": 1, "tid": 0, "ts": 5.0, "name": "b"},
        {"ph": "i", "pid": 1},
        "not-an-object",
    ]}
    problems = validate_chrome_trace(bad)
    assert any("runs backwards" in p for p in problems)
    assert any("numeric ts" in p for p in problems)
    assert any("not an object" in p for p in problems)


def test_profile_csv_export_matches_trace():
    from repro.obs.profile import profile_scenario

    result = profile_scenario("fastpath", window=20_000, warmup=5_000)
    lines = result.to_csv().splitlines()
    assert lines[0] == "cycle,component,event,packet_id,detail"
    assert len(lines) == 1 + len(result.events)
