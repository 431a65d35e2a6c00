"""Tests for trace capture/replay and per-packet milestones."""

import io

import pytest

from repro import Router, RouterConfig
from repro.net.trace import TraceCapture, TraceRecord, load_trace, replay, save_trace
from repro.net.traffic import flow_stream, take, uniform_flood
from repro.obs.analysis import build_journeys


def booted():
    router = Router()
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)
    return router


# -- trace format -----------------------------------------------------------------


def make_records(n=5):
    packets = take(uniform_flood(n, num_ports=4), n)
    return [
        TraceRecord(timestamp=i * 1000, port=i % 3, frame=p.to_bytes())
        for i, p in enumerate(packets)
    ]


def test_trace_roundtrip_in_memory():
    records = make_records()
    buffer = io.BytesIO()
    assert save_trace(buffer, records) == 5
    buffer.seek(0)
    loaded = load_trace(buffer)
    assert loaded == records


def test_trace_roundtrip_on_disk(tmp_path):
    path = str(tmp_path / "flows.rprt")
    records = make_records(3)
    save_trace(path, records)
    assert load_trace(path) == records


def test_trace_record_parses_packet():
    record = make_records(1)[0]
    packet = record.parse()
    assert packet.arrival_port == record.port
    assert packet.to_bytes() == record.frame


def test_trace_rejects_garbage():
    with pytest.raises(ValueError):
        load_trace(io.BytesIO(b"NOPE" + b"\x00" * 10))
    with pytest.raises(ValueError):
        load_trace(io.BytesIO(b""))
    good = io.BytesIO()
    save_trace(good, make_records(2))
    truncated = io.BytesIO(good.getvalue()[:-5])
    with pytest.raises(ValueError):
        load_trace(truncated)


def test_save_trace_names_the_field_it_cannot_encode(tmp_path):
    good = make_records(2)
    frame = good[0].frame
    for field, bad in (
        ("port", TraceRecord(0, 0x10000, frame)),
        ("port", TraceRecord(0, -1, frame)),
        ("timestamp", TraceRecord(-1, 0, frame)),
        ("timestamp", TraceRecord(1 << 64, 0, frame)),
        ("frame length", TraceRecord(0, 0, b"x" * 0x10000)),
    ):
        buffer = io.BytesIO()
        with pytest.raises(ValueError, match=f"record 2: {field} "):
            save_trace(buffer, good + [bad])
        assert buffer.getvalue() == b""  # checked before the header is written
    path = tmp_path / "bad.rprt"
    with pytest.raises(ValueError):
        save_trace(str(path), [TraceRecord(-1, 0, frame)])
    assert not path.exists()


def test_replay_rejects_a_port_the_router_lacks():
    router = Router(RouterConfig(num_ports=4))
    records = [TraceRecord(0, 3, make_records(1)[0].frame),
               TraceRecord(1000, 7, make_records(1)[0].frame)]
    with pytest.raises(ValueError, match="record 1: port 7 .* 4 ports"):
        replay(router, records)
    router.run(50_000)  # nothing was spawned for the rejected trace


def test_replay_delivers_at_recorded_times():
    router = booted()
    packets = take(uniform_flood(4, num_ports=2), 4)
    router.warm_route_cache([p.ip.dst for p in packets])
    records = [
        TraceRecord(timestamp=20_000 * i, port=4, frame=p.to_bytes())
        for i, p in enumerate(packets)
    ]
    replay(router, records)
    router.run(900_000)
    out = router.transmitted()
    assert len(out) == 4
    arrivals = sorted(p.meta["t_arrived"] for p in out)
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert all(abs(g - 20_000) < 500 for g in gaps)


def test_capture_records_egress():
    router = booted()
    capture = TraceCapture(router.sim, [router.ports[1]])
    packets = take(flow_stream(5, out_port=1, payload_len=6), 5)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(0, iter(packets))
    router.run(900_000)
    assert len(capture) == 5
    assert all(r.port == 1 for r in capture.records)
    times = [r.timestamp for r in capture.records]
    assert times == sorted(times)
    # Captured frames parse back into the (TTL-decremented) packets.
    parsed = capture.records[0].parse()
    assert parsed.ip.ttl == 63


def test_capture_save(tmp_path):
    router = booted()
    capture = TraceCapture(router.sim, router.ports)
    packets = take(uniform_flood(4, num_ports=4), 4)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(9, iter(packets))
    router.run(900_000)
    path = str(tmp_path / "egress.rprt")
    assert capture.save(path) == 4
    assert len(load_trace(path)) == 4


# -- per-packet milestones -----------------------------------------------------------


def test_milestones_recorded_in_order():
    router = booted()
    recorder = router.enable_observability()
    packets = take(uniform_flood(6, num_ports=3), 6)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(9, iter(packets))
    router.run(900_000)
    out = router.transmitted()
    assert len(out) == 6
    journeys = build_journeys(recorder.events)
    for packet in out:
        journey = journeys[packet.meta["trace_id"]]
        assert [e.event for e in journey.events] == [
            "mac_in", "classify", "enqueue", "dequeue", "mac_out"]
        cycles = [e.cycle for e in journey.events]
        assert packet.meta["t_arrived"] <= cycles[0]
        assert cycles == sorted(cycles)


def test_exceptional_packet_timeline_includes_strongarm():
    router = booted()
    recorder = router.enable_observability()
    packets = take(uniform_flood(2, num_ports=1), 2)  # cold cache -> SA
    router.inject(9, iter(packets))
    router.run(2_000_000)
    out = router.transmitted()
    assert out
    timeline = recorder.packet_timeline(out[0].meta["trace_id"])
    stations = [(e.component, e.event) for e in timeline]
    assert ("strongarm", "sa_dispatch") in stations
    assert stations[-1] == ("chip", "mac_out")
    assert build_journeys(timeline)[out[0].meta["trace_id"]].path == "sa_local"
