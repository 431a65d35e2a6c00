"""Tests for per-packet milestones."""

from repro import Router
from repro.net.traffic import take, uniform_flood
from repro.obs.analysis import build_journeys


def booted():
    router = Router()
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)
    return router


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
