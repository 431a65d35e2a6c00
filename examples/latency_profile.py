#!/usr/bin/env python
"""Profiling packet latency through the processor hierarchy.

The router's recorder logs every packet at each pipeline station
(MAC in, classify, enqueue, dequeue, MAC out, plus the StrongARM and
Pentium hops of exceptional packets).  This example contrasts the fast
path (a few microseconds end to end) with the exceptional path through
the StrongARM, and prints one packet's full journey -- the kind of
visibility the simulator offers that the real hardware made painful.
"""

from repro import Router
from repro.net.packet import make_tcp_packet
from repro.net.traffic import take, uniform_flood
from repro.obs.analysis import CLOCK_HZ, build_journeys, latency_report


def main() -> None:
    router = Router()
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)
    recorder = router.enable_observability()

    fast = take(uniform_flood(20, num_ports=4), 20)
    router.warm_route_cache([p.ip.dst for p in fast])     # fast path
    # Destinations nobody warmed: route-cache misses climb to the SA.
    cold = [
        make_tcp_packet("172.16.0.9", f"10.2.200.{i + 1}", 9000 + i, 80)
        for i in range(5)
    ]

    router.inject(0, iter(fast))
    router.inject(1, iter(cold))
    router.run(2_000_000)

    # Latency is mac_in -> mac_out, in cycles of the 200 MHz chip clock.
    paths = latency_report(recorder)["paths"]
    fast_path, slow_path = paths["fastpath"], paths["sa_local"]

    print("=== pipeline latency profile ===")
    for label, block in (("fast path", fast_path), ("exceptional path", slow_path)):
        e2e = block["end_to_end"]
        print(f"{label + ':':<18}n={block['packets']}  p50={e2e['p50']:.0f} cyc  "
              f"mean={e2e['mean'] / CLOCK_HZ * 1e6:.2f} us")
    print("\nmean stage gaps (fast path, cycles):")
    for stage in fast_path["stage_order"]:
        print(f"  {stage:<32} {fast_path['stages'][stage]['mean']:8.0f}")

    print("\none exceptional packet's journey:")
    journeys = build_journeys(recorder.events).values()
    slow = next(j for j in journeys if j.path == "sa_local")
    print(f"packet #{slow.packet_id} ({slow.path})")
    origin = slow.events[0].cycle
    for event in slow.events:
        delta = event.cycle - origin
        print(f"  +{delta:>7} cyc ({delta / CLOCK_HZ * 1e6:8.2f} us)  "
              f"{event.event:<12} {event.component:<10} {event.detail}")
    assert slow_path["end_to_end"]["mean"] > fast_path["end_to_end"]["mean"]


if __name__ == "__main__":
    main()
