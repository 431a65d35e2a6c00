"""Pins the modeled state every microengine loop path leaves behind.

The input and output loops (``repro.ixp.programs``) inline their memory
references, token passes and select steps in one generator frame, so
reordering a single yield or side effect can shift a timing without
failing any functional check.  Each case below runs one chip or router
configuration under both schedulers, asserts they agree, and compares a
sha256 of the modeled state with a committed digest: simulated time,
chip counters, each memory's busy cycles and access counts, engine busy
cycles (settled the way readers settle a parked stage), token-ring
rotations and, for routers, per-port transmit counts.  The number of
events the engine processed is pinned exactly beside it, in ``EVENTS``:
it is the simulator's cost, not modeled state, so a change that only
skips events re-pins that table and leaves the digests alone.

Between them the cases reach every loop path: the six Table 1 rows
(I.1's private enqueue, I.2/I.3's locked public enqueue, and the
batched, unbatched and bit-array output selects), a full chip whose VRP
issues register, hash and SRAM steps with StrongARM-bound items, a
single-queue chip that overflows its queue and hands items to the
Pentium, the DRAM-bypass ablation, and two port-mode routers (one that
parks, one with private queues) under warm multi-MP flows and cold
route-cache misses.
"""

import hashlib
import json

import pytest

from repro.core.router import Router, RouterConfig
from repro.engine import Simulator
from repro.ixp.chip import ChipConfig, IXP1200
from repro.ixp.programs import TimedVRP
from repro.ixp.queues import InputDiscipline, OutputDiscipline
from repro.net.packet import make_tcp_packet
from repro.net.traffic import flow_stream, take

CHIP_CYCLES = 20_000
ROUTER_CYCLES = 120_000

PRIVATE = InputDiscipline.PRIVATE
BATCHED = OutputDiscipline.SINGLE_BATCHED
UNBATCHED = OutputDiscipline.SINGLE_UNBATCHED
MULTI = OutputDiscipline.MULTI_INDIRECT

CHIPS = {
    "I.1": dict(input_contexts=16, input_discipline=PRIVATE,
                output_discipline=MULTI, input_only=True, queue_capacity=1 << 30),
    "I.2": dict(input_contexts=16, input_only=True, queue_capacity=1 << 30),
    "I.3": dict(input_contexts=16, input_only=True, queue_capacity=1 << 30,
                synthetic_pattern="single"),
    "O.1": dict(output_contexts=8, output_discipline=BATCHED, output_only=True),
    "O.2": dict(output_contexts=8, output_discipline=UNBATCHED, output_only=True),
    "O.3": dict(output_contexts=8, output_discipline=MULTI, output_only=True),
    "private-vrp-exceptional": dict(
        input_discipline=PRIVATE, output_discipline=MULTI,
        synthetic_exceptional_every=5,
        vrp=TimedVRP(reg_cycles=7, sram_reads=2, sram_writes=1, hashes=2)),
    "overflow-pentium": dict(
        queue_capacity=8, synthetic_pattern="single",
        synthetic_exceptional_every=3, synthetic_exceptional_target="pentium"),
    "dram-direct": dict(dram_direct=True),
}

ROUTERS = {
    "protected": dict(),
    "private": dict(input_discipline=PRIVATE, output_discipline=MULTI),
}

DIGESTS = {
    "I.1":
        "6566fdefa3081b9c3d0f694f4e173951fbc207195e5a0500f7475a6e0ee9707b",
    "I.2":
        "dc8643bdae44a4d5ebeccf7b1215941962c67d659eceba40de34fc3338270e88",
    "I.3":
        "8734d17030641acc5618b60c33db1b1ca5e50b8522a52c193bb40603c2b43eb7",
    "O.1":
        "ea10bc1e99ccfe150bfaa94702c848d07202e99410e191f2b14d3340efed44bc",
    "O.2":
        "ff4da467fa1bfe33e7f9d33f44916abc5def634f3808a1a6610fbc01f4fc8ec7",
    "O.3":
        "d5fc9aa15189d7226f445814a8745b6021a4da1a94d32bb92646fe767830a62f",
    "private-vrp-exceptional":
        "6f2e8eb40e2697fe7bec246270ab49d10dc2610192633c1c5c986f6d3f9cbcc2",
    "overflow-pentium":
        "713ac0dc19e69e36522215fd9daa7da14bf0e441b73ae163c64bab241a350b5d",
    "dram-direct":
        "34893a0eef2df1c236dd54d26fa990e4fe0557743f887e44ccac1f1737f4ec29",
    "router-protected":
        "ffd5418b4cb28542c308881a434084af007d1c9c77dd80fa26936280a040fd8e",
    "router-private":
        "d0aca6c83946d20cac00778bf4fd2d92a8bb5b31bebc4ac9622c948aa7383431",
}

EVENTS = {
    "I.1": 22_615,
    "I.2": 30_925,
    "I.3": 14_294,
    "O.1": 15_877,
    "O.2": 15_405,
    "O.3": 14_459,
    "private-vrp-exceptional": 42_594,
    "overflow-pentium": 24_548,
    "dram-direct": 42_073,
    "router-protected": 91_166,
    "router-private": 104_566,
}


def _chip_state(sim, chip):
    chip.settle(sim.now + 1)
    return {
        "now": sim.now,
        "counters": sorted(chip.counters.items()),
        "memories": [[m.busy_cycles, sorted([*key, count] for key, count
                                            in m.access_counts.items())]
                     for m in (chip.dram, chip.sram, chip.scratch)],
        "engines": [me.busy_cycles for me in chip.engines],
        "rotations": [ring.rotations if ring is not None else None
                      for ring in (chip.input_ring, chip.output_ring)],
    }


def _run_chip(name, scheduler):
    sim = Simulator(scheduler=scheduler)
    chip = IXP1200(ChipConfig(**CHIPS[name]), sim=sim)
    sim.run(until=CHIP_CYCLES)
    return _chip_state(sim, chip), sim._events_processed


def _run_router(name, scheduler):
    router = Router(RouterConfig(num_ports=4, **ROUTERS[name]),
                    sim=Simulator(scheduler=scheduler))
    for port in range(4):
        router.add_route(f"10.{port}.0.0", 16, port)
    # Warm multi-MP flows on the fast path: 200- and 100-byte payloads
    # (four and three MPs per packet).
    warm = [take(flow_stream(40, src=f"192.168.{i}.2", src_port=5001 + i,
                             out_port=out, payload_len=size), 40)
            for i, (out, size) in enumerate(((1, 200), (0, 100)))]
    router.warm_route_cache([p.ip.dst for flow in warm for p in flow])
    router.inject(0, iter(warm[0]))
    router.inject(1, iter(warm[1]))
    # Cold flows: every destination misses the route cache once and
    # climbs to the StrongARM for the fill.  Port 2's single-MP frames
    # arrive between the other ports' frames, so some find the whole
    # input stage waiting for the token.
    for port, out, size in ((2, 3, 6), (3, 2, 200)):
        router.inject(port, iter([
            make_tcp_packet(f"172.16.{port}.9", f"10.{out}.{i}.{i + 1}",
                            src_port=7000 + i, dst_port=80, payload=b"\x00" * size)
            for i in range(30)]))
    router.run(ROUTER_CYCLES)
    state = _chip_state(router.sim, router.chip)
    state["tx_packets"] = [port.tx_packets for port in router.ports]
    return state, router.sim._events_processed


def _digest(state) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CHIPS))
def test_chip_loop_paths_are_pinned(name):
    calendar, events = _run_chip(name, "calendar")
    assert (calendar, events) == _run_chip(name, "heap")
    assert _digest(calendar) == DIGESTS[name]
    assert events == EVENTS[name]


@pytest.mark.parametrize("name", sorted(ROUTERS))
def test_router_loop_paths_are_pinned(name):
    calendar, events = _run_router(name, "calendar")
    assert (calendar, events) == _run_router(name, "heap")
    assert _digest(calendar) == DIGESTS[f"router-{name}"]
    assert events == EVENTS[f"router-{name}"]
