"""Pins the modeled state every microengine loop path leaves behind.

The input and output loops (``repro.ixp.programs``) inline their memory
references, token passes and select steps in one generator frame, so
reordering a single yield or side effect can shift a timing without
failing any functional check.  Each case below runs one chip or router
configuration under both schedulers, asserts they agree, and compares a
sha256 of the modeled state with a committed digest: simulated time and
event count, chip counters, each memory's busy cycles and access counts,
engine busy cycles (settled the way readers settle a parked stage),
token-ring rotations and, for routers, per-port transmit counts.

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
        "9a3b89b0ba21e7f1db2bbb8ab4f9611c6b6b09ceab1b8571adcb684631fe9ccf",
    "I.2":
        "ac3104c1dae3d3355625d44290ba0bdafd7455023582648c2a03bf06fa07156b",
    "I.3":
        "0e4a61776f1cef6cbe553eb26fd179c8a62a1f0325c6eb3f8149c51793048fed",
    "O.1":
        "7ebb224bbeb164a340965c7107dcb2764755407f13e53a72d8fe513c435c70ca",
    "O.2":
        "6093893eee0c1ced8e3f20345de09d5b7a9900e0393a64ddfe89ae988ba9a188",
    "O.3":
        "22bd3bfabd1fd6a2851bd6a9fb1ff0560bf6de06bba5f5301d5468acad5b5111",
    "private-vrp-exceptional":
        "b5b9bffa9e0ec8c2f3f43f911b2d2fa7b3bb186f725cb736bf37df8f2a6874c2",
    "overflow-pentium":
        "cf4e6cd7bb5079a2eab08088bf30cfd3475f5471c0ca543346bfecdd2eb14483",
    "dram-direct":
        "b5dc51f9e1d44ca72cbfa137bae60530c34e4eaf0d0b23446c0384cedea6ca62",
    "router-protected":
        "05c43403a5a56d29de79377d982e7268cb01eafde306e6abb7ebe1776df11a7e",
    "router-private":
        "a429f354a79bd1c3dc1de245ec8e60bcaaa4dbeaf4431bf171192c22b89027d2",
}


def _chip_state(sim, chip):
    chip.settle(sim.now + 1)
    return {
        "now": sim.now,
        "events": sim._events_processed,
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
    return _chip_state(sim, chip)


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
    return state


def _digest(state) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CHIPS))
def test_chip_loop_paths_are_pinned(name):
    calendar = _run_chip(name, "calendar")
    assert calendar == _run_chip(name, "heap")
    assert _digest(calendar) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ROUTERS))
def test_router_loop_paths_are_pinned(name):
    calendar = _run_router(name, "calendar")
    assert calendar == _run_router(name, "heap")
    assert _digest(calendar) == DIGESTS[f"router-{name}"]
