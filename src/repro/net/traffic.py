"""Synthetic traffic generators for every workload in the paper.

The paper's experiments use: minimum-sized-packet floods at line speed,
"infinitely fast" sources (the FIFO-recycling trick of section 3.5.1),
all-traffic-to-one-queue contention workloads, SYN floods, and per-flow
TCP streams for the forwarder examples.  Each generator here is a plain
iterable of :class:`~repro.net.packet.Packet`, deterministic under a
seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, List, Optional

from repro.net.packet import Packet, make_tcp_packet
from repro.net.tcp import TCP_ACK, TCP_SYN


def address_for_port(out_port: int, host: int = 1) -> str:
    """A destination address that the standard test routing table maps to
    ``out_port`` (see :func:`standard_table`): 10.<port>.0.0/16."""
    return f"10.{out_port}.{(host >> 8) & 0xFF}.{host & 0xFF}"


def standard_table(num_ports: int = 10):
    """A routing table with one /16 per output port plus a default route."""
    from repro.net.routing import RoutingTable

    table = RoutingTable()
    with table.bulk():  # one generation bump / cache clear, not N
        for port in range(num_ports):
            table.add(f"10.{port}.0.0", 16, port)
        table.add_default(0)
    return table


def uniform_flood(
    count: int,
    num_ports: int = 8,
    payload_len: int = 6,
    seed: int = 1,
) -> Iterator[Packet]:
    """Minimum-sized packets spread uniformly over output ports; the
    workload behind Table 1 rows I.1/I.2 ("no two packets destined for the
    same queue at the same time" is approximated by round-robin)."""
    rng = random.Random(seed)
    for i in range(count):
        out_port = i % num_ports
        yield make_tcp_packet(
            src=f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}",
            dst=address_for_port(out_port, host=i % 65000 + 1),
            src_port=1024 + (i % 50000),
            dst_port=80,
            payload=b"\x00" * payload_len,
        )


def single_port_flood(
    count: int,
    out_port: int = 0,
    payload_len: int = 6,
    seed: int = 2,
) -> Iterator[Packet]:
    """All packets to one output port/queue: the maximal-contention
    workload of Table 1 row I.3 and Figure 10."""
    rng = random.Random(seed)
    for i in range(count):
        yield make_tcp_packet(
            src=f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}",
            dst=address_for_port(out_port, host=1),
            src_port=1024 + (i % 50000),
            dst_port=80,
            payload=b"\x00" * payload_len,
        )


def flow_stream(
    count: int,
    src: str = "192.168.1.2",
    dst: Optional[str] = None,
    src_port: int = 5001,
    dst_port: int = 80,
    out_port: int = 1,
    payload_len: int = 512,
    start_seq: int = 1000,
) -> Iterator[Packet]:
    """A single TCP flow with advancing sequence numbers (splicer/monitor
    examples)."""
    dst = dst or address_for_port(out_port)
    seq = start_seq
    for __ in range(count):
        yield make_tcp_packet(
            src, dst, src_port, dst_port,
            flags=TCP_ACK, seq=seq, ack=777,
            payload=b"x" * payload_len,
        )
        seq += payload_len


def syn_flood(
    count: int,
    dst: Optional[str] = None,
    out_port: int = 0,
    seed: int = 3,
) -> Iterator[Packet]:
    """Random-source SYN packets to one server: the SYN Monitor workload."""
    rng = random.Random(seed)
    dst = dst or address_for_port(out_port)
    for __ in range(count):
        yield make_tcp_packet(
            src=f"{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
            dst=dst,
            src_port=rng.randrange(1024, 65535),
            dst_port=80,
            flags=TCP_SYN,
        )


def round_robin_merge(*sources: Iterable[Packet]) -> Iterator[Packet]:
    """Interleave several sources packet-by-packet until all exhaust."""
    iterators = [iter(s) for s in sources]
    while iterators:
        still_alive = []
        for it in iterators:
            try:
                yield next(it)
            except StopIteration:
                continue
            still_alive.append(it)
        iterators = still_alive


def take(source: Iterable[Packet], n: int) -> List[Packet]:
    return list(itertools.islice(source, n))
