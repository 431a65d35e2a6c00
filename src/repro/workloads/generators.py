"""Heavy-tailed, internet-shaped traffic generators.

Everything here is a plain deterministic iterable -- of
:class:`~repro.net.packet.Packet` (drop-in compatible with the
generators in :mod:`repro.net.traffic`) or, for lookup benches that do
not need byte-level frames, of bare :class:`IPv4Address` probes.

Four workload shapes from the measurement literature:

* **Zipf destination popularity** -- flow/destination popularity on real
  links follows a power law; rank-k destinations receive ~1/k^s of the
  traffic.  This is what makes a small route cache work at all, and what
  ``s`` sweeps stress.
* **Pareto flow sizes** -- most flows are mice, most *bytes* ride
  elephants; sizes are drawn from a Pareto(alpha) tail.
* **Flash crowd** -- the fraction of traffic aimed at one hot
  destination ramps from ~0 to ``peak`` across the stream (a breaking-
  news event), shifting the popularity mass under a warm cache.
* **Scan storm** -- a sweep touching every destination exactly once:
  zero temporal locality, the route-cache worst case (every packet is a
  miss that climbs to the StrongARM).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.net.addresses import IPv4Address
from repro.net.packet import Packet, make_tcp_packet
from repro.net.tcp import TCP_ACK


class ZipfSampler:
    """Draw ranks 0..n-1 with P(k) proportional to 1/(k+1)^s, by inverse
    CDF over a precomputed cumulative table (O(log n) per draw,
    deterministic under the caller's rng)."""

    def __init__(self, n: int, s: float = 1.1):
        if n <= 0:
            raise ValueError(f"need a positive population, got {n}")
        if s < 0:
            raise ValueError(f"Zipf exponent must be >= 0, got {s}")
        self.n = n
        self.s = s
        self._cdf = list(accumulate((k + 1) ** -s for k in range(n)))
        self._total = self._cdf[-1]

    def draw(self, rng: random.Random) -> int:
        return bisect_right(self._cdf, rng.random() * self._total)


def _shuffled_ranks(dests: Sequence[int], seed: int) -> List[int]:
    """Zipf rank -> destination assignment; shuffled so popularity is
    uncorrelated with the prefix generator's emission order."""
    order = list(range(len(dests)))
    random.Random(f"zipf-rank:{seed}").shuffle(order)
    return order


def zipf_addresses(
    count: int,
    dests: Sequence[int],
    s: float = 1.1,
    seed: int = 0,
) -> Iterator[IPv4Address]:
    """Bare destination probes (for lookup/cache benches): ``count``
    addresses over ``dests`` with Zipf(s) popularity."""
    rng = random.Random(f"zipf:{seed}")
    sampler = ZipfSampler(len(dests), s)
    order = _shuffled_ranks(dests, seed)
    for __ in range(count):
        yield IPv4Address(dests[order[sampler.draw(rng)]])


def zipf_flood(
    count: int,
    dests: Sequence[int],
    s: float = 1.1,
    seed: int = 0,
    payload_len: int = 6,
) -> Iterator[Packet]:
    """Minimum-sized packets whose destinations follow Zipf(s)
    popularity over ``dests`` (ints or address strings)."""
    rng = random.Random(f"zipf-flood:{seed}")
    sampler = ZipfSampler(len(dests), s)
    order = _shuffled_ranks(dests, seed)
    for i in range(count):
        dst = str(IPv4Address(dests[order[sampler.draw(rng)]]))
        yield make_tcp_packet(
            src=f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}",
            dst=dst,
            src_port=1024 + (i % 50000),
            dst_port=80,
            payload=b"\x00" * payload_len,
        )


def pareto_flow_sizes(
    num_flows: int,
    alpha: float = 1.2,
    xm: float = 2.0,
    seed: int = 0,
    cap: Optional[int] = None,
) -> List[int]:
    """Heavy-tailed flow sizes in packets: Pareto(alpha) with scale
    ``xm`` (mice everywhere, elephants carrying most packets).  ``cap``
    truncates the tail so a single draw cannot dominate a bounded run."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = random.Random(f"pareto:{seed}")
    sizes = []
    for __ in range(num_flows):
        size = int(xm / (1.0 - rng.random()) ** (1.0 / alpha))
        size = max(1, size)
        if cap is not None:
            size = min(size, cap)
        sizes.append(size)
    return sizes


def heavy_tail_mix(
    count: int,
    dests: Sequence[int],
    num_flows: int = 256,
    alpha: float = 1.2,
    s: float = 1.1,
    seed: int = 0,
    payload_len: int = 64,
) -> Iterator[Packet]:
    """``num_flows`` concurrent flows with Pareto sizes and Zipf-chosen
    destinations, interleaved at random among the still-active flows --
    the closest thing here to a pcap-shaped mix."""
    rng = random.Random(f"heavy-tail:{seed}")
    sampler = ZipfSampler(len(dests), s)
    order = _shuffled_ranks(dests, seed)
    sizes = pareto_flow_sizes(num_flows, alpha=alpha, seed=seed)
    flows = []
    for i in range(num_flows):
        dst = str(IPv4Address(dests[order[sampler.draw(rng)]]))
        src = f"172.{16 + i % 16}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        flows.append({
            "src": src, "dst": dst,
            "src_port": 10_000 + i, "remaining": sizes[i], "seq": 1,
        })
    emitted = 0
    active = list(range(num_flows))
    while emitted < count and active:
        pick = rng.randrange(len(active))
        flow = flows[active[pick]]
        yield make_tcp_packet(
            flow["src"], flow["dst"], flow["src_port"], 80,
            flags=TCP_ACK, seq=flow["seq"], payload=b"d" * payload_len,
        )
        emitted += 1
        flow["seq"] += payload_len
        flow["remaining"] -= 1
        if flow["remaining"] <= 0:
            # Swap-remove: O(1), order immaterial under the seeded rng.
            active[pick] = active[-1]
            active.pop()


def _flash_crowd_draws(
    count: int,
    dests: Sequence[int],
    hot: Optional[int],
    peak: float,
    s: float,
    seed: int,
) -> Iterator[Tuple[IPv4Address, int, int]]:
    """Every draw a flash-crowd stream makes, in order: per packet its
    destination and the two random octets of its 192.168/16 source."""
    if not 0.0 <= peak <= 1.0:
        raise ValueError(f"peak must be in [0, 1], got {peak}")
    rng = random.Random(f"flash:{seed}")
    sampler = ZipfSampler(len(dests), s)
    order = _shuffled_ranks(dests, seed)
    hot_value = IPv4Address(hot if hot is not None else dests[order[0]]).value
    for i in range(count):
        hot_share = peak * (i / max(1, count - 1))
        if rng.random() < hot_share:
            dst = IPv4Address(hot_value)
        else:
            dst = IPv4Address(dests[order[sampler.draw(rng)]])
        yield dst, rng.randrange(256), rng.randrange(1, 255)


def flash_crowd(
    count: int,
    dests: Sequence[int],
    hot: Optional[int] = None,
    peak: float = 0.8,
    s: float = 1.1,
    seed: int = 0,
    payload_len: int = 6,
) -> Iterator[Packet]:
    """Background Zipf traffic with a hot destination whose share ramps
    linearly from 0 to ``peak`` over the stream."""
    draws = _flash_crowd_draws(count, dests, hot, peak, s, seed)
    for i, (dst, src_c, src_d) in enumerate(draws):
        yield make_tcp_packet(
            src=f"192.168.{src_c}.{src_d}",
            dst=dst,
            src_port=1024 + (i % 50000),
            dst_port=80,
            payload=b"\x00" * payload_len,
        )


def flash_crowd_addresses(
    count: int,
    dests: Sequence[int],
    hot: Optional[int] = None,
    peak: float = 0.8,
    s: float = 1.1,
    seed: int = 0,
) -> Iterator[IPv4Address]:
    """Bare-probe variant of :func:`flash_crowd`: the same draws, so the
    same destinations, without building packets."""
    for dst, __, ___ in _flash_crowd_draws(count, dests, hot, peak, s, seed):
        yield dst


def scan_storm(
    count: int,
    dests: Sequence[int],
    seed: int = 0,
    payload_len: int = 6,
) -> Iterator[Packet]:
    """A destination sweep: every packet targets a *different*
    destination (shuffled order, wrapping if count exceeds the
    population), so a warm route cache degrades to all-miss."""
    rng = random.Random(f"scan:{seed}")
    order = list(dests)
    rng.shuffle(order)
    for i in range(count):
        yield make_tcp_packet(
            src=f"{rng.randrange(1, 224)}.{rng.randrange(256)}"
                f".{rng.randrange(256)}.{rng.randrange(1, 255)}",
            dst=str(IPv4Address(order[i % len(order)])),
            src_port=rng.randrange(1024, 65535),
            dst_port=rng.choice((22, 23, 80, 443, 3389)),
            payload=b"\x00" * payload_len,
        )


def scan_addresses(count: int, dests: Sequence[int], seed: int = 0) -> Iterator[IPv4Address]:
    """Bare-probe variant of :func:`scan_storm`."""
    rng = random.Random(f"scan:{seed}")
    order = list(dests)
    rng.shuffle(order)
    for i in range(count):
        yield IPv4Address(order[i % len(order)])
