"""Internet-shaped destination probe streams.

Each generator is a plain deterministic iterable of bare
:class:`IPv4Address` probes -- what the lookup scenario and benches feed
a route cache, with no byte-level frames.  Three stream shapes from the
measurement literature:

* **Zipf destination popularity** -- flow/destination popularity on real
  links follows a power law; rank-k destinations receive ~1/k^s of the
  traffic.  This is what makes a small route cache work at all, and what
  ``s`` sweeps stress.
* **Flash crowd** -- the fraction of traffic aimed at one hot
  destination ramps from ~0 to ``peak`` across the stream (a breaking-
  news event), shifting the popularity mass under a warm cache.
* **Scan storm** -- a sweep touching every destination exactly once:
  zero temporal locality, the route-cache worst case (every probe is a
  miss that climbs to the StrongARM).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, List, Optional, Sequence

from repro.net.addresses import IPv4Address


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


def flash_crowd_addresses(
    count: int,
    dests: Sequence[int],
    hot: Optional[int] = None,
    peak: float = 0.8,
    s: float = 1.1,
    seed: int = 0,
) -> Iterator[IPv4Address]:
    """Background Zipf probes with a hot destination whose share ramps
    linearly from 0 to ``peak`` over the stream."""
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
        # The 192.168/16 source octets of the stream's former packet
        # form.  Nothing reads them, but the lookup-bgp digest and every
        # ``workloads`` artifact depend on the draws they leave behind.
        rng.randrange(256)
        rng.randrange(1, 255)
        yield dst


def scan_addresses(count: int, dests: Sequence[int], seed: int = 0) -> Iterator[IPv4Address]:
    """A destination sweep: every probe targets a *different*
    destination (shuffled order, wrapping if count exceeds the
    population), so a warm route cache degrades to all-miss."""
    rng = random.Random(f"scan:{seed}")
    order = list(dests)
    rng.shuffle(order)
    for i in range(count):
        yield IPv4Address(order[i % len(order)])
