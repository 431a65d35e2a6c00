"""Seeded BGP-like prefix table generation.

Real default-free-zone tables are not uniform random prefixes: they are
dominated by /24s and /22-/23 deaggregates, carry a thin tail of short
covering aggregates, and *cluster* -- most announcements fall inside a
bounded set of allocated blocks.  The generator reproduces those three
properties deterministically from a seed:

* the length histogram follows ``DEFAULT_LENGTH_MIX`` (approximate
  routeviews shape, /8../24);
* prefixes longer than /16 are drawn inside a bounded pool of origin
  /16 blocks (``origin_blocks``), which both matches announcement
  locality and bounds the CPE trie's child-node count at 1M entries;
* everything is unique, so ``add_many`` loads exactly ``count`` routes.

A spec carries its prefix as the integer address value, so loading it
parses nothing, and next-hop MACs are shared per port so a million
routes do not allocate a million identical MAC objects.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addresses import MACAddress

#: Approximate global-table prefix-length shares, /8../24 (the paper-era
#: and modern tables alike are ~55-60% /24 with a deaggregation shoulder
#: at /21-/23); values are weights, normalized at draw time.
DEFAULT_LENGTH_MIX: Dict[int, float] = {
    8: 0.002,
    9: 0.001,
    10: 0.002,
    11: 0.003,
    12: 0.006,
    13: 0.010,
    14: 0.015,
    15: 0.020,
    16: 0.055,
    17: 0.020,
    18: 0.030,
    19: 0.045,
    20: 0.055,
    21: 0.050,
    22: 0.095,
    23: 0.055,
    24: 0.536,
}

#: spec tuple: (prefix value, length, out_port, next_hop_mac)
PrefixSpec = Tuple[int, int, int, MACAddress]


def _mask(length: int) -> int:
    return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0


def bgp_prefixes(
    count: int,
    seed: int = 0,
    num_ports: int = 8,
    length_mix: Optional[Dict[int, float]] = None,
    origin_blocks: Optional[int] = None,
) -> List[PrefixSpec]:
    """A deterministic list of ``count`` unique route specs.

    ``origin_blocks`` bounds the distinct /16 blocks that long (>16)
    prefixes are drawn from; the default scales as ~count/48 (so a 1M
    table stays within ~21k blocks -- the clustering real tables show).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(f"bgp-table:{seed}")
    mix = length_mix or DEFAULT_LENGTH_MIX
    lengths = sorted(mix)
    weights = [mix[l] for l in lengths]
    if origin_blocks is None:
        origin_blocks = max(64, count // 48)
    # The origin pool: distinct /16 values long prefixes nest inside.
    origins = rng.sample(range(1 << 16), min(origin_blocks, 1 << 16))
    macs = {port: MACAddress.for_port(port) for port in range(num_ports)}

    # Per-length capacity (short lengths are tiny spaces: there are only
    # 256 possible /8s); a draw landing on an exhausted length spills to
    # the next longer one so the generator cannot livelock.
    capacity = {l: (1 << l) if l <= 16 else len(origins) << (l - 16)
                for l in lengths}
    if count > sum(capacity.values()):
        raise ValueError(
            f"count {count} exceeds the {sum(capacity.values())}-prefix "
            f"capacity of this length mix / origin pool")
    used = {l: 0 for l in lengths}

    seen: set = set()
    specs: List[PrefixSpec] = []
    length_seq = rng.choices(lengths, weights=weights, k=count)
    for length in length_seq:
        while used[length] >= capacity[length]:
            longer = [l for l in lengths if l > length and used[l] < capacity[l]]
            length = longer[0] if longer else next(
                l for l in lengths if used[l] < capacity[l])
        used[length] += 1
        for __ in range(64):  # bounded re-roll on collision
            if length > 16:
                top = origins[rng.randrange(len(origins))]
                low = rng.getrandbits(length - 16) << (32 - length)
                value = (top << 16) | low
            else:
                value = rng.getrandbits(length) << (32 - length) if length else 0
            key = (value, length)
            if key not in seen:
                break
        else:
            # Dense corner (tiny origin pool): walk to the next free slot.
            step = 1 << (32 - length)
            while key in seen:
                value = (value + step) & _mask(length)
                key = (value, length)
        seen.add(key)
        port = rng.randrange(num_ports)
        specs.append((value, length, port, macs[port]))
    return specs


def build_table(
    count: int,
    seed: int = 0,
    backend: str = "cpe",
    num_ports: int = 8,
    with_default: bool = False,
    specs: Optional[Sequence[PrefixSpec]] = None,
    **backend_kwargs,
):
    """Generate (or reuse) specs and bulk-load them into a fresh backend
    instance; returns ``(table, specs)``."""
    from repro.net.routing import make_routing_table

    if specs is None:
        specs = bgp_prefixes(count, seed=seed, num_ports=num_ports)
    table = make_routing_table(backend, **backend_kwargs)
    with table.bulk():
        table.add_many(specs)
        if with_default:
            table.add_default(0)
    return table, specs


def destinations_for(
    specs: Sequence[PrefixSpec],
    seed: int = 0,
    limit: Optional[int] = None,
) -> List[int]:
    """One concrete host address (as an int) inside each prefix --
    the destination population the traffic generators draw from."""
    rng = random.Random(f"dests:{seed}")
    out: List[int] = []
    for prefix, length, __, ___ in specs[: limit if limit is not None else len(specs)]:
        base = prefix & _mask(length)
        span = 32 - length
        host = rng.getrandbits(span) if span else 0
        out.append(base | host)
    return out
