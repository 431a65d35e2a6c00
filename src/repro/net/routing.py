"""Route lookup: routing table backends, CPE trie, route cache.

The paper uses two lookup mechanisms:

* the MicroEngine fast path assumes "a hit in a route cache" indexed by a
  one-cycle hardware hash of the destination address;
* misses climb to the StrongARM, where the full table is searched with the
  controlled prefix expansion (CPE) algorithm of Srinivasan & Varghese,
  which the paper measures at 236 cycles per lookup on average.

Both are implemented here, behind a small :class:`LookupBackend` protocol
so the miss-path structure is pluggable:

* :class:`RoutingTable` -- the CPE multibit trie (the paper's scheme);
* :class:`BidirectionalTable` -- a pipelined split-trie in the spirit of
  "Bidirectional Pipelining for Scalable IP Lookup": prefixes are split
  at the /16 median, the long half is searched leaf-up one prefix length
  per pipeline stage, the short half root-down in a single expanded
  stage.

Every backend shares the same bookkeeping base (:class:`BaseRoutingTable`):
a route dictionary keyed by the *masked* (prefix, length) pair, a
generation counter, change listeners, bulk-update batching (one listener
fire per batch instead of one per route -- the fix for the cache
invalidation storm at 100k-prefix bulk loads) and two independent
reference lookups (`lookup_linear`, `lookup_reference`) used to validate
the fast structures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Dict, Iterable, List, NamedTuple, Optional, Protocol,
                    Sequence, Tuple, runtime_checkable)

from repro.net.addresses import IPv4Address, MACAddress

#: Cost of one pipeline/trie memory probe on the miss path.  Calibrated
#: so the default three-probe CPE configuration lands on the paper's
#: measured 236 cycles per lookup (3 x 79 = 237).
MEMORY_PROBE_CYCLES = 79


class Route(NamedTuple):
    """One routing-table entry."""

    prefix: IPv4Address
    length: int
    next_hop_mac: MACAddress
    out_port: int

    def matches(self, addr: IPv4Address) -> bool:
        if self.length == 0:
            return True
        return addr.prefix_bits(self.length) == self.prefix.prefix_bits(self.length)

    def __str__(self) -> str:
        return f"{self.prefix}/{self.length} -> port {self.out_port} ({self.next_hop_mac})"


@runtime_checkable
class LookupBackend(Protocol):
    """What the Router, RouteCache and control plane need from a table."""

    generation: int

    def add(self, prefix: str, length: int, out_port: int,
            next_hop_mac: Optional[MACAddress] = None) -> Route: ...

    def remove(self, prefix: str, length: int) -> Route: ...

    def lookup(self, addr: IPv4Address) -> Optional[Route]: ...

    def add_listener(self, callback) -> None: ...

    def __len__(self) -> int: ...


class BaseRoutingTable:
    """Shared bookkeeping for every lookup backend.

    Routes live in a dict keyed by the masked ``(prefix_value, length)``
    pair, so re-adding a covering prefix *replaces* it (a control-plane
    reprogram) and :meth:`remove` can withdraw it again.  Subclasses
    implement the fast structure: ``_reset_structures``, ``_insert``,
    ``lookup`` and optionally ``_withdraw`` (the default withdrawal is a
    conservative full rebuild, batched to once per bulk block).
    """

    backend_name = "base"

    def __init__(self):
        self._routes: Dict[Tuple[int, int], Route] = {}
        self.generation = 0
        self._listeners: List = []
        self._bulk_depth = 0
        self._dirty = False
        self._needs_rebuild = False
        # Miss-path instrumentation: memory probes per full lookup.
        self.lookups = 0
        self.probes = 0
        self._reset_structures()

    # -- bookkeeping -----------------------------------------------------------

    def add_listener(self, callback) -> None:
        """Register an invalidation callback fired on every table change
        (route caches subscribe so probes need no staleness check).
        Inside a :meth:`bulk` block, listeners fire once at the end."""
        self._listeners.append(callback)

    def __len__(self) -> int:
        return len(self._routes)

    @property
    def routes(self) -> List[Route]:
        return list(self._routes.values())

    @staticmethod
    def _key(value: int, length: int) -> Tuple[int, int]:
        """Masked key: two spellings of the same covering prefix are one
        logical route.  Every mutation and query validates the length
        here."""
        if not 0 <= length <= 32:
            raise ValueError(f"bad prefix length {length}")
        shift = 32 - length
        return (value >> shift << shift, length)

    def has(self, prefix: str, length: int) -> bool:
        return self._key(IPv4Address(prefix).value, length) in self._routes

    def _touch(self) -> None:
        if self._bulk_depth:
            self._dirty = True
            return
        self.generation += 1
        for callback in self._listeners:
            callback()

    @contextmanager
    def bulk(self):
        """Batch a burst of adds/removes into ONE generation bump and ONE
        listener fire (and at most one structure rebuild).  Programming N
        routes used to fire the cache-invalidation listeners N times --
        fatal at 100k-prefix loads and during route churn."""
        self._bulk_depth += 1
        try:
            yield self
        finally:
            self._bulk_depth -= 1
            if self._bulk_depth == 0:
                if self._needs_rebuild:
                    self._needs_rebuild = False
                    self._rebuild()
                if self._dirty:
                    self._dirty = False
                    self.generation += 1
                    for callback in self._listeners:
                        callback()

    # -- mutation --------------------------------------------------------------

    def add(self, prefix: str, length: int, out_port: int,
            next_hop_mac: Optional[MACAddress] = None) -> Route:
        addr = IPv4Address(prefix)
        key = self._key(addr.value, length)
        route = Route(addr, length, next_hop_mac or MACAddress.for_port(out_port),
                      out_port)
        # Re-adding an existing (prefix, length) is a *reprogram* -- the
        # control plane does this on every reconvergence -- so the old
        # entry must go, or the fast structure and the linear reference
        # would disagree about which Route wins.
        replacing = key in self._routes
        self._routes[key] = route
        self._insert(route, replacing)
        self._touch()
        return route

    def add_many(self, specs: Iterable[Sequence]) -> int:
        """Bulk-load ``(prefix, length, out_port[, next_hop_mac])`` specs
        with a single generation bump / listener fire."""
        count = 0
        with self.bulk():
            for spec in specs:
                self.add(*spec)
                count += 1
        return count

    def add_default(self, out_port: int) -> Route:
        return self.add("0.0.0.0", 0, out_port)

    def remove(self, prefix: str, length: int) -> Route:
        """Withdraw a route (control-plane route withdrawal).  Raises
        ``KeyError`` when no such (prefix, length) is installed."""
        key = self._key(IPv4Address(prefix).value, length)
        if key not in self._routes:
            raise KeyError(f"no route {prefix}/{length}")
        route = self._routes.pop(key)
        self._withdraw(route)
        self._touch()
        return route

    def discard(self, prefix: str, length: int) -> Optional[Route]:
        """Like :meth:`remove`, but returns None when absent."""
        try:
            return self.remove(prefix, length)
        except KeyError:
            return None

    def _withdraw(self, route: Route) -> None:
        # Conservative default: rebuild the fast structure from the
        # surviving routes (once per bulk block).
        if self._bulk_depth:
            self._needs_rebuild = True
        else:
            self._rebuild()

    def _rebuild(self) -> None:
        self._reset_structures()
        for route in self._routes.values():
            self._insert(route, False)

    # -- structure hooks (subclass responsibility) ----------------------------

    def _reset_structures(self) -> None:
        raise NotImplementedError

    def _insert(self, route: Route, replacing: bool) -> None:
        raise NotImplementedError

    def lookup(self, addr: IPv4Address) -> Optional[Route]:
        raise NotImplementedError

    # -- reference lookups ----------------------------------------------------

    def lookup_linear(self, addr: IPv4Address) -> Optional[Route]:
        """Reference longest-prefix match by linear scan (used by property
        tests to validate the fast structures): the longest route whose
        prefix agrees with ``addr`` on its top ``length`` bits
        (:meth:`Route.matches`, on the ints)."""
        value = addr.value
        best: Optional[Route] = None
        best_length = -1
        for route in self._routes.values():
            length = route.length
            if length > best_length and (value ^ route.prefix.value) >> (32 - length) == 0:
                best, best_length = route, length
        return best

    def lookup_reference(self, addr: IPv4Address) -> Optional[Route]:
        """Second, structurally independent reference: probe the route
        dict once per prefix length, longest first.  O(33) per probe, so
        million-route tables can be cross-checked densely where the
        linear scan only affords a handful of samples."""
        value = addr.value
        routes = self._routes
        for length in range(32, 0, -1):
            mask = 0xFFFFFFFF << (32 - length) & 0xFFFFFFFF
            route = routes.get((value & mask, length))
            if route is not None:
                return route
        return routes.get((0, 0))

    # -- instrumentation ------------------------------------------------------

    def probe_bound(self) -> int:
        """Worst-case memory probes for one lookup (the structure's
        hard latency bound; ``avg_probes`` must never exceed it)."""
        raise NotImplementedError

    @property
    def avg_probes(self) -> float:
        """Mean memory probes per miss-path lookup."""
        return self.probes / self.lookups if self.lookups else 0.0

    def modeled_lookup_cycles(self) -> float:
        """Miss-path cost in StrongARM cycles under the probe model."""
        return self.avg_probes * MEMORY_PROBE_CYCLES


class _TrieNode:
    __slots__ = ("entries", "children")

    def __init__(self, size: int):
        self.entries: List[Optional[Route]] = [None] * size
        self.children: List[Optional["_TrieNode"]] = [None] * size


class RoutingTable(BaseRoutingTable):
    """Longest-prefix-match table backed by a CPE multibit trie.

    ``strides`` controls the expansion levels; the default (16, 8, 8)
    is the classic configuration giving at most three memory probes.
    """

    backend_name = "cpe"
    DEFAULT_STRIDES: Tuple[int, ...] = (16, 8, 8)

    def __init__(self, strides: Sequence[int] = DEFAULT_STRIDES):
        if sum(strides) != 32:
            raise ValueError(f"strides must cover 32 bits, got {tuple(strides)}")
        if any(s <= 0 for s in strides):
            raise ValueError("strides must be positive")
        self.strides = tuple(strides)
        super().__init__()

    def _reset_structures(self) -> None:
        self._root = _TrieNode(1 << self.strides[0])

    def _insert(self, route: Route, replacing: bool) -> None:
        """Controlled prefix expansion: descend to the level whose stride
        boundary covers the prefix (creating nodes on the way), then
        expand the prefix across that node's matching slots, overriding
        only strictly-shorter existing entries."""
        value, length = route.prefix.value, route.length
        strides = self.strides
        node = self._root
        level = bits_consumed = 0
        stride = strides[0]
        while length > bits_consumed + stride:
            bits_consumed += stride
            slot = (value >> (32 - bits_consumed)) & ((1 << stride) - 1)
            child = node.children[slot]
            if child is None:
                child = _TrieNode(1 << strides[level + 1])
                # Seed the child with the covering route from this slot.
                covering = node.entries[slot]
                if covering is not None:
                    self._push_down(child, covering, level + 1)
                node.children[slot] = child
            node = child
            level += 1
            stride = strides[level]
        # Expand within this node: all slots whose top bits match (every
        # slot of the root for a /0).
        span_bits = length - bits_consumed
        base = ((value >> (32 - length)) & ((1 << span_bits) - 1)) << (stride - span_bits)
        count = 1 << (stride - span_bits)
        entries, children = node.entries, node.children
        for slot in range(base, base + count):
            existing = entries[slot]
            if existing is None or existing.length <= length:
                entries[slot] = route
            # Deeper levels inherit via the lookup fallback; but an
            # existing child subtree must also see this route where it
            # has no better entry.
            child = children[slot]
            if child is not None:
                self._push_down(child, route, level + 1)

    def _push_down(self, node: _TrieNode, route: Route, level: int) -> None:
        for slot in range(len(node.entries)):
            existing = node.entries[slot]
            # ``<=`` so a reprogram of the same prefix replaces its own
            # stale copies in child subtrees (equal-length routes with
            # *different* prefixes never cover the same slot).
            if existing is None or existing.length <= route.length:
                node.entries[slot] = route
            child = node.children[slot]
            if child is not None:
                self._push_down(child, route, level + 1)

    # -- lookup ---------------------------------------------------------------

    def probe_bound(self) -> int:
        return len(self.strides)

    def lookup(self, addr: IPv4Address) -> Optional[Route]:
        """CPE trie lookup: at most ``len(strides)`` node probes."""
        value = addr.value
        node = self._root
        best: Optional[Route] = None
        probes = 0
        shift = 32
        for stride in self.strides:
            shift -= stride
            probes += 1
            slot = (value >> shift) & ((1 << stride) - 1)
            entry = node.entries[slot]
            if entry is not None:
                best = entry
            node = node.children[slot]
            if node is None:
                break
        self.lookups += 1
        self.probes += probes
        return best


class BidirectionalTable(BaseRoutingTable):
    """Pipelined split-trie per "Bidirectional Pipelining for Scalable IP
    Lookup": the prefix set is cut at the ``SPLIT`` (/16) median length.

    * The *long* half (length > 16) is organized per top-16-bit block as
      one hash stage per prefix length, searched leaf-up (longest length
      first) -- one memory probe per stage, first hit wins because any
      long match beats every short match.
    * The *short* half (length <= 16) is one root-down expanded stage: a
      direct-indexed 2^16 array probed only when the long half misses.

    Worst case is therefore 1 block probe + (#distinct long lengths in
    the block) + 1 short probe, and a lookup's stage sequence is exactly
    the pipeline occupancy the bench records via ``avg_probes``.
    """

    backend_name = "bidirectional"
    SPLIT = 16

    def _reset_structures(self) -> None:
        self._short: List[Optional[Route]] = [None] * (1 << self.SPLIT)
        # top-16-bits -> (lengths sorted desc, {length: {masked_bits: Route}})
        self._long: Dict[int, Tuple[Tuple[int, ...], Dict[int, Dict[int, Route]]]] = {}

    def _insert(self, route: Route, replacing: bool) -> None:
        value, length = route.prefix.value, route.length
        split = self.SPLIT
        if length <= split:
            # Expand across the 2^(split - length) short-stage slots the
            # prefix covers (all of them for a /0).
            base = value >> (32 - length) << (split - length)
            short = self._short
            for slot in range(base, base + (1 << (split - length))):
                existing = short[slot]
                if existing is None or existing.length <= length:
                    short[slot] = route
            return
        top = value >> (32 - split)
        entry = self._long.get(top)
        if entry is None:
            by_len: Dict[int, Dict[int, Route]] = {}
            self._long[top] = ((length,), by_len)
        else:
            lengths, by_len = entry
            if length not in by_len:
                self._long[top] = (tuple(sorted(set(lengths) | {length},
                                                reverse=True)), by_len)
        by_len.setdefault(length, {})[value >> (32 - length)] = route

    def _withdraw(self, route: Route) -> None:
        if route.length <= self.SPLIT:
            # Expanded entries cannot tell which neighbors they shadow;
            # fall back to the batched rebuild.
            super()._withdraw(route)
            return
        value, length = route.prefix.value, route.length
        top = value >> (32 - self.SPLIT)
        entry = self._long.get(top)
        if entry is None:
            return
        lengths, by_len = entry
        stage = by_len.get(length)
        if stage is None:
            return
        stage.pop(value >> (32 - length), None)
        if not stage:
            del by_len[length]
            if not by_len:
                del self._long[top]
            else:
                self._long[top] = (tuple(sorted(by_len, reverse=True)), by_len)

    def probe_bound(self) -> int:
        # Block-directory probe + one stage per long length + short stage.
        return 2 + (32 - self.SPLIT)

    def lookup(self, addr: IPv4Address) -> Optional[Route]:
        value = addr.value
        self.lookups += 1
        probes = 1  # block-directory probe
        best: Optional[Route] = None
        top = value >> (32 - self.SPLIT)
        entry = self._long.get(top)
        if entry is not None:
            lengths, by_len = entry
            for length in lengths:
                probes += 1
                best = by_len[length].get(value >> (32 - length))
                if best is not None:
                    break
        if best is None:
            probes += 1
            best = self._short[top]
        self.probes += probes
        return best


#: Selectable miss-path backends (``RouterConfig.lookup_backend``).
LOOKUP_BACKENDS: Dict[str, type] = {
    RoutingTable.backend_name: RoutingTable,
    BidirectionalTable.backend_name: BidirectionalTable,
}


def make_routing_table(backend: str = "cpe", **kwargs) -> BaseRoutingTable:
    """Instantiate a lookup backend by name (see ``LOOKUP_BACKENDS``)."""
    try:
        cls = LOOKUP_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown lookup backend {backend!r}: "
            f"choose from {sorted(LOOKUP_BACKENDS)}") from None
    return cls(**kwargs)


#: Knuth's multiplicative-hash constant (2^32 / golden ratio).
_HASH_MULTIPLIER = 2654435761


def hardware_hash(value: int, bits: int = 16) -> int:
    """Model of the IXP1200's one-cycle hardware hash unit: a Knuth-style
    multiplicative hash reduced to ``bits`` bits."""
    return ((value * _HASH_MULTIPLIER) & 0xFFFFFFFF) >> (32 - bits)


class RouteCache:
    """Destination-indexed route cache (the MicroEngine fast path).

    A direct-mapped table indexed by the hardware hash of the destination
    address.  A miss is an *exceptional* event: the packet climbs to the
    StrongARM, which performs the full-table lookup and refills the cache.

    Staleness is handled by explicit invalidation: the cache registers
    itself as a table listener, so every route install clears the slots
    and a probe is a bare hash-index-compare (no per-lookup generation
    check).  A stale-entry probe was always a miss before, and a cleared
    slot is a miss now, so hit/miss counts are unchanged.  The clear is
    in-place -- bulk route programming fires the listener once and costs
    one slot sweep, not one reallocation per installed route.

    Slots hold ``(address value, route)``; a probe's slot is
    ``hardware_hash(value, size_bits)``, inlined.
    """

    def __init__(self, table: BaseRoutingTable, size_bits: int = 10):
        self.table = table
        self.size_bits = size_bits
        self.size = 1 << size_bits
        self._hash_shift = 32 - size_bits
        self._slots: List[Optional[Tuple[int, Route]]] = [None] * self.size
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        table.add_listener(self.invalidate)

    def lookup(self, addr: IPv4Address) -> Optional[Route]:
        """Fast-path lookup; ``None`` means miss (exceptional packet)."""
        value = addr.value
        entry = self._slots[((value * _HASH_MULTIPLIER) & 0xFFFFFFFF) >> self._hash_shift]
        if entry is not None and entry[0] == value:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def fill(self, addr: IPv4Address) -> Optional[Route]:
        """Slow-path fill: full table lookup plus cache insert."""
        route = self.table.lookup(addr)
        if route is not None:
            value = addr.value
            self._slots[((value * _HASH_MULTIPLIER) & 0xFFFFFFFF) >> self._hash_shift] = (
                value, route)
        return route

    def warm(self, addrs) -> None:
        for addr in addrs:
            self.fill(IPv4Address(addr))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def invalidate(self) -> None:
        self.invalidations += 1
        slots = self._slots
        for i in range(self.size):
            slots[i] = None
