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
from itertools import accumulate
from typing import (Dict, Iterable, List, NamedTuple, Optional, Protocol,
                    Sequence, Tuple, Union, runtime_checkable)

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

    def add(self, prefix: Union[str, int], length: int, out_port: int,
            next_hop_mac: Optional[MACAddress] = None) -> Route: ...

    def remove(self, prefix: Union[str, int], length: int) -> Route: ...

    def lookup(self, addr: IPv4Address) -> Optional[Route]: ...

    def add_listener(self, callback) -> None: ...

    def __len__(self) -> int: ...


class BaseRoutingTable:
    """Shared bookkeeping for every lookup backend.

    Routes live in a dict keyed by the masked ``(prefix_value, length)``
    pair, so re-adding a covering prefix *replaces* it (a control-plane
    reprogram) and :meth:`remove` can withdraw it again.  A prefix is a
    dotted string or its integer value.  Subclasses implement the fast
    structure: ``_reset_structures``, ``_insert``, ``_withdraw`` and
    ``lookup``.  ``_insert`` and ``_withdraw`` update it in place and
    leave exactly the structure a fresh load of the same routes would
    build.
    """

    backend_name = "base"

    def __init__(self):
        self._routes: Dict[Tuple[int, int], Route] = {}
        self.generation = 0
        self._listeners: List = []
        self._bulk_depth = 0
        self._dirty = False
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
        listener fire.  The structure itself changes with each call, so a
        lookup inside the block already sees it.  Programming N routes
        used to fire the cache-invalidation listeners N times -- fatal at
        100k-prefix loads and during route churn."""
        self._bulk_depth += 1
        try:
            yield self
        finally:
            self._bulk_depth -= 1
            if self._bulk_depth == 0 and self._dirty:
                self._dirty = False
                self.generation += 1
                for callback in self._listeners:
                    callback()

    # -- mutation --------------------------------------------------------------

    def add(self, prefix: Union[str, int], length: int, out_port: int,
            next_hop_mac: Optional[MACAddress] = None) -> Route:
        addr = IPv4Address(prefix)
        route = Route(addr, length, next_hop_mac or MACAddress.for_port(out_port),
                      out_port)
        # Re-adding an existing (prefix, length) is a *reprogram* -- the
        # control plane does this on every reconvergence -- so the new
        # Route replaces the old one here and in every slot it held.
        self._routes[self._key(addr.value, length)] = route
        self._insert(route)
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

    def remove(self, prefix: Union[str, int], length: int) -> Route:
        """Withdraw a route (control-plane route withdrawal).  Raises
        ``KeyError`` when no such (prefix, length) is installed."""
        key = self._key(IPv4Address(prefix).value, length)
        if key not in self._routes:
            raise KeyError(f"no route {prefix}/{length}")
        route = self._routes.pop(key)
        self._withdraw(route)
        self._touch()
        return route

    def discard(self, prefix: Union[str, int], length: int) -> Optional[Route]:
        """Like :meth:`remove`, but returns None when absent."""
        try:
            return self.remove(prefix, length)
        except KeyError:
            return None

    def _covering(self, route: Route) -> Optional[Route]:
        """The longest installed route shorter than ``route`` that covers
        its prefix: what a slot held by ``route`` falls back to when
        ``route`` is withdrawn.  (Kept apart from ``lookup_reference``,
        the oracle the structures are checked against.)"""
        value, routes = route.prefix.value, self._routes
        for length in range(route.length - 1, -1, -1):
            shift = 32 - length
            covering = routes.get((value >> shift << shift, length))
            if covering is not None:
                return covering
        return None

    # -- structure hooks (subclass responsibility) ----------------------------

    def _reset_structures(self) -> None:
        raise NotImplementedError

    def _insert(self, route: Route) -> None:
        raise NotImplementedError

    def _withdraw(self, route: Route) -> None:
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

    def __init__(self, size: int, route: Optional[Route] = None):
        self.entries: List[Optional[Route]] = [route] * size
        self.children: List[Optional["_TrieNode"]] = [None] * size


class RoutingTable(BaseRoutingTable):
    """Longest-prefix-match table backed by a CPE multibit trie.

    ``strides`` controls the expansion levels; the default (16, 8, 8)
    is the classic configuration giving at most three memory probes.

    Each slot holds the longest covering route whose length is within
    its level's boundary, and a child node exists exactly where some
    route longer than its parent's boundary lies beneath it.  Insertion
    and withdrawal both keep that shape, so it depends on the route set
    alone -- and so does the probe count of every lookup.
    """

    backend_name = "cpe"
    DEFAULT_STRIDES: Tuple[int, ...] = (16, 8, 8)

    def __init__(self, strides: Sequence[int] = DEFAULT_STRIDES):
        if sum(strides) != 32:
            raise ValueError(f"strides must cover 32 bits, got {tuple(strides)}")
        if any(s <= 0 for s in strides):
            raise ValueError("strides must be positive")
        self.strides = tuple(strides)
        #: prefix bits consumed once each level's slot is chosen
        self._bounds = tuple(accumulate(self.strides))
        super().__init__()

    def _reset_structures(self) -> None:
        self._root = _TrieNode(1 << self.strides[0])

    def _locate(self, route: Route
                ) -> Tuple[List[Tuple[_TrieNode, int]], _TrieNode, int, int]:
        """Walk from the root to the node whose level holds ``route``.
        Returns the steps taken, step ``i`` leaving the level-``i`` node
        through ``slot`` as ``(node, slot)``; the node reached; and the
        slots ``lo``..``hi`` of it that the prefix expands to (controlled
        prefix expansion; every root slot for a /0).  A missing node is
        created on the way, seeded with the covering route of the slot
        it hangs from; a withdrawal finds every node of its path."""
        value, length = route.prefix.value, route.length
        strides, bounds = self.strides, self._bounds
        path = []
        node = self._root
        level = 0
        while length > bounds[level]:
            slot = (value >> (32 - bounds[level])) & ((1 << strides[level]) - 1)
            path.append((node, slot))
            child = node.children[slot]
            if child is None:
                child = node.children[slot] = _TrieNode(
                    1 << strides[level + 1], node.entries[slot])
            node = child
            level += 1
        slot = (value >> (32 - bounds[level])) & ((1 << strides[level]) - 1)
        span = bounds[level] - length
        lo = slot >> span << span
        return path, node, lo, lo + (1 << span)

    def _insert(self, route: Route) -> None:
        __, node, lo, hi = self._locate(route)
        _spread(node, lo, hi, route.length, route)

    def _withdraw(self, route: Route) -> None:
        """Hand every slot ``route`` held, in its own node and in the
        child nodes beneath, to its covering route; then unlink each
        node on its path left with no route longer than its parent's
        boundary."""
        path, node, lo, hi = self._locate(route)
        _spread(node, lo, hi, route.length, self._covering(route))
        for (parent, slot), parent_bound in reversed(list(zip(path, self._bounds))):
            child = parent.children[slot]
            if any(child.children) or any(
                    entry is not None and entry.length > parent_bound
                    for entry in child.entries):
                break
            parent.children[slot] = None

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


def _spread(node: _TrieNode, lo: int, hi: int, length: int,
            fill: Optional[Route]) -> None:
    """Set ``node``'s slots ``lo``..``hi`` that hold no route longer than
    ``length`` to ``fill``, and likewise every slot of the child nodes
    beneath them.  A slot holding a longer route keeps it, and so does
    its whole subtree: every slot there holds a route at least as long.
    Two routes of one length never cover the same slot, so ``<=`` lets a
    reprogram replace its old copies and a withdrawal clear its own."""
    entries, children = node.entries, node.children
    for slot in range(lo, hi):
        existing = entries[slot]
        if existing is None or existing.length <= length:
            entries[slot] = fill
            child = children[slot]
            if child is not None:
                _spread(child, 0, len(child.entries), length, fill)


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

    def _expand(self, route: Route, fill: Optional[Route]) -> None:
        """Give ``fill`` the 2^(split - length) short-stage slots that
        ``route``'s prefix spans (all of them for a /0) and that hold no
        longer route."""
        value, length, split = route.prefix.value, route.length, self.SPLIT
        base = value >> (32 - length) << (split - length)
        short = self._short
        for slot in range(base, base + (1 << (split - length))):
            existing = short[slot]
            if existing is None or existing.length <= length:
                short[slot] = fill

    def _insert(self, route: Route) -> None:
        value, length = route.prefix.value, route.length
        split = self.SPLIT
        if length <= split:
            self._expand(route, route)
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
            # Every short-stage slot the route held falls back to its
            # covering route, which is short too.
            self._expand(route, self._covering(route))
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
