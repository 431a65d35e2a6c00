"""Tests for the routing table (CPE trie), route cache and hardware hash."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import IPv4Address, RouteCache, RoutingTable
from repro.net.routing import hardware_hash


def build_basic_table():
    table = RoutingTable()
    table.add_default(9)
    table.add("10.0.0.0", 8, 1)
    table.add("10.1.0.0", 16, 2)
    table.add("10.1.2.0", 24, 3)
    table.add("10.1.2.3", 32, 4)
    table.add("192.168.0.0", 16, 5)
    return table


def test_longest_prefix_wins():
    table = build_basic_table()
    assert table.lookup(IPv4Address("10.1.2.3")).out_port == 4
    assert table.lookup(IPv4Address("10.1.2.9")).out_port == 3
    assert table.lookup(IPv4Address("10.1.9.9")).out_port == 2
    assert table.lookup(IPv4Address("10.9.9.9")).out_port == 1
    assert table.lookup(IPv4Address("192.168.77.1")).out_port == 5
    assert table.lookup(IPv4Address("8.8.8.8")).out_port == 9


def test_default_route_only():
    table = RoutingTable()
    table.add_default(2)
    assert table.lookup(IPv4Address("1.2.3.4")).out_port == 2


def test_empty_table_returns_none():
    table = RoutingTable()
    assert table.lookup(IPv4Address("1.2.3.4")) is None


def test_insert_order_does_not_matter():
    specs = [("10.0.0.0", 8, 1), ("10.1.0.0", 16, 2), ("10.1.2.0", 24, 3)]
    probes = ["10.1.2.5", "10.1.5.5", "10.5.5.5"]
    for ordering in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        table = RoutingTable()
        for i in ordering:
            table.add(*specs[i])
        assert [table.lookup(IPv4Address(p)).out_port for p in probes] == [3, 2, 1]


def test_bad_strides_rejected():
    with pytest.raises(ValueError):
        RoutingTable(strides=(16, 8))
    with pytest.raises(ValueError):
        RoutingTable(strides=(16, 8, 0, 8))


def test_bad_prefix_length_rejected():
    with pytest.raises(ValueError):
        RoutingTable().add("1.2.3.4", 40, 0)


@pytest.mark.parametrize("length", [33, -1])
@pytest.mark.parametrize("backend", ["cpe", "bidirectional"])
def test_every_entry_point_validates_prefix_length(backend, length):
    """add, remove and discard reject a bad length with add's message
    (remove used to fail on a negative shift or a KeyError), and leave
    the table untouched."""
    from repro.net import make_routing_table

    table = make_routing_table(backend)
    table.add("10.0.0.0", 8, 1)
    for call in (lambda: table.add("10.0.0.0", length, 2),
                 lambda: table.remove("10.0.0.0", length),
                 lambda: table.discard("10.0.0.0", length)):
        with pytest.raises(ValueError, match=f"^bad prefix length {length}$"):
            call()
    assert len(table) == 1 and table.generation == 1
    assert table.lookup(IPv4Address("10.1.1.1")).out_port == 1


def test_alternate_strides_agree():
    table_a = RoutingTable(strides=(16, 8, 8))
    table_b = RoutingTable(strides=(8, 8, 8, 8))
    for spec in [("10.0.0.0", 8, 1), ("10.128.0.0", 9, 2), ("10.1.2.0", 23, 3)]:
        table_a.add(*spec)
        table_b.add(*spec)
    for probe in ["10.0.0.1", "10.128.1.1", "10.1.3.9", "10.1.2.1", "11.0.0.1"]:
        addr = IPv4Address(probe)
        a = table_a.lookup(addr)
        b = table_b.lookup(addr)
        assert (a.out_port if a else None) == (b.out_port if b else None)


@settings(max_examples=200, deadline=None)
@given(
    routes=st.lists(
        st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 32), st.integers(0, 15)),
        min_size=0,
        max_size=20,
    ),
    probes=st.lists(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=20),
)
def test_trie_matches_linear_scan(routes, probes):
    """The CPE trie must agree with a brute-force longest-prefix match for
    arbitrary route sets (equal-length duplicates may legally tie either
    way, so compare prefix lengths, and ports only when unambiguous)."""
    table = RoutingTable()
    for value, length, port in routes:
        masked = value & (0xFFFFFFFF << (32 - length)) if length else 0
        table.add(str(IPv4Address(masked)), length, port)
    for probe in probes:
        addr = IPv4Address(probe)
        trie = table.lookup(addr)
        linear = table.lookup_linear(addr)
        if linear is None:
            assert trie is None
        else:
            assert trie is not None
            assert trie.matches(addr)
            assert trie.length == linear.length


@pytest.mark.parametrize("size_bits", [1, 4, 8, 10, 16])
def test_route_cache_slot_is_the_hardware_hash(size_bits):
    """RouteCache inlines the hash: a filled value sits in slot
    ``hardware_hash(value, size_bits)``, keyed on the int."""
    table = RoutingTable()
    table.add_default(1)
    for value in (0, 1, 0x0A010203, 0x7FFFFFFF, 0xC0A80001, 0xFFFFFFFF):
        cache = RouteCache(table, size_bits=size_bits)
        route = cache.fill(IPv4Address(value))
        filled = [i for i, entry in enumerate(cache._slots) if entry is not None]
        assert filled == [hardware_hash(value, size_bits)]
        assert cache._slots[filled[0]] == (value, route)
        assert cache.lookup(IPv4Address(value)) is route
        assert cache.hits == 1 and cache.misses == 0


def _nested_specs():
    """A default route plus prefixes nested inside one another, on both
    sides of the bidirectional /16 split, with an unmasked spelling."""
    return [("0.0.0.0", 0, 9), ("10.0.0.0", 8, 1), ("10.1.0.0", 16, 2),
            ("10.1.2.0", 24, 3), ("10.1.2.128", 25, 4), ("10.1.2.3", 32, 5),
            ("10.1.128.0", 17, 6), ("10.99.0.0", 12, 7),
            ("192.168.7.99", 20, 8)]


@pytest.mark.parametrize("backend", ["cpe", "bidirectional"])
def test_linear_scan_matches_reference_on_nested_prefixes(backend):
    """lookup_linear (masked ints in one loop) equals lookup_reference
    and the public Route.matches definition, default route included."""
    from repro.net import make_routing_table

    table = make_routing_table(backend)
    for spec in _nested_specs():
        table.add(*spec)
    values = [0, 0x0A000000, 0x0A010000, 0x0A010203, 0x0A010204, 0x0A010280,
              0x0A0102FF, 0x0A018001, 0x0A630000, 0x0A6FFFFF, 0x0A700000,
              0xC0A80701, 0xC0A80F01, 0xC0A81001, 0xFFFFFFFF]
    for value in values:
        addr = IPv4Address(value)
        linear = table.lookup_linear(addr)
        assert linear == table.lookup_reference(addr) == table.lookup(addr)
        by_matches = [r for r in table.routes if r.matches(addr)]
        assert linear.length == max(r.length for r in by_matches)
        assert linear in by_matches
    # Without the default route the scan answers None where nothing matches.
    table.remove("0.0.0.0", 0)
    assert table.lookup_linear(IPv4Address("8.8.8.8")) is None
    assert table.lookup_reference(IPv4Address("8.8.8.8")) is None


@pytest.mark.parametrize("backend", ["cpe", "bidirectional"])
def test_trie_slots_match_prefix_bits(backend):
    """The tries shift address values where they used to call
    prefix_bits; a route keyed by its prefix_bits is found at every
    length, including /0 and /32."""
    from repro.net import make_routing_table

    value = 0xC0A80B2D  # 192.168.11.45
    addr = IPv4Address(value)
    for length in range(33):
        table = make_routing_table(backend)
        prefix = IPv4Address(addr.prefix_bits(length) << (32 - length) if length else 0)
        table.add(str(prefix), length, 3)
        assert table.lookup(addr).length == length
        # The neighbour that differs in the last prefix bit must miss.
        if length:
            other = IPv4Address(value ^ (1 << (32 - length)))
            assert other.prefix_bits(length) != addr.prefix_bits(length)
            assert table.lookup(other) is None


def test_hardware_hash_range_and_determinism():
    values = [hardware_hash(v, 10) for v in range(1000)]
    assert all(0 <= v < 1024 for v in values)
    assert hardware_hash(12345, 10) == hardware_hash(12345, 10)
    # Spread: at least half the buckets touched by 1000 sequential keys.
    assert len(set(values)) > 512


def test_route_cache_miss_then_hit():
    table = build_basic_table()
    cache = RouteCache(table, size_bits=8)
    addr = IPv4Address("10.1.2.3")
    assert cache.lookup(addr) is None  # cold miss -> exceptional path
    assert cache.fill(addr).out_port == 4
    assert cache.lookup(addr).out_port == 4
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == 0.5


def test_route_cache_invalidated_by_table_update():
    table = build_basic_table()
    cache = RouteCache(table, size_bits=8)
    addr = IPv4Address("10.1.2.3")
    cache.fill(addr)
    assert cache.lookup(addr) is not None
    table.add("10.1.2.3", 32, 7)  # route change bumps the generation
    assert cache.lookup(addr) is None  # stale entry must not be served
    assert cache.fill(addr).out_port == 7


def test_route_cache_fill_unroutable_returns_none():
    cache = RouteCache(RoutingTable())
    assert cache.fill(IPv4Address("9.9.9.9")) is None


def test_route_cache_warm_and_invalidate():
    table = build_basic_table()
    cache = RouteCache(table)
    cache.warm(["10.1.2.3", "192.168.0.1"])
    assert cache.lookup(IPv4Address("10.1.2.3")) is not None
    cache.invalidate()
    assert cache.lookup(IPv4Address("10.1.2.3")) is None


# ---------------------------------------------------------------------------
# Withdrawal, bulk updates and the pluggable backend surface
# ---------------------------------------------------------------------------


def test_remove_restores_covering_route():
    table = build_basic_table()
    assert table.lookup(IPv4Address("10.1.2.3")).out_port == 4
    table.remove("10.1.2.3", 32)
    # The /24 underneath must answer again -- not the stale /32.
    assert table.lookup(IPv4Address("10.1.2.3")).out_port == 3
    table.remove("10.1.2.0", 24)
    assert table.lookup(IPv4Address("10.1.2.3")).out_port == 2


def test_remove_missing_raises_discard_does_not():
    table = build_basic_table()
    with pytest.raises(KeyError):
        table.remove("4.4.4.0", 24)
    assert table.discard("4.4.4.0", 24) is None
    removed = table.discard("10.1.2.0", 24)
    assert removed is not None and removed.out_port == 3


def test_remove_last_route_empties_table():
    table = RoutingTable()
    table.add("10.0.0.0", 8, 1)
    table.remove("10.0.0.0", 8)
    assert len(table) == 0
    assert table.lookup(IPv4Address("10.1.1.1")) is None


def test_add_same_coverage_different_spelling_replaces():
    """Two spellings of one covering prefix are the same logical route."""
    table = RoutingTable()
    table.add("10.1.2.0", 24, 1)
    table.add("10.1.2.99", 24, 2)  # host bits ignored: same /24
    assert len(table) == 1
    assert table.lookup(IPv4Address("10.1.2.50")).out_port == 2


def test_add_many_fires_listener_once():
    table = RoutingTable()
    fires = []
    table.add_listener(lambda: fires.append(table.generation))
    table.add_many([("10.0.0.0", 8, 1), ("10.1.0.0", 16, 2),
                    ("10.1.2.0", 24, 3)])
    assert fires == [1]
    assert table.generation == 1
    assert table.lookup(IPv4Address("10.1.2.9")).out_port == 3


def test_bulk_nesting_defers_to_outermost():
    table = RoutingTable()
    fires = []
    table.add_listener(lambda: fires.append(None))
    with table.bulk():
        table.add("10.0.0.0", 8, 1)
        with table.bulk():
            table.add("10.1.0.0", 16, 2)
            table.remove("10.0.0.0", 8)
        assert fires == []  # still inside the outer bulk
    assert len(fires) == 1 and table.generation == 1
    assert table.lookup(IPv4Address("10.9.9.9")) is None
    assert table.lookup(IPv4Address("10.1.1.1")).out_port == 2


@pytest.mark.parametrize("backend", ["cpe", "bidirectional"])
def test_lookup_inside_bulk_sees_an_earlier_withdrawal(backend):
    """A route withdrawn inside a bulk block stops answering at once,
    as an added route starts to; only the listener fire waits for the
    end of the block."""
    from repro.net import make_routing_table

    table = make_routing_table(backend)
    table.add("10.0.0.0", 8, 1)
    table.add("10.1.0.0", 16, 2)
    addr = IPv4Address("10.1.2.3")
    with table.bulk():
        table.remove("10.1.0.0", 16)
        assert table.lookup_reference(addr).out_port == 1
        assert table.lookup(addr).out_port == 1
        table.add("10.1.2.0", 24, 3)
        assert table.lookup(addr).out_port == 3
    assert table.lookup(addr).out_port == 3


def test_bulk_without_changes_is_silent():
    table = build_basic_table()
    generation = table.generation
    with table.bulk():
        pass
    assert table.generation == generation


def test_route_cache_invalidation_counts_bulk_once():
    table = build_basic_table()
    cache = RouteCache(table, size_bits=8)
    before = cache.invalidations
    with table.bulk():
        for i in range(20):
            table.add(f"172.16.{i}.0", 24, i % 4)
    assert cache.invalidations == before + 1


def test_make_routing_table_selects_backend():
    from repro.net import BidirectionalTable, make_routing_table

    assert isinstance(make_routing_table("cpe"), RoutingTable)
    assert isinstance(make_routing_table("bidirectional"), BidirectionalTable)
    with pytest.raises(ValueError):
        make_routing_table("no-such-backend")


def test_probe_bounds():
    from repro.net import make_routing_table

    assert make_routing_table("cpe").probe_bound() == 3
    assert RoutingTable(strides=(8, 8, 8, 8)).probe_bound() == 4
    assert make_routing_table("bidirectional").probe_bound() == 18


def _fill_both():
    from repro.net import BidirectionalTable

    cpe = build_basic_table()
    bidi = BidirectionalTable()
    bidi.add_default(9)
    for prefix, length in [("10.0.0.0", 8), ("10.1.0.0", 16),
                           ("10.1.2.0", 24), ("10.1.2.3", 32),
                           ("192.168.0.0", 16)]:
        route = cpe._routes[(IPv4Address(prefix).value, length)]
        bidi.add(prefix, length, route.out_port)
    return cpe, bidi


def test_bidirectional_agrees_with_cpe():
    cpe, bidi = _fill_both()
    for probe in ["10.1.2.3", "10.1.2.9", "10.1.9.9", "10.9.9.9",
                  "192.168.77.1", "8.8.8.8"]:
        addr = IPv4Address(probe)
        assert bidi.lookup(addr).out_port == cpe.lookup(addr).out_port


def test_bidirectional_remove_and_bound():
    _, bidi = _fill_both()
    bidi.remove("10.1.2.3", 32)
    assert bidi.lookup(IPv4Address("10.1.2.3")).out_port == 3
    bidi.remove("192.168.0.0", 16)
    assert bidi.lookup(IPv4Address("192.168.1.1")).out_port == 9  # default
    assert 0 < bidi.avg_probes <= bidi.probe_bound()


@settings(max_examples=100, deadline=None)
@given(
    routes=st.lists(
        st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 32), st.integers(0, 15)),
        min_size=0,
        max_size=20,
    ),
    probes=st.lists(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=20),
)
def test_bidirectional_matches_references(routes, probes):
    from repro.net import BidirectionalTable

    table = BidirectionalTable()
    for value, length, port in routes:
        masked = value & (0xFFFFFFFF << (32 - length)) if length else 0
        table.add(str(IPv4Address(masked)), length, port)
    for probe in probes:
        addr = IPv4Address(probe)
        assert table.lookup(addr) == table.lookup_reference(addr)
        linear = table.lookup_linear(addr)
        assert (table.lookup(addr) is None) == (linear is None)
