"""Randomized long-run property test for the lookup backends.

Drives 50k add/reprogram/remove operations (12.5k per configuration:
three CPE stride layouts plus the bidirectional pipeline) against an
independent mirror of the route set, checking after every mutation that
``lookup`` agrees with a mirror-computed longest-prefix match, with
periodic cross-checks against ``lookup_linear`` and
``lookup_reference``.  A second test checks that the structure a
withdrawal leaves in place is the one a fresh load would build."""

import random
from typing import Dict, Optional, Tuple

import pytest

from repro.net import IPv4Address
from repro.net.routing import make_routing_table

OPS = 12_500
CONFIGS = [
    ("cpe", {"strides": (16, 8, 8)}),
    ("cpe", {"strides": (8, 8, 8, 8)}),
    ("cpe", {"strides": (16, 8, 4, 4)}),
    ("bidirectional", {}),
]


def _mask(length: int) -> int:
    return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0


def _mirror_lpm(live: Dict[Tuple[int, int], int], value: int) -> Optional[Tuple[int, int, int]]:
    """Longest-prefix match computed from the mirror alone."""
    for length in range(32, -1, -1):
        key = (value & _mask(length), length)
        if key in live:
            return (key[0], length, live[key])
    return None


def _random_route(rng: random.Random) -> Tuple[int, int]:
    # No /0 here: a default route expands across every root slot, so each
    # add or withdrawal of it costs O(2^stride).  Default routes are
    # covered by the unit tests and the withdrawal-structure test below.
    length = rng.choice((8, 12, 15, 16, 17, 20, 22, 24, 28, 32))
    value = rng.getrandbits(32) & _mask(length)
    return value, length


@pytest.mark.parametrize(
    "backend,kwargs", CONFIGS,
    ids=["cpe-16-8-8", "cpe-8x4", "cpe-16-8-4-4", "bidirectional"])
def test_randomized_ops_agree_with_mirror(backend, kwargs):
    rng = random.Random(f"lookup-props:{backend}:{sorted(kwargs.items())}")
    table = make_routing_table(backend, **kwargs)
    live: Dict[Tuple[int, int], int] = {}

    def check(value: int) -> None:
        addr = IPv4Address(value)
        got = table.lookup(addr)
        expected = _mirror_lpm(live, value)
        if expected is None:
            assert got is None, f"ghost route for {addr}: {got}"
        else:
            assert got is not None, f"lost route for {addr}, want {expected}"
            assert (got.prefix.value, got.length, got.out_port) == expected
        assert got == table.lookup_reference(addr)

    live_keys = []  # unordered view for O(1) random picks
    # Keep the live set near an equilibrium, so removals and adds stay
    # balanced over all 12.5k ops instead of the table only growing.
    target_live = 150

    def pick_live():
        """Random live key; purges dead keys (swap-remove) as it goes so
        the pick distribution does not drift toward no-op removals."""
        while live_keys:
            i = rng.randrange(len(live_keys))
            key = live_keys[i]
            if key in live:
                return key
            live_keys[i] = live_keys[-1]
            live_keys.pop()
        return None

    for op_i in range(OPS):
        roll = rng.random()
        add_p = 0.55 if len(live) < target_live else 0.10
        if roll < add_p or not live:
            value, length = _random_route(rng)
            port = rng.randrange(16)
            if (value, length) not in live:
                live_keys.append((value, length))
            live[(value, length)] = port
            table.add(str(IPv4Address(value)), length, port)
        elif roll < add_p + 0.30:
            picked = pick_live()
            value, length = picked
            # Exercise both spellings of absence alongside the removal.
            assert table.discard(str(IPv4Address(0)), 31) is None
            del live[(value, length)]
            table.remove(str(IPv4Address(value)), length)
        elif roll < add_p + 0.35:
            # Reprogram: a bulk batch of adds + withdrawals, one commit.
            with table.bulk():
                for __ in range(rng.randrange(2, 10)):
                    value, length = _random_route(rng)
                    port = rng.randrange(16)
                    if (value, length) not in live:
                        live_keys.append((value, length))
                    live[(value, length)] = port
                    table.add(str(IPv4Address(value)), length, port)
                for __ in range(rng.randrange(0, 4)):
                    value, length = live_keys[rng.randrange(len(live_keys))]
                    if (value, length) in live:
                        del live[(value, length)]
                        table.remove(str(IPv4Address(value)), length)
        # else: probe-only round.

        check(rng.getrandbits(32))
        if live:
            value, length = live_keys[rng.randrange(len(live_keys))]
            host = rng.getrandbits(32 - length) if length < 32 else 0
            check((value & _mask(length)) | host)
        if op_i % 500 == 0:
            probe = IPv4Address(rng.getrandbits(32))
            assert table.lookup(probe) == table.lookup_linear(probe)

    assert len(table) == len(live)
    # Final dense sweep: the structure and mirror agree everywhere sampled.
    for __ in range(500):
        check(rng.getrandbits(32))


def _trie_shape(node):
    """Every slot of a CPE node and, recursively, of the children it
    links (``None`` where no child exists)."""
    return (list(node.entries),
            [None if child is None else _trie_shape(child) for child in node.children])


def _structure(table):
    if table.backend_name == "cpe":
        return _trie_shape(table._root)
    return table._short, table._long


@pytest.mark.parametrize(
    "backend,kwargs", CONFIGS,
    ids=["cpe-16-8-8", "cpe-8x4", "cpe-16-8-4-4", "bidirectional"])
def test_withdrawal_leaves_the_structure_of_a_fresh_load(backend, kwargs):
    """After any mix of adds, reprograms and withdrawals, inside and
    outside ``bulk()``, the structure equals a fresh bulk load of the
    surviving routes: same CPE nodes and slots (or bidirectional stages),
    and the same memory probes on a fixed probe set -- the probes that
    ``avg_probes`` and the modeled miss-path cycles count."""
    rng = random.Random(f"withdraw-structure:{backend}:{sorted(kwargs.items())}")
    # Clustered prefixes: routes share their top bits with one of three
    # anchors, so covering routes, child nodes and /0../32 nest often.
    anchors = [rng.getrandbits(32) for __ in range(3)]
    lengths = (0, 1, 7, 8, 9, 15, 16, 17, 20, 23, 24, 25, 27, 28, 29, 31, 32)

    def draw(bits: int = 32) -> int:
        return rng.choice(anchors) ^ rng.getrandbits(rng.randrange(bits + 1))

    probe_set = [IPv4Address(draw()) for __ in range(200)]
    probe_set += [IPv4Address(rng.getrandbits(32)) for __ in range(50)]
    table = make_routing_table(backend, **kwargs)
    live = []

    def mutate() -> None:
        # Withdrawals balance adds near 16 live routes.
        if rng.random() < len(live) / (len(live) + 20):
            key = live.pop(rng.randrange(len(live)))
            table.remove(str(IPv4Address(key[0])), key[1])
        elif live and rng.random() < 0.2:
            value, length = live[rng.randrange(len(live))]
            table.add(str(IPv4Address(value)), length, rng.randrange(16))
        else:
            length = rng.choice(lengths)
            value = draw() & _mask(length)
            if (value, length) not in live:
                live.append((value, length))
            table.add(str(IPv4Address(value)), length, rng.randrange(16))

    for batch in range(80):
        if rng.random() < 0.5:
            with table.bulk():
                for __ in range(rng.randrange(1, 12)):
                    mutate()
        else:
            for __ in range(rng.randrange(1, 12)):
                mutate()
        fresh = make_routing_table(backend, **kwargs)
        fresh.add_many((str(r.prefix), r.length, r.out_port, r.next_hop_mac)
                       for r in table.routes)
        assert len(table) == len(live)
        assert _structure(table) == _structure(fresh), f"batch {batch}"
        probes, fresh_probes = table.probes, fresh.probes
        for addr in probe_set:
            assert table.lookup(addr) == fresh.lookup(addr)
        assert table.probes - probes == fresh.probes - fresh_probes
