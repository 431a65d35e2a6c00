"""Pins the destination probe streams that ``repro workloads`` replays.

The lookup-bgp benchmark digest and every ``workloads`` artifact depend
on the exact addresses ``zipf_addresses``, ``flash_crowd_addresses``
and ``scan_addresses`` yield, and so on every random draw they make,
including draws whose values the address streams discard.  Each case
hashes the address values of one stream, so a refactor of the
generators that adds, drops or reorders a draw shows up here.
"""

import hashlib
import json

import pytest

from repro.workloads import bgp_prefixes, destinations_for
from repro.workloads.generators import (flash_crowd_addresses, scan_addresses,
                                        zipf_addresses)

HOT_OUTSIDE = 0x0B000001  # not in any seed's 300-destination population


def _streams(seed):
    dests = destinations_for(bgp_prefixes(300, seed=seed), seed=seed)
    flash_cases = [
        {"count": 1},
        {"count": 600},
        {"count": 600, "hot": dests[17]},
        {"count": 600, "hot": HOT_OUTSIDE},
        {"count": 400, "peak": 0.0},
        {"count": 400, "peak": 1.0},
        {"count": 300, "s": 0.7},
    ]
    doc = {
        "zipf": [[a.value for a in zipf_addresses(600, dests, seed=seed)],
                 [a.value for a in zipf_addresses(300, dests, s=0.7,
                                                  seed=seed)]],
        "flash_crowd": [[a.value for a in flash_crowd_addresses(
                             dests=dests, seed=seed, **case)]
                        for case in flash_cases],
        "scan": [[a.value for a in scan_addresses(count, dests, seed=seed)]
                 for count in (1, 600)],
    }
    assert HOT_OUTSIDE not in dests
    return doc


PINS = {
    0: "695b81c6dddc6570a09fa0aedae562b059c07c0fc5fc1c2008c6715c0a288022",
    3: "e57ca00b6b6aa46852974337fdba79545a28ae826c22283ba25ce9b261585ba6",
    11: "86e5e460111b8d08c13c24fdfd82f8139c6bd1ab895c7f9f055b0a85f3520981",
    29: "317d377fbd1b1013412f178b2f5d2024565c2008c454f57013a574b42d11aeb2",
}


@pytest.mark.parametrize("seed", sorted(PINS))
def test_probe_streams_are_pinned(seed):
    digest = hashlib.sha256(
        json.dumps(_streams(seed), sort_keys=True).encode()).hexdigest()
    assert digest == PINS[seed]
