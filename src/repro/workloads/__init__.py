"""Internet-realistic workloads: full routing tables + heavy-tailed probes.

Today's paper scenarios drive ~10-route tables with uniform synthetic
streams, so the route-cache / CPE-trie split (the robustness argument's
load-bearing wall) is barely measured on the miss side.  This package
scales both axes:

* :mod:`repro.workloads.tables` -- seeded BGP-like prefix tables
  (10k-1M entries, realistic /8-/24 length mix, origin-block clustering
  like real announcement locality);
* :mod:`repro.workloads.generators` -- Zipf destination popularity,
  flash-crowd ramps and scan storms, all plain deterministic streams of
  destination probes;
* :mod:`repro.workloads.scenario` -- the invariant-gated
  ``python -m repro workloads`` run: build a table per lookup backend,
  replay the workloads through a route cache, and verify trie==reference
  agreement, accounted drops and bounded miss-path latency.
"""

from repro.workloads.generators import ZipfSampler, zipf_addresses
from repro.workloads.scenario import WorkloadResult, run_workloads
from repro.workloads.tables import (DEFAULT_LENGTH_MIX, bgp_prefixes,
                                    build_table, destinations_for)

__all__ = [
    "DEFAULT_LENGTH_MIX",
    "WorkloadResult",
    "ZipfSampler",
    "bgp_prefixes",
    "build_table",
    "destinations_for",
    "run_workloads",
    "zipf_addresses",
]
