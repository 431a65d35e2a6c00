"""The invariant-gated workloads scenario behind ``python -m repro workloads``.

For each selected lookup backend this builds a BGP-shaped table, replays
internet-shaped probe streams (Zipf, flash crowd, scan storm, plus a
uniform dark-space phase) through a :class:`RouteCache`, then withdraws a
sampled batch of routes -- and checks the invariants that make the
numbers trustworthy:

* ``trie_matches_reference`` / ``trie_matches_linear`` -- the fast
  structure agrees with two independent reference lookups on sampled
  probes (dense masked-dict reference, plus a linear-scan subset);
* ``drops_accounted`` -- every probe is either resolved or counted
  unroutable, and the unroutable count exactly matches the reference
  classification (nothing silently vanishes on the miss path);
* ``bounded_miss_path`` -- observed mean probes per full-table lookup
  stay within the backend's structural worst case, so modeled miss-path
  cycles are bounded;
* ``withdrawals_clean`` -- after a bulk withdrawal the structure still
  agrees with the reference on the withdrawn destinations (no stale
  blackhole answers) and the route cache was invalidated exactly once.

Each probe stream is drawn once, where the first backend first probes
it, and replayed to every later backend.

``WorkloadResult`` is a :class:`repro.verdict.Verdict` over every
backend's checks; its exit code is the CLI's.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.sim import collector_held
from repro.net.addresses import IPv4Address
from repro.net.routing import MEMORY_PROBE_CYCLES, RouteCache
from repro.verdict import Verdict, inv
from repro.workloads.generators import (flash_crowd_addresses, scan_addresses,
                                        zipf_addresses)
from repro.workloads.tables import bgp_prefixes, build_table, destinations_for

DEFAULT_BACKENDS: Tuple[str, ...] = ("cpe", "bidirectional")


@dataclass
class PhaseStats:
    """Route-cache behaviour over one probe stream."""

    name: str
    probes: int = 0
    hits: int = 0
    misses: int = 0
    resolved: int = 0
    unroutable: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def accounted(self) -> bool:
        return (self.resolved + self.unroutable == self.probes
                and self.hits + self.misses == self.probes)

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "probes": self.probes,
            "hits": self.hits,
            "misses": self.misses,
            "resolved": self.resolved,
            "unroutable": self.unroutable,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class BackendReport:
    """One backend's end-to-end run: build, probe phases, checks."""

    backend: str
    prefixes: int
    build_seconds: float
    probe_bound: int
    phases: List[PhaseStats] = field(default_factory=list)
    avg_probes: float = 0.0
    modeled_cycles: float = 0.0
    agreement_samples: int = 0
    linear_samples: int = 0
    withdrawn: int = 0
    cache_invalidations_on_withdraw: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def phase(self, name: str) -> PhaseStats:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "prefixes": self.prefixes,
            "build_seconds": round(self.build_seconds, 4),
            "probe_bound": self.probe_bound,
            "avg_probes": round(self.avg_probes, 3),
            "modeled_cycles": round(self.modeled_cycles, 1),
            "memory_probe_cycles": MEMORY_PROBE_CYCLES,
            "agreement_samples": self.agreement_samples,
            "linear_samples": self.linear_samples,
            "withdrawn": self.withdrawn,
            "phases": [p.as_dict() for p in self.phases],
            "checks": dict(self.checks),
            "ok": self.ok,
        }


@dataclass
class WorkloadResult(Verdict):
    prefixes: int
    probes: int
    seed: int
    zipf_s: float
    reports: List[BackendReport] = field(default_factory=list)
    label = "workloads"

    @property
    def invariants(self) -> List[Dict[str, object]]:
        """One invariant per backend check, named ``backend:check``."""
        return [inv(f"{r.backend}:{name}", passed, "")
                for r in self.reports for name, passed in r.checks.items()]

    def table(self) -> List[str]:
        header = (f"{'backend':<14} {'build s':>8} {'zipf hit%':>10} "
                  f"{'flash hit%':>11} {'scan hit%':>10} {'avg probes':>11} "
                  f"{'cycles':>8} {'checks':>8}")
        lines = [header, "-" * len(header)]
        for r in self.reports:
            lines.append(
                f"{r.backend:<14} {r.build_seconds:>8.2f} "
                f"{100 * r.phase('zipf').hit_rate:>10.1f} "
                f"{100 * r.phase('flash_crowd').hit_rate:>11.1f} "
                f"{100 * r.phase('scan_storm').hit_rate:>10.1f} "
                f"{r.avg_probes:>11.2f} {r.modeled_cycles:>8.1f} "
                f"{'ok' if r.ok else 'FAIL':>8}")
        return lines

    def artifact(self) -> Dict[str, object]:
        return {
            "schema": "repro-workloads-v1",
            "prefixes": self.prefixes,
            "probes": self.probes,
            "seed": self.seed,
            "zipf_s": self.zipf_s,
            "backends": [r.as_dict() for r in self.reports],
            "ok": self.ok,
            "failures": self.violations,
        }


def _run_phase(report: BackendReport, cache: RouteCache, name: str,
               addrs: Iterable[IPv4Address]) -> PhaseStats:
    """Push a probe stream through the cache, accounting every outcome."""
    stats = PhaseStats(name)
    hits0, misses0 = cache.hits, cache.misses
    lookup, fill = cache.lookup, cache.fill
    probes = resolved = unroutable = 0
    for addr in addrs:
        probes += 1
        route = lookup(addr)
        if route is None:
            route = fill(addr)
        if route is None:
            unroutable += 1
        else:
            resolved += 1
    stats.probes, stats.resolved, stats.unroutable = probes, resolved, unroutable
    stats.hits = cache.hits - hits0
    stats.misses = cache.misses - misses0
    report.phases.append(stats)
    return stats


@collector_held()
def run_workloads(
    prefixes: int = 100_000,
    probes: int = 100_000,
    seed: int = 0,
    backends: Optional[Sequence[str]] = None,
    zipf_s: float = 1.1,
    cache_bits: int = 10,
    sample: int = 2_000,
    linear_sample: int = 12,
    withdraw_sample: int = 256,
) -> WorkloadResult:
    """Build, probe and verify each backend; see the module docstring.

    ``sample`` bounds the dense trie-vs-reference agreement check,
    ``linear_sample`` the (expensive, O(N)-per-probe) linear-scan subset
    and ``withdraw_sample`` the bulk-withdrawal batch.
    """
    backends = tuple(backends) if backends else DEFAULT_BACKENDS
    specs = bgp_prefixes(prefixes, seed=seed)
    dests = destinations_for(specs, seed=seed)
    result = WorkloadResult(prefixes=prefixes, probes=probes, seed=seed,
                            zipf_s=zipf_s)

    side_count = max(1, min(probes // 4, 25_000))
    # Each stream is drawn where the first backend first probes it (a
    # generator draws nothing until iterated), then kept as address
    # values and replayed to every later backend.
    streams: Dict[str, Iterable] = {
        "zipf": zipf_addresses(probes, dests, s=zipf_s, seed=seed),
        "flash_crowd": flash_crowd_addresses(side_count, dests, seed=seed),
        "scan_storm": scan_addresses(side_count, dests, seed=seed),
    }
    for backend in backends:
        # Wall-clock is measurement output here (build-time reporting),
        # not simulation input -- it never feeds back into behaviour.
        t0 = time.perf_counter()  # repro-lint: disable=RPR102
        table, _ = build_table(prefixes, seed=seed, backend=backend,
                               specs=specs)
        build_seconds = time.perf_counter() - t0  # repro-lint: disable=RPR102
        report = BackendReport(backend=backend, prefixes=len(table),
                               build_seconds=build_seconds,
                               probe_bound=table.probe_bound())
        cache = RouteCache(table, size_bits=cache_bits)

        # -- probe phases -----------------------------------------------------
        for name, stream in streams.items():
            if not isinstance(stream, array):
                stream = streams[name] = array("I", (a.value for a in stream))
            _run_phase(report, cache, name, map(IPv4Address, stream))

        # -- uniform dark-space phase + reference agreement -------------------
        rng = random.Random(f"verify:{seed}")
        mismatches = linear_mismatches = ref_unroutable = 0
        uniform = PhaseStats("uniform")
        hits0, misses0 = cache.hits, cache.misses
        for i in range(sample):
            if i % 2 == 0:
                addr = IPv4Address(dests[rng.randrange(len(dests))])
            else:
                addr = IPv4Address(rng.getrandbits(32))
            uniform.probes += 1
            via_cache = cache.lookup(addr)
            if via_cache is None:
                via_cache = cache.fill(addr)
            ref = table.lookup_reference(addr)
            if ref is None:
                ref_unroutable += 1
            if via_cache is None:
                uniform.unroutable += 1
            else:
                uniform.resolved += 1
            if table.lookup(addr) != ref or via_cache != ref:
                mismatches += 1
            if i < linear_sample and table.lookup_linear(addr) != ref:
                linear_mismatches += 1
        uniform.hits = cache.hits - hits0
        uniform.misses = cache.misses - misses0
        report.phases.append(uniform)
        report.agreement_samples = sample
        report.linear_samples = min(linear_sample, sample)

        # -- bulk withdrawal: no stale blackholes, one invalidation -----------
        withdrawn_idx = rng.sample(range(len(specs)),
                                   min(withdraw_sample, len(specs)))
        invalidations0 = cache.invalidations
        with table.bulk():
            for i in withdrawn_idx:
                prefix, length, _port, _mac = specs[i]
                table.remove(prefix, length)
        report.withdrawn = len(withdrawn_idx)
        report.cache_invalidations_on_withdraw = (
            cache.invalidations - invalidations0)
        withdraw_mismatches = 0
        for i in withdrawn_idx:
            addr = IPv4Address(dests[i])
            if table.lookup(addr) != table.lookup_reference(addr):
                withdraw_mismatches += 1

        report.avg_probes = table.avg_probes
        report.modeled_cycles = table.modeled_lookup_cycles()
        report.checks = {
            "table_loaded": report.prefixes == len(specs),
            "trie_matches_reference": mismatches == 0,
            "trie_matches_linear": linear_mismatches == 0,
            "drops_accounted": (
                all(p.accounted() for p in report.phases)
                # Every dest-derived probe is covered by construction;
                # dark-space unroutables must match the reference exactly.
                and all(report.phase(n).unroutable == 0
                        for n in ("zipf", "flash_crowd", "scan_storm"))
                and uniform.unroutable == ref_unroutable),
            "bounded_miss_path": (
                0.0 < report.avg_probes <= report.probe_bound
                and report.modeled_cycles
                <= report.probe_bound * MEMORY_PROBE_CYCLES),
            "withdrawals_clean": (
                withdraw_mismatches == 0
                and len(table) == len(specs) - len(withdrawn_idx)
                and report.cache_invalidations_on_withdraw == 1),
        }
        result.reports.append(report)
    return result
