"""The network health view: one report over tracing + metrics.

``python -m repro netview <scenario>`` reruns a topology scenario with
the network-wide observability layer switched on -- distributed tracing
(:mod:`repro.topo.tracing`) and the deterministic time-series sampler
(:mod:`repro.obs.metrics`) -- and renders what the bare scenario run
cannot show: per-hop latency decomposition for every delivered packet,
drop/ICMP attribution at the exact hop, per-link utilization and
occupancy series, convergence timelines, and the top-N congested links
and slowest flows.

Everything here is a pure function of (scenario, seed, window, warmup):
the rendered report, the ``--json`` artifact and the ``--chrome`` merged
trace are byte-identical run after run (``tests/test_topo_tracing.py``
diffs them), because the underlying simulation has no wall clock and the
sampler runs on the event clock.

The netview run gates its own invariants on top of the scenario's:

* every delivered packet's hop segments sum exactly to its measured
  host-to-host latency;
* the merged multi-process Chrome trace passes the validator;
* a wrapped trace ring on any node is surfaced (``truncated``), never
  silently ignored.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs import export
from repro.obs.analysis import validate_chrome_trace
from repro.obs.metrics import sampler_report
from repro.topo.scenarios import (DEFAULT_WARMUP, DEFAULT_WINDOW, TopoResult,
                                  run_topo)
from repro.topo.tracing import merged_chrome_trace
from repro.verdict import Verdict, inv, invariant_table

#: Incident kinds that make up the convergence timeline.
_TIMELINE_KINDS = frozenset({"topo-link-down", "topo-link-up",
                             "topo-reconverged"})


def instrument(topo) -> None:
    """The netview instrumentation hook: tracing + metrics on one armed
    topology (passed to :func:`repro.topo.scenarios.run_topo`)."""
    topo.enable_tracing()
    topo.enable_metrics()


class NetviewResult(Verdict):
    """One scenario's network health report, built from the live
    topology the scenario left behind.  Its gate: the scenario's
    invariants plus the observability layer's own (exact hop sums,
    valid merged trace)."""

    def __init__(self, result: TopoResult, top: int = 5):
        self.result = result
        self.topo = result.topo
        self.top = top
        self.hop_report = self.topo.tracer.hop_report(top_n=top)
        self.metrics_report = sampler_report(self.topo.metrics, top_n=top)
        problems = validate_chrome_trace(self.chrome())
        held = len(result.invariants) - len(result.violations)
        self.invariants = [
            inv("scenario-invariants", result.ok,
                f"{held}/{len(result.invariants)} scenario invariants held"),
            inv("hop-sums-exact", self.hop_report["exact"],
                f"{self.hop_report['delivered']} delivered journeys, "
                "per-hop segments sum exactly to host-to-host latency"),
            inv("merged-chrome-valid", not problems,
                f"{len(problems)} validator problems" if problems else
                "merged multi-process trace passes the validator"),
        ]

    @property
    def scenario(self) -> str:
        return self.result.scenario

    @property
    def truncated(self) -> bool:
        return self.topo.trace_truncated

    def convergence_timeline(self) -> List[Dict[str, Any]]:
        """Initial convergence plus every link down/up and reconvergence
        episode, in event order."""
        timeline: List[Dict[str, Any]] = [{
            "cycle": self.result.converge_cycles,
            "event": "initial-convergence",
            "detail": f"flooded and programmed in "
                      f"{self.result.converge_cycles} cycles",
        }]
        for incident in self.result.incidents:
            if incident["kind"] in _TIMELINE_KINDS:
                timeline.append({"cycle": incident["cycle"],
                                 "event": incident["kind"],
                                 "detail": incident["detail"]})
        return timeline

    def chrome(self) -> Dict[str, Any]:
        """The merged multi-process Chrome trace for this run."""
        return merged_chrome_trace(self.topo)

    def artifact(self) -> Dict[str, Any]:
        """The full JSON artifact (``--json``); byte-identical per seed."""
        metrics = self.topo.metrics
        return {
            "scenario": self.scenario,
            "seed": self.result.seed,
            "window_cycles": self.result.window_cycles,
            "warmup_cycles": self.result.warmup_cycles,
            "ok": self.ok,
            "invariants": self.invariants,
            "truncated": self.truncated,
            "trace_dropped_events": self.topo.trace_dropped_events,
            "tracing": self.hop_report,
            "metrics": {
                "period": getattr(metrics, "period", None),
                "samples": metrics.to_dict()["samples"],
                "report": self.metrics_report,
                "series": metrics.to_dict()["series"],
            },
            "convergence": self.convergence_timeline(),
            "accounting": self.result.accounting,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return export.dumps(self.artifact(), indent=indent, sort_keys=True)

    def table(self) -> List[str]:
        """The human-readable report."""
        rep, met = self.hop_report, self.metrics_report
        lines = [f"## netview {self.scenario} (seed {self.result.seed})"]
        terminals = ", ".join(f"{k}={v}" for k, v in rep["terminals"].items())
        lines.append(
            f"traces: {rep['traces']} ({terminals or 'none'}); "
            f"hop sums exact: {'yes' if rep['exact'] else 'NO'}")
        if rep["drop_attribution"]:
            lines.append("drop attribution (exact hop):")
            for where, count in rep["drop_attribution"].items():
                lines.append(f"  {where}: {count}")
        if rep["slowest_flows"]:
            lines.append("slowest flows (mean host-to-host cycles):")
            for row in rep["slowest_flows"]:
                lines.append(f"  {row['flow']}: {row['mean_latency']:.1f}")
        if rep["icmp_received"]:
            icmp = ", ".join(f"{host}={count}"
                             for host, count in rep["icmp_received"].items())
            lines.append(f"icmp errors received: {icmp}")
        if met["top_congested_links"]:
            lines.append("top congested links (peak occupancy):")
            for row in met["top_congested_links"]:
                lines.append(f"  {row['series']}: {row['peak_occupancy']:.3f}")
        if met["top_loaded_routers"]:
            lines.append("top loaded routers (peak queue depth):")
            for row in met["top_loaded_routers"]:
                lines.append(f"  {row['series']}: {row['peak_queue_depth']:.3f}")
        metrics = self.topo.metrics
        lines.append(
            f"metrics: {len(metrics.series_names())} series, "
            f"{metrics.to_dict()['samples']} samples "
            f"(period {getattr(metrics, 'period', None)})")
        lines.append("convergence timeline:")
        for entry in self.convergence_timeline():
            lines.append(f"  cycle {entry['cycle']}: {entry['detail']}")
        if self.truncated:
            lines.append(
                f"WARNING: network trace truncated "
                f"({self.topo.trace_dropped_events} spans ring-evicted)")
        return lines + invariant_table(self.invariants)


def run_netview(name: str, seed: int = 0, window: int = DEFAULT_WINDOW,
                warmup: int = DEFAULT_WARMUP, top: int = 5,
                extra_instrument: Optional[Callable] = None
                ) -> List[NetviewResult]:
    """Run scenario ``name`` (or ``"all"``) with network-wide
    observability on; returns one :class:`NetviewResult` per scenario.
    ``extra_instrument`` composes after the standard hook (tests use it
    to shrink recorder rings)."""

    def hook(topo) -> None:
        instrument(topo)
        if extra_instrument is not None:
            extra_instrument(topo)

    results = run_topo(name, seed=seed, window=window, warmup=warmup,
                       instrument=hook)
    return [NetviewResult(r, top=top) for r in results]
