"""Pins what every periodic reader of simulator state produces.

The recorder's utilization series and cycle accounting, the topology
metric probes and the health monitors all turn cumulative counters into
per-period deltas.  Each test hashes the canonical JSON of one run's
sampled artifacts, so a change to how the samplers read, difference or
normalise their counters -- or to when they take their baseline -- shows
up here even when the run's packet outcomes are unchanged.

``test_metrics_are_byte_identical_per_seed`` only compares two runs of
the same tree, and the trace hash covers spans, not series; these
digests pin the series themselves.
"""

import hashlib

from repro.obs import export
from repro.obs.monitor import monitor_scenario
from repro.topo.netview import run_netview
from repro.topo.scenarios import run_topo

SEED = 7


def _digest(doc) -> str:
    return hashlib.sha256(export.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_topology_recorder_series_and_monitors_are_pinned():
    topo = run_topo("link-failure", seed=SEED)[0].topo
    routers = {}
    for name in sorted(topo.nodes):
        node = topo.nodes[name]
        rec = node.recorder
        routers[name] = {
            "metrics": rec.metrics.to_dict(),
            "accounting": rec.accounting,
            "monitor": node.monitor.to_dict(),
            "last_sample": repr(node.monitor.last_sample),
        }
    assert _digest(routers) == (
        "5fe619287f933f2b95bfc21137f82b8c417cfc2f953239bf005b45028bb42b62")


def test_netview_metric_series_are_pinned():
    view = run_netview("link-failure", seed=SEED)[0]
    assert _digest(view.result.topo.metrics.to_dict()) == (
        "ae1c430582be0f14ed606a2c3f3d9df9be0493ab5c9fcb90d082e8498fceae17")


def test_monitor_scenario_is_pinned():
    result = monitor_scenario("overload", window=60_000)
    doc = {"artifact": result.artifact(),
           "last_sample": repr(result.monitor.last_sample)}
    assert _digest(doc) == (
        "155a94bb2e5afd2d2a107ed9211c6c16e1b2ea1d56b8ee6787856451de7d7993")
