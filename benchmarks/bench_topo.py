"""Multi-router topology scenarios: network-wide robustness under one
shared event engine.

The paper's single-router robustness claims (bounded loss, accounted
drops, control-plane isolation) are re-checked here at network scale:
link-failure reconvergence, route churn and congestion collapse, each a
4-router topology with link-state routing, and the same three under
netview's distributed tracing and metrics.  Hard assertions are the
scenario invariants themselves; the trajectory rows record the headline
golden numbers (reconvergence and detection time, goodput, loss
accounting, exact hop sums).
"""

import pytest
from conftest import report, run_once

from repro.topo.netview import run_netview
from repro.topo.scenarios import run_topo

SEED = 7
WINDOW = 120_000
WARMUP = 10_000
# The collapse regime needs a longer window to fully develop (the
# bottleneck queue must fill and then shed a meaningful drop count).
CONGESTION_WINDOW = 200_000


def _worst_detection(result):
    return max((d["latency"] for d in result.detections
                if d.get("latency") is not None), default=None)


def test_link_failure_reconvergence(benchmark):
    result = run_once(
        benchmark,
        lambda: run_topo("link-failure", seed=SEED, window=WINDOW,
                         warmup=WARMUP)[0])
    assert result.ok, [i for i in result.invariants if not i["ok"]]
    acct = result.accounting
    reconv = max(r["cycles"] for r in result.reconvergences)
    report(
        benchmark,
        "Topology link failure + reconvergence (4-router ring)",
        [
            ("reconverge cycles", None, reconv),
            ("worst detection cycles", None, _worst_detection(result)),
            ("sent", None, acct["sent"]),
            ("delivered", None, acct["delivered"]),
            ("link drops", None, acct["link_drops"]),
            ("accounting residual", 0, acct["residual"]),
            ("invariants ok", 1, int(result.ok)),
        ],
    )


def test_congestion_collapse(benchmark):
    result = run_once(
        benchmark,
        lambda: run_topo("congestion-collapse", seed=SEED,
                         window=CONGESTION_WINDOW, warmup=WARMUP)[0])
    assert result.ok, [i for i in result.invariants if not i["ok"]]
    acct = result.accounting
    report(
        benchmark,
        "Topology congestion collapse (bottleneck link)",
        [
            ("sent", None, acct["sent"]),
            ("delivered", None, acct["delivered"]),
            ("bottleneck drops", None, acct["link_drops"]),
            ("accounting residual", 0, acct["residual"]),
            ("invariants ok", 1, int(result.ok)),
        ],
    )


def test_route_churn(benchmark):
    result = run_once(
        benchmark,
        lambda: run_topo("route-churn", seed=SEED, window=WINDOW,
                         warmup=WARMUP)[0])
    assert result.ok, [i for i in result.invariants if not i["ok"]]
    report(
        benchmark,
        "Topology route churn (flapping link)",
        [
            ("reconverge cycles", None,
             max(r["cycles"] for r in result.reconvergences)),
            ("worst detection cycles", None, _worst_detection(result)),
            ("delivered", None, result.accounting["delivered"]),
            ("invariants ok", 1, int(result.ok)),
        ],
    )


@pytest.mark.parametrize("scenario",
                         ["link-failure", "route-churn", "congestion-collapse"])
def test_netview(benchmark, scenario):
    window = CONGESTION_WINDOW if scenario == "congestion-collapse" else WINDOW
    view = run_once(
        benchmark,
        lambda: run_netview(scenario, seed=SEED, window=window,
                            warmup=WARMUP)[0])
    assert view.ok, [i for i in view.invariants if not i["ok"]]
    hops = view.hop_report
    top_links = view.metrics_report["top_congested_links"]
    report(
        benchmark,
        f"Netview {scenario}: tracing + metrics",
        [
            ("hop sums exact", 1, int(hops["exact"])),
            ("traced", None, hops["traces"]),
            ("delivered traced", None, hops["delivered"]),
            ("metric samples", None, view.topo.metrics.samples),
            ("peak link occupancy", None,
             top_links[0]["peak_occupancy"] if top_links else None),
            ("invariants ok", 1, int(view.ok)),
        ],
    )
