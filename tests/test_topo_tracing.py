"""Network-wide distributed tracing: the cross-router journey record.

Contract under test (docs/observability.md, "Network-wide tracing"):

* every delivered packet's per-hop latency decomposition sums EXACTLY
  to its measured host-to-host latency -- packet by packet, not in
  aggregate;
* a lost packet's journey ends at the exact link or router that killed
  it, with the drop kind attributed;
* the merged multi-process Chrome trace passes the validator: one
  process per router, cross-process flow events for link crossings,
  timestamps monotonic per track;
* everything is a pure function of (scenario, seed): the netview JSON
  artifact and the merged Chrome export are byte-identical across two
  same-seed runs;
* a wrapped trace ring on ANY node flags the whole network trace as
  truncated -- coverage gaps are surfaced, never silently ignored.
"""

import json

import pytest

from repro.obs.analysis import validate_chrome_trace
from repro.obs.recorder import Recorder
from repro.topo.netview import run_netview
from repro.topo.tracing import (
    NULL_TRACER,
    ROUTER_PID_BASE,
    TRACE_ID_BASE,
    NullNetTracer,
)

SEED = 7
WINDOW = 120_000


@pytest.fixture(scope="module")
def views():
    """All three scenarios at the DEFAULT window: congestion-collapse
    needs the full horizon for its own collapse-observed invariant."""
    return {v.scenario: v for v in run_netview("all", seed=SEED)}


@pytest.fixture(scope="module")
def link_failure():
    return run_netview("link-failure", seed=SEED, window=WINDOW)[0]


@pytest.fixture(scope="module")
def rerun_link_failure():
    """A second, independent same-seed run (byte-identity comparisons)."""
    return run_netview("link-failure", seed=SEED, window=WINDOW)[0]


@pytest.fixture(scope="module")
def bare_link_failure():
    """The uninstrumented run (observer-effect comparisons)."""
    from repro.topo.scenarios import run_topo

    return run_topo("link-failure", seed=SEED, window=WINDOW)[0]


# ---------------------------------------------------------------------------
# Per-hop decomposition.
# ---------------------------------------------------------------------------


def test_hop_segments_sum_exactly_per_delivered_packet(link_failure):
    tracer = link_failure.topo.tracer
    delivered = 0
    for tid in tracer.journeys():
        d = tracer.decompose(tid)
        if d["terminal"] != "delivered":
            continue
        delivered += 1
        span = sum(seg["cycles"] for seg in d["segments"])
        assert span == d["latency"], (tid, d)
        assert d["exact"]
    assert delivered > 0


def test_journeys_traverse_links_and_routers(link_failure):
    tracer = link_failure.topo.tracer
    places = set()
    for tid in tracer.journeys():
        for seg in tracer.decompose(tid)["segments"]:
            places.add(seg["where"].split(":", 1)[0])
    # A multi-hop topology: residence at hosts/routers plus link transit.
    assert {"host", "link"} <= places


def test_trace_ids_share_the_global_space(link_failure):
    tracer = link_failure.topo.tracer
    assert tracer.journeys()
    assert all(tid >= TRACE_ID_BASE for tid in tracer.journeys())


def test_every_scenario_gate_holds(views):
    for name, view in views.items():
        assert view.ok, (name, [i for i in view.invariants if not i["ok"]])


def test_drop_or_delivery_accounted_for_every_trace(views):
    """Terminal states cover every trace: delivered, dropped (with the
    exact hop attributed), or consumed by a router (control/ICMP)."""
    for view in views.values():
        rep = view.hop_report
        assert sum(rep["terminals"].values()) == rep["traces"]
        dropped = rep["terminals"].get("dropped", 0)
        assert sum(rep["drop_attribution"].values()) >= dropped
        for key in rep["drop_attribution"]:
            assert key.startswith(("link:", "router:", "host:", "at:"))


# ---------------------------------------------------------------------------
# Merged multi-process Chrome trace.
# ---------------------------------------------------------------------------


def test_merged_chrome_trace_passes_validator(link_failure):
    doc = link_failure.chrome()
    assert validate_chrome_trace(doc) == []


def test_merged_chrome_trace_has_router_processes_and_flows(link_failure):
    doc = link_failure.chrome()
    events = doc["traceEvents"]
    process_names = {e["args"]["name"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
    routers = {n for n in process_names if n.startswith("router ")}
    assert "network" in process_names
    assert len(routers) >= 2

    starts = {(e["id"], e["name"]): e for e in events if e["ph"] == "s"}
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts and finishes
    for fin in finishes:
        start = starts[(fin["id"], fin["name"])]
        # A link crossing binds two DIFFERENT router processes.
        assert start["pid"] != fin["pid"]
        assert start["pid"] >= ROUTER_PID_BASE
        assert fin["pid"] >= ROUTER_PID_BASE
        assert start["ts"] <= fin["ts"]


def test_chrome_export_is_byte_identical_per_seed(link_failure,
                                                  rerun_link_failure):
    a = json.dumps(link_failure.chrome(), sort_keys=True)
    b = json.dumps(rerun_link_failure.chrome(), sort_keys=True)
    assert a == b


def test_netview_json_is_byte_identical_per_seed(link_failure,
                                                 rerun_link_failure):
    assert link_failure.to_json() == rerun_link_failure.to_json()


@pytest.mark.slow
def test_different_seed_changes_the_artifact(link_failure):
    other = run_netview("link-failure", seed=11, window=WINDOW)[0]
    assert other.to_json() != link_failure.to_json()


# ---------------------------------------------------------------------------
# Truncation accounting.
# ---------------------------------------------------------------------------


def test_tiny_recorder_ring_flags_the_network_trace_truncated():
    def shrink(topo):
        name = sorted(topo.nodes)[0]
        node = topo.nodes[name]
        node.recorder = node.router.enable_observability(
            recorder=Recorder(capacity=64))

    view = run_netview("link-failure", seed=SEED, window=WINDOW,
                       extra_instrument=shrink)[0]
    assert view.topo.trace_dropped_events > 0
    assert view.truncated
    assert view.chrome()["otherData"]["truncated"] is True
    assert view.result.accounting["trace_dropped_events"] > 0


def test_untruncated_run_reports_zero_drops(link_failure):
    assert link_failure.topo.trace_dropped_events == 0
    assert not link_failure.truncated
    assert link_failure.chrome()["otherData"]["truncated"] is False


# ---------------------------------------------------------------------------
# The null tracer and the untraced path.
# ---------------------------------------------------------------------------


def test_null_tracer_is_inert():
    tracer = NullNetTracer()
    assert tracer.enabled is False
    assert tracer.on_host_send(None, None) is None
    tracer.on_link_enter(None, None)
    tracer.on_link_drop(None, None, "down")
    assert tracer.journeys() == {}
    assert tracer.decompose(1) is None
    assert tracer.hop_report()["traces"] == 0
    assert NULL_TRACER.enabled is False


@pytest.mark.slow
def test_untraced_run_is_byte_identical_run_to_run(bare_link_failure):
    """The untraced path stays deterministic: packets carry no trace
    keys, recorders assign local ids, and two bare same-seed runs emit
    identical incident logs."""
    from repro.topo.scenarios import run_topo

    again = run_topo("link-failure", seed=SEED, window=WINDOW)[0]
    assert bare_link_failure.incident_log_json() == again.incident_log_json()
    assert bare_link_failure.topo.tracer is NULL_TRACER


def test_traced_run_preserves_packet_outcomes(bare_link_failure, link_failure):
    """Tracing observes; it must not perturb. Delivered / drop counters
    match the uninstrumented run exactly."""
    bare = bare_link_failure.accounting
    traced = dict(link_failure.result.accounting)
    traced.pop("trace_dropped_events", None)
    compare = {k: v for k, v in bare.items() if k != "trace_dropped_events"}
    assert traced == compare


# ---------------------------------------------------------------------------
# netview surfaces.
# ---------------------------------------------------------------------------


def test_netview_invariants_and_table(link_failure):
    names = [inv["name"] for inv in link_failure.invariants]
    assert names == ["scenario-invariants", "hop-sums-exact",
                     "merged-chrome-valid"]
    assert link_failure.exit_code() == 0
    text = "\n".join(link_failure.table())
    assert "netview link-failure" in text
    assert "hop sums exact: yes" in text
    assert "| PASS |" in text


def test_netview_timeline_starts_with_initial_convergence(link_failure):
    timeline = link_failure.convergence_timeline()
    assert timeline[0]["event"] == "initial-convergence"
    kinds = {entry["event"] for entry in timeline[1:]}
    assert "topo-link-down" in kinds


def test_netview_cli_json_and_chrome(tmp_path, capsys):
    from repro.cli import main

    chrome_out = tmp_path / "lf.chrome.json"
    rc = main(["netview", "link-failure", "--seed", str(SEED),
               "--window", str(WINDOW), "--json",
               "--chrome-out", str(chrome_out)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out[out.index("["):])[0]
    assert doc["ok"] is True
    assert doc["tracing"]["exact"] is True
    chrome = json.loads(chrome_out.read_text())
    assert validate_chrome_trace(chrome) == []
