"""Seed determinism of the multi-router topology scenarios.

A topology run merges many routers' behavior into three canonical
artifacts -- the incident log, the merged trace hash, and the full
stats snapshot.  With one seed all three must serialize byte-identically
run after run (CI diffs the incident log against committed goldens), and
different seeds must actually move the failure schedule and traffic
jitter -- otherwise "seeded" is decoration.

Reduced windows keep these in the fast lane; determinism does not
depend on the window length.
"""

from repro.chaos import run_campaign
from repro.core import router as router_module
from repro.net.routing import BidirectionalTable, RoutingTable
from repro.obs import export
from repro.topo.scenarios import run_topo

WINDOW = 90_000
WARMUP = 10_000


def _artifacts(scenario, seed):
    result = run_topo(scenario, seed=seed, window=WINDOW, warmup=WARMUP)[0]
    stats = export.dumps(result.stats, sort_keys=True)
    return result.incident_log_json(), result.trace_hash, stats


def test_link_failure_same_seed_byte_identical():
    first = _artifacts("link-failure", seed=11)
    second = _artifacts("link-failure", seed=11)
    assert first[0] == second[0]          # byte-identical incident log
    assert first[1] == second[1]          # identical merged trace hash
    assert first[2] == second[2]          # identical stats snapshot


def test_route_churn_same_seed_byte_identical():
    assert _artifacts("route-churn", seed=5) == _artifacts("route-churn", seed=5)


def test_congestion_same_seed_byte_identical():
    assert (_artifacts("congestion-collapse", seed=2)
            == _artifacts("congestion-collapse", seed=2))


def test_different_seeds_move_the_schedule():
    """Failure instants, flap offsets and traffic jitter are all seeded:
    the incident log must differ across seeds for every scenario."""
    for scenario in ("link-failure", "route-churn", "congestion-collapse"):
        logs = {seed: _artifacts(scenario, seed)[0] for seed in (3, 4, 5)}
        assert len(set(logs.values())) == 3, f"{scenario} ignores its seed"


def test_seed_is_recorded_in_the_artifact():
    result = run_topo("link-failure", seed=13, window=WINDOW, warmup=WARMUP)[0]
    assert result.seed == 13
    assert '"seed": 13' in result.incident_log_json()


def _backend_artifacts():
    result = run_topo("link-failure", seed=7, window=120_000)[0]
    topo = result.topo
    received = {name: list(host.received_log)
                for name, host in sorted(topo.hosts.items())}
    tables = {type(node.router.routing_table) for node in topo.nodes.values()}
    artifacts = (result.incident_log_json(), result.trace_hash, received,
                 run_campaign(7, 2).to_json())
    return artifacts, tables


def test_lookup_backends_give_byte_identical_network_artifacts(monkeypatch):
    """The CPE trie and the bidirectional split trie answer the same
    longest-prefix matches, so building every router on either backend
    must give the same incident log, trace hash, host receive logs and
    chaos campaign artifact."""
    cpe, cpe_tables = _backend_artifacts()
    make_table = router_module.make_routing_table
    monkeypatch.setattr(router_module, "make_routing_table",
                        lambda backend: make_table("bidirectional"))
    bidirectional, bidirectional_tables = _backend_artifacts()
    assert cpe_tables == {RoutingTable}
    assert bidirectional_tables == {BidirectionalTable}
    assert bidirectional == cpe
