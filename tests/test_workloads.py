"""Tests for the internet-realistic workload subsystem: seeded
determinism of every generator, distribution shape, the invariant-gated
scenario and its CLI, and the 1M-prefix acceptance run."""

import gc
import json

import pytest

from repro.cli import main as cli_main
from repro.net import IPv4Address
from repro.workloads import (bgp_prefixes, build_table, destinations_for,
                             run_workloads, zipf_addresses)
from repro.workloads.generators import (ZipfSampler, flash_crowd_addresses,
                                        scan_addresses)

SEED = 11
N = 4_000


# ---------------------------------------------------------------------------
# Seeded determinism: same seed -> identical stream, new seed -> new stream
# ---------------------------------------------------------------------------


def _dests(count=256, seed=SEED):
    return destinations_for(bgp_prefixes(count, seed=seed), seed=seed)


@pytest.mark.parametrize("make", [
    lambda seed: bgp_prefixes(500, seed=seed),
    lambda seed: destinations_for(bgp_prefixes(200, seed=SEED), seed=seed),
    lambda seed: [a.value for a in zipf_addresses(300, _dests(), seed=seed)],
    lambda seed: [a.value for a in flash_crowd_addresses(120, _dests(),
                                                         seed=seed)],
    lambda seed: [a.value for a in scan_addresses(120, _dests(), seed=seed)],
], ids=["bgp_prefixes", "destinations_for", "zipf_addresses",
        "flash_crowd_addresses", "scan_addresses"])
def test_generators_are_seed_deterministic(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


# ---------------------------------------------------------------------------
# Distribution shape
# ---------------------------------------------------------------------------


def test_bgp_prefixes_length_mix_and_uniqueness():
    specs = bgp_prefixes(N, seed=SEED)
    assert len(specs) == N
    assert len({(p, l) for p, l, _, __ in specs}) == N
    lengths = [l for _, l, __, ___ in specs]
    assert all(8 <= l <= 24 for l in lengths)
    # /24 dominance, as in real tables (~54% requested share).
    share_24 = lengths.count(24) / N
    assert 0.45 < share_24 < 0.62
    # Prefix values are properly masked (no host bits set).
    for prefix, length, port, mac in specs:
        value = IPv4Address(prefix).value
        assert value & ((1 << (32 - length)) - 1) == 0
        assert 0 <= port < 8


def test_bgp_prefixes_capacity_guard():
    # Only /8s allowed: the space holds 256 prefixes, so 300 must fail
    # loudly instead of livelocking.
    with pytest.raises(ValueError):
        bgp_prefixes(300, seed=SEED, length_mix={8: 1.0})
    assert len(bgp_prefixes(256, seed=SEED, length_mix={8: 1.0})) == 256


def test_destinations_fall_inside_their_prefix():
    specs = bgp_prefixes(500, seed=SEED)
    dests = destinations_for(specs, seed=SEED)
    for (prefix, length, _, __), dest in zip(specs, dests):
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        assert dest & mask == IPv4Address(prefix).value


def test_zipf_popularity_is_skewed():
    dests = _dests(1000)
    counts = {}
    for addr in zipf_addresses(20_000, dests, s=1.1, seed=SEED):
        counts[addr.value] = counts.get(addr.value, 0) + 1
    top10 = sum(sorted(counts.values(), reverse=True)[:10])
    # Ten destinations out of a thousand carry a large share of probes.
    assert top10 / 20_000 > 0.25


def test_zipf_sampler_validates():
    with pytest.raises(ValueError):
        ZipfSampler(0)
    with pytest.raises(ValueError):
        ZipfSampler(10, s=-1.0)


def test_flash_crowd_ramps_toward_hot_destination():
    dests = _dests(512)
    probes = [a.value for a in flash_crowd_addresses(4_000, dests, peak=0.8,
                                                     seed=SEED)]
    hot = max(set(probes), key=probes[-500:].count)
    first = probes[:1000].count(hot) / 1000
    last = probes[-1000:].count(hot) / 1000
    assert last > 0.5 > first + 0.2  # ramp, not a constant share


def test_flash_crowd_peak_must_be_a_share():
    for bad_peak in (-0.1, 1.5):
        with pytest.raises(ValueError):
            list(flash_crowd_addresses(10, _dests(), peak=bad_peak))


def test_scan_storm_has_zero_locality():
    probes = [a.value for a in scan_addresses(300, _dests(300), seed=SEED)]
    assert len(set(probes)) == 300  # no repeats


# ---------------------------------------------------------------------------
# Scenario + CLI
# ---------------------------------------------------------------------------


def test_build_table_loads_all_routes_on_both_backends():
    for backend in ("cpe", "bidirectional"):
        table, specs = build_table(800, seed=SEED, backend=backend)
        assert len(table) == 800
        # One generation bump for the whole bulk load.
        assert table.generation == 1
        for prefix, length, port, _ in specs[:20]:
            route = table.lookup(IPv4Address(destinations_for(
                [(prefix, length, port, _)], seed=0)[0]))
            assert route is not None


def test_run_workloads_invariants_hold():
    result = run_workloads(prefixes=3_000, probes=3_000, seed=SEED,
                           sample=400, linear_sample=6, withdraw_sample=64)
    assert result.ok, result.violations
    assert result.exit_code() == 0
    assert {r.backend for r in result.reports} == {"cpe", "bidirectional"}
    for r in result.reports:
        assert r.phase("zipf").hit_rate > r.phase("scan_storm").hit_rate
        assert r.checks["withdrawals_clean"]
    artifact = result.artifact()
    assert artifact["schema"] == "repro-workloads-v1"
    json.dumps(artifact)  # must be serializable


def test_backends_report_the_same_alone_or_together():
    """Each probe stream is drawn once and replayed to every backend, so
    a backend's report must not depend on the backends beside it."""
    both = run_workloads(prefixes=3_000, probes=3_000, seed=7)

    def report(result, backend):
        doc = next(r.as_dict() for r in result.reports if r.backend == backend)
        doc.pop("build_seconds")  # wall-clock, not output
        return doc

    for backend in ("cpe", "bidirectional"):
        alone = run_workloads(prefixes=3_000, probes=3_000, seed=7,
                              backends=(backend,))
        assert report(alone, backend) == report(both, backend)


def test_run_workloads_holds_the_collector(monkeypatch):
    """The whole scenario runs with the cyclic collector held: its
    tables stay alive until it returns, so passes over them would free
    nothing."""
    from repro.workloads import scenario

    build = scenario.build_table
    enabled = []

    def tracked_build(*args, **kwargs):
        enabled.append(gc.isenabled())
        return build(*args, **kwargs)

    monkeypatch.setattr(scenario, "build_table", tracked_build)
    assert gc.isenabled()
    scenario.run_workloads(prefixes=5_000, probes=5_000, seed=7)
    assert enabled == [False, False]
    assert gc.isenabled()


def test_workloads_cli_smoke(capsys):
    rc = cli_main(["workloads", "--prefixes", "2000", "--probes", "2000",
                   "--seed", "5", "--sample", "300", "--backend", "cpe"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all invariants held" in out


def test_workloads_cli_json(capsys):
    rc = cli_main(["workloads", "--prefixes", "1500", "--probes", "1500",
                   "--seed", "5", "--sample", "200", "--json"])
    assert rc == 0
    artifact = json.loads(capsys.readouterr().out)
    assert artifact["ok"] is True
    assert len(artifact["backends"]) == 2


# ---------------------------------------------------------------------------
# Acceptance: 1M-prefix table, 100k Zipf probes (slow tier)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_million_prefix_acceptance():
    result = run_workloads(prefixes=1_000_000, probes=100_000, seed=7,
                           backends=("cpe",), sample=600, linear_sample=3,
                           withdraw_sample=128)
    assert result.ok, result.violations
    report = result.reports[0]
    assert report.prefixes == 1_000_000
    assert report.phase("zipf").probes == 100_000
    assert report.checks["trie_matches_reference"]
    assert report.checks["trie_matches_linear"]
    assert report.avg_probes <= 3
