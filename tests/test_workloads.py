"""Tests for the internet-realistic workload subsystem: seeded
determinism of every generator, distribution shape, the invariant-gated
scenario and its CLI, and the 1M-prefix acceptance run."""

import json

import pytest

from repro.cli import main as cli_main
from repro.net import IPv4Address
from repro.workloads import (bgp_prefixes, build_table, destinations_for,
                             flash_crowd, heavy_tail_mix, pareto_flow_sizes,
                             run_workloads, scan_storm, zipf_addresses,
                             zipf_flood)
from repro.workloads.generators import (ZipfSampler, flash_crowd_addresses,
                                        scan_addresses)

SEED = 11
N = 4_000


# ---------------------------------------------------------------------------
# Seeded determinism: same seed -> identical stream, new seed -> new stream
# ---------------------------------------------------------------------------


def _dests(count=256, seed=SEED):
    return destinations_for(bgp_prefixes(count, seed=seed), seed=seed)


def _packet_sig(packets):
    return [(p.ip.src.value, p.ip.dst.value, p.tcp.src_port, len(p.payload))
            for p in packets]


@pytest.mark.parametrize("make", [
    lambda seed: bgp_prefixes(500, seed=seed),
    lambda seed: destinations_for(bgp_prefixes(200, seed=SEED), seed=seed),
    lambda seed: [a.value for a in zipf_addresses(300, _dests(), seed=seed)],
    lambda seed: pareto_flow_sizes(300, seed=seed),
    lambda seed: _packet_sig(zipf_flood(120, _dests(), seed=seed)),
    lambda seed: _packet_sig(heavy_tail_mix(120, _dests(), seed=seed)),
    lambda seed: _packet_sig(flash_crowd(120, _dests(), seed=seed)),
    lambda seed: _packet_sig(scan_storm(120, _dests(), seed=seed)),
], ids=["bgp_prefixes", "destinations_for", "zipf_addresses",
        "pareto_flow_sizes", "zipf_flood", "heavy_tail_mix",
        "flash_crowd", "scan_storm"])
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


def test_pareto_sizes_are_heavy_tailed():
    sizes = pareto_flow_sizes(2_000, alpha=1.2, seed=SEED)
    sizes_sorted = sorted(sizes)
    median = sizes_sorted[len(sizes) // 2]
    assert max(sizes) > 20 * median  # elephants exist
    assert min(sizes) >= 1
    assert max(pareto_flow_sizes(2_000, alpha=1.2, seed=SEED, cap=50)) <= 50


def test_heavy_tail_mix_respects_count_and_flows():
    # The stream ends at `count` packets or when every flow drains,
    # whichever comes first; flow volumes are the seeded Pareto draws.
    volume = sum(pareto_flow_sizes(32, seed=SEED))
    packets = list(heavy_tail_mix(600, _dests(), num_flows=32, seed=SEED))
    assert len(packets) == min(600, volume)
    flows = {(p.ip.src.value, p.tcp.src_port) for p in packets}
    assert 1 < len(flows) <= 32


def test_flash_crowd_ramps_toward_hot_destination():
    dests = _dests(512)
    packets = list(flash_crowd(4_000, dests, peak=0.8, seed=SEED))
    hot = max({p.ip.dst.value for p in packets},
              key=lambda v: sum(p.ip.dst.value == v for p in packets[-500:]))
    first = sum(p.ip.dst.value == hot for p in packets[:1000]) / 1000
    last = sum(p.ip.dst.value == hot for p in packets[-1000:]) / 1000
    assert last > 0.5 > first + 0.2  # ramp, not a constant share


def test_scan_storm_has_zero_locality():
    dests = _dests(300)
    packets = list(scan_storm(300, dests, seed=SEED))
    assert len({p.ip.dst.value for p in packets}) == 300  # no repeats
    assert list(a.value for a in scan_addresses(300, dests, seed=SEED)) == \
        [p.ip.dst.value for p in packets]


@pytest.mark.parametrize("seed", [0, 3, SEED, 29])
def test_flash_crowd_addresses_are_flash_crowd_destinations(seed):
    """The bare-probe variant makes the same draws as the packet stream,
    so it yields the same destinations in the same order."""
    dests = _dests(300, seed=seed)
    cases = [
        {"count": 1},
        {"count": 600},
        {"count": 600, "hot": dests[17]},
        {"count": 600, "hot": 0x0B000001},  # hot outside the population
        {"count": 400, "peak": 0.0},
        {"count": 400, "peak": 1.0},
        {"count": 300, "s": 0.7},
    ]
    for case in cases:
        kwargs = dict(case)
        count = kwargs.pop("count")
        bare = list(flash_crowd_addresses(count, dests, seed=seed, **kwargs))
        packets = list(flash_crowd(count, dests, seed=seed, **kwargs))
        assert len(bare) == count
        assert bare == [p.ip.dst for p in packets], case
    for bad_peak in (-0.1, 1.5):
        with pytest.raises(ValueError):
            list(flash_crowd_addresses(10, dests, peak=bad_peak))
        with pytest.raises(ValueError):
            list(flash_crowd(10, dests, peak=bad_peak))


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
