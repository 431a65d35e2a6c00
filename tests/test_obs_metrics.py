"""Deterministic time-series metrics: the sampler, the probes, the wiring.

Contract under test (docs/observability.md, "Time-series metrics"):

* :class:`NullSampler` is inert and in strict parity with the live
  sampler (the RPR201/204 machinery covers parity; here we pin the
  no-op behaviour);
* :class:`MetricsSampler` is a pure function of the event clock: same
  seed, same series, byte for byte -- and its rings cap memory with
  counted (never silent) evictions;
* every series a probe emits resolves against the canonical registry in
  :mod:`repro.obs.events` (the runtime mirror of lint rule RPR305);
* ``Topology.enable_metrics`` wires link / router / fault probes and is
  idempotent;
* sampling observes, never perturbs: packet outcomes match the
  uninstrumented run exactly.
"""

import pytest

from repro.obs import events
from repro.obs.metrics import (
    DEFAULT_METRICS_PERIOD,
    NULL_SAMPLER,
    SERIES_CAPACITY,
    MetricsSampler,
    NullSampler,
    sampler_report,
)
from repro.topo.scenarios import run_topo

SEED = 7
WINDOW = 120_000


@pytest.fixture(scope="module")
def metered():
    """One link-failure run with only metrics enabled."""
    return run_topo("link-failure", seed=SEED, window=WINDOW,
                    instrument=lambda topo: topo.enable_metrics())[0]


# ---------------------------------------------------------------------------
# The null sampler.
# ---------------------------------------------------------------------------


def test_null_sampler_is_inert():
    sampler = NullSampler()
    assert sampler.enabled is False
    sampler.sample("net.links_down", 100, 1.0)
    assert sampler.series("net.links_down") == []
    assert sampler.series_names() == []
    assert sampler.summary() == {}
    assert sampler.top_series(".occupancy") == []
    assert sampler.to_dict() == {"period": None, "samples": 0, "series": {}}
    assert NULL_SAMPLER.enabled is False


def test_sampler_report_works_on_the_null_sampler():
    rep = sampler_report(NULL_SAMPLER)
    assert rep["series_summary"] == {}
    assert rep["top_congested_links"] == []


# ---------------------------------------------------------------------------
# The live sampler.
# ---------------------------------------------------------------------------


def test_sample_round_trip_and_sorted_names():
    sampler = MetricsSampler(period=100)
    sampler.sample("net.links_down", 100, 1.0)
    sampler.sample("net.incidents", 100, 2.0)
    sampler.sample("net.links_down", 200, 0.0)
    assert sampler.series("net.links_down") == [(100, 1.0), (200, 0.0)]
    assert sampler.series_names() == ["net.incidents", "net.links_down"]
    assert sampler.samples == 3


def test_period_must_be_positive():
    with pytest.raises(ValueError, match="period"):
        MetricsSampler(period=0)


def test_ring_caps_and_counts_evictions():
    sampler = MetricsSampler(period=1)
    for cycle in range(SERIES_CAPACITY + 6):
        sampler.sample("net.incidents", cycle, float(cycle))
    kept = sampler.series("net.incidents")
    assert len(kept) == SERIES_CAPACITY
    assert kept[0] == (6, 6.0)  # oldest survivors, in order
    assert sampler.dropped_samples == 6
    assert sampler.to_dict()["dropped_samples"] == 6


def test_summary_statistics():
    sampler = MetricsSampler(period=10)
    for cycle, value in [(10, 1.0), (20, 3.0), (30, 2.0)]:
        sampler.sample("net.links_down", cycle, value)
    stats = sampler.summary()["net.links_down"]
    assert stats == {"samples": 3.0, "mean": 2.0, "max": 3.0, "last": 2.0}


def test_top_series_ranks_and_breaks_ties_on_name():
    sampler = MetricsSampler(period=10)
    sampler.sample("link.b-c.occupancy", 10, 0.5)
    sampler.sample("link.a-b.occupancy", 10, 0.5)
    sampler.sample("link.c-d.occupancy", 10, 0.9)
    sampler.sample("router.r1.queue_depth", 10, 1.0)  # wrong suffix
    top = sampler.top_series(".occupancy", n=2)
    assert top == [("link.c-d.occupancy", 0.9), ("link.a-b.occupancy", 0.5)]


# ---------------------------------------------------------------------------
# Probes + topology wiring.
# ---------------------------------------------------------------------------


def test_enable_metrics_attaches_a_live_sampler(metered):
    sampler = metered.topo.metrics
    assert sampler.enabled is True
    assert sampler.period == DEFAULT_METRICS_PERIOD
    assert sampler.samples > 0


def test_enable_metrics_is_idempotent(metered):
    sampler = metered.topo.metrics
    assert metered.topo.enable_metrics() is sampler
    assert metered.topo.metrics is sampler


def test_every_probe_series_is_registered(metered):
    names = metered.topo.metrics.series_names()
    assert names
    assert events.unregistered_metric_series(names) == []


def test_every_recorder_series_is_registered(metered):
    """The recorder's utilization and queue-depth series resolve against
    the same registry: the runtime mirror of RPR305 on its store's
    ``sample`` sites."""
    from repro.obs.profile import profile_scenario

    names = set(profile_scenario("router", window=20_000,
                                 warmup=5_000).trace["metrics"]["series"])
    for node in metered.topo.nodes.values():
        names.update(node.recorder.metrics.series_names())
    assert {"me0.utilization", "dram.utilization", "scratch.utilization",
            "strongarm.utilization", "pci.utilization",
            "pentium.utilization", "queue0.depth"} <= names
    assert events.unregistered_metric_series(sorted(names)) == []


def test_probe_series_cover_links_routers_and_network(metered):
    topo = metered.topo
    names = set(topo.metrics.series_names())
    for link in topo.links:
        assert f"link.{link.name}.occupancy" in names
        assert f"link.{link.name}.up" in names
    for node_name in topo.nodes:
        assert f"router.{node_name}.queue_depth" in names
        assert f"router.{node_name}.route_cache_hit_rate" in names
    assert "net.links_down" in names
    assert "net.reconvergences" in names


def test_link_failure_shows_up_in_the_series(metered):
    """The cut link's ``up`` gauge dips to 0 and recovers; the fault
    probe sees a down link at some sample point."""
    sampler = metered.topo.metrics
    up_series = [sampler.series(name) for name in sampler.series_names()
                 if name.endswith(".up")]
    dipped = any(any(v == 0.0 for __, v in series) for series in up_series)
    assert dipped
    assert max(v for __, v in sampler.series("net.links_down")) >= 1.0


def test_series_are_deltas_not_cumulative(metered):
    """carried/dropped are per-period deltas: their sum tracks the
    counter total, each sample stays bounded by the period."""
    topo = metered.topo
    sampler = topo.metrics
    for link in topo.links:
        total = sum(v for __, v in sampler.series(f"link.{link.name}.carried"))
        assert total <= link.counts["carried"]
        assert all(v >= 0 for __, v in
                   sampler.series(f"link.{link.name}.carried"))


def test_metrics_are_byte_identical_per_seed(metered):
    again = run_topo("link-failure", seed=SEED, window=WINDOW,
                     instrument=lambda topo: topo.enable_metrics())[0]
    assert again.topo.metrics.to_dict() == metered.topo.metrics.to_dict()


def test_metrics_do_not_perturb_packet_outcomes(metered):
    bare = run_topo("link-failure", seed=SEED, window=WINDOW)[0]
    assert metered.accounting == bare.accounting
    assert metered.incident_log_json() == bare.incident_log_json()
