"""Tests of the perf benchmark's own harness (not of the simulator).

Run from the repository root, outside tier-1 (about 20 s)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py

One real set of lookup-bgp (two reps plus the traced rep) backs the
tests that need measured output; the rest check the arithmetic on
synthetic data.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import re

import compare
import layers
import pytest
import run

from repro.net.addresses import IPv4Address


@pytest.fixture(scope="module")
def lookup_set(tmp_path_factory):
    out, run.OUT = run.OUT, tmp_path_factory.mktemp("out")
    try:
        result = run.measure("lookup-bgp", 7, trace=True, reps=2)
        result["trace_file"] = run.OUT / "lookup-bgp.trace.json"
        yield result
    finally:
        run.OUT = out


# -- attribution ----------------------------------------------------------------


def test_builtin_time_is_charged_to_the_calling_layer():
    sim = ("/x/src/repro/engine/sim.py", 10, "run")
    chip = ("/x/src/repro/ixp/chip.py", 20, "poll")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        sim: (1, 1, 0.5, 1.0, {}),
        chip: (2, 2, 0.25, 0.3, {sim: (2, 2, 0.25, 0.3)}),
        heappush: (10, 10, 0.2, 0.2, {sim: (6, 6, 0.125, 0.125),
                                      chip: (3, 3, 0.0625, 0.0625)}),
    }
    split = layers.attribute(stats)
    assert split["self_s"]["engine"] == 0.625
    assert split["self_s"]["ixp"] == 0.3125
    assert split["self_s"]["other"] == 0.2 - 0.125 - 0.0625  # one call no edge explains
    calls = split["calls"]
    assert (calls["engine"], calls["ixp"], calls["other"]) == (7, 5, 1)


def test_attribution_sums_to_the_profile_total():
    profiler = cProfile.Profile()
    profiler.enable()
    addrs = sorted(IPv4Address(f"10.0.{i % 256}.{i // 256}") for i in range(3000))
    [str(a) for a in addrs]
    profiler.disable()
    stats = pstats.Stats(profiler)
    split = layers.attribute(stats.stats)
    assert sum(split["self_s"].values()) == pytest.approx(stats.total_tt, rel=1e-12, abs=1e-12)
    assert sum(split["calls"].values()) == sum(v[1] for v in stats.stats.values())
    assert split["self_s"]["net"] > 0


def test_layer_of_paths():
    assert layers.layer_of("/a/src/repro/topo/network.py") == "topo"
    assert layers.layer_of("/a/src/repro/analysis/report.py") == "other"
    assert layers.layer_of("/a/src/repro/cli.py") == "other"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == "other"


# -- spans ----------------------------------------------------------------------


def test_span_self_time_is_duration_minus_child_coverage():
    spans = [
        {"id": 1, "parent": None, "name": "rep", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "a", "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "name": "b", "start": 2.0, "end": 4.0},   # overlaps a
        {"id": 4, "parent": 1, "name": "c", "start": 9.0, "end": 12.0},  # runs past rep
        {"id": 5, "parent": 2, "name": "d", "start": 1.5, "end": 2.5},
    ]
    own = layers.span_self_times(spans)
    assert own == {1: 10.0 - 3.0 - 1.0, 2: 1.0, 3: 2.0, 4: 3.0, 5: 1.0}
    assert layers.self_time_by_name(spans)["rep"] == 6.0


# -- host time -------------------------------------------------------------------


def test_wall_s_takes_each_progress_slice_at_its_fastest():
    # Rep a is slow in the second half of the work, rep b in the first.
    a = {"samples": [[0.0, 0], [1.0, 50], [3.0, 100]], "wall_s": 3.0}
    b = {"samples": [[0.0, 0], [2.0, 50], [3.0, 100]], "wall_s": 3.0}
    assert run.floor_wall([a, b]) == pytest.approx(2.0)
    # A host running at half the reference speed reads as the reference.
    for rep, setup in ((a, 0.5), (b, 0.7)):
        rep.update(setup_s=setup, peak_rss_mb=1.0, cycles=0, counters={},
                   calibration=2 * run.REFERENCE_CALIBRATION_S)
    metrics = run.e2e_metrics([a, b], {"failed": 0, "attempted": 1})
    assert metrics["wall_s"]["median"] == pytest.approx(1.0)
    assert metrics["setup_s"]["median"] == pytest.approx(0.3)
    assert metrics["rep_wall_s"]["median"] == 3.0


# -- paired comparison ----------------------------------------------------------


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1) == "unchanged"
    noisy = [8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1) == "worse"


# -- one measured set -------------------------------------------------------------


def test_reps_run_as_sequential_subprocesses(lookup_set):
    reps = lookup_set["run"]["reps"] + [lookup_set["run"]["traced"]]
    pids = [r["pid"] for r in reps]
    assert len(set(pids)) == len(reps) and os.getpid() not in pids
    for earlier, later in zip(reps, reps[1:]):
        assert earlier["t_end"] < later["t_start"]


def test_a_clean_set_passes(lookup_set):
    assert lookup_set["verdict"]["failed"] == 0
    assert lookup_set["metrics"]["fail_frac"]["median"] == 0


def test_planted_digest_mismatch_fails_the_run(lookup_set, monkeypatch, capsys):
    reps = lookup_set["run"]["reps"]
    planted = {"digest": reps[0]["digest"],
               "ops": {o["name"]: o["canonical"] for o in reps[0]["ops"]}}
    planted["ops"]["cpe"] = "0" * 64
    verdict = run.evaluate(lookup_set["run"], planted)
    assert verdict["failed"] == len(reps) + 1  # every rep, traced included
    assert run.e2e_metrics(reps, verdict)["fail_frac"]["median"] > 0

    monkeypatch.setattr(run, "run_set", lambda *a, **k: lookup_set["run"])
    monkeypatch.setattr(run, "load_expected", lambda *a: planted)
    assert run.main(["--workload", "lookup-bgp"]) == 1
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]


def test_benchmark_metrics_are_well_named_and_emitted(lookup_set):
    bench = run.load_benchmark()
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        line = run.result_line({"lookup-bgp": lookup_set}, trace, bench)
        assert set(line["metrics"]) == {m["name"] for m in bench[kind]}
        for metric in bench[kind]:
            assert pattern.fullmatch(metric["name"]), metric["name"]
            assert metric["name"] in lookup_set["metrics"], metric["name"]
            assert metric["unit"] == run.UNITS[metric["name"]]
            assert isinstance(line["metrics"][metric["name"]]["value"], (int, float))


def test_traced_rep_writes_a_chrome_trace(lookup_set):
    trace = json.loads(lookup_set["trace_file"].read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in spans} >= {"rep", "net.build_table",
                                          "workloads.bgp_prefixes"}
    ids = {e["args"]["id"] for e in spans}
    assert all(e["args"]["parent"] in ids for e in spans if e["args"]["parent"])
