"""The runner contract of the six invariant-gated subcommands, pinned
through ``repro.cli.main``: ``monitor``, ``faults``, ``topo``,
``netview``, ``chaos`` and ``workloads``.

For each one, on short windows: the exit code of a passing and of a
failing run; ``--json`` stdout is exactly one sorted-key document equal
to the runner's artifact; every file flag writes the runner's own
serialization plus a newline; and nothing lands under
``REPRO_BENCH_ROOT``: only ``benchmarks/`` writes ``BENCH_*.json``.
Each case runs the CLI once and the runner it wraps once more, then
compares bytes.
"""

import json

import pytest

from repro.cli import main
from repro.obs import export


def cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    return rc, capsys.readouterr().out


def canonical(doc) -> str:
    return export.dumps(doc, indent=2, sort_keys=True)


@pytest.fixture
def bench_root(tmp_path, monkeypatch):
    root = tmp_path / "bench"
    root.mkdir()
    monkeypatch.setenv("REPRO_BENCH_ROOT", str(root))
    return root


# ---------------------------------------------------------------------------
# topo
# ---------------------------------------------------------------------------


def test_topo_passing_run(tmp_path, bench_root, capsys):
    from repro.topo.scenarios import run_topo

    log = tmp_path / "incidents.json"
    rc, out = cli(capsys, "topo", "link-failure", "--seed", 7, "--window",
                  60_000, "--json", "--incidents-out", log)
    [result] = run_topo("link-failure", seed=7, window=60_000)
    assert rc == 0 == result.exit_code()
    assert out == canonical([result.artifact()]) + "\n"
    assert log.read_text() == result.incident_log_json() + "\n"
    assert not any(bench_root.iterdir())


def test_topo_failing_run(tmp_path, bench_root, capsys):
    from repro.topo.scenarios import run_topo

    log = tmp_path / "incidents.json"
    rc, out = cli(capsys, "topo", "all", "--seed", 3, "--window", 60_000,
                  "--incidents-out", log)
    results = run_topo("all", seed=3, window=60_000)
    assert rc == 1
    assert [r.scenario for r in results if not r.ok] == [
        "route-churn", "congestion-collapse"]
    assert "INVARIANT VIOLATIONS in: route-churn" in out
    assert log.read_text() == canonical([r.artifact() for r in results]) + "\n"
    assert not any(bench_root.iterdir())


# ---------------------------------------------------------------------------
# faults
# ---------------------------------------------------------------------------


def test_faults_passing_run(tmp_path, capsys):
    from repro.faults.campaign import run_campaign

    log = tmp_path / "incidents.json"
    rc, out = cli(capsys, "faults", "pentium-crash", "--seed", 0, "--window",
                  30_000, "--json", "--incidents-out", log)
    [result] = run_campaign("pentium-crash", seed=0, window=30_000)
    assert rc == 0 == result.exit_code()
    assert out == canonical([json.loads(result.incident_log_json())]) + "\n"
    assert log.read_text() == result.incident_log_json() + "\n"


def test_faults_failing_run(tmp_path, capsys):
    from repro.faults.campaign import run_campaign

    log = tmp_path / "incidents.json"
    rc, out = cli(capsys, "faults", "all", "--seed", 0, "--window", 2_000,
                  "--incidents-out", log)
    results = run_campaign("all", seed=0, window=2_000)
    assert rc == 1
    assert [r.scenario for r in results if not r.ok] == ["link-flap"]
    assert "INVARIANT VIOLATIONS in: link-flap" in out
    expected = [json.loads(r.incident_log_json()) for r in results]
    assert log.read_text() == canonical(expected) + "\n"


# ---------------------------------------------------------------------------
# netview
# ---------------------------------------------------------------------------


def test_netview_passing_run(tmp_path, bench_root, capsys):
    from repro.topo.netview import run_netview

    trace = tmp_path / "lf.chrome.json"
    rc, out = cli(capsys, "netview", "link-failure", "--seed", 7, "--window",
                  60_000, "--json", "--chrome-out", trace)
    [view] = run_netview("link-failure", seed=7, window=60_000)
    assert rc == 0 == view.exit_code()
    assert out == canonical([view.artifact()]) + "\n"
    assert trace.read_text() == export.dumps(view.chrome(), sort_keys=True) + "\n"
    assert not any(bench_root.iterdir())


def test_netview_failing_run(tmp_path, bench_root, capsys, monkeypatch):
    from repro.topo.netview import run_netview

    monkeypatch.chdir(tmp_path)
    rc, out = cli(capsys, "netview", "congestion-collapse", "--seed", 7,
                  "--window", 60_000, "--chrome")
    [view] = run_netview("congestion-collapse", seed=7, window=60_000)
    assert rc == 1 == view.exit_code()
    written = tmp_path / "netview-congestion-collapse.chrome.json"
    assert written.read_text() == export.dumps(view.chrome(), sort_keys=True) + "\n"
    assert not any(bench_root.iterdir())


def test_netview_all_rejects_chrome_out(tmp_path, bench_root, capsys):
    """Regression: ``all`` wrote every scenario's merged trace to the one
    ``--chrome-out`` file, so only the last scenario survived."""
    trace = tmp_path / "all.chrome.json"
    with pytest.raises(SystemExit) as exc:
        main(["netview", "all", "--seed", "7", "--window", "60000",
              "--chrome-out", str(trace)])
    assert exc.value.code == 2
    assert "--chrome-out" in capsys.readouterr().err
    assert not trace.exists()
    assert not any(bench_root.iterdir())


@pytest.mark.parametrize("argv", [
    ["chaos", "--trials", "0"],
    ["chaos", "--trials", "-1"],
    ["chaos", "--max-attempts", "0"],
    ["workloads", "--probes", "0"],
    ["workloads", "--prefixes", "0"],
    ["monitor", "fastpath", "--period", "0"],
    ["monitor", "fastpath", "--window", "0"],
    ["topo", "link-failure", "--window", "0"],
    ["profile", "fastpath", "--window", "0"],
    ["table1", "--window", "0"],
], ids=" ".join)
def test_non_positive_counts_are_usage_errors(argv, bench_root, capsys):
    """Regression: a count below 1 ran zero trials and passed the gate,
    printed 0.00 Mpps rows, or died with a ValueError traceback and exit
    1, which the runner contract reserves for a violated invariant."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not any(bench_root.iterdir())


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------


def test_chaos_passing_run(tmp_path, bench_root, capsys):
    from repro.chaos import run_campaign

    artifact = tmp_path / "campaign.json"
    rc, out = cli(capsys, "chaos", "--seed", 7, "--trials", 1, "--window",
                  60_000, "--json", "--artifact-out", artifact)
    campaign = run_campaign(7, 1, window=60_000)
    assert rc == 0
    assert out == campaign.to_json() + "\n"
    assert artifact.read_text() == campaign.to_json() + "\n"
    assert not any(bench_root.iterdir())


def test_chaos_failing_run_shrinks(tmp_path, bench_root, capsys):
    from repro.chaos import run_campaign, schedule_to_json

    minimal = tmp_path / "minimal.json"
    rc, out = cli(capsys, "chaos", "--seed", 7, "--trials", 1, "--window",
                  60_000, "--max-attempts", 1, "--shrink", "--minimal-out",
                  minimal)
    campaign = run_campaign(7, 1, window=60_000, shrink=True,
                            ctrl_max_attempts=1)
    assert rc == 1
    assert minimal.read_text() == schedule_to_json(campaign.minimal[0]) + "\n"
    assert not any(bench_root.iterdir())


def test_chaos_replay_writes_artifact_out(tmp_path, bench_root, capsys):
    """Regression: ``--replay F --artifact-out G`` exited without writing
    ``G``.  It now holds the same bytes ``--replay --json`` prints."""
    from repro.chaos import schedule_to_json
    from repro.chaos.campaign import RING_LINKS, RING_ROUTERS, replay_schedule
    from repro.chaos.schedule import generate_schedule

    schedule = generate_schedule(7, 0, RING_LINKS, RING_ROUTERS, 60_000)
    replay = tmp_path / "schedule.json"
    replay.write_text(schedule_to_json(schedule) + "\n")
    flags = ["chaos", "--seed", 7, "--window", 60_000, "--max-attempts", 1,
             "--replay", replay]
    rc, printed = cli(capsys, *flags, "--json")
    result = replay_schedule(schedule, seed=7, window=60_000,
                             ctrl_max_attempts=1)
    assert rc == 1 and not result.ok
    assert printed == canonical(result.artifact()) + "\n"

    artifact = tmp_path / "replay.json"
    rc, _ = cli(capsys, *flags, "--artifact-out", artifact)
    assert rc == 1
    assert artifact.read_text() == printed


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _without_build_seconds(doc):
    for backend in doc["backends"]:
        backend.pop("build_seconds")  # wall-clock, not output
    return doc


WORKLOAD_FLAGS = ["workloads", "--prefixes", 1500, "--probes", 1500,
                  "--seed", 5, "--sample", 200]


def test_workloads_passing_run(capsys):
    from repro.workloads import run_workloads

    rc, out = cli(capsys, *WORKLOAD_FLAGS, "--json")
    result = run_workloads(prefixes=1500, probes=1500, seed=5, sample=200)
    assert rc == 0 == result.exit_code()
    doc = json.loads(out)
    assert out == canonical(doc) + "\n"
    assert (_without_build_seconds(doc)
            == _without_build_seconds(json.loads(canonical(result.artifact()))))


def test_workloads_failing_run(capsys, monkeypatch):
    from repro.workloads import scenario

    # Plant a failure: no miss path fits a zero-cycle budget.
    monkeypatch.setattr(scenario, "MEMORY_PROBE_CYCLES", 0)
    rc, out = cli(capsys, *WORKLOAD_FLAGS, "--backend", "cpe", "--json")
    assert rc == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["failures"] == ["cpe:bounded_miss_path"]


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


MONITOR_FLAGS = ["--window", 30_000, "--warmup", 10_000]


def test_monitor_passing_run(capsys):
    rc, out = cli(capsys, "monitor", "fastpath", *MONITOR_FLAGS, "--quiet")
    assert rc == 0
    assert "overall: GREEN" in out


def test_monitor_failing_run(tmp_path, capsys):
    from repro.obs.monitor import monitor_scenario

    log = tmp_path / "incidents.json"
    rc, out = cli(capsys, "monitor", "overload", *MONITOR_FLAGS, "--quiet",
                  "--incidents-out", log)
    result = monitor_scenario("overload", window=30_000, warmup=10_000)
    assert rc == 1 == result.exit_code()
    assert json.loads(log.read_text()) == json.loads(export.dumps(
        {"scenario": "overload", "incidents": result.incidents}))


def test_monitor_json_is_one_sorted_document(tmp_path, capsys):
    """Regression: ``--json`` printed the narration and health table
    ahead of an unsorted document, and ``--incidents-out`` was unsorted."""
    from repro.obs.monitor import monitor_scenario

    log = tmp_path / "incidents.json"
    rc, out = cli(capsys, "monitor", "overload", *MONITOR_FLAGS, "--json",
                  "--incidents-out", log)
    result = monitor_scenario("overload", window=30_000, warmup=10_000)
    assert rc == 1
    assert out == canonical(result.artifact()) + "\n"
    assert log.read_text() == result.incident_log_json() + "\n"
    assert log.read_text() == canonical(
        {"scenario": "overload", "incidents": result.incidents}) + "\n"
