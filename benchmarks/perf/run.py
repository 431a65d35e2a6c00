"""The simulator's wall-clock benchmark, end to end and per layer.

Usage (from the repository root)::

    python benchmarks/perf/run.py [--workload NAME|all] [--seed N]
                                  [--seconds S] [--trace [0|1]]

Each workload runs as a series of reps, one after another.  Every rep is
a fresh ``worker.py`` process that imports ``repro``, runs the workload
once and reports its host times: a closed loop of one client, which
fits a 2-core box.  Cold processes are deliberate, because a CLI user
pays imports and construction on every run.  Without ``--seconds`` a
workload runs its fixed number of reps; with it, reps continue until
that many seconds have passed (at least ``MIN_REPS``).

Every metric is printed by name with its unit, as median, q1, q3 and n.
Every operation's output is checked against ``expected/seed<N>.json``
(when that file exists) and against the first rep of the set, and the
exit code is 1 if any operation failed.  ``--trace`` adds one profiled
rep per workload for the per-layer split and writes its spans to
``out/<workload>.trace.json`` (Chrome trace format).

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, where the metrics are BENCHMARK.json's
``end_to_end`` list (or, with ``--trace``, its ``per_layer`` list).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Fewest reps in a time-bounded set: enough for a median and quartiles.
MIN_REPS = 3
#: Equal slices of a rep's progress that ``wall_s`` takes at their fastest.
SLICES = 200
#: The reference host speed that ``wall_s`` and ``setup_s`` are expressed
#: at: the worker's calibration loop runs this fast at best (seconds).  It
#: is about what the loop takes on the 2-core host the baseline was made
#: on, so there the rescaled times read close to stopwatch time.
REFERENCE_CALIBRATION_S = 0.0018
#: A rep that runs this long is stuck; the whole run must end in 180 s.
REP_TIMEOUT_S = 150
#: The seed whose expected outputs apply to seedless workloads.
PINNED_SEED = 7

#: Span names recorded by a traced rep (see worker.Tracer).
SPANS = ("rep", "ixp.measure", "topo.build", "topo.converge", "topo.run",
         "chaos.run_trial", "workloads.bgp_prefixes",
         "workloads.destinations_for", "net.build_table")

UNITS: Dict[str, str] = {
    "wall_s": "s",
    "rep_wall_s": "s",
    "calibration_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_mcycles_per_s": "Mcycles/s",
    "lookups_per_s": "lookups/s",
    "fail_frac": "ratio",
    "engine.events": "count",
    "engine.sim_mcycles": "Mcycles",
    "engine.events_per_mcycle": "events/Mcycle",
    "engine.events_per_pkt": "events/pkt",
    "engine.ns_per_event": "ns",
    "engine.simulators": "count",
    "ixp.port_polls": "count",
    "ixp.idle_poll_frac": "ratio",
    "ixp.mps_taken": "count",
    "ixp.modeled_pkts": "count",
    "ixp.table1_err_pct": "%",
    "net.lookups": "count",
    "net.cache_hit_frac": "ratio",
    "net.fills": "count",
    "net.table_build_s": "s",
    "control.lsa_msgs": "count",
    "control.hello_msgs": "count",
    "control.ack_msgs": "count",
    "control.retransmits": "count",
    "control.retransmit_frac": "ratio",
    "control.ctrl_dropped": "count",
    "control.spf_runs": "count",
    "control.converge_s": "s",
    "topo.build_s": "s",
    "topo.run_s": "s",
    "topo.delivered": "count",
    "topo.link_drops": "count",
    "faults.injected": "count",
    "obs.trace_events": "count",
    "obs.trace_dropped": "count",
    "chaos.trials": "count",
    "chaos.violations": "count",
    "chaos.trial_s_p50": "s",
    "chaos.trial_s_p75": "s",
    "workloads.gen_s": "s",
    "workloads.probes": "count",
    "trace.overhead_frac": "ratio",
    "other.self_s": "s",
}
for _layer in layers.LAYERS:
    UNITS[f"{_layer}.self_s"] = "s"
    UNITS[f"{_layer}.self_frac"] = "ratio"
    UNITS[f"{_layer}.calls"] = "count"
for _span in SPANS:
    UNITS[f"span.{_span}.self_s"] = "s"


# ---------------------------------------------------------------------------
# Running reps.
# ---------------------------------------------------------------------------


def run_rep(workload: str, seed: int, root: Path, trace: bool = False) -> dict:
    """One rep in a fresh worker process against ``root``'s sources.  A
    rep that crashes or times out comes back with no operations, so every
    operation of it counts as failed."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"rep timed out after {REP_TIMEOUT_S} s", "ops": []}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:], "ops": []}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(workload: str, seed: int, root: Path = ROOT,
            seconds: Optional[float] = None, reps: Optional[int] = None,
            trace: bool = False) -> dict:
    """One set: untraced reps back to back (``reps`` of them, or until
    ``seconds`` have passed), then one traced rep if asked."""
    # Byte-compile first so no rep's set-up pays for it: an installed
    # package does not recompile on every run.
    compileall.compile_dir(str(root / "src"), quiet=1)
    target = reps or (MIN_REPS if seconds else WORKLOADS[workload].reps)
    untraced: List[dict] = []
    t0 = time.perf_counter()
    while len(untraced) < target or (seconds and time.perf_counter() - t0 < seconds):
        untraced.append(run_rep(workload, seed, root))
    traced = run_rep(workload, seed, root, trace=True) if trace else None
    return {"reps": untraced, "traced": traced}


# ---------------------------------------------------------------------------
# Checking outputs.
# ---------------------------------------------------------------------------


def load_expected(workload: str, seed: int) -> Optional[dict]:
    """The pinned outputs of ``workload`` at ``seed``, if any are pinned."""
    pinned = PINNED_SEED if WORKLOADS[workload].seedless else seed
    path = HERE / "expected" / f"seed{pinned}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["workloads"].get(workload)


def evaluate(run: dict, expected: Optional[dict]) -> dict:
    """Count operations attempted and failed over every rep of a set.

    An operation fails if its invariants fail, if its canonical output
    differs from ``expected`` or from the set's first rep, or if it is
    missing (a crashed rep has no operations).  A rep whose workload
    digest differs from ``expected`` while every operation matches fails
    all its operations: some output moved, and the digest cannot say
    which."""
    reps = run["reps"] + ([run["traced"]] if run["traced"] else [])
    reference = {o["name"]: o["canonical"] for o in reps[0]["ops"]}
    names = set(reference) | set(expected["ops"] if expected else ())
    attempted = failed = 0
    problems: List[str] = []
    for i, rep in enumerate(reps):
        if "error" in rep:
            problems.append(f"rep {i} crashed: {rep['error']}")
        got = {o["name"]: o for o in rep["ops"]}
        checked = sorted(names | set(got)) or ["(rep)"]
        bad = []
        for name in checked:
            o = got.get(name)
            if o is None:
                bad.append(f"rep {i} {name}: missing")
            elif not o["ok"]:
                bad.append(f"rep {i} {name}: invariant failed")
            elif expected is not None and o["canonical"] != expected["ops"].get(name):
                bad.append(f"rep {i} {name}: differs from expected")
            elif o["canonical"] != reference.get(name):
                bad.append(f"rep {i} {name}: differs from the first rep")
        if not bad and expected is not None and rep["digest"] != expected["digest"]:
            bad = [f"rep {i} {name}: workload digest differs from expected"
                   for name in checked]
        attempted += len(checked)
        failed += len(bad)
        problems.extend(bad)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "digest": reps[0].get("digest")}


# ---------------------------------------------------------------------------
# Metrics.  Each is a summary of its samples: median, q1, q3 and n.
# ---------------------------------------------------------------------------


def summary(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def point(value: Optional[float], n: int = 1) -> Dict[str, Optional[float]]:
    """A value computed from ``n`` samples that has no quartiles of its own."""
    return {"median": value, "q1": None, "q3": None, "n": n}


def _crossings(samples: List[list], levels: List[float]) -> List[float]:
    """Host times at which a rep's progress reached each level, linearly
    interpolated between the samples around each crossing."""
    out, j = [], 0
    for level in levels:
        while samples[j][1] < level:
            j += 1
        (t0, p0), (t1, p1) = samples[j - 1], samples[j]
        out.append(t0 + (t1 - t0) * (level - p0) / (p1 - p0))
    return out


def floor_wall(reps: List[dict]) -> float:
    """Host time of the work, taken slice by slice at its fastest.

    Every rep samples its progress, a count that runs identically in every
    rep of a set.  Cutting each rep at ``SLICES`` equal progress levels gives
    slices that are the same work in every rep; each slice counts at the
    fastest time any rep took over it.  Other processes on the host only
    ever slow a slice down, and on a shared host they do so for seconds at
    a time, so this sum is far steadier from set to set than any per-rep
    statistic (see README.md, "How host time is measured")."""
    total = min(r["samples"][-1][1] for r in reps)
    levels = [total * k / SLICES for k in range(1, SLICES)]
    bounds = [[r["samples"][0][0], *_crossings(r["samples"], levels), r["samples"][-1][0]]
              for r in reps]
    return sum(min(b[k + 1] - b[k] for b in bounds) for k in range(SLICES))


def e2e_metrics(reps: List[dict], verdict: dict) -> Dict[str, dict]:
    """Every end-to-end metric that applies to the workload, over its
    untraced reps.  Host times are rescaled to the reference host speed
    by each rep's calibration floor (see README.md, "How host time is
    measured"); ``rep_wall_s`` and ``calibration_ms`` are the raw inputs."""
    speed = REFERENCE_CALIBRATION_S / statistics.median(r["calibration"] for r in reps)
    wall = floor_wall(reps) * speed
    out = {
        "wall_s": point(wall, len(reps)),
        "setup_s": summary([r["setup_s"] * REFERENCE_CALIBRATION_S / r["calibration"]
                            for r in reps]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in reps]),
        "rep_wall_s": summary([r["wall_s"] for r in reps]),
        "calibration_ms": summary([r["calibration"] * 1e3 for r in reps]),
    }
    if reps[0]["cycles"]:
        out["sim_mcycles_per_s"] = point(reps[0]["cycles"] / 1e6 / wall, len(reps))
    if "probes" in reps[0]["counters"]:
        out["lookups_per_s"] = point(reps[0]["counters"]["probes"] / wall, len(reps))
    out["fail_frac"] = point(verdict["failed"] / verdict["attempted"], verdict["attempted"])
    return out


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_metrics(reps: List[dict], traced: dict, wall: float) -> Dict[str, dict]:
    """Every per-layer metric.  Engine counters and the few timings the
    untraced wrappers take come from the untraced reps (``wall`` is their
    ``wall_s``); profile, span and hot-path counts come from the traced
    rep (n = 1).  A ratio with nothing to divide (no polls, no lookups,
    ...) is ``None``."""
    first = reps[0]
    trace = traced["trace"]
    counts, counters, spans = trace["counts"], trace["counters"], trace["spans"]
    self_s = trace["profile"]["self_s"]
    calls = trace["profile"]["calls"]

    def span_total(*names: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    events, mcycles = first["events"], first["cycles"] / 1e6
    trial_s = [t for r in reps for t in r["trial_s"]]
    trial_q = summary(trial_s) if trial_s else {}
    total_self = sum(self_s.values())
    own = layers.self_time_by_name(spans)

    out = {
        "engine.ns_per_event": point(_ratio(wall * 1e9, events), len(reps)),
        "net.table_build_s": (summary([sum(r["table_build_s"]) for r in reps])
                              if first["table_build_s"] else point(None)),
        "chaos.trial_s_p50": trial_q or point(None),
        "chaos.trial_s_p75": point(trial_q.get("q3"), len(trial_s)),
    }
    single = {
        "engine.events": events,
        "engine.sim_mcycles": mcycles,
        "engine.events_per_mcycle": _ratio(events, mcycles),
        "engine.events_per_pkt": _ratio(events, counters["delivered"]
                                        or counters["modeled_pkts"]),
        "engine.simulators": first["simulators"],
        "ixp.port_polls": counts["port_polls"],
        "ixp.idle_poll_frac": _ratio(counts["idle_polls"], counts["port_polls"]),
        "ixp.mps_taken": counts["mps_taken"],
        "ixp.modeled_pkts": counters["modeled_pkts"],
        "ixp.table1_err_pct": first["counters"].get("table1_err_pct"),
        "net.lookups": counts["lookups"],
        "net.cache_hit_frac": _ratio(counts["lookup_hits"], counts["lookups"]),
        "net.fills": counts["fills"],
        "control.lsa_msgs": counters["lsa_msgs"],
        "control.hello_msgs": counters["hello_msgs"],
        "control.ack_msgs": counters["ack_msgs"],
        "control.retransmits": counters["retransmits"],
        "control.retransmit_frac": _ratio(counters["retransmits"], counters["lsa_msgs"]),
        "control.ctrl_dropped": counters["ctrl_dropped"],
        "control.spf_runs": counters["spf_runs"],
        "control.converge_s": span_total("topo.converge"),
        "topo.build_s": span_total("topo.build"),
        "topo.run_s": span_total("topo.run"),
        "topo.delivered": counters["delivered"],
        "topo.link_drops": counters["link_drops"],
        "faults.injected": counters["faults_injected"],
        "obs.trace_events": counters["trace_events"],
        "obs.trace_dropped": counters["trace_dropped"],
        "chaos.trials": first["counters"].get("trials", 0),
        "chaos.violations": first["counters"].get("violations", 0),
        "workloads.gen_s": span_total("workloads.bgp_prefixes",
                                      "workloads.destinations_for"),
        "workloads.probes": first["counters"].get("probes", 0),
        "trace.overhead_frac": (traced["wall_s"]
                                / statistics.median(r["wall_s"] for r in reps) - 1),
        "other.self_s": self_s[layers.OTHER],
    }
    for layer in layers.LAYERS:
        single[f"{layer}.self_s"] = self_s[layer]
        single[f"{layer}.self_frac"] = self_s[layer] / total_self
        single[f"{layer}.calls"] = calls[layer]
    for name in SPANS:
        single[f"span.{name}.self_s"] = own.get(name, 0.0)
    out.update((name, point(value)) for name, value in single.items())
    return out


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def print_table(rows: Dict[str, dict]) -> None:
    width = max(len(name) for name in rows) + 2
    print(f"{'metric':<{width}}{'median':>14}{'q1':>14}{'q3':>14}{'n':>6}  unit")
    for name, s in rows.items():
        print(f"{name:<{width}}{_fmt(s['median']):>14}{_fmt(s['q1']):>14}"
              f"{_fmt(s['q3']):>14}{s['n']:>6}  {UNITS[name]}")


def measure(workload: str, seed: int, seconds: Optional[float] = None,
            trace: bool = False, reps: Optional[int] = None) -> dict:
    """Run, check and print one workload.  Returns the raw set, the
    verdict, and every metric's summary (``None`` where a ratio has
    nothing to divide)."""
    run = run_set(workload, seed, seconds=seconds, reps=reps, trace=trace)
    verdict = evaluate(run, load_expected(workload, seed))
    good = [r for r in run["reps"] if "error" not in r]
    metrics = e2e_metrics(good, verdict) if good else {}
    traced = run["traced"]
    if good and traced is not None and "error" not in traced:
        metrics.update(layer_metrics(good, traced, metrics["wall_s"]["median"]))
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}.trace.json").write_text(json.dumps(
            layers.chrome_trace(traced["trace"]["spans"], workload), indent=1))
    print(f"== {workload}  seed {seed}  {len(run['reps'])} reps"
          f"{' + 1 traced' if trace else ''}  operations: {verdict['attempted']} "
          f"attempted, {verdict['failed']} failed  digest {verdict['digest']}")
    for problem in verdict["problems"]:
        print(f"   FAIL {problem}")
    if metrics:
        print_table(metrics)
    if trace:
        print(f"   spans: {OUT / (workload + '.trace.json')}")
    print()
    return {"run": run, "verdict": verdict, "metrics": metrics}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(results: Dict[str, dict], trace: bool, spec: dict) -> dict:
    """The machine-readable last line: BENCHMARK.json's metrics, with a
    not-applicable ratio reported as 0."""
    listed = spec["per_layer" if trace else "end_to_end"]
    prefix = len(results) > 1
    metrics = {}
    for workload, result in results.items():
        for metric in listed:
            row = result["metrics"].get(metric["name"])
            value = row["median"] if row and row["median"] is not None else 0
            key = f"{workload}/{metric['name']}" if prefix else metric["name"]
            metrics[key] = {"value": value, "unit": metric["unit"]}
    attempted = sum(r["verdict"]["attempted"] for r in results.values())
    failed = sum(r["verdict"]["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The simulator's wall-clock benchmark, end to end and per layer.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed (default 7; claims use the held-out seed 11)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run reps until this many seconds have passed "
                             "(default: each workload's fixed rep count)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one profiled rep and report per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_benchmark()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    line = result_line(results, bool(args.trace), spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
