"""One benchmark rep: a fresh process that imports ``repro``, runs one
workload once, and prints a JSON record of what it measured.

``run.py`` launches it; run it by hand to look at a single rep::

    PYTHONPATH=src python benchmarks/perf/worker.py --workload topo-sparse --seed 7

Host time is stamped at the top of this file, before ``repro`` is
imported, so set-up covers imports, construction and input generation.
Set-up ends at the first ``Simulator.run`` (the first ``build_table`` on
lookup-bgp); the work ends when the workload's entry point returns.
In between, a timer samples the work's progress every ``SAMPLE_S``
seconds: events processed, or on lookup-bgp routes loaded plus lookups
and cache probes -- counts that run identically in every rep of a seed.
A short calibration loop, timed before set-up and after the work,
records how fast the host was running meanwhile.

Untraced, the only wrappers are on functions called at most a few
hundred times per rep (``Simulator.run``, ``build_table``,
``chaos.campaign.run_trial``), plus the constructors of lookup-bgp's two
tables and two route caches.  ``--trace`` adds cProfile, counting
wrappers on the port-poll and route-cache hot paths, and spans around
the calls into each layer; those numbers are for the per-layer split
only.
"""

import time


def calibration_floor(loops: int = 60, n: int = 30_000) -> float:
    """The fastest of ``loops`` runs of a fixed pure-Python loop: how fast
    this host runs Python right now, independent of ``repro``.  Each rep
    takes it before set-up and after the work, and keeps the smaller."""
    best = float("inf")
    for __ in range(loops):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


CALIBRATION_BEFORE = calibration_floor()

# Stamped before any other import: set-up time starts here.
T_START = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import sys
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

CHAOS_TRIALS = 8
LOOKUP_PREFIXES = 50_000
LOOKUP_PROBES = 100_000

#: Progress sampling period.
SAMPLE_S = 0.005


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def op(name: str, ok: bool, canonical) -> dict:
    """One operation's verdict: its own invariants, plus the canonical
    output ``run.py`` compares across reps and against ``expected/``."""
    return {"name": name, "ok": bool(ok), "canonical": canonical}


class Probe:
    """Host-time stamps, progress samples and the cheap engine counters
    of one rep."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.setup_end = None
        self.work_end = None
        self.events = 0
        self.cycles = 0
        self.simulators = 0
        self.trial_s: List[float] = []
        self.table_build_s: List[float] = []
        self.peak_rss_mb = None
        #: (host time, progress) pairs, progress never decreasing
        self.samples: List[Tuple[float, int]] = []
        self._caches: list = []
        self._tables: list = []
        self._running = None  # (simulator, its event count when run() began)

    def progress(self) -> int:
        done = (self.events + sum(c.hits + c.misses for c in self._caches)
                + sum(len(t) + t.lookups for t in self._tables))
        if self._running is not None:
            sim, events = self._running
            done += sim._events_processed - events
        return done

    def _take_sample(self, *_signal) -> None:
        # max(): the handler can land between two counter updates.
        last = self.samples[-1][1] if self.samples else 0
        self.samples.append((time.perf_counter(), max(last, self.progress())))

    def _mark_setup_end(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.perf_counter()
            if self.sample:
                self.samples.append((self.setup_end, 0))
                signal.signal(signal.SIGALRM, self._take_sample)
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def time_simulations(self) -> None:
        """Wrap ``Simulator.run``: set-up ends at its first call, and every
        call adds the events processed and cycles advanced."""
        from repro.engine.sim import Simulator

        run = Simulator.run
        seen = weakref.WeakSet()
        probe = self

        def timed_run(sim, *args, **kwargs):
            probe._mark_setup_end()
            if sim not in seen:
                seen.add(sim)
                probe.simulators += 1
            events, now = sim._events_processed, sim.now
            probe._running = (sim, events)
            try:
                return run(sim, *args, **kwargs)
            finally:
                probe._running = None
                probe.events += sim._events_processed - events
                probe.cycles += sim.now - now

        Simulator.run = timed_run

    def time_table_builds(self, scenario) -> None:
        """Wrap the ``build_table`` that ``run_workloads`` calls (set-up
        ends at its first call), and keep the tables and route caches it
        builds: routes loaded, full-table lookups and cache probes measure
        its progress."""
        from repro.net import routing

        build_table, make_cache = scenario.build_table, scenario.RouteCache
        make_table = routing.make_routing_table
        probe = self

        def timed_build_table(*args, **kwargs):
            probe._mark_setup_end()
            t0 = time.perf_counter()
            try:
                return build_table(*args, **kwargs)
            finally:
                probe.table_build_s.append(time.perf_counter() - t0)

        def tracked_cache(*args, **kwargs):
            cache = make_cache(*args, **kwargs)
            probe._caches.append(cache)
            return cache

        def tracked_table(*args, **kwargs):
            table = make_table(*args, **kwargs)
            probe._tables.append(table)
            return table

        scenario.build_table = timed_build_table
        scenario.RouteCache = tracked_cache
        routing.make_routing_table = tracked_table

    def time_trials(self, campaign) -> None:
        run_trial = campaign.run_trial
        probe = self

        def timed_run_trial(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run_trial(*args, **kwargs)
            finally:
                probe.trial_s.append(time.perf_counter() - t0)

        campaign.run_trial = timed_run_trial

    def done(self) -> None:
        """The work is over: stop sampling, stamp the end, read the peak RSS."""
        self.work_end = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._take_sample()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Workloads.  Each runs one public entry point and returns
# (operations, digest, counters).
# ---------------------------------------------------------------------------


def paper_chip(seed: int, probe: Probe):
    """Table 1 plus Figure 7 at default windows: 20 chip measurements."""
    from repro.ixp.workbench import figure7_series, table1_rows

    probe.time_simulations()
    table1 = table1_rows()
    fig7_in, fig7_out = figure7_series()
    probe.done()

    values = {"table1": table1,
              "fig7_input": {str(n): v for n, v in fig7_in.items()},
              "fig7_output": {str(n): v for n, v in fig7_out.items()}}
    ops = [op(f"{group}/{key}", math.isfinite(v) and v > 0, v)
           for group, series in values.items() for key, v in series.items()]

    from repro.analysis.report import TABLE1_PAPER

    errors = [abs(v - TABLE1_PAPER[name.split()[0]]) / TABLE1_PAPER[name.split()[0]]
              for name, v in table1.items()]
    counters = {"table1_err_pct": 100 * sum(errors) / len(errors)}
    return ops, sha256(canonical_json(values)), counters


def topo_sparse(seed: int, probe: Probe):
    """The three topology scenarios on 4-router networks at low load."""
    from repro.topo.scenarios import run_topo

    probe.time_simulations()
    results = run_topo("all", seed=seed)
    probe.done()

    ops = []
    for result in results:
        log = result.incident_log_json() + "\n"
        ok = result.ok
        # The committed goldens are an oracle independent of expected/.
        golden = (Path("tests") / "goldens"
                  / f"topo_{result.scenario.replace('-', '_')}_seed{seed}.json")
        if golden.exists():
            ok = ok and golden.read_text() == log
        ops.append(op(result.scenario, ok, sha256(log + str(result.trace_hash))))
    digest = sha256(canonical_json([o["canonical"] for o in ops]))
    return ops, digest, {}


def chaos_campaign(seed: int, probe: Probe):
    """A seeded 8-trial chaos campaign, no shrinking."""
    from repro.chaos import campaign
    from repro.obs import export

    probe.time_simulations()
    probe.time_trials(campaign)
    result = campaign.run_campaign(seed, CHAOS_TRIALS)
    probe.done()

    ops = [op(f"trial-{r.trial}", r.ok,
              sha256(export.dumps(r.artifact(), sort_keys=True)))
           for r in result.results]
    counters = {"trials": len(result.results),
                "violations": sum(len(r.violations) for r in result.results)}
    return ops, sha256(result.to_json()), counters


def lookup_bgp(seed: int, probe: Probe):
    """A 50k-prefix BGP table on both lookup backends, 100k Zipf probes
    plus flash-crowd, scan and uniform phases and a bulk withdrawal."""
    from repro.workloads import scenario

    probe.time_table_builds(scenario)
    result = scenario.run_workloads(prefixes=LOOKUP_PREFIXES,
                                    probes=LOOKUP_PROBES, seed=seed)
    probe.done()

    artifact = result.artifact()
    for backend in artifact["backends"]:
        backend.pop("build_seconds")  # wall-clock, not output
    ops = [op(b["backend"], b["ok"], sha256(canonical_json(b)))
           for b in artifact["backends"]]
    counters = {"probes": sum(p.probes for r in result.reports for p in r.phases)}
    return ops, sha256(canonical_json(artifact)), counters


@dataclass(frozen=True)
class Workload:
    run: Callable
    reps: int          # reps per set when no time budget is given
    seedless: bool     # output does not depend on the seed


#: Why each workload is in the suite: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    "paper-chip": Workload(paper_chip, 3, True),
    "topo-sparse": Workload(topo_sparse, 5, False),
    "chaos-campaign": Workload(chaos_campaign, 5, False),
    "lookup-bgp": Workload(lookup_bgp, 5, False),
}


# ---------------------------------------------------------------------------
# Traced rep: cProfile, counting wrappers, spans, and counters read from the
# objects the run built.
# ---------------------------------------------------------------------------


class Tracer:
    """What a traced rep adds: spans, hot-path counts, and the objects the
    run built, read for their counters afterwards."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self.counts = {"port_polls": 0, "idle_polls": 0, "mps_taken": 0,
                       "lookups": 0, "lookup_hits": 0, "fills": 0}
        #: profile keys of the counting wrappers -> the layer they stand in for
        self.overrides: Dict[tuple, str] = {}
        self.topologies: list = []
        self.chips: list = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str, stacked: bool = True) -> dict:
        span = {"id": len(self.spans) + 1,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        if stacked:
            self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def spanned(self, fn: Callable, name: str, on_call=None) -> Callable:
        tracer = self

        def span_wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args[0])
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return span_wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from repro.chaos import campaign
        from repro.ixp.chip import IXP1200
        from repro.net.mac import MACPort
        from repro.net.routing import RouteCache
        from repro.topo.network import Topology
        from repro.workloads import scenario

        counts = self.counts
        port_rdy, take_mp = MACPort.port_rdy, MACPort.take_mp
        lookup, fill = RouteCache.lookup, RouteCache.fill

        def counted_port_rdy(port):
            ready = port_rdy(port)
            counts["port_polls"] += 1
            if not ready:
                counts["idle_polls"] += 1
            return ready

        def counted_take_mp(port):
            counts["mps_taken"] += 1
            return take_mp(port)

        def counted_lookup(cache, addr):
            route = lookup(cache, addr)
            counts["lookups"] += 1
            if route is not None:
                counts["lookup_hits"] += 1
            return route

        def counted_fill(cache, addr):
            counts["fills"] += 1
            return fill(cache, addr)

        for wrapper in (counted_port_rdy, counted_take_mp, counted_lookup, counted_fill):
            code = wrapper.__code__
            self.overrides[(code.co_filename, code.co_firstlineno, code.co_name)] = "net"
        MACPort.port_rdy, MACPort.take_mp = counted_port_rdy, counted_take_mp
        RouteCache.lookup, RouteCache.fill = counted_lookup, counted_fill

        IXP1200.measure = self.spanned(IXP1200.measure, "ixp.measure",
                                       on_call=self.chips.append)
        # Topology construction has no single call to wrap: its span runs
        # from Topology() to the first converge().
        builds: Dict[int, dict] = {}
        init = Topology.__init__

        def traced_init(topo, *args, **kwargs):
            builds[id(topo)] = self.open("topo.build", stacked=False)
            self.topologies.append(topo)
            init(topo, *args, **kwargs)

        def end_build(topo):
            span = builds.pop(id(topo), None)
            if span is not None:
                span["end"] = time.perf_counter()

        Topology.__init__ = traced_init
        Topology.converge = self.spanned(Topology.converge, "topo.converge",
                                         on_call=end_build)
        Topology.run = self.spanned(Topology.run, "topo.run")
        campaign.run_trial = self.spanned(campaign.run_trial, "chaos.run_trial")
        scenario.bgp_prefixes = self.spanned(scenario.bgp_prefixes,
                                             "workloads.bgp_prefixes")
        scenario.destinations_for = self.spanned(scenario.destinations_for,
                                                 "workloads.destinations_for")
        scenario.build_table = self.spanned(scenario.build_table, "net.build_table")

    # -- counters after the run -----------------------------------------------

    def counters(self) -> dict:
        topos = self.topologies
        nodes = [n for t in topos for n in t.nodes.values()]
        recorders = [n.recorder for n in nodes if n.recorder is not None]
        accounting = [t.accounting() for t in topos]
        chips = {id(c): c for c in self.chips}
        chips.update((id(n.router.chip), n.router.chip) for n in nodes)
        return {
            "lsa_msgs": sum(t.control_messages for t in topos),
            "hello_msgs": sum(t.hello_messages for t in topos),
            "ack_msgs": sum(t.ack_messages for t in topos),
            "ctrl_dropped": sum(t.control_dropped for t in topos),
            "retransmits": sum(n.binding.retransmits for n in nodes),
            "spf_runs": sum(n.node.spf_runs for n in nodes),
            "delivered": sum(a["delivered"] for a in accounting),
            "link_drops": sum(a["link_drops"] for a in accounting),
            "faults_injected": sum(sum(t.fault_counts.values()) for t in topos),
            "trace_events": sum(len(r.events) + r.dropped_events for r in recorders),
            "trace_dropped": sum(r.dropped_events for r in recorders),
            "modeled_pkts": sum(max(c.counters["input_packets"],
                                    c.counters["output_packets"])
                                for c in chips.values()),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    probe = Probe(sample=not args.trace)
    tracer = profiler = None
    if args.trace:
        import cProfile

        tracer = Tracer()
        tracer.install()
        profiler = cProfile.Profile()
        root = tracer.open("rep")
        profiler.enable()
    ops, digest, counters = WORKLOADS[args.workload].run(args.seed, probe)
    if profiler is not None:
        profiler.disable()
        tracer.close(root)
    record = {
        "pid": os.getpid(),
        "t_start": T_START,
        "t_end": probe.work_end,
        "setup_s": probe.setup_end - T_START,
        "wall_s": probe.work_end - probe.setup_end,
        "peak_rss_mb": probe.peak_rss_mb,
        "events": probe.events,
        "cycles": probe.cycles,
        "simulators": probe.simulators,
        "samples": probe.samples,
        "calibration": min(CALIBRATION_BEFORE, calibration_floor()),
        "trial_s": probe.trial_s,
        "table_build_s": probe.table_build_s,
        "ops": ops,
        "digest": digest,
        "counters": counters,
    }
    if tracer is not None:
        import pstats

        import layers

        for span in tracer.spans:
            if span["end"] is None:  # a topology that never converged
                span["end"] = root["end"]
        record["trace"] = {
            "profile": layers.attribute(pstats.Stats(profiler).stats, tracer.overrides),
            "spans": tracer.spans,
            "counts": tracer.counts,
            "counters": tracer.counters(),
        }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
