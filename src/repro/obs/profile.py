"""``python -m repro profile``: per-stage cycle accounting for a scenario.

Runs one demo scenario with observability enabled and renders a
per-stage cost table directly comparable to the paper's Table 2: for
each pipeline stage, MPs processed, modelled register cycles, measured
engine-busy cycles per MP, and measured memory references per MP split
by memory and direction.  The raw trace (spans + accounting + the
recorder's series store) exports as valid JSON via
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs import export
from repro.obs.metrics import Deltas
from repro.obs.recorder import Recorder, TraceEvent, window_fractions

# Paper Table 2, for the side-by-side column: register cycles and
# (reads, writes) per MP for each memory.
PAPER_TABLE2 = {
    "input": {"register": 171, "dram": (0, 2), "sram": (2, 1), "scratch": (2, 4)},
    "output": {"register": 109, "dram": (2, 0), "sram": (0, 1), "scratch": (2, 2)},
}

# Reference-site tag prefix -> pipeline stage.
_STAGE_OF_PREFIX = {
    "input": "input",
    "enqueue": "input",
    "direct": "input",
    "select": "output",
    "dequeue": "output",
    "output": "output",
    "vrp": "vrp",
    "sa": "strongarm",
}

_STAGE_ORDER = ("input", "vrp", "output", "strongarm", "other")


def stage_of_tag(tag: str) -> str:
    return _STAGE_OF_PREFIX.get(tag.split(".", 1)[0], "other")


@dataclass
class ProfileResult:
    """Everything one profiling run produced."""

    scenario: str
    window_cycles: int
    stages: List[Dict[str, Any]]
    throughput: Dict[str, float]
    utilization: Dict[str, Dict[str, float]]
    queue_stats: Dict[str, Dict[str, float]]
    trace: Dict[str, Any]
    trace_hash: str
    notes: List[str] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)

    # -- rendering ---------------------------------------------------------

    def table(self) -> str:
        """The per-stage cost table (Table 2 layout, measured vs paper)."""
        lines = [
            f"== per-stage cost per MP -- scenario '{self.scenario}', "
            f"window {self.window_cycles} cycles ==",
            f"{'stage':<10} {'MPs':>8} {'reg(model)':>10} {'busy/MP':>9} "
            f"{'DRAM r/w':>11} {'SRAM r/w':>11} {'Scr r/w':>11}  paper",
        ]
        for row in self.stages:
            refs = row["refs_per_mp"]

            def rw(mem: str) -> str:
                return f"{refs.get(mem + '.read', 0.0):.2f}/{refs.get(mem + '.write', 0.0):.2f}"

            paper = PAPER_TABLE2.get(row["stage"])
            if paper:
                paper_txt = (
                    f"{paper['register']} reg, "
                    f"{paper['dram'][0]}/{paper['dram'][1]} "
                    f"{paper['sram'][0]}/{paper['sram'][1]} "
                    f"{paper['scratch'][0]}/{paper['scratch'][1]}"
                )
            else:
                paper_txt = "-"
            reg = row["register_cycles_model"]
            busy = row["busy_cycles_per_mp"]
            lines.append(
                f"{row['stage']:<10} {row['mps']:>8} "
                f"{('-' if reg is None else str(reg)):>10} "
                f"{('-' if busy is None else f'{busy:.1f}'):>9} "
                f"{rw('dram'):>11} {rw('sram'):>11} {rw('scratch'):>11}  {paper_txt}"
            )
        lines.append("")
        lines.append("throughput: " + ", ".join(
            f"{k}={v:.4g}" for k, v in sorted(self.throughput.items())
        ))
        if self.queue_stats:
            name, stats = max(self.queue_stats.items(), key=lambda kv: kv[1]["max"])
            lines.append(
                f"queues sampled: {len(self.queue_stats)}; deepest {name} "
                f"(max {stats['max']:.0f}, mean {stats['mean']:.2f})"
            )
        lines.append(f"trace: {self.trace['dropped_events']} spans dropped "
                     f"(ring full), hash {self.trace_hash[:16]}...")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self, include_trace: bool = True, indent: Optional[int] = None) -> str:
        """The profile as *valid* JSON (non-finite floats sanitized)."""
        doc = {
            "scenario": self.scenario,
            "window_cycles": self.window_cycles,
            "stages": self.stages,
            "throughput": self.throughput,
            "utilization": self.utilization,
            "queue_stats": self.queue_stats,
            "trace_hash": self.trace_hash,
            "paper_table2": {k: dict(v) for k, v in PAPER_TABLE2.items()},
        }
        if include_trace:
            doc["trace"] = self.trace
        return export.dumps(doc, indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """The raw trace as CSV (``cycle,component,event,packet_id,detail``)."""
        return export.trace_to_csv(self.events)

    def to_chrome(self, indent: Optional[int] = None) -> str:
        """The trace as Chrome ``traceEvents`` JSON -- open the file in
        ``chrome://tracing`` or https://ui.perfetto.dev."""
        from repro.obs.analysis import to_chrome_trace

        return export.dumps(to_chrome_trace(self.events), indent=indent,
                            sort_keys=True)


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def _collect(chip, recorder: Recorder, scenario: str, window: int, warmup: int,
             extra_throughput: Optional[Callable[[], Dict[str, float]]] = None) -> ProfileResult:
    """Warm up, open a measurement window, run, and fold the chip's
    counters + the recorder's contents into a :class:`ProfileResult`."""
    sim = chip.sim
    memories = {"dram": chip.dram, "sram": chip.sram, "scratch": chip.scratch}

    counts = Deltas(lambda: {
        **{f"me{me.me_id}": me.busy_cycles for me in chip.engines},
        **{name: mem.busy_cycles for name, mem in memories.items()},
        **{(name, tag, op): count for name, mem in memories.items()
           for (tag, op), count in mem.access_counts.items()}})
    charged = Deltas(lambda: {
        (component, state): cycles
        for component, states in recorder.accounting.items()
        for state, cycles in states.items()})

    def open_window() -> None:
        chip.start_window()
        chip.settle(sim.now)
        counts()  # these readings are the window's baseline
        charged()

    sim.schedule(warmup, open_window)
    sim.run(until=sim.now + warmup + window)
    chip.settle(sim.now + 1)
    m = chip.report()
    moved = counts.peek()

    # Per-stage measured memory references over the window.
    refs: Dict[str, Dict[str, float]] = {}
    for key, delta in moved.items():
        if not isinstance(key, tuple) or delta <= 0:
            continue
        mem_name, tag, op = key
        stage = stage_of_tag(tag)
        refs.setdefault(stage, {})
        ref = f"{mem_name}.{op}"
        refs[stage][ref] = refs[stage].get(ref, 0.0) + delta

    # Per-stage engine busy cycles over the window.
    input_mes = {ctx.me.me_id for ctx in chip.input_contexts}
    output_mes = {ctx.me.me_id for ctx in chip.output_contexts}
    busy_of = {
        "input": sum(moved[f"me{i}"] for i in input_mes),
        "output": sum(moved[f"me{i}"] for i in output_mes),
    }

    cost = chip.params.cost
    mps_of = {
        "input": m.input_mps,
        "vrp": m.input_mps,
        "output": m.output_mps,
        "strongarm": m.exceptional,
    }
    reg_model = {
        "input": cost.input_register_total,
        "output": cost.output_register_total,
    }

    stages: List[Dict[str, Any]] = []
    seen = set(refs) | {"input", "output"}
    for stage in _STAGE_ORDER:
        if stage not in seen:
            continue
        mps = mps_of.get(stage, 0)
        denom = max(1, mps)
        stage_refs = {k: v / denom for k, v in sorted(refs.get(stage, {}).items())}
        busy = busy_of.get(stage)
        stages.append({
            "stage": stage,
            "mps": mps,
            "register_cycles_model": reg_model.get(stage),
            "busy_cycles_per_mp": None if busy is None else busy / denom,
            "refs_per_mp": stage_refs,
            "refs_total": dict(sorted(refs.get(stage, {}).items())),
        })

    throughput = {
        "input_pps": m.input_pps,
        "output_pps": m.output_pps,
        "queue_drops": float(m.queue_drops),
        "exceptional": float(m.exceptional),
        "dram_utilization": m.dram_utilization,
        "sram_utilization": m.sram_utilization,
    }
    waits = [e.detail for e in recorder.events
             if e.event == "dequeue" and isinstance(e.detail, int)]
    if waits:
        throughput["queue_wait_mean_cycles"] = sum(waits) / len(waits)
    if extra_throughput is not None:
        throughput.update(extra_throughput())

    # Utilization covers the window only.  The hooks charge contexts and
    # hosts as the work happens, so theirs is the accounting's movement;
    # the sampler charges engines and memories one period at a time, so
    # theirs is the busy counters' movement.
    accounting: Dict[str, Dict[str, float]] = {}
    for (component, state), cycles in charged.peek().items():
        accounting.setdefault(component, {})[state] = cycles
    for component in accounting:
        if component in moved:
            accounting[component] = {"busy": moved[component]}
    utilization = window_fractions(accounting, m.window_cycles)

    events = recorder.events.to_list()
    notes: List[str] = []
    if recorder.dropped_events:
        notes.append(
            f"trace truncated: ring evicted {recorder.dropped_events} spans; "
            "latency analytics cover the surviving suffix only "
            "(raise trace_capacity to keep the full run)"
        )
    return ProfileResult(
        scenario=scenario,
        window_cycles=m.window_cycles,
        stages=stages,
        throughput=throughput,
        utilization=utilization,
        queue_stats={name: stats for name, stats in recorder.metrics.summary().items()
                     if name.endswith(".depth")},
        trace=recorder.to_dict(),
        trace_hash=export.trace_hash(events),
        notes=notes,
        events=events,
    )


# ---------------------------------------------------------------------------
# Scenarios
#
# Builders are shared with :mod:`repro.obs.monitor`: both the profiler
# and the health watchdog run the same constructions, so a scenario name
# means the same experiment everywhere.
# ---------------------------------------------------------------------------


@dataclass
class ScenarioRun:
    """A built-but-not-yet-run scenario: the instrumented simulation
    objects, ready for either profiling or health monitoring."""

    name: str
    chip: Any
    recorder: Recorder
    router: Any = None                     # set for hierarchy scenarios
    extra_throughput: Optional[Callable[[], Dict[str, float]]] = None

    @property
    def sim(self):
        return self.chip.sim


def _build_fastpath(sample_period: int, trace_capacity: int) -> ScenarioRun:
    """The paper's base configuration (I.2 + O.1) under synthetic load."""
    from repro.ixp.chip import ChipConfig, IXP1200

    chip = IXP1200(ChipConfig())
    recorder = chip.enable_observability(
        Recorder(capacity=trace_capacity), sample_period=sample_period
    )
    return ScenarioRun("fastpath", chip, recorder)


def _build_vrp(sample_period: int, trace_capacity: int) -> ScenarioRun:
    """Fast path plus an 8-block VRP (Figure 9's mixed flavour), showing
    the VRP stage's SRAM traffic as a separate accounting row."""
    from repro.ixp.chip import ChipConfig, IXP1200
    from repro.ixp.programs import TimedVRP

    chip = IXP1200(ChipConfig(vrp=TimedVRP.blocks(8)))
    recorder = chip.enable_observability(
        Recorder(capacity=trace_capacity), sample_period=sample_period
    )
    return ScenarioRun("vrp", chip, recorder)


def _build_overload(sample_period: int, trace_capacity: int) -> ScenarioRun:
    """A deliberately unhealthy router: a 40-block VRP (400 register
    cycles + 40 SRAM transfers, far over the section 4.3 budget of
    240/24) on shallow queues with the single-port synthetic pattern.
    The watchdog must go red here -- this is the forced-failure scenario
    the monitor CLI's non-zero exit path is tested against."""
    from repro.ixp.chip import ChipConfig, IXP1200
    from repro.ixp.programs import TimedVRP

    chip = IXP1200(
        ChipConfig(
            vrp=TimedVRP.blocks(40),
            queue_capacity=32,
            synthetic_pattern="single",
        ),
    )
    recorder = chip.enable_observability(
        Recorder(capacity=trace_capacity), sample_period=sample_period
    )
    return ScenarioRun("overload", chip, recorder)


def _build_router(sample_period: int, trace_capacity: int) -> ScenarioRun:
    """The full hierarchy with real packets: MicroEngine fast path plus
    exceptional packets climbing to the StrongARM (route-cache misses)."""
    from repro.core.router import Router, RouterConfig
    from repro.net.traffic import flow_stream, round_robin_merge, take

    router = Router(RouterConfig(num_ports=4))
    recorder = router.enable_observability(
        Recorder(capacity=trace_capacity), sample_period=sample_period
    )
    for port in range(4):
        router.add_route(f"10.{port}.0.0", 16, port)
    warm = list(take(flow_stream(400, src="192.168.1.2", src_port=5001, out_port=1, payload_len=6), 400))
    cold = list(take(flow_stream(400, src="192.168.1.3", src_port=5002, out_port=2, payload_len=6), 400))
    packets = list(round_robin_merge(iter(warm), iter(cold)))
    # Warm one flow's destinations only: the cold flow exercises the
    # StrongARM route-fill path in the trace.
    router.warm_route_cache([p.ip.dst for p in warm])
    router.inject(0, iter(packets))

    def extra() -> Dict[str, float]:
        return {
            "sa_local_processed": float(router.strongarm.local_processed),
            "transmitted": float(len(router.transmitted())),
        }

    return ScenarioRun("router", router.chip, recorder, router=router,
                       extra_throughput=extra)


SCENARIOS: Dict[str, Callable[..., ScenarioRun]] = {
    "fastpath": _build_fastpath,
    "vrp": _build_vrp,
    "router": _build_router,
    "overload": _build_overload,
}

SCENARIO_DESCRIPTIONS: Dict[str, str] = {
    "fastpath": "base fast path (I.2 + O.1), synthetic load",
    "vrp": "fast path + 8-block VRP (Figure 9)",
    "router": "full hierarchy with real packets and StrongARM route fills",
    "overload": "forced-unhealthy: 40-block VRP over budget, shallow queues",
}


def build_scenario(name: str, sample_period: int = 2_000,
                   trace_capacity: int = 65_536) -> ScenarioRun:
    """Construct one named scenario with observability attached, without
    running it."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown profile scenario {name!r} (choose from {', '.join(SCENARIOS)})"
        ) from None
    return builder(sample_period, trace_capacity)


def profile_scenario(name: str, window: int = 120_000, warmup: int = 20_000,
                     sample_period: int = 2_000,
                     trace_capacity: int = 65_536) -> ProfileResult:
    """Run one named scenario under full observability."""
    run = build_scenario(name, sample_period, trace_capacity)
    return _collect(run.chip, run.recorder, name, window, warmup,
                    extra_throughput=run.extra_throughput)
