"""Fault campaigns: section 4.7-style experiments run under attack.

Each scenario builds two identical routers -- a clean baseline and one
with seeded faults armed -- runs both for the same warmup + measurement
window, and checks *invariants* instead of absolute numbers:

* **fast-path isolation** -- MicroEngine forwarding on unaffected ports
  stays within 1% of the baseline while the slow path burns;
* **no silent corruption** -- a corrupted frame is never transmitted; it
  is detected (header validation) and counted;
* **accounted loss** -- every packet the campaign injected is either
  forwarded, queued, or counted in a named drop counter; nothing
  vanishes;
* **recovery** -- crashed hosts resume processing after restart, and a
  budget-overrunning forwarder is quarantined within a bounded number of
  packets.

Everything is deterministic: the simulator has no wall clock and all
fault randomness flows from one seed, so a campaign's incident log
serializes byte-identically run after run (the determinism suite and the
CI smoke both rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.forwarder import ForwarderSpec, Where
from repro.core.router import Router, RouterConfig
from repro.core.vrp import RegOps, SramRead, VRPProgram
from repro.faults.recovery import OverrunningVRPProgram
from repro.net.traffic import flow_stream, take
from repro.obs import export
from repro.verdict import Verdict, inv, invariant_table

DEFAULT_WINDOW = 150_000
DEFAULT_WARMUP = 20_000

#: Strikes before the VRP watchdog quarantines (small so the campaign
#: proves the bound quickly; the Router default is more forgiving).
CAMPAIGN_STRIKE_LIMIT = 6

#: Quarantine must land within this many packets of the lying flow.
QUARANTINE_PACKET_BOUND = CAMPAIGN_STRIKE_LIMIT + 8


# ---------------------------------------------------------------------------
# Harness: identical router + traffic for baseline and faulted runs.
# ---------------------------------------------------------------------------

def _build_router() -> Router:
    router = Router(RouterConfig(num_ports=4))
    for port in range(4):
        router.add_route(f"10.{port}.0.0", 16, port)
    return router


def _fast_flows(router: Router, count: int = 600) -> None:
    """Two warm minimal-packet flows, port 0 -> 1 and port 1 -> 0: the
    MicroEngine fast path whose isolation every scenario asserts."""
    a = take(flow_stream(count, src="192.168.1.2", src_port=5001,
                         out_port=1, payload_len=6), count)
    b = take(flow_stream(count, src="192.168.1.4", src_port=5003,
                         out_port=0, payload_len=6), count)
    router.warm_route_cache([p.ip.dst for p in a] + [p.ip.dst for p in b])
    router.inject(0, iter(a))
    router.inject(1, iter(b))


def _pentium_flow(router: Router, count: int = 600) -> None:
    """A per-flow Pentium forwarder on port 2 -> 3: every packet crosses
    SA bridge -> I2O -> Pentium -> I2O -> requeue."""
    packets = take(flow_stream(count, src="192.168.2.2", src_port=6001,
                               out_port=3, payload_len=6), count)
    spec = ForwarderSpec(name="campaign-pe", where=Where.PE, cycles=1500,
                         expected_pps=50_000.0)
    router.install(packets[0].flow_key(), spec)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))


def _strongarm_flow(router: Router, count: int = 600) -> None:
    """A per-flow StrongARM-local forwarder on port 3 -> 2: sustained SA
    work on every packet (unlike a route-cache miss, which warms once)."""
    packets = take(flow_stream(count, src="192.168.4.2", src_port=8001,
                               out_port=2, payload_len=6), count)
    spec = ForwarderSpec(name="campaign-sa", where=Where.SA, cycles=500,
                         expected_pps=100_000.0)
    router.install(packets[0].flow_key(), spec)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(3, iter(packets))


def _overrun_ops():
    """The IR both the honest and the lying forwarder declare."""
    return [RegOps(20), SramRead(2)]


def _overrun_flow(router: Router, count: int = 600,
                  overrun_cycles: int = 400) -> None:
    """The attack: a per-flow ME forwarder whose verified IR is cheap but
    whose compiled code overruns by ``overrun_cycles`` per MP."""
    packets = take(flow_stream(count, src="192.168.5.2", src_port=9001,
                               out_port=3, payload_len=6), count)
    program = OverrunningVRPProgram("liar", _overrun_ops(),
                                    overrun_cycles=overrun_cycles)
    spec = ForwarderSpec(name="liar", where=Where.ME, program=program)
    router.install(packets[0].flow_key(), spec)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))


def _honest_flow(router: Router, count: int = 600) -> None:
    """The control for the overrun scenario: the same flow bound to a
    forwarder that declares the identical IR and honours it at runtime."""
    packets = take(flow_stream(count, src="192.168.5.2", src_port=9001,
                               out_port=3, payload_len=6), count)
    program = VRPProgram("honest", _overrun_ops())
    spec = ForwarderSpec(name="honest", where=Where.ME, program=program)
    router.install(packets[0].flow_key(), spec)
    router.warm_route_cache([p.ip.dst for p in packets])
    router.inject(2, iter(packets))


class _Outcome:
    """One finished run: the router plus frozen stats/tx snapshots."""

    def __init__(self, router: Router, injector, watchdog, marks: Dict[str, Any],
                 recorder) -> None:
        self.router = router
        self.injector = injector
        self.watchdog = watchdog
        self.marks = marks
        self.stats = router.stats()
        self.tx = [port.tx_packets for port in router.ports]
        self.trace_hash = (export.trace_hash(recorder.events.to_list())
                           if recorder is not None else None)

    @property
    def fast_tx(self) -> int:
        return self.tx[0] + self.tx[1]

    def rx_overflow(self) -> int:
        return sum(p.rx_dropped_packets for p in self.router.ports)


def _run(traffic: Callable[[Router], None],
         schedule: Optional[Callable] = None,
         seed: Optional[int] = None,
         watchdog_limit: Optional[int] = None,
         window: int = DEFAULT_WINDOW,
         warmup: int = DEFAULT_WARMUP) -> _Outcome:
    """Build, arm, run.  ``schedule(router, injector, marks, warmup,
    window)`` arms faults and probes before the clock starts; baseline
    runs pass ``seed=None`` and get no injector at all."""
    router = _build_router()
    recorder = router.enable_observability(sample_period=2_000)
    watchdog = (router.enable_vrp_watchdog(strike_limit=watchdog_limit)
                if watchdog_limit is not None else None)
    injector = router.enable_faults(seed=seed) if seed is not None else None
    marks: Dict[str, Any] = {}
    traffic(router)
    if schedule is not None:
        schedule(router, injector, marks, warmup, window)
    router.run(warmup + window)
    return _Outcome(router, injector, watchdog, marks, recorder)


# ---------------------------------------------------------------------------
# Invariant helpers.
# ---------------------------------------------------------------------------

def _within(name: str, faulted: int, baseline: int, fraction: float = 0.01,
            floor: int = 2) -> Dict[str, Any]:
    """|faulted - baseline| <= max(floor, fraction * baseline).  The
    floor keeps 1% meaningful when the window only fits ~100 packets."""
    tolerance = max(floor, int(fraction * baseline))
    ok = abs(faulted - baseline) <= tolerance
    return inv(name, ok,
               f"faulted={faulted} baseline={baseline} tolerance={tolerance}")


def _no_silent_corruption(outcome: _Outcome) -> Dict[str, Any]:
    leaked = sum(1 for p in outcome.router.transmitted()
                 if p.meta.get("fault_corrupted"))
    return inv("no-silent-corruption", leaked == 0,
               f"{leaked} corrupted packets transmitted")


def _accounted_exceptional(outcome: _Outcome, slack: int = 4) -> Dict[str, Any]:
    """Every packet diverted off the fast path is processed, queued,
    or counted in a named drop counter -- never silently gone."""
    router = outcome.router
    stats = outcome.stats
    accounted = (stats.get("sa_drops", 0)
                 + stats.get("sa_local_processed", 0)
                 + stats.get("sa_bridged", 0)
                 + router.strongarm.bridge_dropped
                 + len(router.chip.sa_local_queue)
                 + len(router.chip.sa_pentium_queue))
    residual = stats.get("exceptional", 0) - accounted
    return inv("exceptional-accounted", 0 <= residual <= slack,
               f"exceptional={stats.get('exceptional', 0)} "
               f"accounted={accounted} residual={residual}")


def _bridge_conserved(outcome: _Outcome, slack: int = 2) -> Dict[str, Any]:
    """sa_bridged = Pentium-processed + in-queue + lost (+ <= slack
    mid-transfer)."""
    router = outcome.router
    pent = router.pentium
    sunk = ((pent.processed if pent is not None else 0)
            + router.to_pentium.occupancy
            + router.to_pentium.messages_lost)
    residual = outcome.stats.get("sa_bridged", 0) - sunk
    return inv("bridge-conserved", 0 <= residual <= slack,
               f"bridged={outcome.stats.get('sa_bridged', 0)} sunk={sunk} "
               f"residual={residual}")


# ---------------------------------------------------------------------------
# Result object.
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult(Verdict):
    scenario: str
    seed: int
    warmup_cycles: int
    window_cycles: int
    invariants: List[Dict[str, Any]] = field(default_factory=list)
    incidents: List[Dict[str, Any]] = field(default_factory=list)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    baseline: Dict[str, Any] = field(default_factory=dict)
    faulted: Dict[str, Any] = field(default_factory=dict)
    trace_hash: Optional[str] = None

    def artifact(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "warmup_cycles": self.warmup_cycles,
            "window_cycles": self.window_cycles,
            "ok": self.ok,
            "invariants": self.invariants,
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "incidents": self.incidents,
            "baseline": self.baseline,
            "faulted": self.faulted,
            "trace_hash": self.trace_hash,
        }

    def incident_log_json(self) -> str:
        """The campaign's canonical artifact; byte-identical per seed."""
        return export.dumps(self.artifact(), indent=2, sort_keys=True)

    def table(self) -> List[str]:
        lines = [f"## {self.scenario} (seed {self.seed})",
                 *invariant_table(self.invariants)]
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.fault_counts.items()))
        lines.append(f"faults: {counts or 'none'}; "
                     f"incidents: {len(self.incidents)}")
        return lines


def _result(name: str, seed: int, window: int, warmup: int,
            baseline: _Outcome, faulted: _Outcome,
            invariants: List[Dict[str, Any]]) -> CampaignResult:
    inj = faulted.injector
    incidents = list(inj.log) if inj is not None else []
    if faulted.watchdog is not None and inj is None:
        incidents.extend(faulted.watchdog.incidents)
    return CampaignResult(
        scenario=name,
        seed=seed,
        warmup_cycles=warmup,
        window_cycles=window,
        invariants=invariants,
        incidents=incidents,
        fault_counts=dict(inj.counts) if inj is not None else {},
        baseline={"stats": baseline.stats, "tx": baseline.tx},
        faulted={"stats": faulted.stats, "tx": faulted.tx},
        trace_hash=faulted.trace_hash,
    )


# ---------------------------------------------------------------------------
# Scenarios.
# ---------------------------------------------------------------------------

def _scenario_pentium_crash(seed: int, window: int, warmup: int) -> CampaignResult:
    """Section 4.7 under attack: the Pentium dies mid-run and reboots.
    The fast path must hold its baseline rate within 1% throughout."""

    def traffic(router: Router) -> None:
        _fast_flows(router)
        _pentium_flow(router)

    def schedule(router, inj, marks, warmup_, window_):
        at = warmup_ + int(inj.rng.uniform(0.15, 0.3) * window_)
        restart_after = int(0.3 * window_)
        inj.schedule_host_crash(router.pentium, at, restart_after,
                                label="pentium")

        def probe():
            marks["pentium_processed_at_restart"] = router.pentium.processed

        router.sim.schedule(at + restart_after + 1, probe)

    baseline = _run(traffic, window=window, warmup=warmup)
    faulted = _run(traffic, schedule=schedule, seed=seed,
                   window=window, warmup=warmup)
    pent = faulted.router.pentium
    at_restart = faulted.marks.get("pentium_processed_at_restart", 0)
    invariants = [
        _within("fastpath-isolation", faulted.fast_tx, baseline.fast_tx),
        inv("crash-and-restart", pent.crashes == 1 and pent.restarts == 1,
            f"crashes={pent.crashes} restarts={pent.restarts}"),
        inv("slow-path-resumes", pent.processed > at_restart,
            f"processed={pent.processed} at_restart={at_restart}"),
        _accounted_exceptional(faulted),
        _bridge_conserved(faulted),
        _no_silent_corruption(faulted),
    ]
    return _result("pentium-crash", seed, window, warmup, baseline, faulted,
                   invariants)


def _scenario_strongarm_crash(seed: int, window: int, warmup: int) -> CampaignResult:
    """The StrongARM (the whole slow path's front door) crashes and
    reboots; exceptional packets queue or drop by name, never wedge."""

    def traffic(router: Router) -> None:
        _fast_flows(router)
        _strongarm_flow(router)

    def schedule(router, inj, marks, warmup_, window_):
        at = warmup_ + int(inj.rng.uniform(0.15, 0.3) * window_)
        restart_after = int(0.25 * window_)
        inj.schedule_host_crash(router.strongarm, at, restart_after,
                                label="strongarm")

        def probe():
            marks["sa_local_at_restart"] = router.strongarm.local_processed

        router.sim.schedule(at + restart_after + 1, probe)

    baseline = _run(traffic, window=window, warmup=warmup)
    faulted = _run(traffic, schedule=schedule, seed=seed,
                   window=window, warmup=warmup)
    sa = faulted.router.strongarm
    at_restart = faulted.marks.get("sa_local_at_restart", 0)
    invariants = [
        _within("fastpath-isolation", faulted.fast_tx, baseline.fast_tx),
        inv("crash-and-restart", sa.crashes == 1 and sa.restarts == 1,
            f"crashes={sa.crashes} restarts={sa.restarts}"),
        inv("slow-path-resumes", sa.local_processed > at_restart,
            f"local_processed={sa.local_processed} at_restart={at_restart}"),
        _accounted_exceptional(faulted),
        _no_silent_corruption(faulted),
    ]
    return _result("strongarm-crash", seed, window, warmup, baseline, faulted,
                   invariants)


def _scenario_vrp_overrun(seed: int, window: int, warmup: int) -> CampaignResult:
    """A forwarder that passed admission overruns its declared VRP cost
    at runtime; the watchdog must quarantine it within a bounded number
    of packets and the router must keep forwarding.  The baseline binds
    the same flow to an honest forwarder declaring the identical IR, so
    the two runs carry the same offered load on every port."""

    def baseline_traffic(router: Router) -> None:
        _fast_flows(router)
        _honest_flow(router)

    def faulted_traffic(router: Router) -> None:
        _fast_flows(router)
        _overrun_flow(router)

    baseline = _run(baseline_traffic, window=window, warmup=warmup)
    faulted = _run(faulted_traffic, seed=seed,
                   watchdog_limit=CAMPAIGN_STRIKE_LIMIT,
                   window=window, warmup=warmup)
    quarantined = list(faulted.watchdog.quarantined.values())
    matched = quarantined[0]["packets_matched"] if quarantined else -1
    invariants = [
        inv("watchdog-quarantines", len(quarantined) == 1,
            f"{len(quarantined)} forwarders quarantined"),
        inv("quarantine-bounded",
            bool(quarantined) and matched <= QUARANTINE_PACKET_BOUND,
            f"quarantined after {matched} packets "
            f"(bound {QUARANTINE_PACKET_BOUND})"),
        _within("fastpath-isolation", faulted.fast_tx, baseline.fast_tx),
        _within("forwarding-continues", faulted.tx[3], faulted.tx[0],
                fraction=0.05, floor=QUARANTINE_PACKET_BOUND + 4),
        _no_silent_corruption(faulted),
    ]
    return _result("vrp-overrun", seed, window, warmup, baseline, faulted,
                   invariants)


def _scenario_link_flap(seed: int, window: int, warmup: int) -> CampaignResult:
    """Port 0's link flaps, then its frames suffer drop/corrupt/duplicate
    faults; port 1 is untouched and must not notice."""

    def traffic(router: Router) -> None:
        _fast_flows(router)

    def schedule(router, inj, marks, warmup_, window_):
        at = warmup_ + int(inj.rng.uniform(0.1, 0.25) * window_)
        down = int(0.1 * window_)
        inj.schedule_link_flap(router.ports[0], at, down)
        start = at + down + int(0.05 * window_)
        inj.schedule_packet_faults(router.ports[0], start, warmup_ + window_,
                                   drop=0.1, corrupt=0.1, duplicate=0.1)

    baseline = _run(traffic, window=window, warmup=warmup)
    faulted = _run(traffic, schedule=schedule, seed=seed,
                   window=window, warmup=warmup)
    counts = faulted.injector.counts
    corrupt = counts.get("mac-corrupt", 0)
    failures_delta = (faulted.stats["classifier_failures"]
                      - baseline.stats["classifier_failures"])
    lost = counts.get("link-drop", 0) + counts.get("mac-drop", 0)
    dup = counts.get("mac-duplicate", 0)
    base_in = baseline.stats["input_packets"] + baseline.rx_overflow()
    faulted_in = (faulted.stats["input_packets"] + faulted.rx_overflow()
                  + lost - dup)
    invariants = [
        _within("unaffected-port-isolation", faulted.tx[0], baseline.tx[0]),
        inv("link-flap-fired", counts.get("link-drop", 0) > 0,
            f"link-drop={counts.get('link-drop', 0)}"),
        inv("corruption-detected", 0 <= corrupt - failures_delta <= 2,
            f"mac-corrupt={corrupt} validation-failure-delta={failures_delta}"),
        inv("input-conserved", abs(faulted_in - base_in) <= 4,
            f"faulted-accounted={faulted_in} baseline={base_in} "
            f"(lost={lost} dup={dup})"),
        _no_silent_corruption(faulted),
    ]
    return _result("link-flap", seed, window, warmup, baseline, faulted,
                   invariants)


def _scenario_memory_stress(seed: int, window: int, warmup: int) -> CampaignResult:
    """SRAM/SDRAM latency spikes, a MicroEngine crash-with-reload, and a
    PCI bus stall, back to back: forwarding degrades boundedly and
    resumes after the last fault clears."""

    def traffic(router: Router) -> None:
        _fast_flows(router)

    def schedule(router, inj, marks, warmup_, window_):
        chip = router.chip
        t0 = warmup_ + int(inj.rng.uniform(0.1, 0.2) * window_)
        hold = int(0.05 * window_)
        inj.schedule_memory_spike(chip.sram, t0, hold, label="sram")
        inj.schedule_memory_spike(chip.dram, t0 + 2 * hold, hold, label="sdram")
        inj.schedule_engine_crash(chip.engines[0], t0 + 4 * hold, hold)
        inj.schedule_pci_stall(router.pci, t0 + 6 * hold, hold)

        def probe():
            marks["tx_at_resume"] = sum(p.tx_packets for p in router.ports)

        router.sim.schedule(t0 + 7 * hold + 1, probe)

    baseline = _run(traffic, window=window, warmup=warmup)
    faulted = _run(traffic, schedule=schedule, seed=seed,
                   window=window, warmup=warmup)
    counts = faulted.injector.counts
    tx_at_resume = faulted.marks.get("tx_at_resume", 0)
    total_tx = sum(faulted.tx)
    rx_delta = faulted.rx_overflow() - baseline.rx_overflow()
    invariants = [
        inv("all-faults-fired",
            counts.get("memory-spike", 0) == 2
            and counts.get("me-crash", 0) == 1
            and counts.get("pci-stall", 0) == 1,
            f"counts={dict(sorted(counts.items()))}"),
        inv("degradation-bounded", faulted.fast_tx >= 0.75 * baseline.fast_tx,
            f"faulted={faulted.fast_tx} baseline={baseline.fast_tx}"),
        inv("forwarding-resumes", total_tx > tx_at_resume,
            f"tx_total={total_tx} tx_at_resume={tx_at_resume}"),
        inv("overflow-counted", rx_delta >= 0,
            f"rx_overflow_delta={rx_delta} (stall backpressure is counted, "
            "not silent)"),
        _no_silent_corruption(faulted),
    ]
    return _result("memory-stress", seed, window, warmup, baseline, faulted,
                   invariants)


def _scenario_i2o_storm(seed: int, window: int, warmup: int) -> CampaignResult:
    """The SA->Pentium I2O channel loses messages while the PCI bus
    stalls; every loss is accounted and the fast path never notices."""

    def traffic(router: Router) -> None:
        _fast_flows(router)
        _pentium_flow(router)

    def schedule(router, inj, marks, warmup_, window_):
        start = warmup_ + int(inj.rng.uniform(0.1, 0.2) * window_)
        inj.schedule_i2o_loss(router.to_pentium, start, warmup_ + window_,
                              rate=0.2)
        inj.schedule_pci_stall(router.pci, start + int(0.1 * window_),
                               int(0.05 * window_))

    baseline = _run(traffic, window=window, warmup=warmup)
    faulted = _run(traffic, schedule=schedule, seed=seed,
                   window=window, warmup=warmup)
    counts = faulted.injector.counts
    lost = faulted.router.to_pentium.messages_lost
    invariants = [
        inv("loss-accounted", lost == counts.get("i2o-loss", 0),
            f"messages_lost={lost} i2o-loss={counts.get('i2o-loss', 0)}"),
        _within("fastpath-isolation", faulted.fast_tx, baseline.fast_tx),
        _bridge_conserved(faulted),
        _accounted_exceptional(faulted),
        _no_silent_corruption(faulted),
    ]
    return _result("i2o-storm", seed, window, warmup, baseline, faulted,
                   invariants)


SCENARIOS: Dict[str, Callable[[int, int, int], CampaignResult]] = {
    "pentium-crash": _scenario_pentium_crash,
    "strongarm-crash": _scenario_strongarm_crash,
    "vrp-overrun": _scenario_vrp_overrun,
    "link-flap": _scenario_link_flap,
    "memory-stress": _scenario_memory_stress,
    "i2o-storm": _scenario_i2o_storm,
}


def run_campaign(name: str, seed: int = 0, window: int = DEFAULT_WINDOW,
                 warmup: int = DEFAULT_WARMUP) -> List[CampaignResult]:
    """Run one scenario (or ``"all"``); returns one result per scenario."""
    if name == "all":
        return [fn(seed, window, warmup) for fn in SCENARIOS.values()]
    fn = SCENARIOS.get(name)
    if fn is None:
        valid = ", ".join(sorted([*SCENARIOS, "all"]))
        raise ValueError(f"unknown fault scenario {name!r}: valid are {valid}")
    return [fn(seed, window, warmup)]
