"""Chaos trials: run generated fault schedules against the scenario
ring and check that the network *recovers* -- every fault in a schedule
is survivable by construction (flaps restore, crashes restart, loss
bursts end), so after the dust settles the control plane must have
re-formed every adjacency, re-synced every LSDB, reprogrammed routes to
every host prefix, and gone quiet.  A trial that ends any other way is
a violation worth a bug report, and :mod:`repro.chaos.shrink` reduces
its schedule to the minimal reproducing fault set.

The campaign deliberately re-uses the topology scenarios' ring (primary
path r1-r2-r3, alternate r1-r4-r3) so a chaos finding replays in the
same arena the deterministic scenarios already cover.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.chaos.schedule import FaultSpec, generate_schedule, schedule_to_json
from repro.control.channel import DEFAULT_MAX_ATTEMPTS
from repro.control.linkstate import ADJ_FULL
from repro.engine.sim import collector_held
from repro.obs.metrics import Deltas
from repro.topo.network import LOGGED_KINDS, Topology
from repro.topo.scenarios import ring_with_primary
from repro.verdict import Verdict, inv

#: Campaign defaults: shorter than the scenario window (a campaign runs
#: many trials) but long enough for every generated fault to start,
#: end, and be recovered from.
DEFAULT_CHAOS_WINDOW = 90_000
DEFAULT_CHAOS_WARMUP = 10_000

#: Horizon for the initial cold-start flood.
CONVERGE_HORIZON = 50_000

#: After the measurement window, the network gets this long to go
#: quiet; a healthy ring needs a fraction of it.
SETTLE_HORIZON = 60_000

#: Cycles of enforced silence after settling: any LSA retransmit in
#: this tail is a storm (nothing changed, so nothing may be resent).
QUIET_TAIL = 6_000

RING_LINKS = ("r1--r2", "r2--r3", "r3--r4", "r4--r1")
RING_ROUTERS = ("r1", "r2", "r3", "r4")


def _apply_fault(topo: Topology, spec: FaultSpec, warmup: int) -> None:
    """Schedule one fault.  ``spec.at`` is window-relative; ``fail_link``
    and ``crash_control`` take now-relative delays while injector plans
    use absolute cycles, hence the two time bases."""
    start_abs = topo.sim.now + warmup + spec.at
    if spec.kind == "router-restart":
        topo.crash_control(spec.target, at=warmup + spec.at,
                           restart_after=spec.duration)
        return
    a, b = spec.target.split("--")
    link = topo.link_between(a, b)
    if spec.kind == "link-flap":
        topo.fail_link(a, b, at=warmup + spec.at,
                       restore_at=warmup + spec.at + spec.duration)
    elif spec.kind == "ctrl-loss":
        topo.injector.schedule_control_faults(
            link, start=start_abs, stop=start_abs + spec.duration,
            drop=spec.drop, corrupt=spec.corrupt)
    else:  # gray-link: one direction's hellos silently vanish
        topo.injector.schedule_control_faults(
            link, start=start_abs, stop=start_abs + spec.duration,
            drop=1.0, direction=0, kinds=("hello",))


def _adjacency_gaps(topo: Topology) -> List[str]:
    """Router-link pairs whose adjacency is not FULL-and-installed --
    empty on a recovered network (every generated fault heals)."""
    gaps = []
    for link in topo.links:
        if not link.nodes:
            continue  # host access link: no adjacency
        na, nb = link.nodes
        for me, peer in ((na, nb), (nb, na)):
            adj = me.binding.adjacencies.get(peer.router_id)
            if adj is None or adj.state != ADJ_FULL:
                state = "missing" if adj is None else adj.state
                gaps.append(f"{me.name}->{peer.name}:{state}")
            elif peer.router_id not in me.node.neighbors:
                gaps.append(f"{me.name}->{peer.name}:not-in-spf")
    return gaps


def _missing_routes(topo: Topology) -> List[str]:
    """Router/host-prefix pairs with no installed route (ground truth:
    the healed ring is connected, so every router must reach every
    host prefix)."""
    missing = []
    for name in sorted(topo.nodes):
        node = topo.nodes[name]
        for hname in sorted(topo.hosts):
            host = topo.hosts[hname]
            if host.node is node:
                continue  # directly attached networks route locally
            if node.node.routes.get((host.prefix, 24)) is None:
                missing.append(f"{name}->{host.prefix}/24")
    return missing


@dataclass
class TrialResult(Verdict):
    """One schedule's verdict, JSON-ready and deterministic per
    ``(seed, trial, schedule)``."""

    seed: int
    trial: int
    schedule: List[FaultSpec]
    converge_cycles: int = 0
    settle_cycles: int = 0
    invariants: List[Dict[str, Any]] = field(default_factory=list)
    accounting: Dict[str, int] = field(default_factory=dict)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    detections: int = 0
    reconvergences: int = 0
    abandoned: int = 0
    rejected: int = 0

    @property
    def label(self) -> str:
        return f"trial {self.trial}"

    def artifact(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "trial": self.trial,
            "schedule": [f.to_dict() for f in self.schedule],
            "ok": self.ok,
            "violations": self.violations,
            "invariants": self.invariants,
            "converge_cycles": self.converge_cycles,
            "settle_cycles": self.settle_cycles,
            "accounting": self.accounting,
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "detections": self.detections,
            "reconvergences": self.reconvergences,
            "abandoned": self.abandoned,
            "rejected": self.rejected,
        }


@collector_held()
def run_trial(seed: int, trial: int,
              window: int = DEFAULT_CHAOS_WINDOW,
              warmup: int = DEFAULT_CHAOS_WARMUP,
              schedule: Optional[Sequence[FaultSpec]] = None,
              ctrl_max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> TrialResult:
    """Run one fault schedule (generated from ``(seed, trial)`` unless
    given explicitly -- replay and the shrinker pass their own) and
    evaluate the recovery invariants."""
    # Free the previous trial's topology (cyclic garbage, about 5 MB)
    # before building this one.  Every trial runs with the collector held
    # until its frame is gone, so that topology is still young: a young
    # pass frees it without walking the objects that were alive before
    # the campaign.  (An enabled collector's own pass as the previous
    # hold ended has usually freed it already.)
    gc.collect(0)
    if schedule is None:
        schedule = generate_schedule(seed, trial, RING_LINKS, RING_ROUTERS,
                                     window)
    schedule = list(schedule)
    topo = ring_with_primary(seed, ctrl_max_attempts)
    topo.enable_observability()
    topo.enable_faults(seed)
    converge_cycles = topo.converge(max_cycles=CONVERGE_HORIZON)

    interval = 2_000
    count = int(window * 0.6) // interval
    fwd = topo.hosts["h1"].start_flow(topo.hosts["h3"], count=count,
                                      interval=interval, start=warmup)
    rev = topo.hosts["h3"].start_flow(topo.hosts["h1"], count=count // 2,
                                      interval=interval * 2, start=warmup)
    for spec in schedule:
        _apply_fault(topo, spec, warmup)
    topo.run(warmup + window)

    # Settle: poll until reliable flooding is quiet, every LSDB agrees,
    # and every adjacency is back to FULL -- or the horizon expires.
    settle_start = topo.sim.now
    while topo.sim.now - settle_start < SETTLE_HORIZON:
        if (topo._control_settled() and topo._lsdbs_equal()
                and not _adjacency_gaps(topo)):
            break
        topo.run(1_000)
    settle_cycles = topo.sim.now - settle_start

    retx = Deltas(lambda: {
        "retransmits": sum(n.binding.retransmits for n in topo.nodes.values())})
    topo.run(QUIET_TAIL)
    retx_tail = retx()["retransmits"]

    acct = topo.accounting()
    residual = acct["residual"] - acct["icmp_errors"]
    gaps = _adjacency_gaps(topo)
    missing = _missing_routes(topo)
    abandoned = sum(n.binding.abandoned for n in topo.nodes.values())
    rejected = sum(n.binding.ctrl_rejected for n in topo.nodes.values())
    h1, h3 = topo.hosts["h1"], topo.hosts["h3"]
    logged = [i for i in topo.incidents if i["kind"] in LOGGED_KINDS]
    expected_logged = sum(topo.fault_counts.get(k, 0) for k in LOGGED_KINDS)

    invariants = [
        inv("initial-convergence", converge_cycles <= CONVERGE_HORIZON,
            f"{converge_cycles} cycles (horizon {CONVERGE_HORIZON})"),
        inv("all-drops-accounted", 0 <= residual <= 8,
            f"sent={acct['sent']} delivered={acct['delivered']} "
            f"link_drops={acct['link_drops']} "
            f"router_drops={acct['router_drops']} residual={residual}"),
        inv("control-settled",
            topo._control_settled() and settle_cycles < SETTLE_HORIZON,
            f"flooding quiet after {settle_cycles} settle cycles "
            f"(horizon {SETTLE_HORIZON})"),
        inv("adjacencies-reformed", not gaps,
            "all adjacencies FULL" if not gaps else
            f"gaps: {', '.join(gaps)}"),
        inv("lsdbs-converged", topo._lsdbs_equal(),
            "all LSDBs identical" if topo._lsdbs_equal() else
            "LSDBs diverged after settle"),
        inv("routes-ground-truth", not missing,
            "every router routes every host prefix" if not missing else
            f"missing: {', '.join(missing)}"),
        inv("flooding-reliable", abandoned == 0,
            f"{abandoned} LSAs abandoned after {ctrl_max_attempts} attempts"),
        inv("no-retransmit-storm", retx_tail == 0,
            f"{retx_tail} retransmits in the {QUIET_TAIL}-cycle quiet tail"),
        inv("delivery-maintained",
            h3.received_by_flow.get(fwd, 0) > 0
            and h1.received_by_flow.get(rev, 0) > 0,
            f"fwd {h3.received_by_flow.get(fwd, 0)}, "
            f"rev {h1.received_by_flow.get(rev, 0)} delivered"),
        inv("incident-log-complete", len(logged) == expected_logged,
            f"{len(logged)} logged incidents vs {expected_logged} counted"),
    ]
    return TrialResult(
        seed=seed, trial=trial, schedule=schedule,
        converge_cycles=converge_cycles, settle_cycles=settle_cycles,
        invariants=invariants, accounting=acct,
        fault_counts=topo.fault_counts,
        detections=len(topo.detections),
        reconvergences=len(topo.reconvergences),
        abandoned=abandoned, rejected=rejected,
    )


@dataclass
class CampaignResult:
    """A whole campaign: per-trial verdicts plus, when shrinking was
    requested, the minimal reproducing schedule for each violation."""

    seed: int
    trials: int
    window_cycles: int
    warmup_cycles: int
    ctrl_max_attempts: int
    results: List[TrialResult] = field(default_factory=list)
    minimal: Dict[int, List[FaultSpec]] = field(default_factory=dict)

    @property
    def failed_trials(self) -> List[int]:
        return [r.trial for r in self.results if not r.ok]

    def artifact(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "window_cycles": self.window_cycles,
            "warmup_cycles": self.warmup_cycles,
            "ctrl_max_attempts": self.ctrl_max_attempts,
            "ok": not self.failed_trials,
            "failed_trials": self.failed_trials,
            "results": [r.artifact() for r in self.results],
            "minimal_schedules": {
                str(trial): [f.to_dict() for f in sched]
                for trial, sched in sorted(self.minimal.items())},
        }

    def table(self) -> List[str]:
        lines = [f"## chaos campaign (seed {self.seed}, "
                 f"{self.trials} trials, window {self.window_cycles})",
                 "| trial | faults | ok | detections | reconv | violations |",
                 "|---|---|---|---|---|---|"]
        for r in self.results:
            mark = "PASS" if r.ok else "FAIL"
            lines.append(
                f"| {r.trial} | {len(r.schedule)} | {mark} | {r.detections} "
                f"| {r.reconvergences} | {', '.join(r.violations) or '-'} |")
        for trial, sched in sorted(self.minimal.items()):
            lines.append(f"minimal schedule for trial {trial} "
                         f"({len(sched)} faults):")
            for f in sched:
                lines.append(f"  - {f.describe()}")
        return lines

    def to_json(self, indent: int = 2) -> str:
        from repro.obs import export

        return export.dumps(self.artifact(), indent=indent, sort_keys=True)


def run_campaign(seed: int, trials: int,
                 window: int = DEFAULT_CHAOS_WINDOW,
                 warmup: int = DEFAULT_CHAOS_WARMUP,
                 shrink: bool = False,
                 ctrl_max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 ) -> CampaignResult:
    """Run ``trials`` generated schedules; optionally delta-debug each
    violating schedule down to its minimal reproducing fault set."""
    from repro.chaos.shrink import shrink_schedule

    campaign = CampaignResult(seed=seed, trials=trials, window_cycles=window,
                              warmup_cycles=warmup,
                              ctrl_max_attempts=ctrl_max_attempts)
    for trial in range(trials):
        result = run_trial(seed, trial, window=window, warmup=warmup,
                           ctrl_max_attempts=ctrl_max_attempts)
        campaign.results.append(result)
        if not result.ok and shrink:
            def reproduces(subset: Sequence[FaultSpec]) -> bool:
                replay = run_trial(seed, trial, window=window, warmup=warmup,
                                   schedule=subset,
                                   ctrl_max_attempts=ctrl_max_attempts)
                return not replay.ok

            campaign.minimal[trial] = shrink_schedule(result.schedule,
                                                      reproduces)
    return campaign


def replay_schedule(schedule: Sequence[FaultSpec], seed: int = 0,
                    window: int = DEFAULT_CHAOS_WINDOW,
                    warmup: int = DEFAULT_CHAOS_WARMUP,
                    ctrl_max_attempts: int = DEFAULT_MAX_ATTEMPTS
                    ) -> TrialResult:
    """Replay a serialized schedule (e.g. a shrinker artifact) as trial
    0 of its seed; see :func:`repro.chaos.schedule.schedule_from_json`."""
    return run_trial(seed, 0, window=window, warmup=warmup,
                     schedule=schedule, ctrl_max_attempts=ctrl_max_attempts)


__all__ = [
    "CampaignResult",
    "TrialResult",
    "replay_schedule",
    "run_campaign",
    "run_trial",
    "schedule_to_json",
]
