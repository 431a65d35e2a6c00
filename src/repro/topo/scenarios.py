"""Network-wide scenarios: the topology counterpart of fault campaigns.

Three scenarios exercise the network the way section 4.7 exercises one
router -- under hostile conditions, checking *invariants* rather than
absolute numbers:

* **link-failure** -- a transit link on the primary path dies; the
  control plane reconverges within a bounded horizon, traffic reroutes
  onto the alternate path, and every packet lost in the blackhole window
  is bounded and accounted;
* **route-churn** -- periodic flap storms on a primary-path link, with
  per-node packet faults composed on top; SPF and flooding stay bounded
  (no storm amplification), routes return to the primary path, and the
  incident log is complete;
* **congestion-collapse** -- two flows overload a low-bandwidth
  bottleneck link; its queue overflows (counted, never silent), goodput
  is capped by link capacity, and a flow on a disjoint path is isolated.

Everything is seed-deterministic: the simulator has no wall clock, link
loss and fault times flow from the one seed, so each scenario's incident
log serializes byte-identically run after run (the determinism suite and
the CI smoke rely on this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.control.channel import DEFAULT_MAX_ATTEMPTS
from repro.obs import export
from repro.obs.metrics import Deltas
from repro.topo.network import LOGGED_KINDS, Topology
from repro.verdict import Verdict, inv, invariant_table

DEFAULT_WINDOW = 240_000
DEFAULT_WARMUP = 20_000

#: A reconvergence episode must finish within this horizon.
RECONVERGE_HORIZON = 30_000

#: Initial convergence horizon (flooding a cold network).
CONVERGE_HORIZON = 50_000

MONITOR_PERIOD = 40_000


# ---------------------------------------------------------------------------
# Harness helpers.
# ---------------------------------------------------------------------------

def ring_with_primary(seed: int,
                      ctrl_max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> Topology:
    """The scenario ring: r1-r2-r3 is the primary path (cost 2), r1-r4-r3
    the alternate (cost 4); hosts h1 at r1 and h3 at r3.  The chaos
    campaign runs its trials on it too, with its own per-LSA retransmit
    budget."""
    topo = Topology(seed=seed, ctrl_max_attempts=ctrl_max_attempts)
    for name in ("r1", "r2", "r3", "r4"):
        topo.add_router(name)
    topo.connect("r1", "r2", cost=1)
    topo.connect("r2", "r3", cost=1)
    topo.connect("r3", "r4", cost=2)
    topo.connect("r4", "r1", cost=2)
    topo.add_host("h1", "r1")
    topo.add_host("h3", "r3")
    return topo


def _arm(topo: Topology, seed: int) -> None:
    topo.enable_observability()
    topo.enable_faults(seed)
    topo.health_monitors(period=MONITOR_PERIOD)


def _start_flow(topo: Topology, src: str, dst: str, count: int, interval: int,
                start: int, **kw) -> str:
    flow = topo.hosts[src].start_flow(topo.hosts[dst], count=count,
                                      interval=interval, start=start, **kw)
    topo.record("topo-traffic-start",
                f"flow {flow}: {count} packets every {interval} cycles "
                f"from cycle {topo.sim.now + start}", severity="green")
    return flow


def _accounted(topo: Topology, slack: int) -> Dict[str, Any]:
    acct = topo.accounting()
    # TTL-expired packets are consumed by the ICMP generator rather than
    # a drop counter; each one answered with a delivered error is
    # accounted through ``icmp_errors``.
    residual = acct["residual"] - acct["icmp_errors"]
    return inv("all-drops-accounted", 0 <= residual <= slack,
               f"sent={acct['sent']} delivered={acct['delivered']} "
               f"link_drops={acct['link_drops']} router_drops={acct['router_drops']} "
               f"in_flight={acct['in_flight']} residual={residual} (slack {slack})")


# ---------------------------------------------------------------------------
# Result object.
# ---------------------------------------------------------------------------

@dataclass
class TopoResult(Verdict):
    scenario: str
    seed: int
    warmup_cycles: int
    window_cycles: int
    converge_cycles: int
    invariants: List[Dict[str, Any]] = field(default_factory=list)
    incidents: List[Dict[str, Any]] = field(default_factory=list)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    reconvergences: List[Dict[str, Any]] = field(default_factory=list)
    detections: List[Dict[str, Any]] = field(default_factory=list)
    accounting: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    trace_hash: Optional[str] = None
    #: the live topology (not serialized): netview reads its tracer /
    #: metrics / recorders after the run.
    topo: Optional[Topology] = field(default=None, repr=False, compare=False)

    def artifact(self) -> Dict[str, Any]:
        """The full deterministic artifact (determinism suite input)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "warmup_cycles": self.warmup_cycles,
            "window_cycles": self.window_cycles,
            "converge_cycles": self.converge_cycles,
            "ok": self.ok,
            "invariants": self.invariants,
            "incidents": self.incidents,
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "reconvergences": self.reconvergences,
            "detections": self.detections,
            "accounting": self.accounting,
            "stats": self.stats,
            "trace_hash": self.trace_hash,
        }

    def incident_log_json(self) -> str:
        """The canonical incident artifact, byte-identical per seed --
        what the committed goldens diff against.  Excludes raw stats and
        the trace hash (covered by the determinism suite) so the golden
        breaks on behavior changes, not on every new counter."""
        doc = self.artifact()
        doc.pop("stats")
        doc.pop("trace_hash")
        return export.dumps(doc, indent=2, sort_keys=True)

    def table(self) -> List[str]:
        lines = [f"## topo {self.scenario} (seed {self.seed})",
                 *invariant_table(self.invariants)]
        acct = self.accounting
        lines.append(
            f"converged in {self.converge_cycles} cycles; "
            f"sent={acct.get('sent', 0)} delivered={acct.get('delivered', 0)}; "
            f"reconvergences: {len(self.reconvergences)}; "
            f"incidents: {len(self.incidents)}")
        return lines


def _result(name: str, seed: int, window: int, warmup: int,
            topo: Topology, converge_cycles: int,
            invariants: List[Dict[str, Any]]) -> TopoResult:
    return TopoResult(
        scenario=name,
        seed=seed,
        warmup_cycles=warmup,
        window_cycles=window,
        converge_cycles=converge_cycles,
        invariants=invariants,
        incidents=list(topo.incidents),
        fault_counts=topo.fault_counts,
        reconvergences=list(topo.reconvergences),
        detections=list(topo.detections),
        accounting=topo.accounting(),
        stats=topo.stats(),
        trace_hash=topo.trace_hash(),
        topo=topo,
    )


# ---------------------------------------------------------------------------
# Scenario: link failure + reconvergence.
# ---------------------------------------------------------------------------

def _scenario_link_failure(seed: int, window: int, warmup: int,
                           instrument: Optional[Callable[[Topology], None]] = None
                           ) -> TopoResult:
    rng = random.Random(f"link-failure:{seed}")
    topo = ring_with_primary(seed)
    _arm(topo, seed)
    if instrument is not None:
        instrument(topo)
    converge_cycles = topo.converge(max_cycles=CONVERGE_HORIZON)

    interval = 2_000
    count = int(window * 0.7) // interval
    fwd = _start_flow(topo, "h1", "h3", count=count, interval=interval,
                      start=warmup)
    rev = _start_flow(topo, "h3", "h1", count=count // 3, interval=interval * 3,
                      start=warmup)
    fail_at = warmup + int(rng.uniform(0.3, 0.45) * window)
    topo.fail_link("r1", "r2", at=fail_at)

    h1, h3 = topo.hosts["h1"], topo.hosts["h3"]
    alt = topo.link_between("r1", "r4")
    marks: Dict[str, int] = {}

    def probe() -> None:
        marks["delivered_at_fail"] = h3.received
        marks["alt_carried_at_fail"] = alt.counts["carried_data"]

    topo.sim.schedule(fail_at + 1, probe)
    topo.run(warmup + window)

    reconv = topo.reconvergences[-1]["cycles"] if topo.reconvergences else None
    fwd_delivered = h3.received_by_flow.get(fwd, 0)
    lost = count - fwd_delivered
    # The blackhole lasts one reconvergence (which now *includes* the
    # hello-based detection latency) plus the frames already in flight
    # toward the dead link.
    loss_bound = ((reconv or RECONVERGE_HORIZON) // interval) + 4
    # Both endpoints must notice for themselves, within the dead interval
    # plus one hello of phase skew (and a little processing slack).
    detections = [d for d in topo.detections if d["latency"] is not None]
    worst_detect = max((d["latency"] for d in detections), default=None)
    detect_bound = topo.dead_interval + topo.hello_interval + 1_000
    invariants = [
        inv("initial-convergence", converge_cycles <= CONVERGE_HORIZON,
            f"{converge_cycles} cycles (horizon {CONVERGE_HORIZON})"),
        inv("pre-failure-delivery", marks.get("delivered_at_fail", 0) > 0,
            f"{marks.get('delivered_at_fail', 0)} packets delivered before "
            f"the failure at cycle {fail_at}"),
        inv("failure-detected-by-hellos",
            len(detections) >= 2
            and worst_detect is not None and worst_detect <= detect_bound,
            f"{len(detections)} endpoint detections, worst latency "
            f"{worst_detect} cycles (bound {detect_bound} = dead "
            f"{topo.dead_interval} + hello {topo.hello_interval} + slack)"),
        inv("reconverged-within-horizon",
            reconv is not None and reconv <= RECONVERGE_HORIZON,
            f"reconvergence took {reconv} cycles (horizon {RECONVERGE_HORIZON})"),
        inv("rerouted-to-alternate-path",
            alt.counts["carried_data"] > marks.get("alt_carried_at_fail", 0),
            f"r1--r4 carried {alt.counts['carried_data']} data frames "
            f"(was {marks.get('alt_carried_at_fail', 0)} at failure)"),
        inv("post-failure-delivery",
            h3.received > marks.get("delivered_at_fail", 0),
            f"{h3.received} total vs {marks.get('delivered_at_fail', 0)} at failure"),
        inv("loss-bounded", 0 <= lost <= loss_bound,
            f"lost {lost} of {count} forward packets (bound {loss_bound})"),
        inv("reverse-flow-survives", h1.received_by_flow.get(rev, 0) > 0,
            f"{h1.received_by_flow.get(rev, 0)} reverse packets delivered"),
        _accounted(topo, slack=4),
    ]
    return _result("link-failure", seed, window, warmup, topo,
                   converge_cycles, invariants)


# ---------------------------------------------------------------------------
# Scenario: route churn (periodic flap storms).
# ---------------------------------------------------------------------------

CHURN_FLAPS = 4


def _scenario_route_churn(seed: int, window: int, warmup: int,
                          instrument: Optional[Callable[[Topology], None]] = None
                          ) -> TopoResult:
    rng = random.Random(f"route-churn:{seed}")
    topo = ring_with_primary(seed)
    _arm(topo, seed)
    if instrument is not None:
        instrument(topo)
    inj = topo.injector
    converge_cycles = topo.converge(max_cycles=CONVERGE_HORIZON)

    churn = Deltas(lambda: {
        "messages": topo.control_messages,
        **{("spf", n): topo.nodes[n].node.spf_runs for n in topo.nodes}})
    edges = sum(1 for link in topo.links if link.nodes)

    # Compose a per-node fault on top of the churn: 1% ingress drop at
    # r2's port facing r1 (the primary path's transit ingress).
    ingress_link = topo.link_between("r1", "r2")
    r2_port = ingress_link.ports[ingress_link.nodes.index(topo.nodes["r2"])]
    inj.schedule_packet_faults(topo.nodes["r2"].port(r2_port),
                               start=warmup, stop=warmup + window, drop=0.01)

    interval = 2_500
    count = int(window * 0.8) // interval
    flow = _start_flow(topo, "h1", "h3", count=count, interval=interval,
                       start=warmup)

    period = window // (CHURN_FLAPS + 1)
    # The flap must outlast the dead interval (plus hello phase skew) or
    # neither endpoint can detect it before the restore un-happens it.
    down_cycles = max(int(period * rng.uniform(0.25, 0.4)),
                      topo.dead_interval + 2 * topo.hello_interval)
    for i in range(CHURN_FLAPS):
        at = warmup + i * period + int(rng.uniform(0.1, 0.2) * period)
        topo.fail_link("r2", "r3", at=at, restore_at=at + down_cycles)

    topo.run(warmup + window)

    h3 = topo.hosts["h3"]
    moved = churn()
    spf_growth = max(moved[("spf", n)] for n in topo.nodes)
    spf_bound = 8 * CHURN_FLAPS
    messages = moved["messages"]
    # Each flap edge event re-originates 2 LSAs; reliable flooding with
    # duplicate suppression sends each over at most every directed edge.
    # Each restore additionally database-syncs the full LSDB across the
    # re-formed adjacency (both directions).
    message_bound = (2 * (2 * edges) * (2 * CHURN_FLAPS)
                     + 2 * len(topo.nodes) * CHURN_FLAPS + 16)
    delivered = h3.received_by_flow.get(flow, 0)
    lost = count - delivered
    worst_reconv = max((r["cycles"] for r in topo.reconvergences), default=None)
    loss_bound = (CHURN_FLAPS * (down_cycles + RECONVERGE_HORIZON) // interval
                  + int(0.05 * count) + 6)
    r1 = topo.nodes["r1"]
    h3_prefix = (topo.hosts["h3"].prefix, 24)
    primary_port = topo.link_between("r1", "r2").ports[0]
    route = r1.node.routes.get(h3_prefix)
    logged = [i for i in topo.incidents if i["kind"] in LOGGED_KINDS]
    expected_logged = sum(topo.fault_counts.get(k, 0) for k in LOGGED_KINDS)

    invariants = [
        inv("initial-convergence", converge_cycles <= CONVERGE_HORIZON,
            f"{converge_cycles} cycles (horizon {CONVERGE_HORIZON})"),
        inv("flaps-completed",
            topo.fault_counts.get("topo-link-down", 0) == CHURN_FLAPS
            and topo.fault_counts.get("topo-link-up", 0) == CHURN_FLAPS,
            f"{topo.fault_counts.get('topo-link-down', 0)} downs / "
            f"{topo.fault_counts.get('topo-link-up', 0)} ups of {CHURN_FLAPS} flaps"),
        inv("reconverged-after-every-event",
            len(topo.reconvergences) == 2 * CHURN_FLAPS
            and worst_reconv is not None and worst_reconv <= RECONVERGE_HORIZON,
            f"{len(topo.reconvergences)} episodes, worst {worst_reconv} cycles"),
        inv("spf-storm-bounded", spf_growth <= spf_bound,
            f"worst node ran {spf_growth} extra SPFs (bound {spf_bound})"),
        inv("lsa-flood-bounded", messages <= message_bound,
            f"{messages} control messages during churn (bound {message_bound})"),
        inv("routes-restored-to-primary",
            route is not None and route[1] == primary_port,
            f"r1 route to {h3_prefix[0]}/24 is {route} "
            f"(primary port {primary_port})"),
        inv("delivery-maintained", lost <= loss_bound,
            f"lost {lost} of {count} (bound {loss_bound})"),
        inv("incident-log-complete", len(logged) == expected_logged,
            f"{len(logged)} logged incidents vs {expected_logged} counted"),
        _accounted(topo, slack=6),
    ]
    return _result("route-churn", seed, window, warmup, topo,
                   converge_cycles, invariants)


# ---------------------------------------------------------------------------
# Scenario: congestion collapse on a bottleneck link.
# ---------------------------------------------------------------------------

BOTTLENECK_BPS = 20e6
BOTTLENECK_QUEUE = 32


def _scenario_congestion(seed: int, window: int, warmup: int,
                         instrument: Optional[Callable[[Topology], None]] = None
                         ) -> TopoResult:
    rng = random.Random(f"congestion-collapse:{seed}")
    topo = Topology(seed=seed)
    for name in ("r1", "r2", "r3", "r4"):
        topo.add_router(name)
    topo.connect("r1", "r2")
    bottleneck = topo.connect("r2", "r3", bandwidth_bps=BOTTLENECK_BPS,
                              queue_limit=BOTTLENECK_QUEUE)
    topo.connect("r2", "r4")
    topo.add_host("ha", "r1")
    topo.add_host("he", "r1")
    topo.add_host("hb", "r4")
    topo.add_host("hc", "r3")
    topo.add_host("hf", "r4")
    _arm(topo, seed)
    if instrument is not None:
        instrument(topo)
    converge_cycles = topo.converge(max_cycles=CONVERGE_HORIZON)

    interval = 2_500
    span = int(window * 0.7)
    count = span // interval
    flow_a = _start_flow(topo, "ha", "hc", count=count, interval=interval,
                         start=warmup + int(rng.uniform(0, 0.02) * window))
    flow_b = _start_flow(topo, "hb", "hc", count=count, interval=interval,
                         start=warmup + int(rng.uniform(0, 0.02) * window))
    control_count = span // 3_000
    _start_flow(topo, "he", "hf", count=control_count, interval=3_000,
                start=warmup)
    topo.run(warmup + window)

    hc, he, hf = topo.hosts["hc"], topo.hosts["he"], topo.hosts["hf"]
    overflow = bottleneck.counts["dropped_overflow_data"]
    # Bottleneck capacity over the whole run, in minimum-size frames.
    ser = bottleneck.serialization_cycles(64)
    capacity = (warmup + window) // ser + 8
    invariants = [
        inv("initial-convergence", converge_cycles <= CONVERGE_HORIZON,
            f"{converge_cycles} cycles (horizon {CONVERGE_HORIZON})"),
        inv("collapse-observed", overflow >= 20,
            f"bottleneck queue overflowed {overflow} data frames "
            f"(queue_limit {BOTTLENECK_QUEUE})"),
        inv("goodput-capped-by-capacity", hc.received <= capacity,
            f"{hc.received} delivered through a {capacity}-frame capacity"),
        inv("no-starvation",
            hc.received_by_flow.get(flow_a, 0) > 0
            and hc.received_by_flow.get(flow_b, 0) > 0,
            f"per-flow goodput {dict(sorted(hc.received_by_flow.items()))}"),
        inv("disjoint-flow-isolated", hf.received >= he.sent - 2,
            f"control flow delivered {hf.received} of {he.sent}"),
        _accounted(topo, slack=8),
    ]
    return _result("congestion-collapse", seed, window, warmup, topo,
                   converge_cycles, invariants)


# ---------------------------------------------------------------------------
# Catalog + runner.
# ---------------------------------------------------------------------------

SCENARIOS: Dict[str, Callable[..., TopoResult]] = {
    "link-failure": _scenario_link_failure,
    "route-churn": _scenario_route_churn,
    "congestion-collapse": _scenario_congestion,
}


def run_topo(name: str, seed: int = 0, window: int = DEFAULT_WINDOW,
             warmup: int = DEFAULT_WARMUP,
             instrument: Optional[Callable[[Topology], None]] = None
             ) -> List[TopoResult]:
    """Run one scenario (or ``"all"``); returns the results in catalog
    order.  ``instrument`` is called with each freshly armed topology
    before convergence -- netview uses it to switch on tracing and
    metrics without forking the scenario definitions."""
    if name == "all":
        names = list(SCENARIOS)
    elif name in SCENARIOS:
        names = [name]
    else:
        raise KeyError(
            f"unknown topo scenario {name!r}; pick from "
            f"{', '.join(SCENARIOS)} or 'all'")
    return [SCENARIOS[n](seed, window, warmup, instrument) for n in names]
