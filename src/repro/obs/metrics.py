"""Deterministic time-series metrics: the network's vital signs.

The recorder (:mod:`repro.obs.recorder`) answers *per-packet* questions;
this module answers *per-network* ones: how full is each link, how deep
is each router's worst queue, how hot is the route cache, how much SPF /
LSA churn is the control plane paying, how many faults are outstanding.
A :class:`MetricsSampler` polls read-only probes at a fixed
simulated-time cadence on the event clock -- never the wall clock -- so
every series is byte-identical run after run for one seed.

Two implementations share one duck-typed API, mirroring the recorder and
the fault injector:

* :class:`NullSampler` -- the default.  Nothing is sampled, nothing is
  spawned, and the only cost a hook site may pay is one ``.enabled``
  attribute check (``benchmarks/bench_metrics_overhead.py`` enforces
  both the timing bound and that an instrumented run's packet outcomes
  are bit-identical to an uninstrumented one).
* :class:`MetricsSampler` -- the live implementation and the one series
  store: bounded per-series ring buffers keyed by canonical series names
  (:data:`repro.obs.events.METRIC_PATTERNS`; ``repro lint`` rule RPR305
  pins every sampled name to that registry).  A topology keeps its
  network series in one, and each router's recorder keeps its
  utilization and queue-depth series in another (``Recorder.metrics``).

The probes themselves are plain functions over duck-typed topology
objects (links, router nodes, injectors) so this module stays free of
topology imports -- :class:`repro.topo.network.Topology` wires them up
via ``enable_metrics()``.

Every periodic reader of simulator state runs on :func:`every` and
differences its counters with :class:`Deltas`, as do the measurement
windows.
"""
# repro-lint: file-disable=RPR202 -- probes only run inside a periodic
# process, which is never spawned on a disabled run.

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

#: Cycles between samples unless the caller chooses otherwise.
DEFAULT_METRICS_PERIOD = 5_000
#: Cycles between the recorder's utilization samples by default.
DEFAULT_SAMPLE_PERIOD = 2_000
#: Samples kept per series; older samples are evicted and counted.
SERIES_CAPACITY = 8_192


class RingBuffer:
    """Fixed-capacity append-only ring; overwrites the oldest entries.

    ``dropped`` counts overwritten entries so exports can state their
    coverage honestly (no silent truncation).
    """

    __slots__ = ("capacity", "_items", "_start", "dropped")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: List[Any] = []
        self._start = 0
        self.dropped = 0

    def append(self, item: Any) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._start] = item
            self._start = (self._start + 1) % self.capacity
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        items = self._items
        start = self._start
        for i in range(len(items)):
            yield items[(start + i) % len(items)]

    def to_list(self) -> List[Any]:
        return list(self)


def every(sim, period: int, start: Callable[[], Callable[[int], None]]) -> Generator:
    """The one periodic process: it calls ``start()`` at its first
    step, where a probe takes its baseline reading, then the ``step(now)``
    it returned every ``period`` cycles of *simulated* time.  Only spawned
    for an enabled reader, so a disabled run carries no extra events."""
    from repro.engine import delay

    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    d = delay(period)
    step = start()
    while True:
        yield d
        step(sim.now)


class Deltas:
    """Each counter's movement since the previous reading of ``read()``
    (a dict of cumulative counters; construction takes the first).
    Calling makes the new reading the baseline; :meth:`peek` keeps it, so
    a window reports the same numbers however often it is asked."""

    __slots__ = ("_read", "last")

    def __init__(self, read: Callable[[], Dict[Any, float]]):
        self._read = read
        self.last = read()

    def __call__(self) -> Dict[Any, float]:
        current = self._read()
        last, self.last = self.last, current
        return {k: v - last.get(k, 0) for k, v in current.items()}

    def peek(self) -> Dict[Any, float]:
        last = self.last
        return {k: v - last.get(k, 0) for k, v in self._read().items()}


class NullSampler:
    """The disabled path: every method is a no-op, every query empty.

    Kept in strict parity with :class:`MetricsSampler` by ``repro lint``
    rule RPR201/RPR204 (the same machinery that polices NullRecorder and
    NullInjector).
    """

    __slots__ = ()
    enabled = False

    def sample(self, name: str, cycle: int, value: float) -> None:
        pass

    def series(self, name: str) -> List[Tuple[int, float]]:
        return []

    def series_names(self) -> List[str]:
        return []

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {}

    def top_series(self, suffix: str, n: int = 5, key: str = "max") -> List[Tuple[str, float]]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {"period": None, "samples": 0, "series": {}}


#: Module-level singleton shared by every default metrics slot.
NULL_SAMPLER = NullSampler()


class MetricsSampler:
    """Bounded, deterministic named time series on the event clock.

    ``sample`` appends ``(cycle, float(value))`` to a per-series ring
    buffer of :data:`SERIES_CAPACITY` samples (evictions are counted,
    never silent).  Queries summarize each series without any wall-clock
    or hashing nondeterminism: names are reported sorted, values are pure
    functions of the simulation.  ``period`` is the cadence of the
    probes that fill the store; a recorder's store has none, since its
    queue depths are also sampled at every enqueue and dequeue.
    """

    enabled = True

    def __init__(self, period: Optional[int] = None):
        if period is not None and period < 1:
            raise ValueError(f"metrics period must be >= 1, got {period}")
        self.period = period
        self._series: Dict[str, RingBuffer] = {}
        self.samples = 0

    # -- hook --------------------------------------------------------------

    def sample(self, name: str, cycle: int, value: float) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = RingBuffer(SERIES_CAPACITY)
        series.append((cycle, float(value)))
        self.samples += 1

    # -- queries -----------------------------------------------------------

    def series(self, name: str) -> List[Tuple[int, float]]:
        """The ``(cycle, value)`` samples recorded for ``name`` (oldest
        surviving sample first)."""
        series = self._series.get(name)
        return series.to_list() if series is not None else []

    def series_names(self) -> List[str]:
        return sorted(self._series)

    @property
    def dropped_samples(self) -> int:
        """Samples lost to per-series ring eviction (coverage honesty,
        mirroring ``Recorder.dropped_events``)."""
        return sum(s.dropped for s in self._series.values())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-series ``{samples, mean, max, last}`` over the surviving
        window, keyed by series name, sorted."""
        out: Dict[str, Dict[str, float]] = {}
        for name in self.series_names():
            values = [v for __, v in self._series[name]]
            if not values:
                continue
            out[name] = {
                "samples": float(len(values)),
                "mean": sum(values) / len(values),
                "max": float(max(values)),
                "last": float(values[-1]),
            }
        return out

    def top_series(self, suffix: str, n: int = 5, key: str = "max") -> List[Tuple[str, float]]:
        """The ``n`` series ending in ``suffix`` with the largest summary
        ``key`` -- e.g. ``top_series(".occupancy")`` names the most
        congested links.  Ties break on the series name so the ranking
        is deterministic."""
        ranked = [(stats[key], name) for name, stats in self.summary().items()
                  if name.endswith(suffix)]
        ranked.sort(key=lambda pair: (-pair[0], pair[1]))
        return [(name, value) for value, name in ranked[:n]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "period": self.period,
            "samples": self.samples,
            "dropped_samples": self.dropped_samples,
            "series": {name: self._series[name].to_list()
                       for name in self.series_names()},
        }


# ---------------------------------------------------------------------------
# Probes: read-only samplers over duck-typed topology objects.
# ---------------------------------------------------------------------------
#
# Each probe factory reads its subject's baseline and returns a closure
# ``(sampler, cycle) -> None``.  Probes must never mutate the
# simulation: the metrics-overhead bench asserts an instrumented run's
# packet outcomes are bit-identical to a bare one.


def link_probe(link):
    """Per-link series: occupancy (frames in flight over the queue
    limit), carried / dropped frame deltas, serialization utilization
    (summed over both directions, so a full-duplex-busy link reads 2.0),
    and the up/down state."""
    counts = link.counts
    moved = Deltas(lambda: {
        "carried": counts["carried"],
        "dropped": sum(counts[k] for k in
                       ("dropped_down", "dropped_loss", "dropped_overflow")),
        "serialized": getattr(link, "serialized_cycles", 0),
    })
    subject = link.name

    def probe(sampler, cycle: int) -> None:
        limit = max(1, link.queue_limit)
        sampler.sample(f"link.{subject}.occupancy", cycle,
                       link.in_flight / limit)
        d = moved()
        sampler.sample(f"link.{subject}.carried", cycle, d["carried"])
        sampler.sample(f"link.{subject}.dropped", cycle, d["dropped"])
        sampler.sample(f"link.{subject}.utilization", cycle,
                       d["serialized"] / sampler.period)
        sampler.sample(f"link.{subject}.up", cycle, 1.0 if link.up else 0.0)

    return probe


def router_probe(node):
    """Per-router series: worst queue depth fraction, route-cache hit
    rate over the period, and SPF / LSA churn deltas."""
    cache = node.router.chip.route_cache
    moved = Deltas(lambda: {
        "hits": cache.hits, "misses": cache.misses,
        "spf": node.node.spf_runs, "lsas": node.node.lsas_processed,
    })
    subject = node.name

    def probe(sampler, cycle: int) -> None:
        sampler.sample(f"router.{subject}.queue_depth", cycle,
                       node.router.chip.max_queue_depth_fraction())
        d = moved()
        looked_up = d["hits"] + d["misses"]
        rate = d["hits"] / looked_up if looked_up else 0.0
        sampler.sample(f"router.{subject}.route_cache_hit_rate", cycle, rate)
        sampler.sample(f"router.{subject}.spf_runs", cycle, d["spf"])
        sampler.sample(f"router.{subject}.lsas", cycle, d["lsas"])

    return probe


def control_probe(node):
    """Per-router control-plane series: hello exchange rate, LSA
    retransmit / checksum-rejection / neighbor-death deltas, and the
    instantaneous unacked-LSA gauge (a sustained non-zero value is the
    retransmit-storm signature the monitor rule hunts)."""
    binding = node.binding
    moved = Deltas(lambda: {
        "hellos": binding.hellos_received, "retransmits": binding.retransmits,
        "rejected": binding.ctrl_rejected, "deaths": binding.neighbor_deaths,
    })
    subject = node.name

    def probe(sampler, cycle: int) -> None:
        d = moved()
        sampler.sample(f"ctrl.{subject}.hellos", cycle, d["hellos"])
        sampler.sample(f"ctrl.{subject}.retransmits", cycle, d["retransmits"])
        sampler.sample(f"ctrl.{subject}.rejected", cycle, d["rejected"])
        sampler.sample(f"ctrl.{subject}.deaths", cycle, d["deaths"])
        sampler.sample(f"ctrl.{subject}.unacked", cycle, binding.unacked)

    return probe


def fault_probe(topo):
    """Network-wide fault/recovery state: links currently down, incident
    log growth, reconvergence episodes completed, quarantined VRP flows."""
    moved = Deltas(lambda: {"incidents": len(topo.incidents)})

    def probe(sampler, cycle: int) -> None:
        sampler.sample("net.links_down", cycle,
                       sum(1 for link in topo.links if not link.up))
        sampler.sample("net.incidents", cycle, moved()["incidents"])
        sampler.sample("net.reconvergences", cycle, len(topo.reconvergences))
        sampler.sample("net.quarantined", cycle, sum(
            node.router.quarantined_flows()
            for node in topo.nodes.values()))

    return probe


def chip_utilization(chip, recorder, period: int) -> Callable[[int], None]:
    """The recorder's chip probe.  Each period: every engine's and
    memory's busy cycles as a fraction of the period, the same cycles
    into the recorder's accounting, and every packet queue's depth.  The
    inlined main loops charge ``me.busy_cycles`` directly, so this is
    how their busy time reaches the recorder."""
    engines = [me for me in chip.engines if me.contexts]
    dram, sram, scratch = chip.dram, chip.sram, chip.scratch
    metrics = recorder.metrics
    # Parked idle loops are charged lazily (repro.ixp.parking); each
    # reading settles them first, and runs before the loops' own events
    # of its cycle.
    chip.settle(chip.sim.now)
    busy = Deltas(lambda: {**{me.me_id: me.busy_cycles for me in engines},
                           "dram": dram.busy_cycles, "sram": sram.busy_cycles,
                           "scratch": scratch.busy_cycles})

    def step(now: int) -> None:
        chip.settle(now)
        moved = busy()
        for me in engines:
            util = moved[me.me_id] / period
            metrics.sample(f"me{me.me_id}.utilization", now, util)
            recorder.account(f"me{me.me_id}", "busy", util * period)
        util = moved["dram"] / period
        metrics.sample("dram.utilization", now, util)
        recorder.account("dram", "busy", util * period)
        util = moved["sram"] / period
        metrics.sample("sram.utilization", now, util)
        recorder.account("sram", "busy", util * period)
        util = moved["scratch"] / period
        metrics.sample("scratch.utilization", now, util)
        recorder.account("scratch", "busy", util * period)
        for queue in chip.bank.queues:
            metrics.sample(f"queue{queue.queue_id}.depth", now, len(queue))

    return step


def host_utilization(router, recorder, period: int) -> Callable[[int], None]:
    """The recorder's host probe.  Each period: StrongARM, PCI and
    Pentium busy cycles as a fraction of the period, Pentium cycles
    scaled to simulation cycles."""
    strongarm, pci, pentium = router.strongarm, router.pci, router.pentium
    busy = Deltas(lambda: {
        "strongarm": strongarm.busy_cycles, "pci": pci.busy_cycles,
        "pentium": 0.0 if pentium is None else pentium.busy_pentium_cycles,
    })
    scale = 0.0 if pentium is None else 1.0 / pentium.params.ratio
    metrics = recorder.metrics

    def step(now: int) -> None:
        moved = busy()
        metrics.sample("strongarm.utilization", now,
                       moved["strongarm"] / period)
        metrics.sample("pci.utilization", now, moved["pci"] / period)
        if pentium is not None:
            metrics.sample("pentium.utilization", now,
                           moved["pentium"] * scale / period)

    return step


def sampler_report(sampler, top_n: int = 5) -> Dict[str, Any]:
    """JSON-ready health summary over whatever the sampler holds:
    per-series summaries plus the top-N congested links (by peak
    occupancy) and hottest routers (by peak queue depth)."""
    return {
        "series_summary": sampler.summary(),
        "top_congested_links": [
            {"series": name, "peak_occupancy": value}
            for name, value in sampler.top_series(".occupancy", n=top_n)],
        "top_loaded_routers": [
            {"series": name, "peak_queue_depth": value}
            for name, value in sampler.top_series(".queue_depth", n=top_n)],
    }
