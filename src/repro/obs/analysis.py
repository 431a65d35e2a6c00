"""Trace analytics: where did this packet's latency go?

Consumes the :class:`~repro.obs.recorder.Recorder` ring buffer and turns
raw :class:`TraceEvent` spans into answers:

* :func:`build_journeys` -- per-packet lifecycle timelines;
* :func:`latency_report` -- per-stage latency percentiles (p50/p90/p99)
  along ``mac_in -> classify -> enqueue -> dequeue -> mac_out`` plus the
  StrongARM/Pentium slow paths, a queueing-delay decomposition
  comparable to Table 1, and critical-path attribution per packet;
* :func:`to_chrome_trace` -- ``traceEvents`` JSON that opens directly in
  ``chrome://tracing`` / Perfetto.

Decomposition invariant: a packet's stage deltas are the differences of
consecutive lifecycle timestamps, so for every complete journey they sum
*exactly* to its end-to-end ``mac_in -> mac_out`` latency; per-path mean
decompositions therefore sum to the mean end-to-end latency too.  When
the trace ring wrapped (``recorder.dropped_events > 0``) the analysis is
flagged ``truncated`` -- packet starts may be missing, so incomplete
journeys are counted but never folded into the latency statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.ixp.params import CLOCK_HZ
# LIFECYCLE_EVENTS / DROP_EVENTS are re-exported for the analysis
# modules that historically imported them from here; the canonical
# definitions (and the lint rules that enforce them) live in
# repro.obs.events.
from repro.obs.events import DROP_EVENTS, LIFECYCLE_EVENTS  # noqa: F401
from repro.obs.recorder import Recorder, TraceEvent

_LIFECYCLE_SET = frozenset(LIFECYCLE_EVENTS)
_DROP_SET = frozenset(DROP_EVENTS)


@dataclass
class PacketJourney:
    """One packet's lifecycle, reconstructed from the trace."""

    packet_id: int
    events: List[TraceEvent]          # lifecycle spans, monotonic cycles
    dropped_at: Optional[str] = None  # drop event name, if the packet died
    discarded: int = 0                # stale-timestamp events not used

    @property
    def complete(self) -> bool:
        """True when the journey covers ``mac_in`` through ``mac_out``."""
        return (
            len(self.events) >= 2
            and self.events[0].event == "mac_in"
            and self.events[-1].event == "mac_out"
        )

    @property
    def path(self) -> str:
        """Which switching path the packet took: ``fastpath`` (MicroEngines
        only), ``sa_local`` (StrongARM forwarder), ``pentium`` (bridged
        over PCI), or ``dropped`` / ``partial``."""
        if self.dropped_at is not None:
            return "dropped"
        if not self.complete:
            return "partial"
        names = {e.event for e in self.events}
        if "to_pentium" in names or "pentium_in" in names:
            return "pentium"
        if "sa_dispatch" in names or "to_sa" in names:
            return "sa_local"
        return "fastpath"

    @property
    def end_to_end(self) -> Optional[int]:
        """``mac_in -> mac_out`` latency in cycles; None if incomplete."""
        if not self.complete:
            return None
        return self.events[-1].cycle - self.events[0].cycle

    def transitions(self) -> List[Tuple[str, int]]:
        """Consecutive stage deltas ``[("mac_in->classify", cycles), ...]``.
        Their sum equals :attr:`end_to_end` exactly (by construction)."""
        out: List[Tuple[str, int]] = []
        for prev, cur in zip(self.events, self.events[1:]):
            out.append((f"{prev.event}->{cur.event}", cur.cycle - prev.cycle))
        return out

    def critical_transition(self) -> Optional[Tuple[str, int]]:
        """The stage that dominates this packet's latency (earliest wins
        ties, deterministically)."""
        best: Optional[Tuple[str, int]] = None
        for name, delta in self.transitions():
            if best is None or delta > best[1]:
                best = (name, delta)
        return best


def build_journeys(events: Iterable[TraceEvent]) -> Dict[int, PacketJourney]:
    """Group lifecycle events by packet id, preserving recording order.

    Events whose timestamp runs backwards within a packet (a requeued
    descriptor carrying a stale cycle, for instance) are discarded and
    counted on the journey rather than poisoning the deltas.
    """
    journeys: Dict[int, PacketJourney] = {}
    for e in events:
        if e.packet_id is None:
            continue
        if e.event in _DROP_SET:
            journey = journeys.get(e.packet_id)
            if journey is None:
                journey = journeys[e.packet_id] = PacketJourney(e.packet_id, [])
            journey.dropped_at = e.event
            continue
        if e.event not in _LIFECYCLE_SET:
            continue
        journey = journeys.get(e.packet_id)
        if journey is None:
            journey = journeys[e.packet_id] = PacketJourney(e.packet_id, [])
        if journey.events and e.cycle < journey.events[-1].cycle:
            journey.discarded += 1
            continue
        journey.events.append(e)
    return journeys


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) over a
    non-empty list; deterministic, no third-party dependencies."""
    if not values:
        raise ValueError("percentile of an empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if low + 1 >= len(ordered):
        return float(ordered[-1])
    return ordered[low] + (ordered[low + 1] - ordered[low]) * frac


def _stats(values: List[float]) -> Dict[str, float]:
    """The summary block used for every latency distribution."""
    return {
        "count": float(len(values)),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "max": float(max(values)),
    }


# ---------------------------------------------------------------------------
# The latency report
# ---------------------------------------------------------------------------


def latency_report(recorder: Recorder) -> Dict[str, Any]:
    """Per-path, per-stage latency decomposition of everything recorded.

    Returns a JSON-ready dict::

        {
          "packets": 800, "complete": 740, "dropped_in_flight": 3,
          "truncated": false, "dropped_events": 0,
          "paths": {
            "fastpath": {
              "packets": 700,
              "end_to_end": {count, mean, p50, p90, p99, max},
              "stages": {"mac_in->classify": {...}, ...},
              "stage_order": [...],
              "stage_mean_sum": 812.4,          # == end_to_end mean
              "critical_path": {"enqueue->dequeue": {"packets": 512,
                                                     "share": 0.73}},
            }, ...
          },
          "queueing": {"overall": {...}, "per_queue": {"3": {...}}},
        }
    """
    events = recorder.events.to_list()
    journeys = build_journeys(events)
    dropped_events = recorder.dropped_events

    paths: Dict[str, Dict[str, Any]] = {}
    grouped: Dict[str, List[PacketJourney]] = {}
    for journey in journeys.values():
        grouped.setdefault(journey.path, []).append(journey)

    for path, members in sorted(grouped.items()):
        if path in ("dropped", "partial"):
            paths[path] = {"packets": len(members)}
            continue
        stage_values: Dict[str, List[float]] = {}
        stage_order: List[str] = []
        end_to_end: List[float] = []
        critical: Dict[str, int] = {}
        for journey in members:
            end_to_end.append(float(journey.end_to_end))
            for name, delta in journey.transitions():
                if name not in stage_values:
                    stage_values[name] = []
                    stage_order.append(name)
                stage_values[name].append(float(delta))
            top = journey.critical_transition()
            if top is not None:
                critical[top[0]] = critical.get(top[0], 0) + 1
        stages = {name: _stats(stage_values[name]) for name in stage_order}
        # Mean decomposition: weight each stage by how many packets took
        # it so heterogeneous journeys (extra requeue hops) still sum to
        # the end-to-end mean: sum(stage_total) == sum(end_to_end).
        total = sum(end_to_end)
        stage_mean_sum = sum(sum(stage_values[name]) for name in stage_order) / len(members)
        paths[path] = {
            "packets": len(members),
            "end_to_end": _stats(end_to_end),
            "stages": stages,
            "stage_order": stage_order,
            "stage_mean_sum": stage_mean_sum,
            "total_cycles": total,
            "critical_path": {
                name: {"packets": count, "share": count / len(members)}
                for name, count in sorted(critical.items())
            },
        }

    # Queueing-delay decomposition (Table 1's quantity: time spent in the
    # SRAM packet queues between the input and output stages).
    overall: List[float] = []
    per_queue: Dict[str, List[float]] = {}
    last_queue: Dict[int, str] = {}
    for e in events:
        if e.packet_id is None:
            continue
        if e.event == "enqueue":
            last_queue[e.packet_id] = e.component
        elif e.event == "dequeue" and isinstance(e.detail, (int, float)):
            overall.append(float(e.detail))
            queue = last_queue.get(e.packet_id, "queue?")
            per_queue.setdefault(queue, []).append(float(e.detail))

    dropped_in_flight = sum(1 for j in journeys.values() if j.dropped_at is not None)
    return {
        "packets": len(journeys),
        "complete": sum(1 for j in journeys.values() if j.complete),
        "dropped_in_flight": dropped_in_flight,
        "discarded_stale_events": sum(j.discarded for j in journeys.values()),
        "truncated": dropped_events > 0,
        "dropped_events": dropped_events,
        "paths": paths,
        "queueing": {
            "overall": _stats(overall) if overall else None,
            "per_queue": {q: _stats(vals) for q, vals in sorted(per_queue.items())},
        },
    }


# ---------------------------------------------------------------------------
# Chrome-trace / Perfetto export
# ---------------------------------------------------------------------------

_COMPONENT_PID = 1
_PACKET_PID = 2


def cycles_to_us(cycle: int) -> float:
    """A cycle count in microseconds at the chip clock, rounded to the
    nanosecond: the ``ts``/``dur`` unit of every Chrome-trace export."""
    return round(cycle * 1e6 / CLOCK_HZ, 3)


def chrome_process_events(
    events: Iterable[TraceEvent],
    pid: int,
    process_name: str,
) -> List[Dict[str, Any]]:
    """One Chrome-trace *process* worth of events for one recorder's
    trace: a process metadata record, one thread per component (named on
    first sight), and an instant event per recorded span.  This is the
    per-router building block the merged network export
    (:func:`repro.topo.tracing.merged_chrome_trace`) stacks into a
    multi-process document."""
    out: List[Dict[str, Any]] = [
        {
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    tids: Dict[str, int] = {}
    instants: List[Dict[str, Any]] = []
    for e in events:
        tid = tids.get(e.component)
        if tid is None:
            tid = tids[e.component] = len(tids)
            out.append({
                "ph": "M", "pid": pid, "tid": tid,
                "name": "thread_name", "args": {"name": e.component},
            })
        args: Dict[str, Any] = {}
        if e.packet_id is not None:
            args["packet"] = e.packet_id
        if e.detail is not None:
            args["detail"] = str(e.detail)
        instants.append({
            "ph": "i", "pid": pid, "tid": tid, "s": "t",
            "ts": cycles_to_us(e.cycle), "name": e.event, "args": args,
        })
    # Some spans are recorded at a stamp taken earlier in the pipeline
    # (e.g. enqueue at the descriptor's enqueue_cycle), so recorder
    # order is not ts order when contexts finish out of arrival order.
    # A stable sort restores per-track monotonicity deterministically.
    instants.sort(key=lambda ev: ev["ts"])
    out.extend(instants)
    return out


def to_chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """The trace as a Chrome ``traceEvents`` document.

    Two process groups: pid 1 holds one thread per *component* with an
    instant event per recorded span; pid 2 holds one thread
    per *packet* with an ``X`` complete event per lifecycle stage, so a
    packet's whole latency decomposition reads as a flame row.  ``ts``
    is microseconds at the 200 MHz simulation clock and is monotonic per
    track (enforced by ``tests/test_obs_analysis.py``).
    """
    events = list(events)
    trace: List[Dict[str, Any]] = chrome_process_events(
        events, _COMPONENT_PID, "components")

    trace.append({
        "ph": "M", "pid": _PACKET_PID, "name": "process_name",
        "args": {"name": "packets"},
    })
    for pid, journey in sorted(build_journeys(events).items()):
        trace.append({
            "ph": "M", "pid": _PACKET_PID, "tid": pid,
            "name": "thread_name",
            "args": {"name": f"packet {pid} [{journey.path}]"},
        })
        for prev, cur in zip(journey.events, journey.events[1:]):
            trace.append({
                "ph": "X", "pid": _PACKET_PID, "tid": pid,
                "ts": cycles_to_us(prev.cycle),
                "dur": cycles_to_us(cur.cycle - prev.cycle),
                "name": f"{prev.event}->{cur.event}",
                "args": {"cycles": cur.cycle - prev.cycle},
            })
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {"clock_hz": CLOCK_HZ, "source": "repro.obs.analysis"},
    }


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Schema problems in a Chrome-trace document (empty list == valid):
    required keys present, every event carries ``ph``/``pid``, timed
    events carry a numeric ``ts``, and ``ts`` is monotonic per
    (pid, tid) track."""
    problems: List[str] = []
    trace = doc.get("traceEvents")
    if not isinstance(trace, list):
        return ["traceEvents missing or not a list"]
    last_ts: Dict[Tuple[Any, Any], float] = {}
    for i, event in enumerate(trace):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        if "ph" not in event or "pid" not in event:
            problems.append(f"event {i} lacks ph/pid")
            continue
        if event["ph"] == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i} lacks a numeric ts")
            continue
        key = (event["pid"], event.get("tid"))
        if ts < last_ts.get(key, float("-inf")):
            problems.append(
                f"event {i}: ts {ts} runs backwards on track {key}"
            )
        last_ts[key] = ts
    return problems
