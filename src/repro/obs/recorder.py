"""The recorder protocol: where every observability hook reports.

Two implementations share one duck-typed API:

* :class:`NullRecorder` -- the default.  Every hook in the simulator,
  the chip, the loop programs and the hosts is guarded by a single
  ``recorder.enabled`` attribute check, so the disabled path costs one
  attribute load per *packet-level* operation (never per simulator
  event) and allocates nothing.
* :class:`Recorder` -- the live implementation: a bounded ring buffer
  of :class:`TraceEvent` spans, per-component cycle accounting, and a
  series store (:class:`repro.obs.metrics.MetricsSampler`) holding the
  utilization series and the ``queue<id>.depth`` series sampled on
  enqueue/dequeue.

Determinism contract: given a deterministic simulation, the recorded
event stream is bit-identical across runs and across schedulers --
:func:`repro.obs.export.trace_hash` is the enforcement instrument
(see ``tests/test_obs.py`` alongside ``tests/test_determinism.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.metrics import NULL_SAMPLER, MetricsSampler, RingBuffer


def window_fractions(accounting: Dict[str, Dict[str, float]],
                     window_cycles: int) -> Dict[str, Dict[str, float]]:
    """Cycle accounting normalized by a measurement window: each component
    gets busy/idle fractions (idle derived as the remainder when the
    attributed states do not already cover the window)."""
    out: Dict[str, Dict[str, float]] = {}
    if window_cycles <= 0:
        return out
    for component, states in accounting.items():
        fractions = {state: cycles / window_cycles for state, cycles in states.items()}
        covered = sum(v for k, v in fractions.items() if k != "idle")
        fractions.setdefault("idle", max(0.0, 1.0 - covered))
        out[component] = fractions
    return out


class TraceEvent(NamedTuple):
    """One span of a packet's lifecycle (or a component-level marker)."""

    cycle: int
    component: str      # "me0.ctx1", "strongarm", "pentium", "sim", ...
    event: str          # "mac_in", "classify", "enqueue", "mac_out", ...
    packet_id: Optional[int]
    detail: Any         # small scalar payload (queue id, wait cycles, ...)


class NullRecorder:
    """The disabled path: every method is a no-op.

    Hooks must check ``enabled`` *before* doing any work (computing a
    packet id, reading ``sim.now`` twice, formatting a component name),
    so with the null recorder installed the only cost is the check.
    """

    __slots__ = ()
    enabled = False
    dropped_events = 0
    metrics = NULL_SAMPLER

    def record(self, cycle: int, component: str, event: str,
               packet_id: Optional[int] = None, detail: Any = None) -> None:
        pass

    def account(self, component: str, state: str, cycles: float) -> None:
        pass

    def packet_id(self, packet: Any) -> Optional[int]:
        return None

    # Query surface: empty answers, so tooling that reads whichever
    # recorder a run ended up with (``repro.obs.profile``) never has to
    # special-case the disabled path.  ``repro lint`` rule RPR201 keeps
    # this list in sync with :class:`Recorder`.

    def packet_timeline(self, packet_id: int) -> List["TraceEvent"]:
        return []

    def stage_summary(self) -> Dict[Tuple[str, str], int]:
        return {}

    def utilization(self, window_cycles: int) -> Dict[str, Dict[str, float]]:
        return {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": [],
            "dropped_events": 0,
            "accounting": {},
            "metrics": self.metrics.to_dict(),
        }


#: Module-level singleton shared by every component's default hook slot.
NULL_RECORDER = NullRecorder()


class Recorder:
    """The live observability sink.

    * ``record`` -- packet lifecycle spans into a bounded ring buffer;
    * ``account`` -- busy/idle/stall cycle attribution per component;
    * ``metrics.sample`` -- named time series: the periodic utilization
      samples and the ``queue<id>.depth`` samples taken on
      enqueue/dequeue.
    """

    enabled = True

    def __init__(self, capacity: int = 65_536):
        self.events = RingBuffer(capacity)
        self.accounting: Dict[str, Dict[str, float]] = {}
        self.metrics = MetricsSampler()
        self._next_packet_id = 0

    # -- hooks ------------------------------------------------------------

    def record(self, cycle: int, component: str, event: str,
               packet_id: Optional[int] = None, detail: Any = None) -> None:
        self.events.append(TraceEvent(cycle, component, event, packet_id, detail))

    def account(self, component: str, state: str, cycles: float) -> None:
        states = self.accounting.get(component)
        if states is None:
            states = self.accounting[component] = {}
        states[state] = states.get(state, 0.0) + cycles

    def packet_id(self, packet: Any) -> Optional[int]:
        """A stable per-recorder id for ``packet`` (assigned on first
        sight, in deterministic simulation order); None for synthetic
        MPs that carry no packet."""
        if packet is None:
            return None
        pid = packet.meta.get("trace_id")
        if pid is None:
            pid = self._next_packet_id
            self._next_packet_id = pid + 1
            packet.meta["trace_id"] = pid
        return pid

    # -- queries ----------------------------------------------------------

    @property
    def dropped_events(self) -> int:
        """Spans lost to ring-buffer eviction.  Non-zero means the trace
        no longer covers the whole run: packet *starts* are the first to
        go, so analytics must flag their output as truncated rather than
        silently reporting too-short latencies."""
        return self.events.dropped

    def packet_timeline(self, packet_id: int) -> List[TraceEvent]:
        """All recorded spans for one packet, in cycle order."""
        return [e for e in self.events if e.packet_id == packet_id]

    def stage_summary(self) -> Dict[Tuple[str, str], int]:
        """Event counts per (component, event) pair."""
        out: Dict[Tuple[str, str], int] = {}
        for e in self.events:
            key = (e.component, e.event)
            out[key] = out.get(key, 0) + 1
        return out

    def utilization(self, window_cycles: int) -> Dict[str, Dict[str, float]]:
        """The accounting normalized by a measurement window (see
        :func:`window_fractions`)."""
        return window_fractions(self.accounting, window_cycles)

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready structure (callers should pass it through
        :func:`repro.obs.export.dumps` to guarantee valid JSON)."""
        return {
            "events": [list(e) for e in self.events],
            "dropped_events": self.dropped_events,
            "accounting": self.accounting,
            "metrics": self.metrics.to_dict(),
        }
