"""Distributed tracing across the simulated network.

A single router's recorder reconstructs a packet's lifecycle between its
own MAC ports; this module stitches those per-node traces into one
network-wide journey.  When tracing is enabled every host-originated
data packet carries a *trace context* in ``packet.meta``:

* ``topo_trace`` -- a network-global trace id (allocated from a high
  base so it can never collide with a node recorder's locally assigned
  packet ids), which survives every link crossing (``topo_`` prefix);
* ``trace_id`` -- the same value, pre-stamped so *every* node's
  :class:`~repro.obs.recorder.Recorder` files that packet's lifecycle
  spans under one shared id (the scrubber keeps it only for packets
  that carry ``topo_trace``, so untraced runs are unchanged).

The :class:`NetTracer` records *hop* events -- host send, link entry,
link arrival, node arrival, delivery, drop -- each stamped with the
event clock.  Because consecutive hop timestamps telescope, the per-hop
latency decomposition of a delivered packet sums **exactly** to its
measured host-to-host latency (``tests/test_topo_tracing.py`` asserts
this packet by packet), and a lost packet's journey ends at the exact
link or router that killed it.

:func:`merged_chrome_trace` exports the whole network as one Chrome
``traceEvents`` document: each router is a *process* (its components are
threads, from the node recorder), the network journeys are a process of
per-trace flame rows, and every inter-router link crossing is a
cross-process flow event (``ph: s``/``f``) binding the sending router to
the receiving one -- it opens directly in Perfetto.

Like every other observability surface, the disabled path is a null
object: :data:`NULL_TRACER` answers ``enabled = False`` and no-ops every
hook, so an untraced topology pays one attribute check per link
crossing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import DROP_EVENTS

#: Global trace ids start here: far above any id a node recorder can
#: assign locally (ICMP replies, control packets), so one id space is
#: shared collision-free by every node's trace ring.
TRACE_ID_BASE = 1_000_000_000


class NullNetTracer:
    """The disabled path: every hook is a no-op, every query empty."""

    __slots__ = ()
    enabled = False

    def on_host_send(self, host, packet) -> Optional[int]:
        return None

    def on_link_enter(self, link, packet, wait: int = 0, serialization: int = 0) -> None:
        pass

    def on_link_arrive(self, link, packet) -> None:
        pass

    def on_link_drop(self, link, packet, kind: str) -> None:
        pass

    def on_node_arrive(self, node_name: str, packet) -> None:
        pass

    def on_node_drop(self, node_name: str, packet) -> None:
        pass

    def on_host_receive(self, host, packet) -> None:
        pass

    def on_host_icmp(self, host, packet) -> None:
        pass

    def journeys(self) -> Dict[int, Dict[str, Any]]:
        return {}

    def decompose(self, trace_id: int) -> Optional[Dict[str, Any]]:
        return None

    def hop_report(self, top_n: int = 5) -> Dict[str, Any]:
        return {"traces": 0, "delivered": 0, "exact": True, "segments": {},
                "terminals": {}, "slowest_flows": [], "icmp_received": {}}

    def to_dict(self) -> Dict[str, Any]:
        return {"traces": {}, "icmp_received": {}}


#: Module-level singleton: the default ``Topology.tracer``.
NULL_TRACER = NullNetTracer()


class NetTracer:
    """The live network tracer: one journey per traced packet.

    Journeys are dicts (JSON-ready) holding the origin/destination
    context plus an append-only list of hop records
    ``(kind, where, cycle, detail)`` in event order.
    """

    enabled = True

    def __init__(self, topo):
        self.topo = topo
        self.traces: Dict[int, Dict[str, Any]] = {}
        self.icmp_received: Dict[str, int] = {}
        self._next = 0

    # -- hooks (one per hop) ----------------------------------------------

    def on_host_send(self, host, packet) -> int:
        tid = TRACE_ID_BASE + self._next
        self._next += 1
        packet.meta["topo_trace"] = tid
        packet.meta["trace_id"] = tid
        seq = packet.tcp.seq if packet.tcp is not None else -1
        self.traces[tid] = {
            "origin": host.name,
            "dst": str(packet.ip.dst),
            "flow": packet.meta.get("topo_flow"),
            "seq": seq,
            "sent": self.topo.sim.now,
            "records": [("send", host.name, self.topo.sim.now, None)],
            "delivered": None,
            "dropped": None,
        }
        return tid

    def _records(self, packet) -> Optional[List[Tuple]]:
        tid = packet.meta.get("topo_trace")
        if tid is None:
            return None
        trace = self.traces.get(tid)
        return trace["records"] if trace is not None else None

    def on_link_enter(self, link, packet, wait: int = 0, serialization: int = 0) -> None:
        records = self._records(packet)
        if records is not None:
            detail = {"wait": wait, "serialization": serialization,
                      "propagation": link.latency}
            records.append(("link-enter", link.name, self.topo.sim.now, detail))

    def on_link_arrive(self, link, packet) -> None:
        records = self._records(packet)
        if records is not None:
            records.append(("link-arrive", link.name, self.topo.sim.now, None))

    def on_link_drop(self, link, packet, kind: str) -> None:
        tid = packet.meta.get("topo_trace")
        trace = self.traces.get(tid) if tid is not None else None
        if trace is not None:
            now = self.topo.sim.now
            trace["records"].append(("drop", link.name, now, kind))
            trace["dropped"] = {"where": f"link:{link.name}", "kind": kind,
                                "cycle": now}

    def on_node_arrive(self, node_name: str, packet) -> None:
        records = self._records(packet)
        if records is not None:
            records.append(("node", node_name, self.topo.sim.now, None))

    def on_node_drop(self, node_name: str, packet) -> None:
        tid = packet.meta.get("topo_trace")
        trace = self.traces.get(tid) if tid is not None else None
        if trace is not None:
            now = self.topo.sim.now
            trace["records"].append(("drop", node_name, now, "rx"))
            trace["dropped"] = {"where": f"router:{node_name}", "kind": "rx",
                                "cycle": now}

    def on_host_receive(self, host, packet) -> None:
        tid = packet.meta.get("topo_trace")
        trace = self.traces.get(tid) if tid is not None else None
        if trace is not None:
            now = self.topo.sim.now
            trace["records"].append(("deliver", host.name, now, None))
            trace["delivered"] = now

    def on_host_icmp(self, host, packet) -> None:
        self.icmp_received[host.name] = self.icmp_received.get(host.name, 0) + 1

    # -- queries -----------------------------------------------------------

    def journeys(self) -> Dict[int, Dict[str, Any]]:
        return self.traces

    def decompose(self, trace_id: int) -> Optional[Dict[str, Any]]:
        """The per-hop latency decomposition of one journey.

        Segments are the deltas between consecutive hop timestamps --
        host/router *residence* ends at the next ``link-enter``, link
        *transit* (queue wait + serialization + propagation) ends at the
        next ``link-arrive`` -- so for a delivered packet they sum
        exactly to ``delivered - sent`` by construction, and ``exact``
        reports that the invariant actually held.
        """
        trace = self.traces.get(trace_id)
        if trace is None:
            return None
        segments: List[Dict[str, Any]] = []
        place = f"host:{trace['origin']}"
        prev = trace["sent"]
        terminal = "in-flight"
        for kind, where, cycle, detail in trace["records"][1:]:
            if kind == "link-enter":
                segments.append({"where": place, "cycles": cycle - prev})
                place, prev = f"link:{where}", cycle
            elif kind == "link-arrive":
                segments.append({"where": place, "cycles": cycle - prev})
                place, prev = f"at:{where}", cycle
            elif kind == "node":
                place = f"router:{where}"
            elif kind == "deliver":
                if cycle > prev:
                    segments.append({"where": place, "cycles": cycle - prev})
                    prev = cycle
                terminal = "delivered"
            elif kind == "drop":
                if cycle > prev:
                    segments.append({"where": place, "cycles": cycle - prev})
                    prev = cycle
                terminal = "dropped"
        if terminal == "in-flight" and place.startswith("router:"):
            terminal = "consumed"
        latency = (trace["delivered"] - trace["sent"]
                   if trace["delivered"] is not None else None)
        span = sum(seg["cycles"] for seg in segments)
        return {
            "trace": trace_id,
            "origin": trace["origin"],
            "dst": trace["dst"],
            "flow": trace["flow"],
            "seq": trace["seq"],
            "terminal": terminal,
            "last_place": place,
            "segments": segments,
            "latency": latency,
            "exact": latency is None or span == latency,
        }

    def _node_drop_reasons(self) -> Dict[str, Dict[int, str]]:
        """Per node: local drop events recorded against a global trace
        id (the shared-id contract makes this a straight lookup)."""
        out: Dict[str, Dict[int, str]] = {}
        drop_set = frozenset(DROP_EVENTS)
        for name in sorted(self.topo.nodes):
            recorder = self.topo.nodes[name].recorder
            if recorder is None or not recorder.enabled:
                continue
            reasons: Dict[int, str] = {}
            for e in recorder.events:
                if e.event in drop_set and e.packet_id is not None \
                        and e.packet_id >= TRACE_ID_BASE:
                    reasons[e.packet_id] = e.event
            out[name] = reasons
        return out

    def hop_report(self, top_n: int = 5) -> Dict[str, Any]:
        """The network-wide journey summary: terminal counts, per-segment
        latency aggregates, the exact-sum invariant, drop attribution at
        the exact hop, and the slowest flows by mean delivered latency."""
        per_segment: Dict[str, List[int]] = {}
        terminals: Dict[str, int] = {}
        flow_latency: Dict[str, List[int]] = {}
        attribution: Dict[str, int] = {}
        exact = True
        delivered = 0
        node_reasons = self._node_drop_reasons()
        for tid in sorted(self.traces):
            d = self.decompose(tid)
            terminals[d["terminal"]] = terminals.get(d["terminal"], 0) + 1
            if d["terminal"] == "delivered":
                delivered += 1
                exact = exact and d["exact"]
                for seg in d["segments"]:
                    per_segment.setdefault(seg["where"], []).append(seg["cycles"])
                if d["flow"] is not None:
                    flow_latency.setdefault(d["flow"], []).append(d["latency"])
            else:
                where = d["last_place"]
                trace = self.traces[tid]
                kind = (trace["dropped"]["kind"]
                        if trace["dropped"] is not None else None)
                if kind is None and where.startswith("router:"):
                    node = where.split(":", 1)[1]
                    kind = node_reasons.get(node, {}).get(tid, "consumed")
                attribution_key = f"{where}:{kind or d['terminal']}"
                attribution[attribution_key] = attribution.get(attribution_key, 0) + 1
        segments = {
            where: {
                "count": len(values),
                "mean": sum(values) / len(values),
                "max": max(values),
            }
            for where, values in sorted(per_segment.items())
        }
        slowest = sorted(
            ((sum(vals) / len(vals), flow) for flow, vals in flow_latency.items()),
            key=lambda pair: (-pair[0], pair[1]))
        return {
            "traces": len(self.traces),
            "delivered": delivered,
            "exact": exact,
            "terminals": dict(sorted(terminals.items())),
            "segments": segments,
            "drop_attribution": dict(sorted(attribution.items())),
            "slowest_flows": [
                {"flow": flow, "mean_latency": mean}
                for mean, flow in slowest[:top_n]],
            "icmp_received": dict(sorted(self.icmp_received.items())),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "traces": {str(tid): self.traces[tid] for tid in sorted(self.traces)},
            "icmp_received": dict(sorted(self.icmp_received.items())),
        }


# ---------------------------------------------------------------------------
# Merged multi-process Chrome trace.
# ---------------------------------------------------------------------------

#: The network-journey process; router processes count up from
#: :data:`ROUTER_PID_BASE` in sorted node order.
NETWORK_PID = 1
ROUTER_PID_BASE = 10

#: The per-router thread that anchors cross-process link flow events.
FLOW_TID = 9999


def merged_chrome_trace(topo) -> Dict[str, Any]:
    """One Chrome ``traceEvents`` document for the whole network.

    * pid :data:`NETWORK_PID` -- "network": one thread per traced
      packet, an ``X`` span per hop segment (the flame row IS the
      per-hop latency decomposition);
    * pid :data:`ROUTER_PID_BASE` + i -- one process per router (sorted
      by name): its recorder's component threads, exactly as the
      single-router export renders them;
    * flow events (``ph: s``/``f``, id = trace id) on each router
      process's :data:`FLOW_TID` thread for every inter-router link
      crossing, binding the sender's process to the receiver's.

    The document passes :func:`repro.obs.analysis.validate_chrome_trace`
    (timestamps monotonic per track) and serializes byte-identically per
    seed.  ``otherData.truncated`` reports whether any node's trace ring
    wrapped -- a truncated node truncates the *network* trace.
    """
    from repro.obs.analysis import CLOCK_HZ, chrome_process_events, cycles_to_us

    tracer = topo.tracer
    trace: List[Dict[str, Any]] = [
        {"ph": "M", "pid": NETWORK_PID, "name": "process_name",
         "args": {"name": "network"}},
    ]

    # -- the network journey process --------------------------------------
    flows: List[Dict[str, Any]] = []
    node_pids: Dict[str, int] = {
        name: ROUTER_PID_BASE + i for i, name in enumerate(sorted(topo.nodes))}
    for tid in sorted(tracer.journeys()):
        d = tracer.decompose(tid)
        journey = tracer.journeys()[tid]
        trace.append({
            "ph": "M", "pid": NETWORK_PID, "tid": tid, "name": "thread_name",
            "args": {"name": f"trace {tid} [{d['flow'] or d['origin']}] "
                             f"{d['terminal']}"},
        })
        cursor = journey["sent"]
        for seg in d["segments"]:
            trace.append({
                "ph": "X", "pid": NETWORK_PID, "tid": tid,
                "ts": cycles_to_us(cursor), "dur": cycles_to_us(seg["cycles"]),
                "name": seg["where"], "args": {"cycles": seg["cycles"]},
            })
            cursor += seg["cycles"]
        # Cross-process flow events: one s/f pair per inter-router hop.
        enter_cycle: Optional[int] = None
        enter_link = None
        for kind, where, cycle, __detail in journey["records"]:
            if kind == "link-enter":
                enter_cycle, enter_link = cycle, where
            elif kind == "link-arrive" and enter_link == where:
                link = next((l for l in topo.links if l.name == where), None)
                if link is not None and link.nodes:
                    src_pid = node_pids[link.nodes[0].name]
                    dst_pid = node_pids[link.nodes[1].name]
                    # Direction: the endpoint the packet *left* is the one
                    # whose process hosts the s event.
                    flows.append({
                        "ph": "s", "pid": src_pid, "tid": FLOW_TID,
                        "ts": cycles_to_us(enter_cycle), "id": tid, "cat": "link",
                        "name": where,
                    })
                    flows.append({
                        "ph": "f", "pid": dst_pid, "tid": FLOW_TID,
                        "ts": cycles_to_us(cycle), "id": tid, "cat": "link",
                        "name": where, "bp": "e",
                    })

    # -- one process per router --------------------------------------------
    dropped_events = 0
    for name in sorted(topo.nodes):
        node = topo.nodes[name]
        pid = node_pids[name]
        recorder = node.recorder
        if recorder is not None and recorder.enabled:
            trace.extend(chrome_process_events(
                recorder.events.to_list(), pid=pid,
                process_name=f"router {name}"))
            dropped_events += recorder.dropped_events
        else:
            trace.append({"ph": "M", "pid": pid, "name": "process_name",
                          "args": {"name": f"router {name}"}})
        trace.append({"ph": "M", "pid": pid, "tid": FLOW_TID,
                      "name": "thread_name", "args": {"name": "links"}})

    # Flow events sorted by (ts, pid, phase, id): monotonic per track by
    # construction, deterministic under timestamp ties.
    flows.sort(key=lambda e: (e["ts"], e["pid"], e["ph"], e["id"]))
    trace.extend(flows)
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock_hz": CLOCK_HZ,
            "source": "repro.topo.tracing",
            "routers": {name: pid for name, pid in sorted(node_pids.items())},
            "truncated": dropped_events > 0,
            "dropped_events": dropped_events,
        },
    }
