"""Multi-router topology simulation: many Routers, one event engine.

The paper evaluates one router on the bench; its robustness claims are
about routers *on a network*.  This module grows the single guarded
router into a simulated internet: a :class:`Topology` holds full
:class:`~repro.core.router.Router` instances (one per node) plus cheap
:class:`Host` traffic sources/sinks, joined by :class:`InterRouterLink`
objects with latency, bandwidth and loss -- all driven by the one shared
:class:`~repro.engine.sim.Simulator`, so the whole network is as
deterministic as a single router run.

Routes are never hand-installed: every router node carries a
:class:`~repro.control.linkstate.LinkStateNode` wired through
:class:`~repro.control.integration.ControlPlaneBinding`, LSAs flood over
the topology's links, SPF runs on (and is cycle-charged to) each node's
Pentium, and the computed routes are programmed into the real routing
table -- invalidating the MicroEngines' route caches exactly as a live
reconvergence would.

The control plane is *survivable*, not oracular: hellos tick on every
adjacency, a router declares a neighbor dead only after the configured
dead interval of silence and then originates its own withdrawal LSA,
and LSAs ride the links' control path -- subject to loss, corruption,
flaps and the shared fault injector -- behind per-neighbor ack +
bounded-backoff retransmission (:mod:`repro.control.channel`).  Control
frames share each link's latency, loss seed and a bounded queue but not
its data bandwidth: the paper's strict priority for protocol traffic.

Packets crossing a link are *scrubbed*: the next hop receives a copy
whose ``meta`` keeps only end-to-end keys (``topo_*`` flow tags and the
ICMP marker), never the previous router's internal annotations -- two
routers must not alias classification state through a shared object.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.control.channel import (DEFAULT_MAX_ATTEMPTS, NeighborChannel,
                                   corrupt_wire)
from repro.control.integration import ControlPlaneBinding
from repro.control.linkstate import ADJ_FULL, HELLO_INTERVAL, LinkStateNode
from repro.core.router import Router, RouterConfig
from repro.engine import Delay, Simulator
from repro.faults.injector import RX_CORRUPT, RX_DROP
from repro.ixp.params import CLOCK_HZ
from repro.net.ethernet import wire_bits
from repro.net.ip import PROTO_ICMP
from repro.net.packet import Packet, make_tcp_packet
from repro.obs import export
from repro.obs.metrics import (DEFAULT_METRICS_PERIOD, NULL_SAMPLER,
                               MetricsSampler, control_probe, every,
                               fault_probe, link_probe, router_probe)
from repro.topo.tracing import NULL_TRACER, NetTracer

DEFAULT_LINK_LATENCY = 200      # propagation, in cycles
DEFAULT_QUEUE_LIMIT = 64        # frames in flight per link direction
DEFAULT_NUM_PORTS = 6
CONVERGE_STEP = 2_000           # cycles between flooding-quiescence checks

#: meta keys that survive a link crossing (everything else is one
#: router's private annotation and must not leak to the next hop).
_META_KEEP = frozenset({"icmp"})
_META_KEEP_PREFIX = "topo_"

#: Incident kinds the topology itself records (vs. per-packet counts).
LOGGED_KINDS = ("topo-link-down", "topo-link-up", "topo-reconverged",
                "link-down", "link-up", "packet-faults-armed",
                "control-faults-armed", "ctrl-neighbor-dead",
                "ctrl-adjacency-full", "ctrl-router-crash",
                "ctrl-router-restart")


def _scrub_copy(packet: Packet) -> Packet:
    """The copy of ``packet`` that crosses a link: fresh headers, meta
    reduced to end-to-end keys only."""
    dup = packet.copy()
    meta = {k: v for k, v in dup.meta.items()
            if k in _META_KEEP or k.startswith(_META_KEEP_PREFIX)}
    # The shared network trace id survives the crossing ONLY for packets
    # the tracer tagged (topo_trace present): every node's recorder then
    # files the packet under one global id, while untraced runs keep the
    # per-node id assignment byte-identical to a tracer-less build.
    if "topo_trace" in meta and "trace_id" in dup.meta:
        meta["trace_id"] = dup.meta["trace_id"]
    dup.meta = meta
    return dup


def _line_rate_cycles(frame_len: int, bps: float = 100e6) -> int:
    """Serialization time of one frame at ``bps`` (plus FCS), in cycles."""
    return max(1, round(wire_bits(frame_len + 4) / bps * CLOCK_HZ))


class _End:
    """One attachment point of a link (a router port or a host NIC)."""

    __slots__ = ("name", "deliver", "announce")

    def __init__(self, name: str, deliver: Callable[[Packet, bytes], Any],
                 announce: Optional[Callable[[int], None]] = None):
        self.name = name
        self.deliver = deliver
        #: Called with the arrival cycle when a frame is put on the wire
        #: toward this end (router ports wake a parked input stage).
        self.announce = announce


class InterRouterLink:
    """A bidirectional point-to-point link with latency, bandwidth and
    loss.  Each direction serializes frames in FIFO order (``busy_until``
    advances per frame when a bandwidth is set) and bounds the frames in
    flight (``queue_limit``); overflow, loss and down-link drops are all
    counted, split into total and data-tagged (``topo_flow``) frames so
    network-wide accounting can conserve host traffic exactly."""

    _COUNT_KEYS = ("carried", "dropped_down", "dropped_loss", "dropped_overflow")
    _CTRL_COUNT_KEYS = ("ctrl_carried", "ctrl_corrupted", "ctrl_dropped_down",
                        "ctrl_dropped_fault", "ctrl_dropped_loss",
                        "ctrl_dropped_overflow")

    def __init__(self, topo: "Topology", name: str, latency: int = DEFAULT_LINK_LATENCY,
                 bandwidth_bps: Optional[float] = None, loss: float = 0.0,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT, cost: int = 1):
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.topo = topo
        self.sim = topo.sim
        self.name = name
        self.latency = int(latency)
        self.bandwidth_bps = bandwidth_bps
        self.loss = float(loss)
        self.queue_limit = int(queue_limit)
        self.cost = cost
        self.up = True
        #: cycle the link last went down (None while up): the baseline
        #: detection latency is measured against.
        self.down_at: Optional[int] = None
        #: router endpoints when this is an inter-router link (set by
        #: Topology.connect): (RouterNode, RouterNode) and their ports.
        self.nodes: Tuple = ()
        self.ports: Tuple[int, ...] = ()
        self._rng = random.Random(f"{topo.seed}:{name}")
        #: Separate loss stream for control frames: interleaving them
        #: into the data RNG would make every data-drop sequence depend
        #: on hello phasing.
        self._ctrl_rng = random.Random(f"{topo.seed}:{name}:ctrl")
        self._ends: List[_End] = []
        self._busy_until = [0, 0]
        self._in_flight = [0, 0]
        self._ctrl_in_flight = [0, 0]
        #: LSA/ack frames in flight (hellos excluded): the reliable-
        #: flooding quiescence signal -- periodic hellos never settle.
        self.ctrl_reliable_in_flight = 0
        #: total cycles spent serializing frames (both directions): the
        #: utilization numerator for repro.obs.metrics.link_probe.
        self.serialized_cycles = 0
        self.counts: Dict[str, int] = {}
        for key in self._COUNT_KEYS:
            self.counts[key] = 0
            self.counts[key + "_data"] = 0
        for key in self._CTRL_COUNT_KEYS:
            self.counts[key] = 0

    def attach(self, end: _End) -> int:
        if len(self._ends) >= 2:
            raise RuntimeError(f"link {self.name} already has two endpoints")
        self._ends.append(end)
        return len(self._ends) - 1

    def serialization_cycles(self, frame_len: int) -> int:
        if not self.bandwidth_bps:
            return 0
        return _line_rate_cycles(frame_len, self.bandwidth_bps)

    def _bump(self, key: str, data: bool) -> None:
        self.counts[key] += 1
        if data:
            self.counts[key + "_data"] += 1

    def send(self, from_index: int, packet: Packet, frame: bytes) -> bool:
        """Carry one frame from end ``from_index`` to the other end.
        Returns False when the frame is dropped (down link, loss roll,
        or queue overflow)."""
        data = "topo_flow" in packet.meta
        tracer = self.topo.tracer
        if not self.up:
            self._bump("dropped_down", data)
            if tracer.enabled:
                tracer.on_link_drop(self, packet, "down")
            return False
        if self.loss and self._rng.random() < self.loss:
            self._bump("dropped_loss", data)
            if tracer.enabled:
                tracer.on_link_drop(self, packet, "loss")
            return False
        direction = from_index
        if self._in_flight[direction] >= self.queue_limit:
            self._bump("dropped_overflow", data)
            if tracer.enabled:
                tracer.on_link_drop(self, packet, "overflow")
            return False
        now = self.sim.now
        start = max(now, self._busy_until[direction])
        done = start + self.serialization_cycles(len(frame))
        self._busy_until[direction] = done
        self._in_flight[direction] += 1
        self.serialized_cycles += done - start
        dup = _scrub_copy(packet)
        dest = self._ends[1 - from_index]
        if tracer.enabled:
            tracer.on_link_enter(self, dup, wait=start - now,
                                 serialization=done - start)

        def arrive() -> None:
            self._in_flight[direction] -= 1
            if not self.up:
                # Went down while the frame was in flight.
                self._bump("dropped_down", data)
                if tracer.enabled:
                    tracer.on_link_drop(self, dup, "down")
                return
            self._bump("carried", data)
            if tracer.enabled:
                tracer.on_link_arrive(self, dup)
            dest.deliver(dup, frame)

        wait = max(1, done + self.latency - now)
        if dest.announce is not None:
            dest.announce(now + wait)
        self.sim.schedule(wait, arrive)
        return True

    def send_control(self, from_index: int, data: bytes, kind: str) -> bool:
        """Carry one control frame (hello/LSA/ack) to the other end.

        Control frames share the link's fate -- latency, up/down state,
        the (separately seeded) loss rate, fault-injector verdicts and a
        bounded queue -- but not its data bandwidth: protocol traffic is
        strictly prioritized ahead of data serialization, so a congested
        bottleneck can never starve the hellos that keep it routable.
        Returns False when the frame is dropped."""
        if not self.up:
            self.counts["ctrl_dropped_down"] += 1
            return False
        if self.loss and self._ctrl_rng.random() < self.loss:
            self.counts["ctrl_dropped_loss"] += 1
            return False
        injector = self.topo.injector
        if injector is not None and injector.enabled:
            verdict = injector.on_control(self, from_index, kind)
            if verdict == RX_DROP:
                self.counts["ctrl_dropped_fault"] += 1
                return False
            if verdict == RX_CORRUPT:
                self.counts["ctrl_corrupted"] += 1
                data = corrupt_wire(data)
        direction = from_index
        if self._ctrl_in_flight[direction] >= self.queue_limit:
            self.counts["ctrl_dropped_overflow"] += 1
            return False
        self._ctrl_in_flight[direction] += 1
        reliable = kind != "hello"
        if reliable:
            self.ctrl_reliable_in_flight += 1
        dest = self.nodes[1 - from_index]
        src_id = self.nodes[from_index].router_id

        def arrive() -> None:
            self._ctrl_in_flight[direction] -= 1
            if reliable:
                self.ctrl_reliable_in_flight -= 1
            if not self.up:
                # Went down while the frame was in flight.
                self.counts["ctrl_dropped_down"] += 1
                return
            self.counts["ctrl_carried"] += 1
            dest.binding.on_wire(src_id, data, self.sim.now)

        self.sim.schedule(max(1, self.latency), arrive)
        return True

    @property
    def in_flight(self) -> int:
        return sum(self._in_flight)

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<InterRouterLink {self.name} {state}>"


class RouterNode:
    """One router of the topology: a full Router plus its link-state
    control plane, bound so flooded LSAs program the live table."""

    def __init__(self, topo: "Topology", name: str, router_id: int,
                 num_ports: int = DEFAULT_NUM_PORTS, **config_overrides):
        if router_id > 253:
            raise ValueError("router ids above 253 collide with the 10.254/16 "
                             "control addressing plan")
        self.topo = topo
        self.name = name
        self.router_id = router_id
        config_overrides.setdefault("generate_icmp_errors", True)
        config_overrides.setdefault("router_address", f"10.254.{router_id}.1")
        config = RouterConfig(num_ports=num_ports, **config_overrides)
        self.router = Router(config, sim=topo.sim)
        self.node = LinkStateNode(
            router_id,
            send=lambda neighbor, payload: topo._send_lsa(self, neighbor, payload),
        )
        self.binding = ControlPlaneBinding(
            self.router, self.node,
            hello_interval=topo.hello_interval,
            dead_interval=topo.dead_interval)
        self.recorder = None
        self.monitor = None
        self._next_port = 0
        self._next_network = 0

    def allocate_port(self) -> int:
        if self._next_port >= len(self.router.ports):
            raise RuntimeError(
                f"router {self.name} is out of ports "
                f"({len(self.router.ports)} allocated); raise num_ports"
            )
        port = self._next_port
        self._next_port += 1
        return port

    def port(self, port_id: int):
        return self.router.ports[port_id]

    def stats(self) -> Dict[str, int]:
        snap = dict(self.router.stats())
        snap["spf_runs"] = self.node.spf_runs
        snap["lsas_processed"] = self.node.lsas_processed
        snap["lsas_flooded"] = self.node.flooded
        snap["routes"] = len(self.node.routes)
        snap["route_programs"] = self.binding.route_programs
        snap["route_withdrawals"] = self.binding.route_withdrawals
        snap["ctrl"] = self.binding.control_stats()
        snap["rx_dropped_packets"] = sum(
            p.rx_dropped_packets for p in self.router.ports)
        snap["rx_fault_dropped"] = sum(
            p.rx_fault_dropped for p in self.router.ports)
        snap["trace_dropped_events"] = (
            self.recorder.dropped_events if self.recorder is not None else 0)
        return snap

    def __repr__(self) -> str:
        return f"<RouterNode {self.name} id={self.router_id}>"


class Host:
    """A cheap traffic source/sink hanging off one router port.  It is
    not a Router: it emits pre-built packets onto its access link at a
    paced rate and counts what comes back (data vs. ICMP errors),
    recording per-flow deliveries, arrival order and latency."""

    def __init__(self, topo: "Topology", name: str, node: RouterNode,
                 link: InterRouterLink, end_index: int, address: str, prefix: str):
        self.topo = topo
        self.name = name
        self.node = node
        self.link = link
        self.end_index = end_index
        self.address = address
        self.prefix = prefix
        self.sent = 0
        self.received = 0
        self.received_icmp = 0
        self.received_other = 0
        self.received_by_flow: Dict[str, int] = {}
        #: arrival order: (flow, seq, ttl) per delivered data packet.
        self.received_log: List[Tuple[str, int, int]] = []
        self.latency_sum = 0
        self.latency_max = 0

    # -- sink side -----------------------------------------------------------

    def receive(self, packet: Packet, frame: bytes) -> None:
        tracer = self.topo.tracer
        if packet.ip.protocol == PROTO_ICMP:
            self.received_icmp += 1
            if tracer.enabled:
                tracer.on_host_icmp(self, packet)
            return
        if str(packet.ip.dst) != self.address:
            self.received_other += 1
            return
        self.received += 1
        flow = packet.meta.get("topo_flow")
        if flow is not None:
            self.received_by_flow[flow] = self.received_by_flow.get(flow, 0) + 1
        seq = packet.tcp.seq if packet.tcp is not None else -1
        self.received_log.append((str(flow), seq, packet.ip.ttl))
        sent_at = packet.meta.get("topo_sent")
        if isinstance(sent_at, int):
            latency = self.topo.sim.now - sent_at
            self.latency_sum += latency
            self.latency_max = max(self.latency_max, latency)
        if tracer.enabled:
            tracer.on_host_receive(self, packet)

    # -- source side ---------------------------------------------------------

    def start_flow(self, dst, count: int, interval: Optional[int] = None,
                   start: int = 0, payload_len: int = 6, ttl: int = 64,
                   dst_port: int = 80, flow: Optional[str] = None) -> str:
        """Spawn a paced packet stream toward ``dst`` (a Host or an
        address string).  Without ``interval`` the stream paces at the
        access line rate (100 Mbps)."""
        dst_addr = dst.address if isinstance(dst, Host) else str(dst)
        dst_name = dst.name if isinstance(dst, Host) else dst_addr
        flow = flow or f"{self.name}->{dst_name}"
        src_port = self.topo._next_src_port()
        self.topo.sim.spawn(
            self._flow_process(dst_addr, count, interval, start, payload_len,
                               ttl, dst_port, src_port, flow),
            name=f"host-{self.name}-{flow}",
        )
        return flow

    def _flow_process(self, dst_addr, count, interval, start, payload_len,
                      ttl, dst_port, src_port, flow):
        if start > 0:
            yield Delay(start)
        for seq in range(count):
            packet = make_tcp_packet(
                self.address, dst_addr, src_port=src_port, dst_port=dst_port,
                payload=b"\x00" * payload_len, ttl=ttl, seq=seq,
            )
            packet.meta["topo_flow"] = flow
            packet.meta["topo_sent"] = self.topo.sim.now
            tracer = self.topo.tracer
            if tracer.enabled:
                tracer.on_host_send(self, packet)
            frame = packet.to_bytes()
            self.sent += 1
            self.link.send(self.end_index, packet, frame)
            yield Delay(interval if interval else _line_rate_cycles(len(frame)))

    def stats(self) -> Dict[str, Any]:
        return {
            "sent": self.sent,
            "received": self.received,
            "received_icmp": self.received_icmp,
            "received_other": self.received_other,
            "by_flow": dict(sorted(self.received_by_flow.items())),
            "latency_sum": self.latency_sum,
            "latency_max": self.latency_max,
        }

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.address} via {self.node.name}>"


class Topology:
    """A graph of router nodes and hosts on one shared simulator.

    Build it (``add_router`` / ``connect`` / ``add_host``), optionally
    ``enable_observability`` / ``enable_faults`` / ``health_monitors``,
    then ``converge()`` to flood LSAs and program every routing table,
    and drive traffic with ``Host.start_flow`` + ``run``.

    Control transport rides the links: every adjacency carries periodic
    hellos (``hello_interval``) and a reliable per-neighbor LSA channel
    over :meth:`InterRouterLink.send_control` -- lossy, flappable,
    fault-injectable.  A router that misses hellos for ``dead_interval``
    cycles declares the neighbor dead *itself* and floods its own
    withdrawal; there is no oracle notifying endpoints of failures.
    """

    def __init__(self, seed: int = 0, default_ports: int = DEFAULT_NUM_PORTS,
                 hello_interval: int = HELLO_INTERVAL,
                 dead_interval: Optional[int] = None,
                 ctrl_max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        if hello_interval <= 0:
            raise ValueError(f"hello_interval must be positive, got {hello_interval}")
        self.sim = Simulator()
        self.seed = seed
        self.default_ports = default_ports
        self.hello_interval = hello_interval
        self.dead_interval = (3 * hello_interval if dead_interval is None
                              else dead_interval)
        #: Retransmit budget per LSA (chaos campaigns lower it to 1 to
        #: plant a deliberately fragile control plane).
        self.ctrl_max_attempts = ctrl_max_attempts
        self.nodes: Dict[str, RouterNode] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[InterRouterLink] = []
        self._adjacency: Dict[Tuple[int, int], InterRouterLink] = {}
        self._by_id: Dict[int, RouterNode] = {}
        self._next_router_id = 1
        self._src_port = 20000
        self.injector = None
        self.tracer = NULL_TRACER
        self.metrics = NULL_SAMPLER
        self._observed = False
        self._sample_period: Optional[int] = None
        self._log: List[Dict[str, Any]] = []
        self.control_messages = 0      # LSA frames offered (incl. retransmits)
        self.hello_messages = 0
        self.ack_messages = 0
        self.control_dropped = 0       # control frames lost on the wire
        #: locally-detected neighbor deaths: {"cycle", "node", "neighbor",
        #: "reason", "latency"} (latency measured from the link's down
        #: moment; None for one-way/gray detections with the link up).
        self.detections: List[Dict[str, Any]] = []
        #: completed reconvergence episodes: {"label", "started", "cycles"}.
        self.reconvergences: List[Dict[str, Any]] = []

    # -- construction --------------------------------------------------------

    def add_router(self, name: str, num_ports: Optional[int] = None,
                   **config_overrides) -> RouterNode:
        if name in self.nodes or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        node = RouterNode(self, name, self._next_router_id,
                          num_ports=num_ports or self.default_ports,
                          **config_overrides)
        self._next_router_id += 1
        self.nodes[name] = node
        self._by_id[node.router_id] = node
        node.binding.on_neighbor_dead = (
            lambda nid, reason, node=node: self._on_neighbor_dead(node, nid, reason))
        node.binding.on_adjacency_full = (
            lambda nid, node=node: self._on_adjacency_full(node, nid))
        self.sim.spawn(self._hello_process(node), name=f"ctrl-hello-{name}")
        if self.injector is not None:
            self.injector.attach_router(node.router, label=name)
        if self._observed:
            node.recorder = node.router.enable_observability(
                sample_period=self._sample_period)
        return node

    def _hello_process(self, node: RouterNode):
        """One router's hello heartbeat.  The phase offset is a fixed
        per-router stagger (well under the dead interval) so hellos never
        fire network-synchronized, yet every run is deterministic."""
        yield Delay(1 + (node.router_id * 587) % self.hello_interval)
        while True:
            node.binding.tick(self.sim.now)
            yield Delay(self.hello_interval)

    def _node(self, ref) -> RouterNode:
        if isinstance(ref, RouterNode):
            return ref
        try:
            return self.nodes[ref]
        except KeyError:
            raise KeyError(f"no router named {ref!r}") from None

    def connect(self, a, b, cost: int = 1, latency: int = DEFAULT_LINK_LATENCY,
                bandwidth_bps: Optional[float] = None, loss: float = 0.0,
                queue_limit: int = DEFAULT_QUEUE_LIMIT) -> InterRouterLink:
        """Join two routers with a link and form the adjacency on both
        link-state nodes.  Symmetric cost."""
        na, nb = self._node(a), self._node(b)
        if na is nb:
            raise ValueError("cannot connect a router to itself")
        if (na.router_id, nb.router_id) in self._adjacency:
            raise ValueError(f"{na.name} and {nb.name} are already connected")
        pa, pb = na.allocate_port(), nb.allocate_port()
        link = InterRouterLink(self, f"{na.name}--{nb.name}", latency=latency,
                               bandwidth_bps=bandwidth_bps, loss=loss,
                               queue_limit=queue_limit, cost=cost)
        link.nodes = (na, nb)
        link.ports = (pa, pb)
        ia = link.attach(self._router_end(na, pa))
        ib = link.attach(self._router_end(nb, pb))
        na.port(pa).tx_listeners.append(
            lambda pkt, frame, link=link, idx=ia: link.send(idx, pkt, frame))
        nb.port(pb).tx_listeners.append(
            lambda pkt, frame, link=link, idx=ib: link.send(idx, pkt, frame))
        na.binding.attach_channel(
            nb.router_id, cost, pa, self._make_channel(na, nb.router_id, link, ia))
        nb.binding.attach_channel(
            na.router_id, cost, pb, self._make_channel(nb, na.router_id, link, ib))
        self._adjacency[(na.router_id, nb.router_id)] = link
        self._adjacency[(nb.router_id, na.router_id)] = link
        self.links.append(link)
        return link

    def _make_channel(self, node: RouterNode, neighbor_id: int,
                      link: InterRouterLink, end_index: int) -> NeighborChannel:
        """The reliable control channel one router runs toward one
        neighbor, transmitting over the link's control path.  The RTO
        starts at several round trips so an ack in flight never races a
        spurious retransmit."""

        def transmit(data: bytes, kind: str) -> None:
            if kind == "lsa":
                self.control_messages += 1
            elif kind == "hello":
                self.hello_messages += 1
            else:
                self.ack_messages += 1
            if not link.send_control(end_index, data, kind):
                self.control_dropped += 1

        return NeighborChannel(
            node.router_id, neighbor_id,
            transmit=transmit,
            schedule=self.sim.schedule,
            now=lambda: self.sim.now,
            rto=max(2_000, 4 * link.latency),
            max_attempts=self.ctrl_max_attempts,
        )

    @staticmethod
    def _router_end(node: RouterNode, port_id: int) -> _End:
        port = node.port(port_id)
        topo = node.topo

        def deliver(packet: Packet, frame: bytes) -> None:
            packet.arrival_port = port.port_id
            accepted = port.deliver(packet, frame)
            tracer = topo.tracer
            if tracer.enabled:
                if accepted:
                    tracer.on_node_arrive(node.name, packet)
                else:
                    tracer.on_node_drop(node.name, packet)

        return _End(f"{node.name}.p{port_id}", deliver, port.announce)

    def add_host(self, name: str, router, latency: int = 100,
                 bandwidth_bps: Optional[float] = None, loss: float = 0.0,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT) -> Host:
        """Attach a host to ``router`` via an access link; the host's /24
        is advertised in the router's LSA, so every other node learns a
        route to it on convergence."""
        if name in self.hosts or name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = self._node(router)
        port_id = node.allocate_port()
        net = node._next_network
        node._next_network += 1
        prefix = f"10.{node.router_id}.{net}.0"
        address = f"10.{node.router_id}.{net}.2"
        link = InterRouterLink(self, f"{name}--{node.name}", latency=latency,
                               bandwidth_bps=bandwidth_bps, loss=loss,
                               queue_limit=queue_limit)
        router_idx = link.attach(self._router_end(node, port_id))
        host = Host(self, name, node, link, end_index=1, address=address,
                    prefix=prefix)
        link.attach(_End(name, host.receive))
        node.port(port_id).tx_listeners.append(
            lambda pkt, frame, link=link, idx=router_idx: link.send(idx, pkt, frame))
        node.node.attach_network(prefix, 24, port_id)
        self.hosts[name] = host
        self.links.append(link)
        return host

    def link_between(self, a, b) -> InterRouterLink:
        na, nb = self._node(a), self._node(b)
        try:
            return self._adjacency[(na.router_id, nb.router_id)]
        except KeyError:
            raise KeyError(f"no link between {na.name} and {nb.name}") from None

    # -- control transport ---------------------------------------------------

    def _send_lsa(self, src: RouterNode, neighbor_id: int, payload: bytes) -> None:
        """The LinkStateNode ``send`` callable: hand the LSA to the
        reliable per-neighbor channel (which owns retransmission); the
        channel's transmit closure puts it on the link."""
        channel = src.binding.channels.get(neighbor_id)
        if channel is None:
            self.control_dropped += 1
            return
        channel.send_lsa(payload)

    def _control_settled(self) -> bool:
        """True when reliable flooding is quiescent: every LSA sent has
        been acked or abandoned, and no LSA/ack is on a wire.  Hellos
        are periodic background noise and deliberately excluded."""
        if any(node.binding.unacked for node in self.nodes.values()):
            return False
        return all(link.ctrl_reliable_in_flight == 0 for link in self.links)

    def _lsdbs_equal(self) -> bool:
        nodes = list(self.nodes.values())
        first = nodes[0].node
        return all(first.converged_with(n.node) for n in nodes[1:])

    def _quiesced(self) -> bool:
        return self._control_settled() and self._lsdbs_equal()

    def converge(self, max_cycles: int = 1_000_000) -> int:
        """Originate every node's LSA and run until flooding quiesces
        (all LSAs acked, all LSDBs equal); returns the cycles it took.
        Raises if the horizon is exceeded -- e.g. on a partitioned graph,
        where database equality is unreachable."""
        for node in self.nodes.values():
            node.node.originate()
        start = self.sim.now
        while not self._quiesced():
            if self.sim.now - start >= max_cycles:
                raise RuntimeError(
                    f"link-state flooding did not quiesce within {max_cycles} cycles")
            self.sim.run(until=self.sim.now + CONVERGE_STEP)
        return self.sim.now - start

    def run(self, cycles: int) -> None:
        self.sim.run(until=self.sim.now + cycles)

    # -- failures ------------------------------------------------------------

    def fail_link(self, a, b, at: int, restore_at: Optional[int] = None) -> InterRouterLink:
        """Schedule link (a, b) to go down ``at`` cycles from now (and
        optionally come back at ``restore_at``).  The topology only
        flips the link's physical state: each endpoint must *notice*
        for itself -- missed hellos expire the dead interval, the
        adjacency is withdrawn, and the router originates its own
        withdrawal LSA.  No endpoint is notified by the harness."""
        if restore_at is not None and restore_at <= at:
            raise ValueError("restore_at must come after at")
        link = self.link_between(a, b)

        def failer():
            yield Delay(max(1, at))
            if link.up:
                self._take_link_down(link)
            if restore_at is not None:
                yield Delay(max(1, restore_at - at))
                if not link.up:
                    self._bring_link_up(link)

        self.sim.spawn(failer(), name=f"topo-fail-{link.name}")
        return link

    def _take_link_down(self, link: InterRouterLink) -> None:
        link.up = False
        link.down_at = self.sim.now
        self.record("topo-link-down", f"link {link.name} down", severity="red")
        self._watch_reconvergence(f"link {link.name} failure", link, kind="down")

    def _bring_link_up(self, link: InterRouterLink) -> None:
        link.up = True
        link.down_at = None
        self.record("topo-link-up", f"link {link.name} restored",
                    severity="green")
        self._watch_reconvergence(f"link {link.name} restore", link, kind="up")

    def crash_control(self, name, at: int,
                      restart_after: Optional[int] = None) -> RouterNode:
        """Crash ``name``'s control-plane process ``at`` cycles from now
        (optionally restarting ``restart_after`` cycles later).  Only
        the protocol dies: the data plane keeps forwarding on the last
        programmed table -- the paper's control/data split -- while
        neighbors detect the silence via their dead intervals."""
        node = self._node(name)

        def crasher():
            yield Delay(max(1, at))
            node.binding.crash()
            self.record("ctrl-router-crash",
                        f"{node.name} control plane crashed", severity="red")
            if restart_after is not None:
                yield Delay(max(1, restart_after))
                node.binding.restart()
                self.record("ctrl-router-restart",
                            f"{node.name} control plane restarted",
                            severity="green")

        self.sim.spawn(crasher(), name=f"ctrl-crash-{node.name}")
        return node

    # -- detection bookkeeping (called by the bindings) ----------------------

    def _on_neighbor_dead(self, node: RouterNode, neighbor_id: int,
                          reason: str) -> None:
        neighbor = self._by_id.get(neighbor_id)
        neighbor_name = neighbor.name if neighbor is not None else str(neighbor_id)
        link = self._adjacency.get((node.router_id, neighbor_id))
        latency = None
        if link is not None and not link.up and link.down_at is not None:
            latency = self.sim.now - link.down_at
        self.detections.append({
            "cycle": self.sim.now,
            "node": node.name,
            "neighbor": neighbor_name,
            "reason": reason,
            "latency": latency,
        })
        self.record("ctrl-neighbor-dead",
                    f"{node.name} declared {neighbor_name} dead ({reason})",
                    severity="yellow")

    def _on_adjacency_full(self, node: RouterNode, neighbor_id: int) -> None:
        neighbor = self._by_id.get(neighbor_id)
        neighbor_name = neighbor.name if neighbor is not None else str(neighbor_id)
        self.record("ctrl-adjacency-full",
                    f"{node.name} adjacency to {neighbor_name} is full",
                    severity="green")

    def _adjacency_state(self, node: RouterNode, neighbor_id: int) -> Optional[str]:
        adj = node.binding.adjacencies.get(neighbor_id)
        return None if adj is None else adj.state

    def _watch_reconvergence(self, label: str, link: InterRouterLink,
                             kind: str, poll: int = 500) -> None:
        """Record a reconvergence episode measured from the physical
        event: first wait for *detection* (both ends withdraw the dead
        adjacency, or both re-form it after a restore), then for
        reliable flooding to settle.  The episode therefore includes
        the dead-interval detection latency -- the honest number."""
        started = self.sim.now
        na, nb = link.nodes

        def watch():
            if kind == "down":
                while (nb.router_id in na.node.neighbors
                       or na.router_id in nb.node.neighbors):
                    if link.up:
                        return  # restored before detection completed
                    yield Delay(poll)
            else:
                while not (
                    self._adjacency_state(na, nb.router_id) == ADJ_FULL
                    and self._adjacency_state(nb, na.router_id) == ADJ_FULL
                ):
                    if not link.up:
                        return  # failed again before the handshake
                    yield Delay(poll)
            while not self._control_settled():
                yield Delay(poll)
            cycles = self.sim.now - started
            self.reconvergences.append(
                {"label": label, "started": started, "cycles": cycles})
            self.record("topo-reconverged",
                        f"{label}: flooding quiesced after {cycles} cycles",
                        severity="green")

        self.sim.spawn(watch(), name="topo-reconverge-watch")

    # -- observability / faults ----------------------------------------------

    def enable_observability(self, sample_period: int = 2_000) -> None:
        self._observed = True
        self._sample_period = sample_period
        for node in self.nodes.values():
            if node.recorder is None:
                node.recorder = node.router.enable_observability(
                    sample_period=sample_period)

    def enable_tracing(self) -> NetTracer:
        """Attach the network-wide distributed tracer (see
        :mod:`repro.topo.tracing`): every host-originated data packet
        from here on carries a trace context across link crossings, so
        its journey is reconstructable hop by hop.  Idempotent."""
        if not self.tracer.enabled:
            self.tracer = NetTracer(self)
        return self.tracer

    def enable_metrics(self, period: int = DEFAULT_METRICS_PERIOD) -> MetricsSampler:
        """Attach the deterministic time-series sampler (see
        :mod:`repro.obs.metrics`) over every link and router currently
        in the topology, plus the network-wide fault gauge, sampling
        each ``period`` cycles of simulated time.  Call it after the
        topology is built (links/routers added later are not probed).
        Idempotent."""
        if self.metrics.enabled:
            return self.metrics
        sampler = MetricsSampler(period=period)
        probes = [link_probe(link)
                  for link in sorted(self.links, key=lambda l: l.name)]
        probes.extend(router_probe(self.nodes[name])
                      for name in sorted(self.nodes))
        probes.extend(control_probe(self.nodes[name])
                      for name in sorted(self.nodes))
        probes.append(fault_probe(self))

        def step(now: int) -> None:
            for probe in probes:
                probe(sampler, now)

        self.sim.spawn(every(self.sim, period, lambda: step),
                       name="topo-metrics-sampler")
        self.metrics = sampler
        return sampler

    def enable_faults(self, seed: Optional[int] = None):
        """Attach ONE shared FaultInjector across every node (per-port
        hooks are keyed by port object, so plans never alias across
        routers); port labels carry the node name so a merged incident
        log stays unambiguous."""
        from repro.faults.injector import FaultInjector

        if self.injector is None:
            injector = FaultInjector(self.sim, seed=self.seed if seed is None else seed)
            injector.log[:0] = self._log
            self._log = []
            for name in sorted(self.nodes):
                injector.attach_router(self.nodes[name].router, label=name)
            self.injector = injector
        return self.injector

    def health_monitors(self, period: int = 25_000) -> List:
        """One HealthMonitor per node.  Each monitor's injector hook is
        detached afterwards: with one shared injector, per-node monitors
        would otherwise each copy the whole network's incident stream."""
        monitors = []
        for name in sorted(self.nodes):
            node = self.nodes[name]
            if node.monitor is None:
                node.monitor = node.router.health_monitor(period=period)
                node.monitor.injector = None
                if node.recorder is None:
                    node.recorder = node.router.chip.recorder
            monitors.append(node.monitor)
        self._observed = True
        return monitors

    def record(self, kind: str, detail: str, severity: str = "yellow") -> Dict[str, Any]:
        if self.injector is not None:
            return self.injector.record(kind, detail, severity)
        entry = {"cycle": self.sim.now, "kind": kind,
                 "severity": severity, "detail": detail}
        self._log.append(entry)
        return entry

    @property
    def incidents(self) -> List[Dict[str, Any]]:
        return self.injector.log if self.injector is not None else self._log

    @property
    def fault_counts(self) -> Dict[str, int]:
        return dict(self.injector.counts) if self.injector is not None else {}

    # -- artifacts -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "nodes": {name: self.nodes[name].stats() for name in sorted(self.nodes)},
            "hosts": {name: self.hosts[name].stats() for name in sorted(self.hosts)},
            "links": {link.name: dict(sorted(link.counts.items()))
                      for link in sorted(self.links, key=lambda l: l.name)},
            "control": {
                "transport": "link",
                "messages": self.control_messages,
                "hellos": self.hello_messages,
                "acks": self.ack_messages,
                "dropped": self.control_dropped,
                "hello_interval": self.hello_interval,
                "dead_interval": self.dead_interval,
            },
        }

    def trace_hash(self) -> Optional[str]:
        """One hash over every node's trace: per-node trace hashes keyed
        by node name -- each carrying that node's ring-eviction count, so
        a truncated node changes the *network* hash -- re-hashed; stable
        across node iteration order."""
        parts = {}
        for name in sorted(self.nodes):
            recorder = self.nodes[name].recorder
            if recorder is not None:
                parts[name] = {
                    "hash": export.trace_hash(recorder.events.to_list()),
                    "dropped_events": recorder.dropped_events,
                }
        if not parts:
            return None
        blob = export.dumps(parts, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def trace_dropped_events(self) -> int:
        """Ring-evicted trace spans summed over every node's recorder."""
        return sum(node.recorder.dropped_events
                   for node in self.nodes.values()
                   if node.recorder is not None)

    @property
    def trace_truncated(self) -> bool:
        """True when ANY node's trace ring wrapped: one truncated node
        makes the merged network trace untrustworthy, so it is flagged
        at network scope instead of silently passing."""
        return self.trace_dropped_events > 0

    def accounting(self) -> Dict[str, int]:
        """Network-wide conservation of host data packets: everything a
        host sent is delivered, consumed as an ICMP-answered error, or
        counted in a named drop counter.  ``residual`` is what is left
        over (in-flight frames and router-internal queues at snapshot
        time); scenarios bound it."""
        sent = sum(h.sent for h in self.hosts.values())
        delivered = sum(h.received for h in self.hosts.values())
        misdelivered = sum(h.received_other for h in self.hosts.values())
        link_drops = sum(
            link.counts["dropped_down_data"] + link.counts["dropped_loss_data"]
            + link.counts["dropped_overflow_data"]
            for link in self.links)
        router_drops = 0
        for node in self.nodes.values():
            snap = node.stats()
            router_drops += (
                snap.get("queue_drops", 0) + snap.get("vrp_dropped", 0)
                + snap.get("sa_drops", 0) + snap.get("lost_buffers", 0)
                + snap.get("classifier_failures", 0)
                + snap.get("sa_bridge_dropped", 0)
                + snap.get("sa_dropped_unroutable", 0)
                + snap.get("i2o_messages_lost", 0)
                + snap["rx_dropped_packets"] + snap["rx_fault_dropped"])
        in_flight = sum(link.in_flight for link in self.links)
        residual = (sent - delivered - misdelivered - link_drops
                    - router_drops - in_flight)
        return {
            "sent": sent,
            "delivered": delivered,
            "misdelivered": misdelivered,
            "icmp_errors": sum(h.received_icmp for h in self.hosts.values()),
            "link_drops": link_drops,
            "router_drops": router_drops,
            "in_flight": in_flight,
            "residual": residual,
            "trace_dropped_events": self.trace_dropped_events,
        }

    def _next_src_port(self) -> int:
        self._src_port += 1
        return self._src_port

    def __repr__(self) -> str:
        return (f"<Topology {len(self.nodes)} routers, {len(self.hosts)} hosts, "
                f"{len(self.links)} links>")
