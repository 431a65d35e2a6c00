"""Binding the link-state protocol to a live router.

LSAs travel as real packets: the classifier matches the neighbor's flow
and hands them up the hierarchy to a Pentium control forwarder, which
parses the LSA, updates the link-state database, reruns SPF and programs
the routing table -- bumping the table generation so the MicroEngines'
route cache self-invalidates.  The forwarder is registered with a
proportional share, realizing section 4.1's "we allocate sufficient
cycles to the OSPF control protocol to ensure that it is able to update
the routing table at an acceptable rate".
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional, Set, Tuple

from repro.control.channel import ACK, HELLO, LSA, NeighborChannel, decode_message
from repro.control.linkstate import (
    ADJ_DOWN,
    ADJ_FULL,
    ADJ_INIT,
    HELLO_INTERVAL,
    HELLO_PROCESS_CYCLES,
    LSA_PROCESS_CYCLES,
    Adjacency,
    LinkStateNode,
)
from repro.core.forwarder import ForwarderSpec, Where
from repro.net.addresses import IPv4Address
from repro.net.packet import FlowKey, Packet, make_udp_like_packet

ALL_ROUTERS_ADDR = "224.0.0.5"  # the OSPF AllSPFRouters group


def make_lsa_packet(lsa_bytes: bytes, src: str, dst: str = ALL_ROUTERS_ADDR) -> Packet:
    """An LSA riding a real packet (protocol carried as raw payload).

    Real OSPF uses TTL 1; here the general minimal-IP forwarder applies
    its TTL check to every packet (the paper's serial-generals design),
    so control packets carry a normal TTL and are consumed by the control
    forwarder rather than expiring in the data plane.
    """
    return make_udp_like_packet(src, dst, payload=lsa_bytes, ttl=64)


class ControlPlaneBinding:
    """Wires a :class:`LinkStateNode` into a Router's control plane."""

    def __init__(self, router, node: LinkStateNode,
                 hello_interval: int = HELLO_INTERVAL,
                 dead_interval: Optional[int] = None):
        self.router = router
        self.node = node
        self.hello_interval = hello_interval
        self.dead_interval = (3 * hello_interval if dead_interval is None
                              else dead_interval)
        self.lsas_received = 0
        self.route_programs = 0
        self.route_withdrawals = 0
        #: (prefix, length) pairs THIS binding programmed: the set we are
        #: allowed to withdraw (never statically installed routes).
        self._programmed: Set[Tuple[str, int]] = set()
        self._fids: Dict[str, int] = {}
        node.charge_cycles = self._charge
        self._pentium_cycles_charged = 0

        # -- adjacency liveness + reliable flooding state -----------------
        #: neighbor router id -> reliable per-neighbor channel.
        self.channels: Dict[int, NeighborChannel] = {}
        #: neighbor router id -> hello-driven adjacency record.
        self.adjacencies: Dict[int, Adjacency] = {}
        #: Control-plane process state: while crashed, ticks are skipped
        #: and incoming control frames are ignored (the data plane keeps
        #: forwarding on the last programmed table -- the paper's split).
        self.crashed = False
        self.hellos_received = 0
        self.ctrl_rejected = 0     # checksum/parse failures
        self.ctrl_ignored = 0      # frames dropped while crashed/unknown
        self.neighbor_deaths = 0
        self.adjacency_forms = 0
        #: Optional hooks the topology uses for detection bookkeeping.
        self.on_neighbor_dead: Optional[Callable[[int, str], None]] = None
        self.on_adjacency_full: Optional[Callable[[int], None]] = None
        router.control_binding = self

    def _charge(self, cycles: int) -> None:
        self._pentium_cycles_charged += cycles
        if self.router.pentium is not None:
            self.router.pentium.busy_pentium_cycles += cycles

    def listen_to_neighbor(self, neighbor_src: str, tickets: int = 300) -> int:
        """Install the control forwarder for LSAs arriving from
        ``neighbor_src`` (one per-flow binding per neighbor)."""
        spec = ForwarderSpec(
            name=f"ospf-{neighbor_src}",
            where=Where.PE,
            cycles=LSA_PROCESS_CYCLES,
            action=self._process,
            expected_pps=1_000,
            expected_cycles_per_packet=LSA_PROCESS_CYCLES,
        )
        key = FlowKey(IPv4Address(neighbor_src), 0, IPv4Address(ALL_ROUTERS_ADDR), 0)
        fid = self.router.install(key, spec)
        if self.router.scheduler is not None:
            # Raise the protocol's share above the default.
            flow = self.router.scheduler._flows.get(spec.name)
            if flow is not None:
                flow.tickets = tickets
        self._fids[neighbor_src] = fid
        return fid

    def _process(self, packet: Packet) -> bool:
        """The control forwarder body: parse, flood bookkeeping, SPF,
        route programming.  Consumes the packet (returns False)."""
        self.lsas_received += 1
        changed = self.node.receive(bytes(packet.payload))
        if changed:
            self._program_routes()
        return False

    def deliver_direct(self, data: bytes, from_neighbor: Optional[int] = None) -> bool:
        """Process an LSA delivered off the data path (the topology's
        direct control transport): same bookkeeping, SPF charge and route
        programming as :meth:`_process`, without the packet climb.
        Returns True if the LSA was new."""
        self.lsas_received += 1
        changed = self.node.receive(data, from_neighbor=from_neighbor)
        if changed:
            self._program_routes()
        return changed

    def _program_routes(self) -> None:
        """Reconcile the routing table with SPF's verdict: program every
        computed route AND withdraw the ones that vanished -- a
        destination that became unreachable must stop resolving, or the
        stale entry blackholes traffic forever.  The whole reconcile is
        one bulk block: one generation bump, one cache invalidation,
        instead of one per route (the invalidation storm)."""
        table = self.router.routing_table
        desired = {(prefix, length): out_port
                   for (prefix, length), (__, out_port) in self.node.routes.items()}
        with table.bulk():
            for (prefix, length), out_port in desired.items():
                table.add(prefix, length, out_port)
                self.route_programs += 1
            for prefix, length in self._programmed - set(desired):
                if table.discard(prefix, length) is not None:
                    self.route_withdrawals += 1
        self._programmed = set(desired)

    # -- adjacency liveness + reliable flooding ---------------------------

    def attach_channel(self, neighbor_id: int, cost: int,
                       via_port: int, channel: NeighborChannel) -> None:
        """Register the reliable channel + adjacency for one neighbor.

        The adjacency starts FULL-but-unconfirmed (``mutual=False``): the
        link was just administratively configured, so SPF may use it
        immediately, but the two-way check only arms once a hello proves
        the neighbor actually hears us."""
        self.channels[neighbor_id] = channel
        self.adjacencies[neighbor_id] = Adjacency(
            neighbor_id=neighbor_id, cost=cost, via_port=via_port,
            state=ADJ_FULL, mutual=False)
        channel.on_event = (
            lambda event, seq, nid=neighbor_id:
            self._trace(event, detail=f"n{nid}/seq{seq}"))
        self.node.add_link(neighbor_id, cost, via_port=via_port)

    def tick(self, now: int) -> None:
        """One hello period: expire dead adjacencies, then greet every
        neighbor with the set of routers we currently hear (the two-way
        check rides inside the hello, as in OSPF)."""
        if self.crashed:
            return
        for nid in sorted(self.adjacencies):
            adj = self.adjacencies[nid]
            if adj.state != ADJ_DOWN and now - adj.last_heard >= self.dead_interval:
                self._neighbor_down(nid, reason="dead-interval")
        seen = [nid for nid in sorted(self.adjacencies)
                if self.adjacencies[nid].state != ADJ_DOWN
                and self.adjacencies[nid].hellos_rx > 0
                and now - self.adjacencies[nid].last_heard < self.dead_interval]
        payload = json.dumps({"seen": seen}, sort_keys=True).encode()
        for nid in sorted(self.channels):
            self.channels[nid].send_hello(payload)
            self._trace("hello_tx", detail=f"n{nid}")

    def on_wire(self, from_id: int, data: bytes, now: int) -> None:
        """Entry point for every control frame arriving off a link."""
        if self.crashed:
            self.ctrl_ignored += 1
            return
        msg = decode_message(data)
        if msg is None:
            self.ctrl_rejected += 1
            self._charge(HELLO_PROCESS_CYCLES)
            self._trace("ctrl_reject", detail=f"n{from_id}")
            return
        channel = self.channels.get(from_id)
        if channel is None:
            self.ctrl_ignored += 1
            return
        if msg.kind == HELLO:
            self._on_hello(from_id, msg.payload, now)
        elif msg.kind == LSA:
            payload = channel.on_lsa(msg.seq, msg.payload)
            if payload is not None:
                self.deliver_direct(payload, from_neighbor=from_id)
        elif msg.kind == ACK:
            channel.on_ack(msg.seq)
        else:
            self.ctrl_rejected += 1

    def _on_hello(self, from_id: int, payload: bytes, now: int) -> None:
        adj = self.adjacencies.get(from_id)
        if adj is None:
            self.ctrl_ignored += 1
            return
        self.hellos_received += 1
        self._charge(HELLO_PROCESS_CYCLES)
        self._trace("hello_rx", detail=f"n{from_id}")
        adj.last_heard = now
        adj.hellos_rx += 1
        try:
            me_seen = self.node.router_id in json.loads(payload.decode())["seen"]
        except (ValueError, KeyError):
            self.ctrl_rejected += 1
            return
        if adj.state == ADJ_DOWN:
            adj.state = ADJ_INIT
            adj.mutual = False
            if me_seen:
                self._adjacency_full(from_id)
        elif adj.state == ADJ_INIT:
            if me_seen:
                self._adjacency_full(from_id)
        else:  # ADJ_FULL
            if me_seen:
                adj.mutual = True
            elif adj.mutual:
                # It heard us before and no longer does: one-way link.
                self._neighbor_down(from_id, reason="one-way")

    def _adjacency_full(self, neighbor_id: int) -> None:
        """Two-way confirmed: bring the link into SPF, sync our LSDB to
        the (possibly rebooted) neighbor, and re-originate so the rest of
        the network learns the link is back."""
        adj = self.adjacencies[neighbor_id]
        adj.state = ADJ_FULL
        adj.mutual = True
        self.adjacency_forms += 1
        self.node.add_link(neighbor_id, adj.cost, via_port=adj.via_port)
        channel = self.channels[neighbor_id]
        # Database sync, OSPF's DbD exchange in miniature: push our whole
        # LSDB over the reliable channel (sequence dedup makes the copies
        # the neighbor already has a no-op on its side).
        for rid in sorted(self.node.lsdb):
            channel.send_lsa(self.node.lsdb[rid].to_bytes())
        self.node.originate()
        self._program_routes()
        self._trace("adjacency_up", detail=f"n{neighbor_id}")
        if self.on_adjacency_full is not None:
            self.on_adjacency_full(neighbor_id)

    def _neighbor_down(self, neighbor_id: int, reason: str) -> None:
        """Locally-detected failure: withdraw the link from our own LSA
        and flood the bad news ourselves -- no oracle involved."""
        adj = self.adjacencies[neighbor_id]
        if adj.state == ADJ_DOWN:
            return
        adj.state = ADJ_DOWN
        adj.mutual = False
        self.neighbor_deaths += 1
        self.channels[neighbor_id].reset()
        if neighbor_id in self.node.neighbors:
            self.node.remove_link(neighbor_id)
        self.node.originate()
        self._program_routes()
        self._trace("adjacency_down", detail=f"n{neighbor_id}/{reason}")
        if self.on_neighbor_dead is not None:
            self.on_neighbor_dead(neighbor_id, reason)

    def crash(self) -> None:
        """Kill the control-plane process.  Retransmit state dies with
        it; the forwarding table survives (strict data/control split)."""
        self.crashed = True
        for nid in sorted(self.channels):
            self.channels[nid].reset()

    def restart(self) -> None:
        """Bring the control process back.  Stale adjacencies expire on
        the next tick (daemon-restart semantics); a short outage under
        the dead interval costs nothing but the peers' retransmits."""
        self.crashed = False

    @property
    def unacked(self) -> int:
        return sum(ch.unacked for ch in self.channels.values())

    @property
    def retransmits(self) -> int:
        return sum(ch.retransmits for ch in self.channels.values())

    @property
    def abandoned(self) -> int:
        return sum(ch.abandoned for ch in self.channels.values())

    @property
    def duplicates(self) -> int:
        return sum(ch.duplicates for ch in self.channels.values())

    @property
    def hellos_sent(self) -> int:
        return sum(ch.hellos_sent for ch in self.channels.values())

    def control_stats(self) -> Dict[str, int]:
        return {
            "hellos_sent": self.hellos_sent,
            "hellos_received": self.hellos_received,
            "retransmits": self.retransmits,
            "abandoned": self.abandoned,
            "duplicates": self.duplicates,
            "rejected": self.ctrl_rejected,
            "ignored": self.ctrl_ignored,
            "neighbor_deaths": self.neighbor_deaths,
            "adjacency_forms": self.adjacency_forms,
            "unacked": self.unacked,
        }

    def _trace(self, event: str, detail=None) -> None:
        rec = self.router.chip.recorder
        if rec.enabled:
            rec.record(self.router.sim.now, "control", event, None, detail)

    @property
    def pentium_cycles_charged(self) -> int:
        return self._pentium_cycles_charged
