"""The assembled router: chip + StrongARM + Pentium + control interface.

This is the object a user of the library instantiates.  It boots like the
paper's prototype: the generic forwarding infrastructure comes up with a
classifier and two default IP forwarders (the minimal fast path on the
MicroEngines and full IP on the StrongARM), route-cache misses climb to
the StrongARM where the controlled-prefix-expansion lookup runs (~236
cycles), and additional forwarders are installed at runtime through
:class:`~repro.core.interface.RouterInterface` after admission control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.admission import AdmissionControl, PentiumCapacity, StrongARMCapacity
from repro.core.classifier import Classifier, FlowTable
from repro.core.forwarder import ALL, ForwarderSpec, Where
from repro.core.forwarders import full_ip, minimal_ip
from repro.core.interface import RouterInterface
from repro.core.vrp import PROTOTYPE_BUDGET, VRPBudget
from repro.engine import Simulator
from repro.hosts.pci import I2OQueuePair, PCIBus
from repro.hosts.pentium import PentiumHost
from repro.hosts.scheduling import StrideScheduler
from repro.hosts.strongarm import LocalForwarder, StrongARM
from repro.ixp.chip import ChipConfig, IXP1200
from repro.ixp.queues import InputDiscipline, OutputDiscipline
from repro.net.mac import MACPort, make_board_ports
from repro.net.packet import Packet
from repro.net.routing import make_routing_table

ROUTE_LOOKUP_CYCLES = 236  # controlled prefix expansion, section 4.4


@dataclass
class RouterConfig:
    """Boot-time configuration."""

    num_ports: int = 10               # 8 x 100 Mbps + 2 x 1 Gbps
    input_mes: int = 4
    output_mes: int = 2
    input_discipline: InputDiscipline = InputDiscipline.PROTECTED
    output_discipline: OutputDiscipline = OutputDiscipline.SINGLE_BATCHED
    queue_capacity: int = 256
    queues_per_port: int = 1
    # Optional input-side WFQ approximation (section 3.4.1); requires the
    # multi-queue output discipline.
    wfq: Optional["InputSideWFQ"] = None
    budget: VRPBudget = field(default_factory=lambda: PROTOTYPE_BUDGET)
    with_pentium: bool = True
    # Optional extension: answer TTL expiry with ICMP Time Exceeded
    # (generated on the StrongARM) instead of silently dropping.
    generate_icmp_errors: bool = False
    router_address: str = "10.255.255.1"
    # Miss-path lookup structure on the StrongARM: "cpe" (the paper's
    # controlled-prefix-expansion trie) or "bidirectional" (pipelined
    # split trie); see repro.net.routing.LOOKUP_BACKENDS.
    lookup_backend: str = "cpe"


class Router:
    """A software router on the Pentium/IXP1200 processor hierarchy."""

    def __init__(self, config: Optional[RouterConfig] = None, sim: Optional[Simulator] = None):
        self.config = config or RouterConfig()
        self.sim = sim if sim is not None else Simulator()
        self.routing_table = make_routing_table(self.config.lookup_backend)
        self.ports: List[MACPort] = make_board_ports(self.sim)[: self.config.num_ports]

        self.flow_table = FlowTable()
        self.classifier = Classifier(self.flow_table)
        self.admission = AdmissionControl(
            budget=self.config.budget,
            pentium=PentiumCapacity(),
            strongarm=StrongARMCapacity(local_forwarder_fraction=0.3),
        )

        output_discipline = self.config.output_discipline
        queues_per_port = self.config.queues_per_port
        if self.config.wfq is not None:
            # WFQ needs priority queues on every port and the bit-array
            # output discipline to service them.
            output_discipline = OutputDiscipline.MULTI_INDIRECT
            queues_per_port = max(queues_per_port, self.config.wfq.num_priorities)

        self.chip = IXP1200(
            ChipConfig(
                traffic="ports",
                num_ports=self.config.num_ports,
                input_mes=self.config.input_mes,
                output_mes=self.config.output_mes,
                input_discipline=self.config.input_discipline,
                output_discipline=output_discipline,
                queues_per_port=queues_per_port,
                queue_capacity=self.config.queue_capacity,
                classifier=self._chip_classify,
                vrp_resolver=self._vrp_resolver,
            ),
            sim=self.sim,
            ports=self.ports,
            routing_table=self.routing_table,
        )

        # Upper hierarchy levels.
        self.pci = PCIBus(self.sim)
        self.to_pentium = I2OQueuePair(name="ixp->pentium")
        self.from_pentium = I2OQueuePair(name="pentium->ixp")
        self.strongarm = StrongARM(
            self.chip,
            pentium_pair=self.to_pentium if self.config.with_pentium else None,
        )
        self.pentium: Optional[PentiumHost] = None
        self.scheduler: Optional[StrideScheduler] = None
        if self.config.with_pentium:
            self.scheduler = StrideScheduler()
            self.pentium = PentiumHost(
                self.sim,
                rx_pair=self.to_pentium,
                tx_pair=self.from_pentium,
                bus=self.pci,
                scheduler=self.scheduler,
            )
            self.sim.spawn(self._pentium_return_loop(), name="pentium-return")
        self._returning = False
        self.chip.host_idle = self._hosts_idle

        # Fault-injection / runtime-enforcement attach points (None until
        # enable_faults / enable_vrp_watchdog; the hot path only pays an
        # ``is not None`` check).
        self.injector = None
        self._vrp_watchdog = None

        # Control interface over the input engines' instruction stores.
        self.interface = RouterInterface(
            flow_table=self.flow_table,
            classifier=self.classifier,
            admission=self.admission,
            istores=self.chip.istores[: self.config.input_mes],
            strongarm=self.strongarm,
            pentium=self.pentium,
        )
        self._boot_strongarm_services()
        self.ip_fid = self.interface.install(ALL, minimal_ip())

    def enable_observability(self, recorder=None, sample_period: Optional[int] = None):
        """Attach one live recorder across the whole hierarchy: the chip
        hooks plus the PCI bus, the Pentium, and a periodic utilization
        sampler over the hosts' busy counters (normalized to simulation
        cycles so StrongARM and Pentium series share one unit)."""
        from repro.obs.metrics import DEFAULT_SAMPLE_PERIOD, every, host_utilization

        recorder = self.chip.enable_observability(recorder, sample_period=sample_period)
        self.pci.recorder = recorder
        if self.pentium is not None:
            self.pentium.recorder = recorder
        period = DEFAULT_SAMPLE_PERIOD if sample_period is None else sample_period
        self.sim.spawn(every(self.sim, period,
                             lambda: host_utilization(self, recorder, period)),
                       name="obs-host-sampler")
        return recorder

    def enable_faults(self, seed: int = 0):
        """Attach a deterministic fault injector (see
        :mod:`repro.faults.injector`) across the whole hierarchy: every
        MAC port and both I2O queue pairs point at it, and scheduled
        faults (crashes, stalls, spikes) target this router's parts."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self.sim, seed=seed).attach_router(self)

    def enable_vrp_watchdog(self, strike_limit: int = 8, slack_cycles: int = 0):
        """Attach runtime VRP budget enforcement (see
        :mod:`repro.faults.recovery`): forwarders whose measured per-MP
        cost overruns their verified IR for ``strike_limit`` consecutive
        packets are quarantined off the fast path."""
        from repro.faults.recovery import VRPWatchdog

        self._vrp_watchdog = VRPWatchdog(self, strike_limit=strike_limit,
                                         slack_cycles=slack_cycles)
        return self._vrp_watchdog

    def quarantined_flows(self) -> int:
        """How many forwarders the VRP watchdog currently holds in
        quarantine (0 when no watchdog is attached) -- the fault/recovery
        gauge sampled by :func:`repro.obs.metrics.fault_probe`."""
        if self._vrp_watchdog is None:
            return 0
        return len(self._vrp_watchdog.quarantined)

    def health_monitor(self, period: Optional[int] = None, rules=None):
        """Attach the health watchdog (see :mod:`repro.obs.monitor`) to
        this router, enabling observability first if needed.  With a
        ``period`` the monitor is also spawned as a simulation process
        evaluating every ``period`` cycles; otherwise call
        ``monitor.evaluate()`` whenever a verdict is wanted."""
        from repro.obs.monitor import HealthMonitor
        from repro.obs.recorder import NULL_RECORDER

        if self.chip.recorder is NULL_RECORDER:
            self.enable_observability()
        monitor = HealthMonitor(self.chip, self.chip.recorder, router=self,
                                rules=rules, budget=self.config.budget)
        if period is not None:
            self.sim.spawn(monitor.process(period), name="health-monitor")
        return monitor

    # -- boot helpers -------------------------------------------------------------

    def _boot_strongarm_services(self) -> None:
        """The StrongARM's boot-time jump table: full IP (options path)
        and the route-cache fill (CPE lookup)."""
        chip = self.chip

        def route_fill(packet) -> bool:
            route = chip.route_cache.fill(packet.ip.dst)
            if route is None:
                return False  # unroutable: drop
            packet.meta["out_port"] = route.out_port
            packet.eth.dst = route.next_hop_mac
            return True

        self.strongarm.register_local(
            LocalForwarder("route-fill", ROUTE_LOOKUP_CYCLES, route_fill)
        )
        ip_spec = full_ip(Where.SA)

        def full_ip_with_route(packet) -> bool:
            if "out_port" not in packet.meta:
                route = chip.route_cache.fill(packet.ip.dst)
                if route is None:
                    return False
                packet.meta["out_port"] = route.out_port
            return ip_spec.action(packet)

        self.strongarm.register_local(
            LocalForwarder("full-ip", ip_spec.cycles + ROUTE_LOOKUP_CYCLES, full_ip_with_route)
        )

        if self.config.generate_icmp_errors:
            from repro.ixp.queues import PacketDescriptor
            from repro.net.addresses import IPv4Address as _Addr
            from repro.net.icmp import time_exceeded
            from repro.net.mp import mp_count as _mp_count

            router_addr = _Addr(self.config.router_address)

            def icmp_ttl(packet) -> bool:
                reply = time_exceeded(packet, router_addr)
                route = chip.route_cache.fill(reply.ip.dst)
                if route is None:
                    return False  # cannot route the error back: drop all
                reply.meta["out_port"] = route.out_port
                reply.eth.dst = route.next_hop_mac
                handle = chip.pool.alloc(contents=[reply], size=reply.frame_len)
                descriptor = PacketDescriptor(
                    handle=handle,
                    packet=reply,
                    mp_count=_mp_count(reply.frame_len),
                    out_port=route.out_port,
                    enqueue_cycle=self.sim.now,
                )
                chip.requeue_from_sa(descriptor)
                return False  # the original packet dies here

            self.strongarm.register_local(
                LocalForwarder("icmp-ttl", 800 + ROUTE_LOOKUP_CYCLES, icmp_ttl)
            )

    # -- chip hooks ------------------------------------------------------------------

    def _chip_classify(self, chip, item):
        packet: Packet = item.packet
        if packet is None:
            return item
        decision = self.classifier.classify_packet(packet)
        if decision.get("drop"):
            packet.meta["vrp_drop"] = True
            packet.meta["dropped_by"] = f"classifier:{decision['reason']}"
            return item._replace(out_port=0)
        entry = decision.get("entry")
        packet.meta["flow_entry"] = entry

        if decision.get("exceptional"):
            # Per-flow forwarder bound to a higher level.
            packet.meta["sa_target"] = decision["sa_target"]
            if decision["sa_target"] == "pentium":
                packet.meta["pentium_forwarder"] = entry.spec.name
            else:
                packet.meta["sa_forwarder"] = entry.spec.name
            self._resolve_route(chip, packet)
            return item._replace(exceptional=True, out_port=packet.meta.get("out_port", 0))

        if self.config.generate_icmp_errors and packet.ip.ttl <= 1:
            packet.meta["exceptional"] = "ttl-exceeded"
            packet.meta["sa_target"] = "local"
            packet.meta["sa_forwarder"] = "icmp-ttl"
            return item._replace(exceptional=True, out_port=0)

        if packet.has_ip_options:
            packet.meta["exceptional"] = "ip-options"
            packet.meta["sa_target"] = "local"
            packet.meta["sa_forwarder"] = "full-ip"
            return item._replace(exceptional=True, out_port=0)

        route = chip.route_cache.lookup(packet.ip.dst)
        if route is None:
            packet.meta["exceptional"] = "route-cache-miss"
            packet.meta["sa_target"] = "local"
            packet.meta["sa_forwarder"] = "route-fill"
            return item._replace(exceptional=True, out_port=0)

        packet.meta["out_port"] = route.out_port
        packet.eth.dst = route.next_hop_mac
        if self.config.wfq is not None:
            packet.meta["queue_priority"] = self.config.wfq.priority_for(packet)
        return item._replace(out_port=route.out_port)

    def _resolve_route(self, chip, packet) -> None:
        route = chip.route_cache.lookup(packet.ip.dst)
        if route is None:
            route = chip.route_cache.fill(packet.ip.dst)
        if route is not None:
            packet.meta["out_port"] = route.out_port

    def _vrp_resolver(self, chip, item):
        if item.packet is None:
            return chip.config.vrp
        entry = item.packet.meta.get("flow_entry")
        vrp = self.classifier.timed_vrp_for(entry)
        watchdog = self._vrp_watchdog
        if watchdog is not None and entry is not None and item.is_first:
            return watchdog.observe(entry, vrp, item)
        return vrp

    def _pentium_return_loop(self):
        """Drain packets the Pentium handed back and requeue them on the
        normal output path (the StrongARM's obligation)."""
        from repro.engine import delay

        idle_poll = delay(120)
        while True:
            message = self.from_pentium.try_receive()
            if message is None:
                yield idle_poll
                continue
            descriptor = message.flow_metadata.get("_descriptor")
            if descriptor is not None:
                self._returning = True
                yield from self.chip.sram.write(tag="sa.return")
                self.chip.requeue_from_sa(descriptor)
                self._returning = False

    def _hosts_idle(self) -> bool:
        """No packet held above the chip: the StrongARM, the I2O pairs,
        the Pentium and the return path are all empty (the chip parks
        its output stage only then)."""
        if not self.strongarm.idle() or self._returning:
            return False
        if self.to_pentium.occupancy or self.from_pentium.occupancy:
            return False
        return self.pentium is None or self.pentium.idle()

    # -- control-plane API ----------------------------------------------------------

    def install(self, key, fwdr: ForwarderSpec, size: Optional[int] = None, where: Optional[Where] = None) -> int:
        """Install a forwarder for ``key`` after admission control; see
        :meth:`repro.core.interface.RouterInterface.install`."""
        return self.interface.install(key, fwdr, size, where)

    def remove(self, fid: int) -> None:
        """Uninstall a forwarder by fid, freeing ISTORE and flow state."""
        self.interface.remove(fid)

    def getdata(self, fid: int) -> Dict:
        """Value-copy of the forwarder's shared flow state."""
        return self.interface.getdata(fid)

    def setdata(self, fid: int, data: Dict) -> None:
        """Merge ``data`` into the forwarder's shared flow state."""
        self.interface.setdata(fid, data)

    def add_route(self, prefix: str, length: int, out_port: int):
        """Insert a route; bumps the table generation, invalidating any
        stale route-cache entries on the MicroEngines."""
        return self.routing_table.add(prefix, length, out_port)

    def warm_route_cache(self, addrs: Iterable) -> None:
        """Pre-populate the fast-path route cache for ``addrs``."""
        self.chip.route_cache.warm(addrs)

    # -- data-plane API ----------------------------------------------------------------

    def inject(self, port_id: int, packets: Iterable[Packet]) -> None:
        """Deliver a packet stream to an ingress port at line speed."""
        if not 0 <= port_id < len(self.ports):
            raise ValueError(
                f"no port {port_id}: valid ports are 0..{len(self.ports) - 1}"
            )
        self.ports[port_id].attach_source(packets)

    def run(self, cycles: int) -> None:
        self.sim.run(until=self.sim.now + cycles)

    def transmitted(self, port_id: Optional[int] = None) -> List[Packet]:
        if port_id is not None:
            return list(self.ports[port_id].transmitted)
        return [p for port in self.ports for p in port.transmitted]

    def stats(self) -> Dict[str, int]:
        snap = dict(self.chip.counters)
        snap["sa_local_processed"] = self.strongarm.local_processed
        snap["sa_dropped_local"] = self.strongarm.dropped_local
        # Unroutable drops specifically: no route existed at fill time.
        # (Other local drops -- e.g. the ICMP generator consuming an
        # expired packet -- are accounted by their own mechanisms.)
        snap["sa_dropped_unroutable"] = (
            self.strongarm.dropped_by.get("route-fill", 0)
            + self.strongarm.dropped_by.get("full-ip", 0))
        snap["sa_bridged"] = self.strongarm.bridged
        if self.pentium is not None:
            snap["pentium_processed"] = self.pentium.processed
        snap["classifier_failures"] = self.classifier.validation_failures
        snap["sa_bridge_dropped"] = self.strongarm.bridge_dropped
        snap["i2o_messages_lost"] = (self.to_pentium.messages_lost
                                     + self.from_pentium.messages_lost)
        if self._vrp_watchdog is not None:
            snap["vrp_quarantined"] = len(self._vrp_watchdog.quarantined)
        return snap
