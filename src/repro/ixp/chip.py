"""The assembled IXP1200 chip model and its experiment harness.

:class:`IXP1200` wires together MicroEngines, memories, the IX bus, the
token rings, the buffer pool, the queue bank, MAC ports and the
StrongARM-bound exceptional queues, then spawns the input/output loop
programs according to a :class:`ChipConfig`.

Two traffic modes exist, mirroring the paper's methodology:

* ``synthetic`` -- "emulating infinitely fast network ports" (section
  3.5.1): every context always finds an MP; used for the envelope
  experiments (Table 1, Figures 7/9/10).
* ``ports`` -- real :class:`~repro.net.mac.MACPort` objects pace real
  packets at line speed; used for functional and robustness runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.engine import Resource, Simulator
from repro.ixp import parking
from repro.ixp.buffers import BufferHandle, BufferPool
from repro.ixp.hash_unit import HashUnit
from repro.ixp.istore import InstructionStore
from repro.ixp.memory import Memory, MemoryKind
from repro.ixp.microengine import MicroContext, MicroEngine
from repro.ixp.params import DEFAULT_PARAMS, IXPParams
from repro.ixp.parking import InputParking, OutputParking
from repro.ixp.programs import (
    TimedVRP,
    WorkItem,
    dram_direct_input_loop,
    input_loop,
    output_loop,
)
from repro.ixp.queues import (
    InputDiscipline,
    OutputDiscipline,
    PacketDescriptor,
    PacketQueue,
    QueueBank,
)
from repro.ixp.token_ring import TokenRing, interleave_across_engines
from repro.net.mac import MACPort
from repro.net.mp import mp_count as frame_mp_count
from repro.net.mp import segment_packet
from repro.net.routing import RouteCache, RoutingTable
from repro.obs.metrics import (DEFAULT_SAMPLE_PERIOD, Deltas,
                               chip_utilization, every)
from repro.obs.recorder import NULL_RECORDER, Recorder


@dataclass
class ChipConfig:
    """How to program the chip for one experiment."""

    input_mes: int = 4
    output_mes: int = 2
    input_contexts: Optional[int] = None   # default: 4 per input ME
    output_contexts: Optional[int] = None  # default: 4 per output ME
    input_discipline: InputDiscipline = InputDiscipline.PROTECTED
    output_discipline: OutputDiscipline = OutputDiscipline.SINGLE_BATCHED
    num_ports: int = 8
    queues_per_port: int = 1
    queue_capacity: int = 256

    # Traffic: "synthetic" (infinitely fast ports) or "ports" (real MACs).
    traffic: str = "synthetic"
    synthetic_pattern: str = "uniform"     # or "single" (max contention)
    synthetic_exceptional_every: int = 0   # every Nth synthetic MP -> StrongARM
    synthetic_exceptional_target: str = "local"  # or "pentium"
    # Pace the synthetic source to an offered load (0 = infinitely fast);
    # used by the section 4.7 robustness experiments at 1.128 Mpps.
    synthetic_rate_pps: float = 0.0

    # VRP code applied to every MP (Figures 9/10); may be overridden
    # per-flow via the classifier hook.
    vrp: Optional[TimedVRP] = None

    # Experiment switches.
    input_only: bool = False               # no output contexts (Fig 7)
    output_only: bool = False              # no input contexts (Fig 7)
    dram_direct: bool = False              # the 3.5.2 ablation
    sa_queue_capacity: int = 512

    # Optional functional classifier hook installed by the router core:
    # callable(chip, item) -> WorkItem.
    classifier: Optional[Callable] = None
    # Optional per-item VRP resolver: callable(chip, item) -> TimedVRP.
    vrp_resolver: Optional[Callable] = None


class Measurement(NamedTuple):
    """Steady-state rates over a measurement window."""

    window_cycles: int
    input_mps: int
    input_packets: int
    output_packets: int
    output_mps: int
    queue_drops: int
    lost_buffers: int
    exceptional: int
    input_pps: float
    output_pps: float
    dram_utilization: float
    sram_utilization: float


class _SyntheticSource:
    """Infinitely fast ports: every poll yields a fresh minimum-sized MP."""

    def __init__(self, chip: "IXP1200"):
        self.chip = chip
        self.count = 0
        self._next_emit = 0.0
        rate = chip.config.synthetic_rate_pps
        self._interval = chip.params.clock_hz / rate if rate > 0 else 0.0

    def backlog(self, now: int) -> int:
        """Packets that have 'arrived' at the offered rate but not yet
        been taken by an input context (an implicit line buffer).  A
        growing backlog means the pipeline cannot sustain the load."""
        if not self._interval:
            return 0
        due = int(now / self._interval)
        return max(0, due - self.count)

    def next_mp(self, ctx: MicroContext) -> Optional[WorkItem]:
        config = self.chip.config
        if self._interval:
            if self.chip.sim.now < self._next_emit:
                return None  # paced source: nothing due yet
            # Catch-up semantics: packets queue (port buffers) while the
            # contexts are busy, so emission may burst back to schedule.
            self._next_emit += self._interval
        self.count += 1
        if config.synthetic_pattern == "single":
            out_port = 0
        else:
            out_port = self.count % config.num_ports
        exceptional = (
            config.synthetic_exceptional_every > 0
            and self.count % config.synthetic_exceptional_every == 0
        )
        return WorkItem(
            out_port=out_port,
            is_first=True,
            is_last=True,
            mp_count=1,
            packet=None,
            mp=None,
            exceptional=exceptional,
        )

    def idle_wait(self, ctx: MicroContext):
        # Infinitely fast ports never idle; a paced source (with
        # ``synthetic_rate_pps``) idles between emissions in 1-cycle
        # blocked spins, which stay event by event.
        yield from ctx.blocked(1)


class _PortSource:
    """Real MAC ports; each input context is statically assigned a port,
    with the two contexts serving one port placed half a rotation apart
    (the paper's token-distance rule)."""

    def __init__(self, chip: "IXP1200", rotation: Sequence[int]):
        self.chip = chip
        num_ports = chip.config.num_ports
        self.port_of: Dict[int, MACPort] = {}
        for rotation_index, ctx_id in enumerate(rotation):
            self.port_of[ctx_id] = chip.ports[rotation_index % num_ports]
        # Per-port in-progress packet state (handle shared across the MPs
        # of one packet; protected in hardware by the token rotation).
        self.in_progress: Dict[int, Optional[BufferHandle]] = {}

    def next_mp(self, ctx: MicroContext) -> Optional[WorkItem]:
        port = self.port_of[ctx.ctx_id]
        if not port.port_rdy():
            return None
        mp = port.take_mp()
        packet = mp.packet
        total = frame_mp_count(max(64, packet.frame_len)) if packet is not None else 1
        return WorkItem(
            out_port=-1,  # decided by classification on the first MP
            is_first=mp.position.starts_packet,
            is_last=mp.position.ends_packet,
            mp_count=total,
            packet=packet,
            mp=mp,
            exceptional=False,
        )


class _InfiniteQueue(PacketQueue):
    """Output-only experiments: 'a single additional instruction was added
    to fool the process into believing data was always available'."""

    def __init__(self, out_port: int):
        super().__init__(queue_id=-1, out_port=out_port, capacity=1)
        self.synthesized = 0

    def peek_ready(self) -> bool:
        return True

    def dequeue(self) -> PacketDescriptor:
        self.synthesized += 1
        self.dequeued += 1
        return PacketDescriptor(
            handle=BufferHandle(0, 0),
            packet=None,
            mp_count=1,
            out_port=self.out_port,
            enqueue_cycle=0,
        )


class IXP1200:
    """The chip plus board, ready to run one configured experiment."""

    def __init__(
        self,
        config: Optional[ChipConfig] = None,
        params: IXPParams = DEFAULT_PARAMS,
        sim: Optional[Simulator] = None,
        ports: Optional[List[MACPort]] = None,
        routing_table: Optional[RoutingTable] = None,
    ):
        self.config = config or ChipConfig()
        self.params = params
        self.sim = sim or Simulator()

        # Memories and buses.
        self.dram = Memory(self.sim, MemoryKind.DRAM, params.dram)
        self.sram = Memory(self.sim, MemoryKind.SRAM, params.sram)
        self.scratch = Memory(self.sim, MemoryKind.SCRATCH, params.scratch)
        # The receive and transmit FIFO DMA engines run concurrently, so
        # the bus is modeled with two grant slots; each 64-byte transfer
        # still occupies a slot for the full MP time.
        self.ix_bus = Resource(self.sim, capacity=2, name="ix-bus")
        # Restart the IX-bus dither stream per chip so every experiment
        # is reproducible regardless of what ran before it in-process.
        from repro.ixp.memory import AccessJitter

        MicroContext._IX_JITTER = AccessJitter()
        self.hash_unit = HashUnit()
        self.pool = BufferPool(params.buffer_count, params.buffer_bytes)

        # Engines + per-engine instruction stores.
        self.engines = [MicroEngine(self.sim, i, params) for i in range(params.num_microengines)]
        self.istores = [InstructionStore(params.istore_instructions) for __ in self.engines]

        # Routing (functional classification).  Identity matters: an
        # empty RoutingTable is falsy, so test against None explicitly.
        self.routing_table = routing_table if routing_table is not None else RoutingTable()
        self.route_cache = RouteCache(self.routing_table)

        # Ports.
        self.ports = ports if ports is not None else []

        # Queue bank between the stages.
        n_in = self._resolve_input_contexts()
        self.bank = QueueBank(
            self.config.input_discipline,
            self.config.output_discipline,
            num_ports=self.config.num_ports,
            num_input_contexts=max(1, n_in),
            queues_per_port=self.config.queues_per_port,
            capacity=self.config.queue_capacity,
        )
        self._mutexes: Dict[int, Resource] = {}

        # Exceptional-path queues serviced by the StrongARM: one local set
        # and one Pentium-bound set (section 4.5).
        self.sa_local_queue = PacketQueue(-2, -1, capacity=self.config.sa_queue_capacity)
        self.sa_pentium_queue = PacketQueue(-3, -1, capacity=self.config.sa_queue_capacity)
        self.sa_signal = self.sim.signal("sa-packet")

        # Counters.
        self.counters: Dict[str, int] = {
            "input_mps": 0,
            "input_packets": 0,
            "output_packets": 0,
            "output_mps": 0,
            "queue_drops": 0,
            "lost_buffers": 0,
            "exceptional": 0,
            "sa_drops": 0,
            "vrp_dropped": 0,
        }
        self.start_window()

        # Buffer-handle -> accumulated MP payloads (functional contents).
        self._infinite_queues: Dict[int, _InfiniteQueue] = {}

        self.recorder = NULL_RECORDER

        # Idle parking (repro.ixp.parking); ``host_idle`` is installed by
        # the owning Router so the output stage only parks when no packet
        # is held above the chip.
        self.input_parking: Optional[InputParking] = None
        self.output_parking: Optional[OutputParking] = None
        self.host_idle: Optional[Callable[[], bool]] = None
        #: Frames that reached a parked input stage unannounced (see
        #: :meth:`rx_delivered`).  Kept out of ``counters``: it describes
        #: the simulation, not the modeled chip.
        self.unannounced_wakes = 0

        self._build_pipeline()

    def enable_observability(
        self,
        recorder: Optional[Recorder] = None,
        sample_period: Optional[int] = None,
    ) -> Recorder:
        """Attach a live recorder to every hook on the chip and spawn the
        periodic utilization sampler.  Returns the recorder.  Only called
        paths change behaviour: with the default null recorder nothing
        here runs and the simulation is bit-identical to an uninstrumented
        one."""
        if recorder is None:
            recorder = Recorder()
        self.recorder = recorder
        self.sim.recorder = recorder
        self.bank.recorder = recorder
        for me in self.engines:
            me.recorder = recorder
        period = DEFAULT_SAMPLE_PERIOD if sample_period is None else sample_period
        self.sim.spawn(every(self.sim, period,
                             lambda: chip_utilization(self, recorder, period)),
                       name="obs-sampler")
        return recorder

    # -- construction ---------------------------------------------------------

    def _resolve_input_contexts(self) -> int:
        if self.config.output_only:
            return 0
        if self.config.input_contexts is not None:
            return self.config.input_contexts
        return self.config.input_mes * self.params.contexts_per_me

    def _resolve_output_contexts(self) -> int:
        if self.config.input_only:
            return 0
        if self.config.output_contexts is not None:
            return self.config.output_contexts
        return self.config.output_mes * self.params.contexts_per_me

    def _build_pipeline(self) -> None:
        config = self.config
        per_me = self.params.contexts_per_me
        n_input = self._resolve_input_contexts()
        n_output = self._resolve_output_contexts()
        if n_input > 16:
            raise ValueError("at most 16 input contexts (one per input FIFO slot)")
        if n_input + n_output > self.params.total_contexts:
            raise ValueError("more contexts requested than the chip has")

        # Pack contexts onto the minimum number of engines: input engines
        # first, then output engines (the paper's static split).
        input_ctx: List[MicroContext] = []
        output_ctx: List[MicroContext] = []
        me_index = 0
        remaining = n_input
        while remaining > 0:
            me = self.engines[me_index]
            take = min(per_me, remaining)
            for __ in range(take):
                input_ctx.append(me.new_context())
            remaining -= take
            me_index += 1
        remaining = n_output
        while remaining > 0:
            me = self.engines[me_index]
            take = min(per_me, remaining)
            for __ in range(take):
                output_ctx.append(me.new_context())
            remaining -= take
            me_index += 1

        self.input_contexts = input_ctx
        self.output_contexts = output_ctx

        # Token rings with cross-engine rotation.
        if input_ctx:
            rotation = interleave_across_engines([c.ctx_id for c in input_ctx], per_me)
            self.input_ring = TokenRing(self.sim, rotation, name="input")
        else:
            self.input_ring = None
            rotation = []
        if output_ctx:
            out_rotation = interleave_across_engines([c.ctx_id for c in output_ctx], per_me)
            self.output_ring = TokenRing(self.sim, out_rotation, name="output")
        else:
            self.output_ring = None

        # Traffic source.
        if config.traffic == "synthetic":
            self.source = _SyntheticSource(self)
        elif config.traffic == "ports":
            if not self.ports:
                raise ValueError("ports traffic mode needs MACPort objects")
            self.source = _PortSource(self, rotation)
        else:
            raise ValueError(f"unknown traffic mode {config.traffic!r}")

        # Idle parking needs real ports and the inlined input loop.
        park = parking._PARKING and config.traffic == "ports" and not config.dram_direct
        if park and input_ctx:
            self.input_parking = InputParking(self)
            for port in self.ports:
                port.wake_listener = self
            for ctx in input_ctx + output_ctx:
                ctx.me.wake_listener = self

        # Spawn the loops.
        loop = dram_direct_input_loop if config.dram_direct else input_loop
        for ctx in input_ctx:
            self.sim.spawn(loop(ctx, self, self.source), name=f"in-ctx{ctx.ctx_id}")

        # Static port -> output-context assignment.
        procs = []
        for i, ctx in enumerate(output_ctx):
            ports = [p for p in range(config.num_ports) if p % len(output_ctx) == i]
            procs.append(self.sim.spawn(output_loop(ctx, self, ports), name=f"out-ctx{ctx.ctx_id}"))
        if (self.input_parking is not None and output_ctx
                and config.output_discipline is OutputDiscipline.SINGLE_BATCHED):
            self.output_parking = OutputParking(self, procs)
            self.output_parking.router_idle = self._router_idle

    # -- idle parking (see repro.ixp.parking) ----------------------------------

    def announce(self, at: int) -> None:
        """A frame reaches one of this chip's ports, or one of its
        engines is seized, at cycle ``at``: a parked stage resumes in
        time.  Spurious announcements are harmless."""
        if self.input_parking is not None:
            self.input_parking.request(at)
        if self.output_parking is not None:
            self.output_parking.request(at)

    def rx_delivered(self) -> None:
        """A frame entered a port's device buffer.  Announced frames find
        the input stage awake; an unannounced one wakes it now."""
        inp = self.input_parking
        if inp.parked:
            self.unannounced_wakes += 1
            inp.wake_now()
            if self.output_parking is not None:
                self.output_parking.request(self.sim.now)

    def settle(self, through: int) -> None:
        """Charge parked stages' busy cycles and token rotations up to
        (excluding) cycle ``through``; readers call this before reading
        ``MicroEngine.busy_cycles`` or ``TokenRing.rotations``."""
        if self.input_parking is not None:
            self.input_parking.settle(through)
        if self.output_parking is not None:
            self.output_parking.settle(through)

    def _router_idle(self) -> bool:
        """No packet anywhere: input stage parked, queue bank and
        StrongARM queues empty, nothing held by the hosts."""
        if not self.input_parking.parked:
            return False
        if self.sa_local_queue._entries or self.sa_pentium_queue._entries:
            return False
        for queue in self.bank.queues:
            if queue._entries:
                return False
        return self.host_idle is None or self.host_idle()

    # -- hooks used by the programs ----------------------------------------------

    def queue_mutex(self, queue: PacketQueue) -> Resource:
        mutex = self._mutexes.get(queue.queue_id)
        if mutex is None:
            mutex = Resource(self.sim, capacity=1, name=f"qmutex-{queue.queue_id}")
            self._mutexes[queue.queue_id] = mutex
        return mutex

    def alloc_buffer(self, item: WorkItem) -> BufferHandle:
        """Circular allocation; one buffer per packet, shared by its MPs."""
        if item.is_first:
            handle = self.pool.alloc(contents=[], size=64 * item.mp_count)
            if isinstance(self.source, _PortSource) and item.mp is not None:
                self.source.in_progress[item.mp.port] = handle
            return handle
        if isinstance(self.source, _PortSource) and item.mp is not None:
            handle = self.source.in_progress.get(item.mp.port)
            if handle is not None:
                return handle
        return self.pool.alloc(contents=[], size=64)

    def store_mp(self, handle: BufferHandle, item: WorkItem) -> None:
        contents = self.pool.read(handle)
        if contents is not None and item.mp is not None:
            contents.append(item.mp)

    def classify(self, item: WorkItem, ctx: MicroContext) -> WorkItem:
        """Functional classification of the first MP of a packet."""
        item = self._classify(item, ctx)
        rec = self.recorder
        if rec.enabled and item.packet is not None:
            detail = item.packet.meta.get("exceptional") or item.out_port
            rec.record(self.sim.now, ctx._comp, "classify",
                       rec.packet_id(item.packet), detail)
        return item

    def _classify(self, item: WorkItem, ctx: MicroContext) -> WorkItem:
        if self.config.classifier is not None:
            return self.config.classifier(self, item)
        if item.packet is None:
            return item  # synthetic: the source already chose the queue
        packet = item.packet
        if packet.has_ip_options:
            packet.meta["exceptional"] = "ip-options"
            return item._replace(exceptional=True, out_port=0)
        route = self.route_cache.lookup(packet.ip.dst)
        if route is None:
            packet.meta["exceptional"] = "route-cache-miss"
            return item._replace(exceptional=True, out_port=0)
        # The minimal forwarder: patch MACs; TTL/checksum are charged to
        # the IP forwarder's VRP budget and applied here functionally.
        packet.meta["out_port"] = route.out_port
        packet.eth.dst = route.next_hop_mac
        return item._replace(out_port=route.out_port)

    def vrp_for(self, item: WorkItem) -> Optional[TimedVRP]:
        if self.config.vrp_resolver is not None:
            return self.config.vrp_resolver(self, item)
        return self.config.vrp

    def enqueue_exceptional(self, descriptor: PacketDescriptor, item: WorkItem) -> None:
        self.counters["exceptional"] += 1
        if item.packet is not None:
            target = item.packet.meta.get("sa_target")
        else:
            target = self.config.synthetic_exceptional_target
        queue = self.sa_pentium_queue if target == "pentium" else self.sa_local_queue
        rec = self.recorder
        if not queue.enqueue(descriptor):
            self.counters["sa_drops"] += 1
            if rec.enabled:
                rec.record(self.sim.now, "chip", "sa_drop",
                           rec.packet_id(item.packet), target)
            return
        if rec.enabled:
            rec.record(self.sim.now, "chip", "to_sa",
                       rec.packet_id(item.packet), target)
        self.sa_signal.fire()

    def note_queue_drop(self, item: WorkItem) -> None:
        self.counters["queue_drops"] += 1
        rec = self.recorder
        if rec.enabled:
            rec.record(self.sim.now, "chip", "drop",
                       rec.packet_id(item.packet), item.out_port)

    def select_output_queue(self, ports: Sequence[int], discipline: OutputDiscipline):
        if self.config.output_only:
            port = ports[0] if ports else 0
            queue = self._infinite_queues.get(port)
            if queue is None:
                queue = _InfiniteQueue(port)
                self._infinite_queues[port] = queue
            return queue
        for port in ports:
            # Egress pacing: skip ports whose wire is still serializing
            # the previous frame (real MACs drain slots at line speed).
            if port < len(self.ports) and not self.ports[port].tx_ready(self.sim.now):
                continue
            if discipline is OutputDiscipline.MULTI_INDIRECT:
                queue = self.bank.select_via_bits(port)
            else:
                queue = self.bank.select_queue(port)
            if queue is not None:
                return queue
        return None

    def complete_packet(self, descriptor: PacketDescriptor) -> None:
        """All MPs of a packet transmitted: validate the buffer lifetime
        and deliver functionally to the egress MAC."""
        self.counters["output_packets"] += 1
        rec = self.recorder
        if rec.enabled:
            rec.record(self.sim.now, "chip", "mac_out",
                       rec.packet_id(descriptor.packet), descriptor.out_port)
        if descriptor.packet is None:
            return
        contents = self.pool.read(descriptor.handle)
        if contents is None:
            # Buffer reused before transmission: the packet is lost.
            self.counters["lost_buffers"] += 1
            self.counters["output_packets"] -= 1
            return
        if 0 <= descriptor.out_port < len(self.ports):
            port = self.ports[descriptor.out_port]
            for mp in segment_packet(descriptor.packet):
                port.put_mp(mp)

    # -- StrongARM-side helpers (used by repro.hosts) -------------------------------

    def requeue_from_sa(self, descriptor: PacketDescriptor) -> bool:
        """The StrongARM finished with an exceptional packet; put it on the
        normal output path."""
        out_port = descriptor.out_port
        if descriptor.packet is not None:
            out_port = descriptor.packet.meta.get("out_port", out_port)
        # Re-stamp the enqueue cycle: the descriptor's original stamp is
        # from before the StrongARM round trip, so reusing it would (a)
        # break per-packet event monotonicity in the trace and (b) fold
        # the whole exceptional-path excursion into the queue-wait
        # statistic instead of the actual time spent in this queue.
        descriptor = descriptor._replace(out_port=out_port, enqueue_cycle=self.sim.now)
        queue = self.bank.input_queue_for(max(0, out_port))
        ok = self.bank.enqueue(queue, descriptor)
        rec = self.recorder
        if rec.enabled:
            rec.record(self.sim.now, "chip",
                       "requeue" if ok else "requeue_drop",
                       rec.packet_id(descriptor.packet), out_port)
        if not ok:
            self.counters["queue_drops"] += 1
        return ok

    # -- measurement ------------------------------------------------------------------

    def max_queue_depth_fraction(self) -> float:
        """The fullest SRAM packet queue right now, as a fraction of its
        capacity (0.0 when every queue is empty or unbounded)."""
        worst = 0.0
        for queue in self.bank.queues:
            if queue.capacity > 0:
                worst = max(worst, len(queue) / queue.capacity)
        return worst

    def start_window(self) -> None:
        """Open a measurement window: ``window.peek()`` is every
        counter's movement from here (plus ``cycle``, the window's length
        so far), which :meth:`report` turns into rates.  No counter is
        reset, so every other reader of them stays consistent."""
        self.window = Deltas(lambda: {**self.counters, "cycle": self.sim.now,
                                      "dram_busy": self.dram.busy_cycles,
                                      "sram_busy": self.sram.busy_cycles})

    def measure(self, window: int, warmup: int = 20_000) -> Measurement:
        """Run ``warmup`` cycles, then measure rates over ``window``."""
        self.sim.schedule(warmup, self.start_window)
        self.sim.run(until=self.sim.now + warmup + window)
        return self.report()

    def report(self) -> Measurement:
        delta = self.window.peek()
        window = delta["cycle"]
        return Measurement(
            window_cycles=window,
            input_mps=delta["input_mps"],
            input_packets=delta["input_packets"],
            output_packets=delta["output_packets"],
            output_mps=delta["output_mps"],
            queue_drops=delta["queue_drops"],
            lost_buffers=delta["lost_buffers"],
            exceptional=delta["exceptional"],
            input_pps=self.params.pps(delta["input_packets"], window),
            output_pps=self.params.pps(delta["output_packets"], window),
            dram_utilization=delta["dram_busy"] / window if window > 0 else 0.0,
            sram_utilization=delta["sram_busy"] / window if window > 0 else 0.0,
        )
