"""Deterministic, seeded fault injection across the processor hierarchy.

The subsystem mirrors :mod:`repro.obs.recorder`'s null-object pattern:
every hook site (MAC ports, I2O queue pairs) holds :data:`NULL_INJECTOR`
by default and guards each call with a single ``injector.enabled``
attribute check, so a run with injection disabled processes the exact
event stream of a build without the subsystem at all
(``benchmarks/bench_fault_overhead.py`` enforces this).

Faults are scheduled, never interactive: every schedule method either
arms a rate plan consulted from the hot-path hook or spawns a simulation
process that waits for its trigger cycle with plain delays.  All
randomness flows through one ``random.Random(seed)``, and the simulator
itself is deterministic, so a campaign with a fixed seed produces a
byte-identical incident log and an identical fault schedule every run;
different seeds jitter the trigger times and per-packet draws.

Crashes and stalls are modelled without ever interrupting a process
mid-flight: hosts check a ``crashed`` flag at their dispatch loop top,
and engine/memory/bus stalls *seize the contended Resource* (the
MicroEngine core, the memory channel, the PCI lock) for the stall
duration.  Interrupting a generator that holds one of those resources
would leak it and wedge the simulation -- exactly the failure mode this
subsystem exists to prove the router avoids.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.engine import Delay, Simulator

# ``on_rx`` verdicts.  OK is falsy so the common path is one comparison.
RX_OK = 0
RX_DROP = 1
RX_CORRUPT = 2
RX_DUPLICATE = 3


class NullInjector:
    """Stands in at every hook site while fault injection is off.

    Mirrors :class:`FaultInjector`'s full public surface as no-ops --
    hot-path hooks (``on_rx``/``on_i2o_send``) return the neutral
    verdict, scheduling and bookkeeping methods accept every call the
    live class accepts and do nothing -- so code written against an
    injector never needs an ``is not None`` dance and a disabled run
    cannot crash with ``AttributeError``.  ``repro lint`` enforces the
    parity statically (rules RPR201/RPR204)."""

    __slots__ = ()

    enabled = False

    # -- hot-path hooks (guarded by ``enabled`` at every call site) ------------

    def on_rx(self, port, packet) -> int:
        return RX_OK

    def on_control(self, link, direction, kind) -> int:
        return RX_OK

    def on_i2o_send(self, pair) -> bool:
        return False

    # -- bookkeeping no-ops ----------------------------------------------------

    def count(self, kind: str, n: int = 1) -> None:
        pass

    def record(self, kind: str, detail: str, severity: str = "yellow") -> Dict[str, Any]:
        return {}

    def snapshot(self) -> Dict[str, Any]:
        return {"seed": None, "active": 0, "incidents": 0, "counts": {}}

    # -- attachment / scheduling no-ops ----------------------------------------

    def attach_router(self, router, label: Optional[str] = None) -> "NullInjector":
        return self

    def schedule_link_flap(self, port, at: int, down_cycles: int) -> None:
        pass

    def schedule_packet_faults(self, port, start: int, stop: int,
                               drop: float = 0.0, corrupt: float = 0.0,
                               duplicate: float = 0.0) -> None:
        pass

    def schedule_control_faults(self, link, start: int, stop: int,
                                drop: float = 0.0, corrupt: float = 0.0,
                                direction: Optional[int] = None,
                                kinds: Optional[tuple] = None) -> None:
        pass

    def schedule_memory_spike(self, memory, at: int, hold_cycles: int,
                              label: str = "memory") -> None:
        pass

    def schedule_engine_stall(self, engine, at: int, hold_cycles: int,
                              kind: str = "me-stall") -> None:
        pass

    def schedule_engine_crash(self, engine, at: int, reboot_cycles: int) -> None:
        pass

    def schedule_pci_stall(self, bus, at: int, hold_cycles: int) -> None:
        pass

    def schedule_i2o_loss(self, pair, start: int, stop: int, rate: float) -> None:
        pass

    def schedule_host_crash(self, host, at: int,
                            restart_after: Optional[int] = None,
                            label: str = "host") -> None:
        pass


#: The module-level null injector every hook site points at by default.
NULL_INJECTOR = NullInjector()


class _PortPlan:
    """Per-port packet-fault rates, active inside a cycle window."""

    __slots__ = ("start", "stop", "drop", "corrupt", "duplicate")

    def __init__(self, start: int, stop: int, drop: float, corrupt: float,
                 duplicate: float):
        self.start = start
        self.stop = stop
        self.drop = drop
        self.corrupt = corrupt
        self.duplicate = duplicate


class _CtrlPlan:
    """Per-link control-frame fault rates, active inside a cycle window.

    ``direction`` narrows the plan to frames leaving one link end (None
    = both); ``kinds`` narrows it to frame kinds (None = all) -- a
    "gray link" is ``kinds=("hello",), drop=1.0``: data and LSAs flow,
    liveness starves."""

    __slots__ = ("start", "stop", "drop", "corrupt", "direction", "kinds")

    def __init__(self, start: int, stop: int, drop: float, corrupt: float,
                 direction: Optional[int], kinds: Optional[tuple]):
        self.start = start
        self.stop = stop
        self.drop = drop
        self.corrupt = corrupt
        self.direction = direction
        self.kinds = None if kinds is None else frozenset(kinds)


class FaultInjector:
    """Seeded fault scheduler plus the runtime hooks components consult.

    Attach with :meth:`attach_router` (or set ``injector`` on individual
    ports / queue pairs for chip-only experiments), then arm faults with
    the ``schedule_*`` methods before running the simulation.
    """

    enabled = True

    def __init__(self, sim: Simulator, seed: int = 0):
        self.sim = sim
        self.seed = seed
        self.rng = random.Random(seed)
        #: Structured incident log: dicts of ints/strings only, appended
        #: in simulation order -- serializing it is byte-identical per seed.
        self.log: List[Dict[str, Any]] = []
        #: Fault occurrence counters by kind (per-packet events are
        #: counted, not logged, to keep the log bounded).
        self.counts: Dict[str, int] = {}
        #: Faults currently holding something down (link, resource, host).
        self.active = 0

        # Keyed by the port *object*, never by ``port_id``: port ids
        # restart at zero on every router, so an id-keyed plan on one
        # node would silently fault the same-numbered port of every
        # other node sharing this injector (multi-router topologies
        # attach one injector across all nodes for a merged log).
        self._links_down: set = set()           # MACPort objects flapped down
        self._port_plans: Dict[Any, _PortPlan] = {}
        # Keyed by the InterRouterLink object; a list so several windows
        # (e.g. two chaos loss bursts) can coexist on one link -- the
        # first plan whose window/direction/kind matches applies.
        self._ctrl_plans: Dict[Any, List[_CtrlPlan]] = {}
        self._i2o_plans: Dict[Any, tuple] = {}  # pair -> (start, stop, rate)

    # -- bookkeeping -----------------------------------------------------------

    def count(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    def record(self, kind: str, detail: str, severity: str = "yellow") -> Dict[str, Any]:
        """Append one incident; also counts ``kind``."""
        self.count(kind)
        incident = {"cycle": self.sim.now, "kind": kind,
                    "severity": severity, "detail": detail}
        self.log.append(incident)
        return incident

    def snapshot(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "active": self.active,
            "incidents": len(self.log),
            "counts": dict(sorted(self.counts.items())),
        }

    # -- attachment ------------------------------------------------------------

    def attach_router(self, router, label: Optional[str] = None) -> "FaultInjector":
        """Point every hook in ``router``'s hierarchy at this injector.
        ``label`` names the router in incident details (set it when one
        injector spans several nodes, so "port 0" is unambiguous)."""
        router.injector = self
        for port in router.ports:
            port.injector = self
            if label is not None:
                port.label = f"{label}.port{port.port_id}"
        router.to_pentium.injector = self
        router.from_pentium.injector = self
        return self

    @staticmethod
    def _port_name(port) -> str:
        return getattr(port, "label", None) or f"port {port.port_id}"

    # -- MAC layer: link flaps, corruption, drop, duplication --------------------

    def schedule_link_flap(self, port, at: int, down_cycles: int) -> None:
        """Take ``port``'s link down at cycle ``at`` for ``down_cycles``;
        frames arriving while down are lost (counted as ``link-drop``)."""

        def flap():
            yield Delay(max(1, at - self.sim.now))
            self._links_down.add(port)
            self.active += 1
            self.record("link-down",
                        f"{self._port_name(port)} link down for {down_cycles} cycles")
            yield Delay(max(1, down_cycles))
            self._links_down.discard(port)
            self.active -= 1
            self.record("link-up", f"{self._port_name(port)} link restored",
                        severity="green")

        self.sim.spawn(flap(), name=f"fault-linkflap-p{port.port_id}")

    def schedule_packet_faults(self, port, start: int, stop: int,
                               drop: float = 0.0, corrupt: float = 0.0,
                               duplicate: float = 0.0) -> None:
        """Arm per-packet fault rates on ``port`` for cycles
        ``[start, stop)``.  Each delivered frame rolls the seeded RNG
        once; outcomes are counted as ``mac-drop`` / ``mac-corrupt`` /
        ``mac-duplicate``."""
        if min(drop, corrupt, duplicate) < 0 or drop + corrupt + duplicate > 1.0:
            raise ValueError("fault rates must be >= 0 and sum to <= 1")
        self._port_plans[port] = _PortPlan(start, stop, drop, corrupt,
                                           duplicate)
        self.record(
            "packet-faults-armed",
            f"{self._port_name(port)} cycles [{start},{stop}): drop={drop} "
            f"corrupt={corrupt} duplicate={duplicate}",
            severity="green",
        )

    def on_rx(self, port, packet) -> int:
        """MACPort.deliver hook: what happens to this arriving frame."""
        if port in self._links_down:
            self.count("link-drop")
            return RX_DROP
        plan = self._port_plans.get(port)
        if plan is None:
            return RX_OK
        if packet.meta.get("fault_duplicate"):
            return RX_OK  # one fault per original frame; no dup chains
        now = self.sim.now
        if not plan.start <= now < plan.stop:
            return RX_OK
        roll = self.rng.random()
        if roll < plan.drop:
            self.count("mac-drop")
            return RX_DROP
        roll -= plan.drop
        if roll < plan.corrupt:
            self._corrupt(packet)
            return RX_CORRUPT
        roll -= plan.corrupt
        if roll < plan.duplicate:
            self.count("mac-duplicate")
            return RX_DUPLICATE
        return RX_OK

    def _corrupt(self, packet) -> None:
        """Wire corruption the receiver can detect: break the IP version
        field so header validation rejects the packet (``bad-version``).
        The ``fault_corrupted`` marker lets campaigns assert the *silent*
        corruption invariant -- a corrupted packet must never appear in
        any port's transmitted list."""
        packet.ip.version = 7
        packet.meta["fault_corrupted"] = True
        self.count("mac-corrupt")

    # -- control-plane frames: loss bursts, corruption, gray links ---------------

    def schedule_control_faults(self, link, start: int, stop: int,
                                drop: float = 0.0, corrupt: float = 0.0,
                                direction: Optional[int] = None,
                                kinds: Optional[tuple] = None) -> None:
        """Arm per-frame fault rates on ``link``'s *control* path
        (hellos/LSAs/acks) for cycles ``[start, stop)``.  Each frame
        rolls the seeded RNG once; outcomes are counted as
        ``ctrl-drop`` / ``ctrl-corrupt``.  Corruption flips payload bits
        on the wire, so the receiver's checksum -- not the injector --
        decides the frame's fate."""
        if min(drop, corrupt) < 0 or drop + corrupt > 1.0:
            raise ValueError("fault rates must be >= 0 and sum to <= 1")
        self._ctrl_plans.setdefault(link, []).append(
            _CtrlPlan(start, stop, drop, corrupt, direction, kinds))
        scope = "both ways" if direction is None else f"from end {direction}"
        what = "all frames" if kinds is None else "/".join(sorted(kinds))
        self.record(
            "control-faults-armed",
            f"{link.name} cycles [{start},{stop}) {scope} ({what}): "
            f"drop={drop} corrupt={corrupt}",
            severity="green",
        )

    def on_control(self, link, direction, kind) -> int:
        """InterRouterLink.send_control hook: the verdict for this
        outbound control frame."""
        plans = self._ctrl_plans.get(link)
        if plans is None:
            return RX_OK
        now = self.sim.now
        for plan in plans:
            if not plan.start <= now < plan.stop:
                continue
            if plan.direction is not None and plan.direction != direction:
                continue
            if plan.kinds is not None and kind not in plan.kinds:
                continue
            roll = self.rng.random()
            if roll < plan.drop:
                self.count("ctrl-drop")
                return RX_DROP
            roll -= plan.drop
            if roll < plan.corrupt:
                self.count("ctrl-corrupt")
                return RX_CORRUPT
            return RX_OK
        return RX_OK

    # -- memory / engine / bus stalls -------------------------------------------

    def schedule_memory_spike(self, memory, at: int, hold_cycles: int,
                              label: str = "memory") -> None:
        """Seize a memory's contended channel at cycle ``at`` for
        ``hold_cycles``: every access (including the inlined fast-path
        reads, which acquire the same Resource) queues behind the spike."""

        def spike():
            yield Delay(max(1, at - self.sim.now))
            self.active += 1
            self.record("memory-spike",
                        f"{label} channel seized for {hold_cycles} cycles")
            yield memory.channel.acquire()
            yield Delay(max(1, hold_cycles))
            memory.channel.release()
            self.active -= 1
            self.record("memory-spike-end", f"{label} channel released",
                        severity="green")

        self.sim.spawn(spike(), name=f"fault-memspike-{label}")

    def schedule_engine_stall(self, engine, at: int, hold_cycles: int,
                              kind: str = "me-stall") -> None:
        """Seize a MicroEngine's single execution core: all four hardware
        contexts stop issuing for ``hold_cycles``.  A crashed *context*
        stalls its token-ring neighbours anyway, so engine granularity is
        the honest model for both stalls and context crashes."""
        if engine.wake_listener is not None:
            engine.wake_listener.announce(max(at, self.sim.now + 1))

        def stall():
            yield Delay(max(1, at - self.sim.now))
            self.active += 1
            self.record(kind,
                        f"me{engine.me_id} core seized for {hold_cycles} cycles")
            yield engine.core.acquire()
            yield Delay(max(1, hold_cycles))
            engine.core.release()
            self.active -= 1
            self.record(f"{kind}-end", f"me{engine.me_id} resumed",
                        severity="green")

        self.sim.spawn(stall(), name=f"fault-mestall-me{engine.me_id}")

    def schedule_engine_crash(self, engine, at: int, reboot_cycles: int) -> None:
        """A MicroEngine context crash with microcode reload: the engine
        is out of service for ``reboot_cycles``, then resumes."""
        self.schedule_engine_stall(engine, at, reboot_cycles, kind="me-crash")

    def schedule_pci_stall(self, bus, at: int, hold_cycles: int) -> None:
        """Hold the PCI bus lock: transfers (and therefore the Pentium's
        programmed I/O) queue behind a wedged bus master."""

        def stall():
            yield Delay(max(1, at - self.sim.now))
            self.active += 1
            self.record("pci-stall", f"bus locked for {hold_cycles} cycles")
            yield bus.lock.acquire()
            yield Delay(max(1, hold_cycles))
            bus.lock.release()
            self.active -= 1
            self.record("pci-stall-end", "bus released", severity="green")

        self.sim.spawn(stall(), name="fault-pcistall")

    # -- I2O message loss --------------------------------------------------------

    def schedule_i2o_loss(self, pair, start: int, stop: int, rate: float) -> None:
        """Arm message loss on an I2O queue pair for cycles
        ``[start, stop)``: each send rolls the RNG and vanishes with
        probability ``rate``.  The pair counts every loss in
        ``messages_lost`` -- campaigns assert the loss is accounted, not
        silent."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate {rate} outside [0, 1]")
        self._i2o_plans[pair] = (start, stop, rate)
        self.record("i2o-loss-armed",
                    f"pair {pair.name!r} cycles [{start},{stop}): rate={rate}",
                    severity="green")

    def on_i2o_send(self, pair) -> bool:
        """I2OQueuePair.try_send hook: True = this message is lost."""
        plan = self._i2o_plans.get(pair)
        if plan is None:
            return False
        start, stop, rate = plan
        if not start <= self.sim.now < stop:
            return False
        if self.rng.random() < rate:
            self.count("i2o-loss")
            return True
        return False

    # -- host crash-with-restart -------------------------------------------------

    def schedule_host_crash(self, host, at: int,
                            restart_after: Optional[int] = None,
                            label: str = "host") -> None:
        """Crash a host (StrongARM / Pentium) at cycle ``at``; with
        ``restart_after`` it reboots that many cycles later.  The crash
        is flag-based: the host's dispatch loop idles from its next
        iteration, in-flight bus transactions complete, and queued I2O
        messages survive the reboot (delayed, not lost)."""

        def crash():
            yield Delay(max(1, at - self.sim.now))
            host.crash()
            self.active += 1
            self.record(f"{label}-crash", f"{label} crashed", severity="red")
            if restart_after is not None:
                yield Delay(max(1, restart_after))
                host.restart()
                self.active -= 1
                self.record(f"{label}-restart",
                            f"{label} restarted after {restart_after} cycles",
                            severity="green")

        self.sim.spawn(crash(), name=f"fault-crash-{label}")
