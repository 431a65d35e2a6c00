"""The Pentium host: control plane and expensive forwarders.

The 733 MHz Pentium III sits across a 32-bit/33 MHz PCI bus.  Because the
I2O silicon was broken, transfers are programmed I/O: moving bytes costs
Pentium cycles at PCI speed -- this single fact reproduces all of Table 4
(534 Kpps at 64 bytes with ~500 spare cycles; 43.6 Kpps at 1500 bytes
with the bus saturated).

Forwarders run under a proportional-share (stride) scheduler; each
registered flow reserves a share of the processor (section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional

from repro.engine import Delay, Simulator, delay
from repro.hosts.pci import I2OMessage, I2OQueuePair, PCIBus
from repro.hosts.scheduling import StrideScheduler
from repro.ixp.params import CLOCK_HZ
from repro.obs.metrics import Deltas
from repro.obs.recorder import NULL_RECORDER


@dataclass(frozen=True)
class PentiumParams:
    clock_hz: float = 733e6
    # Fixed per-packet I2O bookkeeping (pointer pops/pushes, software
    # queue emulation), in Pentium cycles.
    i2o_overhead_cycles: int = 80
    idle_poll_sim_cycles: int = 60

    @property
    def ratio(self) -> float:
        """Pentium cycles per simulation (200 MHz) cycle."""
        return self.clock_hz / CLOCK_HZ

    def to_sim_cycles(self, pentium_cycles: float) -> int:
        return max(1, round(pentium_cycles / self.ratio))


class PentiumHost:
    """Consumes I2O messages, runs the bound forwarder, echoes the packet
    back to the IXP.  Time on the bus is charged to the Pentium (PIO)."""

    def __init__(
        self,
        sim: Simulator,
        rx_pair: I2OQueuePair,
        tx_pair: I2OQueuePair,
        bus: PCIBus,
        params: PentiumParams = PentiumParams(),
        scheduler: Optional[StrideScheduler] = None,
        fetch_body: bool = False,
        default_forwarder: str = "echo",
    ):
        self.sim = sim
        self.rx_pair = rx_pair
        self.tx_pair = tx_pair
        self.bus = bus
        self.params = params
        self.scheduler = scheduler
        self.fetch_body = fetch_body
        self.default_forwarder = default_forwarder
        # Jump table of control-plane forwarders: name -> (cycles, fn).
        self.jump_table: Dict[str, tuple] = {"echo": (0, None)}
        self.recorder = NULL_RECORDER
        self.busy_pentium_cycles = 0.0
        self.processed = 0
        self.returned = 0
        self.crashed = False
        self.crashes = 0
        self.restarts = 0
        #: True while a received message is being handled.
        self.holding = False
        self.start_window()
        self._proc = sim.spawn(self._run(), name="pentium")

    # -- crash / restart ---------------------------------------------------------

    def crash(self) -> None:
        """Host OS down: the poll loop idles from its next iteration.
        Messages already in the I2O queues stay queued (Pentium-memory
        buffers survive a reboot) and drain after :meth:`restart`."""
        self.crashed = True
        self.crashes += 1

    def restart(self) -> None:
        self.crashed = False
        self.restarts += 1

    # -- configuration ----------------------------------------------------------

    def register(self, name: str, cycles: int, action: Optional[Callable] = None, tickets: Optional[int] = None) -> None:
        """Install a control-plane forwarder; with a scheduler present the
        flow gets a proportional share."""
        self.jump_table[name] = (cycles, action)
        if self.scheduler is not None and name not in self.scheduler.flows():
            self.scheduler.add_flow(name, tickets)

    # -- measurement ------------------------------------------------------------

    def start_window(self) -> None:
        """Open a measurement window: ``window.peek()`` is the busy
        Pentium cycles and processed packets since."""
        self.window = Deltas(lambda: {"busy": self.busy_pentium_cycles,
                                      "processed": self.processed})

    def spare_cycles_per_packet(self, window_sim_cycles: int) -> Optional[float]:
        """The paper's delay-loop measurement: unused Pentium cycles per
        processed packet over the window.  ``None`` when no packets were
        processed -- the quantity is undefined, and the old
        ``float("inf")`` sentinel leaked ``Infinity`` (invalid JSON) into
        exported reports."""
        moved = self.window.peek()
        packets = moved["processed"]
        if packets == 0:
            return None
        total = window_sim_cycles * self.params.ratio
        return max(0.0, (total - moved["busy"]) / packets)

    # -- execution ----------------------------------------------------------------

    def _busy_pcycles(self, pentium_cycles: float) -> Generator:
        self.busy_pentium_cycles += pentium_cycles
        rec = self.recorder
        if rec.enabled:
            rec.account("pentium", "busy", pentium_cycles / self.params.ratio)
        yield Delay(self.params.to_sim_cycles(pentium_cycles))

    def _pio(self, num_bytes: int) -> Generator:
        """Programmed I/O: the bus transfer also occupies the Pentium."""
        before = self.bus.busy_cycles
        yield from self.bus.transfer(num_bytes)
        self.busy_pentium_cycles += (self.bus.busy_cycles - before) * self.params.ratio

    def _run(self) -> Generator:
        idle_poll = delay(self.params.idle_poll_sim_cycles)
        while True:
            if self.crashed:
                yield idle_poll
                continue
            message = self.rx_pair.try_receive()
            if message is None:
                yield idle_poll
                continue
            self.holding = True
            yield from self._handle(message)
            self.holding = False

    def idle(self) -> bool:
        """No message held or queued for the forwarders."""
        return not self.holding and not (self.scheduler is not None and self.scheduler.backlog)

    def _handle(self, message: I2OMessage) -> Generator:
        # Pull the eager bytes (64B + 8B header) across the bus.
        yield from self._pio(message.eager_bytes)
        yield from self._busy_pcycles(self.params.i2o_overhead_cycles)
        rec = self.recorder
        if rec.enabled:
            rec.record(self.sim.now, "pentium", "pentium_in",
                       rec.packet_id(message.packet), message.body_bytes)

        name = self.default_forwarder
        if message.flow_metadata:
            name = message.flow_metadata.get("pentium_forwarder", name)
        cycles, action = self.jump_table.get(name, self.jump_table["echo"])

        if self.scheduler is not None:
            self.scheduler.enqueue(name, message)
            selected = self.scheduler.select()
            if selected is None:
                return
            name, message = selected
            cycles, action = self.jump_table.get(name, self.jump_table["echo"])

        if self.fetch_body and message.body_bytes:
            # Lazy body fetch (section 3.7): only if the forwarder needs it.
            yield from self._pio(message.body_bytes)

        if cycles:
            yield from self._busy_pcycles(cycles)
        keep = True
        if action is not None and message.packet is not None:
            keep = action(message.packet) is not False
        if self.scheduler is not None:
            self.scheduler.charge(name, self.params.i2o_overhead_cycles + cycles)
        self.processed += 1
        if rec.enabled:
            rec.record(self.sim.now, "pentium", "pentium_done",
                       rec.packet_id(message.packet), name)
        if not keep:
            return

        # Write the (possibly modified) packet back to the IXP.
        yield from self._pio(message.eager_bytes + (message.body_bytes if self.fetch_body else 0))
        if self.tx_pair.try_send(message):
            self.returned += 1
