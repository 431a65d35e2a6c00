"""The pure PC-based router baseline.

The paper's headline comparison: the Pentium/IXP hierarchy forwards
minimum-sized packets "nearly an order of magnitude faster than existing
pure PC-based routers".  This model captures the structural reason: on a
pure PC every packet crosses the I/O bus into main memory and is handled
entirely by the single control processor (interrupt or polled NIC driver
plus IP stack), so the forwarding rate is processor- and bus-bound in the
hundreds of Kpps -- consistent with published Click/PC-router numbers of
the era [13, 19].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Optional

from repro.engine import Delay, Simulator
from repro.hosts.pci import PCIBus
from repro.ixp.params import CLOCK_HZ
from repro.net.packet import Packet
from repro.net.routing import RoutingTable


@dataclass(frozen=True)
class PCParams:
    """A well-tuned 733 MHz PC router (polled driver, no per-packet
    interrupt storm), after [13, 19]."""

    clock_hz: float = 733e6
    driver_cycles: int = 900       # NIC ring + buffer management
    ip_forward_cycles: int = 660   # the paper's measured full-IP cost
    copy_cycles_per_byte: float = 1.2  # header touch + cache misses per byte

    @property
    def ratio(self) -> float:
        return self.clock_hz / CLOCK_HZ

    def per_packet_cycles(self, frame_len: int) -> float:
        return self.driver_cycles + self.ip_forward_cycles + self.copy_cycles_per_byte * frame_len


class PurePCRouter:
    """All-on-the-Pentium forwarding: the baseline for the headline
    comparison benchmark."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        params: PCParams = PCParams(),
        routing_table: Optional[RoutingTable] = None,
    ):
        self.sim = sim or Simulator()
        self.params = params
        self.routing_table = routing_table
        self.bus = PCIBus(self.sim)
        self.forwarded = 0
        self.dropped = 0
        self.busy_pentium_cycles = 0.0

    def max_rate_pps(self, frame_len: int = 64) -> float:
        """Analytic ceiling: min(processor rate, bus rate).  Packets cross
        the bus twice (NIC -> memory -> NIC)."""
        cpu_rate = self.params.clock_hz / self.params.per_packet_cycles(frame_len)
        bus_rate = (32 * 33e6) / (2 * frame_len * 8)
        return min(cpu_rate, bus_rate)

    def forward_stream(self, packets: Iterable[Packet]) -> Generator:
        """Simulated forwarding of a packet stream at full tilt."""
        from repro.hosts.pci import pci_transfer_cycles

        for packet in packets:
            frame_len = packet.frame_len
            # The NIC DMA overlaps processor work, so a pipelined stream
            # is paced by whichever is slower: two bus crossings or the
            # per-packet processor cost.
            bus_cycles = 2 * pci_transfer_cycles(frame_len)
            self.bus.bytes_moved += 2 * frame_len
            self.bus.busy_cycles += bus_cycles
            cycles = self.params.per_packet_cycles(frame_len)
            self.busy_pentium_cycles += cycles
            cpu_sim = max(1, round(cycles / self.params.ratio))
            yield Delay(max(bus_cycles, cpu_sim))
            if self.routing_table is not None:
                route = self.routing_table.lookup(packet.ip.dst)
                if route is None:
                    self.dropped += 1
                    continue
                packet.meta["out_port"] = route.out_port
            self.forwarded += 1

    def measure_rate(self, packets: Iterable[Packet]) -> float:
        """Forwarding rate in packets/second for the given stream."""
        start_cycle = self.sim.now
        proc = self.sim.spawn(self.forward_stream(packets), name="pc-router")
        self.sim.run()
        elapsed = self.sim.now - start_cycle
        if elapsed <= 0:
            return 0.0
        return self.forwarded * CLOCK_HZ / elapsed
