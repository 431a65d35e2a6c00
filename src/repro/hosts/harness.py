"""Measurement harness for the upper hierarchy levels (Table 4, paths B/C).

The paper's methodology: "We measured the maximum rate that the Pentium
can process packets by having it run a loop that reads packets of various
sizes from the IXP1200, and then writes the packet back ...  The
StrongARM is programmed to feed packets to the Pentium as fast as
possible.  We also inserted a delay loop on both sides to determine the
number of spare cycles available."
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.engine import Delay
from repro.hosts.pci import I2OQueuePair, PCIBus
from repro.hosts.pentium import PentiumHost
from repro.hosts.strongarm import StrongARM
from repro.ixp.buffers import BufferHandle
from repro.ixp.chip import ChipConfig, IXP1200
from repro.ixp.params import CLOCK_HZ
from repro.ixp.queues import PacketDescriptor
from repro.net.packet import make_tcp_packet
from repro.obs.metrics import Deltas


class PathMeasurement(NamedTuple):
    """One row of Table 4 (or the StrongARM path of section 3.6)."""

    packet_bytes: int
    rate_pps: float
    pentium_spare_cycles: Optional[float]  # None: no packets in the window
    strongarm_spare_cycles: float


def _bare_chip() -> IXP1200:
    """A chip with no MicroEngine loops: only the memories, queues and
    counters the StrongARM needs."""
    return IXP1200(ChipConfig(input_contexts=0, output_contexts=0))


def _make_packet(packet_bytes: int):
    payload = max(0, packet_bytes - 58)  # eth 14 + ip 20 + tcp 20 + fcs 4
    return make_tcp_packet(
        "192.168.1.1", "10.1.0.1", payload=b"\x00" * payload,
    )


def _feeder(chip, queue, packet_bytes: int, target: str, extra_meta: dict = None):
    """Keep the StrongARM's inbound queue topped up ('as fast as
    possible')."""
    while True:
        while len(queue) < queue.capacity:
            packet = _make_packet(packet_bytes)
            packet.meta["sa_target"] = target
            packet.meta["out_port"] = 1
            if extra_meta:
                packet.meta.update(extra_meta)
            descriptor = PacketDescriptor(
                handle=BufferHandle(0, 0),
                packet=packet,
                mp_count=max(1, packet.frame_len // 64),
                out_port=1,
                enqueue_cycle=chip.sim.now,
            )
            queue.enqueue(descriptor)
        chip.sa_signal.fire()
        yield Delay(200)


def measure_pentium_path(
    packet_bytes: int = 64,
    window: int = 600_000,
    warmup: int = 50_000,
    fetch_body: bool = True,
) -> PathMeasurement:
    """Path C: MicroEngines -> StrongARM -> PCI -> Pentium -> back.

    Expected from Table 4: ~534 Kpps at 64 bytes (≈500 spare Pentium
    cycles, StrongARM saturated); ~43.6 Kpps at 1500 bytes (bus-bound,
    ≈4200 spare StrongARM cycles).
    """
    chip = _bare_chip()
    sim = chip.sim
    bus = PCIBus(sim)
    to_pentium = I2OQueuePair(name="ixp->pentium")
    from_pentium = I2OQueuePair(name="pentium->ixp")
    sa = StrongARM(chip, pentium_pair=to_pentium)
    pentium = PentiumHost(
        sim, rx_pair=to_pentium, tx_pair=from_pentium, bus=bus,
        fetch_body=fetch_body and packet_bytes > 64,
    )
    sim.spawn(_feeder(chip, chip.sa_pentium_queue, packet_bytes, "pentium"), name="feeder")

    bridge = Deltas(lambda: {"busy": sa.busy_cycles, "bridged": sa.bridged})

    def open_window():
        pentium.start_window()
        bridge()  # this reading is the StrongARM's window baseline

    sim.schedule(warmup, open_window)
    sim.run(until=warmup + window)

    packets = pentium.window.peek()["processed"]
    rate = packets * CLOCK_HZ / window
    sa_moved = bridge.peek()
    sa_packets = max(1, sa_moved["bridged"])
    sa_spare = max(0.0, (window - sa_moved["busy"]) / sa_packets)
    return PathMeasurement(
        packet_bytes=packet_bytes,
        rate_pps=rate,
        pentium_spare_cycles=pentium.spare_cycles_per_packet(window),
        strongarm_spare_cycles=sa_spare,
    )


def measure_strongarm_path(
    mode: str = "polling",
    forwarder_cycles: int = 0,
    window: int = 400_000,
    warmup: int = 40_000,
) -> float:
    """Path B: null (or costed) local forwarder rate on the StrongARM.

    Expected from section 3.6: ~526 Kpps with polling, substantially less
    with interrupts, zero spare cycles at that rate.
    """
    chip = _bare_chip()
    sim = chip.sim
    sa = StrongARM(chip, mode=mode)
    extra_meta = None
    if forwarder_cycles:
        from repro.hosts.strongarm import LocalForwarder

        sa.register_local(LocalForwarder("costed", forwarder_cycles))
        extra_meta = {"sa_forwarder": "costed"}
    sim.spawn(
        _feeder(chip, chip.sa_local_queue, 64, "local", extra_meta), name="feeder"
    )

    handled = Deltas(lambda: {"packets": sa.local_processed})
    sim.schedule(warmup, handled)  # the window opens: a new baseline
    sim.run(until=warmup + window)
    return handled.peek()["packets"] * CLOCK_HZ / window
