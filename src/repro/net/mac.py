"""MAC port model: the ten Ethernet ports on the IXP1200 evaluation board.

Each port paces arriving frames at its line speed, segments them into MPs
and holds them in a small device buffer that the MicroEngine input loop
must drain "at a rate that keeps pace with each port's line speed".
A full device buffer drops packets -- the failure the paper's line-speed
requirement exists to prevent.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional, Tuple

from repro.engine import Delay, Simulator
from repro.faults.injector import NULL_INJECTOR, RX_DROP, RX_DUPLICATE
from repro.ixp.params import CLOCK_HZ
from repro.net.ethernet import wire_bits
from repro.net.mp import MacPacket, reassemble_mps, segment_packet
from repro.net.packet import Packet


class PortSpeed(enum.Enum):
    """Line speeds available on the evaluation board."""

    MBPS_100 = 100_000_000
    GBPS_1 = 1_000_000_000

    @property
    def bps(self) -> int:
        return self.value


# The board: 8 x 100 Mbps + 2 x 1 Gbps (paper section 2.2).
EVALUATION_BOARD_PORTS: Tuple[PortSpeed, ...] = (PortSpeed.MBPS_100,) * 8 + (PortSpeed.GBPS_1,) * 2


class MACPort:
    """One Ethernet port with receive pacing and a bounded device buffer."""

    #: Fault-injection hook (link flaps, wire corruption, drop,
    #: duplication).  The class-level null object costs one attribute
    #: check per delivered frame when injection is off.
    injector = NULL_INJECTOR

    def __init__(
        self,
        sim: Simulator,
        port_id: int,
        speed: PortSpeed = PortSpeed.MBPS_100,
        rx_buffer_mps: int = 32,
    ):
        self.sim = sim
        self.port_id = port_id
        self.speed = speed
        self.rx_buffer_mps = rx_buffer_mps
        self.rx_buffer: Deque[MacPacket] = deque()
        self.tx_partial: List[MacPacket] = []
        self.transmitted: List[Packet] = []
        # Counters.
        self.rx_packets = 0
        self.rx_mps = 0
        self.rx_dropped_packets = 0
        self.rx_fault_dropped = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        #: The chip polling this port (set when it can park its idle
        #: input loop): told about frames in advance and on delivery.
        self.wake_listener = None
        self._tx_wire_free_at = 0
        self._source_proc = None
        # Called with (packet, frame_bytes) for every transmitted frame
        # (the topology's links put frames on the wire this way).
        self.tx_listeners = []

    # -- receive side -------------------------------------------------------

    def frame_cycles(self, frame_len: int) -> int:
        """Cycles a frame of ``frame_len`` bytes occupies the wire."""
        seconds = wire_bits(frame_len) / self.speed.bps
        return max(1, round(seconds * CLOCK_HZ))

    def attach_source(self, packets: Iterable[Packet]) -> None:
        """Start a process that delivers ``packets`` at line speed."""
        self._source_proc = self.sim.spawn(self._rx_process(iter(packets)), name=f"rx-port{self.port_id}")

    def _rx_process(self, packets: Iterator[Packet]) -> Iterator:
        for packet in packets:
            frame = packet.to_bytes()
            cycles = self.frame_cycles(len(frame) + 4)  # +FCS on the wire
            self.announce(self.sim.now + cycles)
            yield Delay(cycles)
            packet.arrival_port = self.port_id
            self.deliver(packet, frame)

    def announce(self, at: int) -> None:
        """A frame will be delivered to this port at cycle ``at``: lets a
        parked input stage resume in time.  Every delivery scheduled in
        advance must announce it (a spurious announcement is harmless)."""
        if self.wake_listener is not None:
            self.wake_listener.announce(at)

    def deliver(self, packet: Packet, frame: Optional[bytes] = None) -> bool:
        """Immediate delivery of one frame (bypasses pacing).  Returns False
        if the device buffer overflowed and the packet was dropped."""
        duplicate = None
        inj = self.injector
        if inj.enabled:
            verdict = inj.on_rx(self, packet)
            if verdict:
                if verdict == RX_DROP:
                    # Lost on the wire or behind a downed link: the frame
                    # never reaches the device buffer.
                    self.rx_fault_dropped += 1
                    return False
                if verdict == RX_DUPLICATE:
                    duplicate = packet.copy()
                    duplicate.meta["fault_duplicate"] = True
                # RX_CORRUPT: the injector mutated the header in place;
                # the frame arrives and must fail validation downstream.
        mps = segment_packet(packet, frame, port=self.port_id)
        if len(self.rx_buffer) + len(mps) > self.rx_buffer_mps:
            self.rx_dropped_packets += 1
            return False
        self.rx_buffer.extend(mps)
        self.rx_packets += 1
        self.rx_mps += len(mps)
        if self.wake_listener is not None:
            self.wake_listener.rx_delivered()
        if duplicate is not None:
            self.deliver(duplicate, frame)
        return True

    def port_rdy(self) -> bool:
        """The input loop's readiness test (Fig. 5 line 2)."""
        return bool(self.rx_buffer)

    def take_mp(self) -> MacPacket:
        """Remove the next MP from the device buffer (the DMA's read)."""
        return self.rx_buffer.popleft()

    # -- transmit side -------------------------------------------------------

    def tx_ready(self, now: int) -> bool:
        """Whether the wire can accept another frame: the MAC drains its
        transmit slots at line speed, so the output stage must pace
        itself to each port ("fill the output slot at a rate that keeps
        pace with each port's line speed")."""
        return self._tx_wire_free_at <= now

    def put_mp(self, mp: MacPacket) -> None:
        """Accept an MP from the output FIFO DMA; reassembles frames and
        records completed packets.  Completing a frame occupies the wire
        for its line-rate serialization time."""
        self.tx_partial.append(mp)
        if mp.position.ends_packet:
            frame = reassemble_mps(self.tx_partial)
            self.tx_partial = []
            self.tx_packets += 1
            self.tx_bytes += len(frame)
            now = self.sim.now
            self._tx_wire_free_at = max(self._tx_wire_free_at, now) + self.frame_cycles(
                len(frame) + 4
            )
            if mp.packet is not None:
                self.transmitted.append(mp.packet)
            for listener in self.tx_listeners:
                listener(mp.packet, frame)

    def __repr__(self) -> str:
        return f"<MACPort {self.port_id} {self.speed.name}>"


def make_board_ports(sim: Simulator) -> List[MACPort]:
    """The evaluation-board port set (8 x 100 Mbps + 2 x 1 Gbps)."""
    return [MACPort(sim, i, speed) for i, speed in enumerate(EVALUATION_BOARD_PORTS)]
