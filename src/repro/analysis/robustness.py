"""The section 4.7 robustness experiments, run on the whole stack.

Experiment 1: the MicroEngines run "a synthetic suite of forwarders based
on the examples given in Section 4.4" that uses the full VRP budget, and
a variable share of a 1.128 Mpps offered load is routed through the
Pentium.  The paper found the system forwards up to 310 Kpps through the
Pentium without dropping a packet anywhere, each receiving 1510 cycles of
service.

Experiment 2: no VRP, an increasing fraction of packets is treated as
exceptional (a simulated control-packet flood).  The fast path keeps
forwarding at its full rate; only once the StrongARM saturates do the
exceptional packets themselves start to drop -- and even then the fast
path is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.forwarders import table5_specs
from repro.core.vrp import VRPProgram
from repro.engine import Delay
from repro.hosts.pci import I2OQueuePair, PCIBus
from repro.hosts.pentium import PentiumHost
from repro.hosts.strongarm import StrongARM
from repro.ixp.chip import ChipConfig, IXP1200
from repro.ixp.programs import TimedVRP

LINE_RATE_PPS = 1.128e6      # 8 x 100 Mbps of minimum-sized packets
PENTIUM_SERVICE_CYCLES = 1510  # per-packet service in the paper's run


def full_suite_vrp() -> TimedVRP:
    """The six Table 5 forwarders composed serially: the 'synthetic suite
    ... utilizes the full VRP budget'."""
    programs = [spec.program for spec in table5_specs()]
    combined = VRPProgram.concat("table5-suite", programs)
    return combined.to_timed()


@dataclass
class RobustnessResult:
    offered_pps: float
    forwarded_pps: float
    pentium_share_pps: float
    pentium_processed_pps: float
    dropped_total: int
    sa_queue_drops: int
    fast_path_drops: int
    # None when no Pentium took part (or it processed nothing): the
    # quantity is undefined, and None survives JSON export where a
    # nan/inf sentinel would not.
    pentium_spare_cycles: Optional[float]
    sa_queue_fill: float = 0.0  # end-of-run occupancy / capacity

    @property
    def lossless(self) -> bool:
        """No drops anywhere, and no queue quietly filling toward one (a
        short window must not mask an unsustainable configuration)."""
        return self.dropped_total == 0 and self.sa_queue_fill < 0.5


def _attach_hosts(chip: IXP1200, pentium_cycles: int):
    bus = PCIBus(chip.sim)
    to_pentium = I2OQueuePair(depth=128, name="up")
    from_pentium = I2OQueuePair(depth=128, name="down")
    sa = StrongARM(chip, pentium_pair=to_pentium)
    pentium = PentiumHost(
        chip.sim, rx_pair=to_pentium, tx_pair=from_pentium, bus=bus,
        default_forwarder="suite",
    )
    pentium.register("suite", pentium_cycles)

    def return_loop():
        while True:
            message = from_pentium.try_receive()
            if message is None:
                yield Delay(120)
                continue
            descriptor = message.flow_metadata.get("_descriptor")
            if descriptor is not None:
                chip.requeue_from_sa(descriptor)

    chip.sim.spawn(return_loop(), name="return-loop")
    return sa, pentium


def run_vrp_pentium_share(
    share_every: int,
    window: int = 500_000,
    warmup: int = 60_000,
    offered_pps: float = LINE_RATE_PPS,
    pentium_cycles: int = PENTIUM_SERVICE_CYCLES,
) -> RobustnessResult:
    """Experiment 1: every ``share_every``-th packet of the offered load
    climbs to the Pentium; everything else takes the fast path under the
    full VRP suite."""
    if share_every < 2:
        raise ValueError("share_every must be >= 2 (some packets must stay below)")
    chip = IXP1200(ChipConfig(
        synthetic_rate_pps=offered_pps,
        synthetic_exceptional_every=share_every,
        synthetic_exceptional_target="pentium",
        vrp=full_suite_vrp(),
        queue_capacity=512,
    ))
    sa, pentium = _attach_hosts(chip, pentium_cycles)

    def open_window():
        chip.start_window()
        pentium.start_window()

    chip.sim.schedule(warmup, open_window)
    chip.sim.run(until=warmup + window)
    m = chip.report()
    pentium_packets = pentium.window.peek()["processed"]
    sa_drops = chip.window.peek()["sa_drops"]
    # A sustained source backlog means the router fell behind the offered
    # line rate: those packets would be tail-dropped at the ports.  A
    # small in-flight allowance (two packets per context) is not loss.
    backlog = max(0, chip.source.backlog(chip.sim.now) - 2 * len(chip.input_contexts))
    return RobustnessResult(
        offered_pps=offered_pps,
        forwarded_pps=m.output_pps,
        pentium_share_pps=offered_pps / share_every,
        pentium_processed_pps=pentium_packets * chip.params.clock_hz / m.window_cycles,
        dropped_total=m.queue_drops + sa_drops + m.lost_buffers + backlog,
        sa_queue_drops=sa_drops,
        fast_path_drops=m.queue_drops,
        pentium_spare_cycles=pentium.spare_cycles_per_packet(m.window_cycles),
        sa_queue_fill=len(chip.sa_pentium_queue) / chip.sa_pentium_queue.capacity,
    )


def run_exceptional_flood(
    exceptional_every: int,
    window: int = 300_000,
    warmup: int = 50_000,
) -> RobustnessResult:
    """Experiment 2: base infrastructure (no VRP), a growing stream of
    exceptional packets to the StrongARM's local service."""
    chip = IXP1200(ChipConfig(
        synthetic_exceptional_every=exceptional_every,
        synthetic_exceptional_target="local",
        queue_capacity=512,
    ))
    sa = StrongARM(chip)  # local null forwarder service

    chip.sim.schedule(warmup, chip.start_window)
    chip.sim.run(until=warmup + window)
    m = chip.report()
    sa_drops = chip.window.peek()["sa_drops"]
    return RobustnessResult(
        offered_pps=m.input_pps,
        forwarded_pps=m.output_pps,
        pentium_share_pps=0.0,
        pentium_processed_pps=0.0,
        dropped_total=m.queue_drops + sa_drops + m.lost_buffers,
        sa_queue_drops=sa_drops,
        fast_path_drops=m.queue_drops,
        pentium_spare_cycles=None,
    )
