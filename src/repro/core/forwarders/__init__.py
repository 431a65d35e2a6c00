"""The paper's example data forwarders (Table 5) plus the heavyweight
forwarders that must run higher in the hierarchy.

Each module provides ``spec()`` returning a
:class:`~repro.core.forwarder.ForwarderSpec` whose VRP program matches
the paper's measured costs:

============== ==================== =====================
Forwarder      SRAM read/write (B)  Register operations
============== ==================== =====================
TCP Splicer            24                   45
Wavelet Dropper         8                   28
ACK Monitor            12                   15
SYN Monitor             4                    5
Port Filter            20                   26
IP (minimal)           24                   32
============== ==================== =====================

Heavyweight (must run on the StrongARM or Pentium, section 4.4):
TCP proxy >= 800 cycles, full IP >= 660 cycles, prefix-match routing
~236 cycles per packet.
"""

from repro.core.forwarders.ack_monitor import spec as ack_monitor
from repro.core.forwarders.full_ip import spec as full_ip
from repro.core.forwarders.minimal_ip import spec as minimal_ip
from repro.core.forwarders.port_filter import make_spec as port_filter
from repro.core.forwarders.syn_monitor import spec as syn_monitor
from repro.core.forwarders.tcp_proxy import spec as tcp_proxy
from repro.core.forwarders.tcp_splicer import make_spec as tcp_splicer
from repro.core.forwarders.wavelet_dropper import spec as wavelet_dropper

TABLE5_EXPECTED = {
    "tcp-splicer": (24, 45),
    "wavelet-dropper": (8, 28),
    "ack-monitor": (12, 15),
    "syn-monitor": (4, 5),
    "port-filter": (20, 26),
    "minimal-ip": (24, 32),
}


def table5_specs():
    """All six Table 5 forwarders with default parameters."""
    return [
        tcp_splicer(),
        wavelet_dropper(),
        ack_monitor(),
        syn_monitor(),
        port_filter(),
        minimal_ip(),
    ]


__all__ = [
    "TABLE5_EXPECTED",
    "ack_monitor",
    "full_ip",
    "minimal_ip",
    "port_filter",
    "syn_monitor",
    "table5_specs",
    "tcp_proxy",
    "tcp_splicer",
    "wavelet_dropper",
]
