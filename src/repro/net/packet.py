"""The Packet object forwarded through the router, plus flow keys.

A :class:`Packet` owns real headers (Ethernet + IPv4, optionally TCP) and
a payload, and can round-trip to wire bytes.  Router components annotate
the packet via its ``meta`` mapping (classification results, destination
queue, the processor level that handled it) -- mirroring the paper's
8-byte internal routing header that travels with a packet up the
hierarchy.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, NamedTuple, Optional

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.ethernet import ETHERTYPE_IPV4, HEADER_LEN as ETH_HEADER_LEN, EthernetHeader
from repro.net.ip import PROTO_TCP, PROTO_UDP, IPv4Header
from repro.net.tcp import TCPHeader

MIN_FRAME_LEN = 64     # minimum Ethernet frame, including FCS
FCS_LEN = 4

_packet_ids = itertools.count(1)


class FlowKey(NamedTuple):
    """The paper's classification key: a (src_addr, src_port, dst_addr,
    dst_port) 4-tuple.  Ports are zero for non-TCP traffic."""

    src_addr: IPv4Address
    src_port: int
    dst_addr: IPv4Address
    dst_port: int

    def __str__(self) -> str:
        return f"{self.src_addr}:{self.src_port}->{self.dst_addr}:{self.dst_port}"


class Packet:
    """An Ethernet frame carrying IPv4 (optionally TCP)."""

    __slots__ = ("eth", "ip", "tcp", "payload", "arrival_port", "meta", "packet_id")

    def __init__(
        self,
        eth: EthernetHeader,
        ip: IPv4Header,
        tcp: Optional[TCPHeader] = None,
        payload: bytes = b"",
        arrival_port: int = 0,
    ):
        self.eth = eth
        self.ip = ip
        self.tcp = tcp
        self.payload = payload
        self.arrival_port = arrival_port
        self.meta: Dict[str, Any] = {}
        self.packet_id = next(_packet_ids)

    # -- sizes ------------------------------------------------------------

    @property
    def frame_len(self) -> int:
        """On-the-wire frame length including the 4-byte FCS, floored at
        the 64-byte Ethernet minimum."""
        length = ETH_HEADER_LEN + self.ip.total_length + FCS_LEN
        return max(MIN_FRAME_LEN, length)

    # -- classification helpers --------------------------------------------

    def flow_key(self) -> FlowKey:
        if self.tcp is not None:
            return FlowKey(self.ip.src, self.tcp.src_port, self.ip.dst, self.tcp.dst_port)
        return FlowKey(self.ip.src, 0, self.ip.dst, 0)

    @property
    def has_ip_options(self) -> bool:
        return self.ip.has_options

    # -- wire format --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to frame bytes (without FCS), padded to the Ethernet
        minimum payload if needed.  Checksums are recomputed."""
        if self.tcp is not None:
            l4 = self.tcp.packed_with_checksum(self.ip.src, self.ip.dst, self.payload)
        else:
            l4 = self.payload
        self.ip.total_length = self.ip.header_length + len(l4)
        body = self.ip.packed() + l4
        frame = self.eth.packed() + body
        pad = MIN_FRAME_LEN - FCS_LEN - len(frame)
        if pad > 0:
            frame += b"\x00" * pad
        return frame

    @classmethod
    def from_bytes(cls, data: bytes, arrival_port: int = 0) -> "Packet":
        eth = EthernetHeader.parse(data)
        if eth.ethertype != ETHERTYPE_IPV4:
            raise ValueError(f"not an IPv4 frame (ethertype={eth.ethertype:#06x})")
        ip = IPv4Header.parse(data[ETH_HEADER_LEN:])
        l4_start = ETH_HEADER_LEN + ip.header_length
        l4_end = ETH_HEADER_LEN + ip.total_length
        l4 = data[l4_start:l4_end]
        tcp = None
        payload = l4
        if ip.protocol == PROTO_TCP and len(l4) >= 20:
            tcp = TCPHeader.parse(l4)
            payload = l4[tcp.header_length:]
        return cls(eth, ip, tcp, payload, arrival_port=arrival_port)

    def copy(self) -> "Packet":
        dup = Packet(
            EthernetHeader(self.eth.dst, self.eth.src, self.eth.ethertype),
            self.ip.copy(),
            self.tcp.copy() if self.tcp else None,
            self.payload,
            self.arrival_port,
        )
        dup.meta = dict(self.meta)
        return dup

    def __repr__(self) -> str:
        proto = "TCP" if self.tcp else f"proto={self.ip.protocol}"
        return f"<Packet #{self.packet_id} {self.ip.src}->{self.ip.dst} {proto} {self.frame_len}B>"


def make_tcp_packet(
    src: str,
    dst: str,
    src_port: int = 1234,
    dst_port: int = 80,
    *,
    payload: bytes = b"",
    flags: int = 0x10,
    seq: int = 0,
    ack: int = 0,
    ttl: int = 64,
    arrival_port: int = 0,
    src_mac: Optional[MACAddress] = None,
    dst_mac: Optional[MACAddress] = None,
) -> Packet:
    """Convenience constructor used heavily by tests and generators."""
    ip_src, ip_dst = IPv4Address(src), IPv4Address(dst)
    tcp = TCPHeader(src_port, dst_port, seq=seq, ack=ack, flags=flags)
    ip = IPv4Header(ip_src, ip_dst, ttl=ttl, protocol=PROTO_TCP)
    ip.total_length = ip.header_length + tcp.header_length + len(payload)
    eth = EthernetHeader(
        dst=dst_mac or MACAddress.for_port(0xFF),
        src=src_mac or MACAddress.for_port(0xFE),
    )
    return Packet(eth, ip, tcp, payload, arrival_port=arrival_port)


def make_udp_like_packet(
    src: str,
    dst: str,
    *,
    payload: bytes = b"",
    ttl: int = 64,
    arrival_port: int = 0,
    options: bytes = b"",
) -> Packet:
    """A non-TCP IPv4 packet (modelled as raw payload over IP)."""
    ip = IPv4Header(IPv4Address(src), IPv4Address(dst), ttl=ttl, protocol=PROTO_UDP, options=options)
    ip.total_length = ip.header_length + len(payload)
    eth = EthernetHeader(dst=MACAddress.for_port(0xFF), src=MACAddress.for_port(0xFE))
    return Packet(eth, ip, None, payload, arrival_port=arrival_port)
