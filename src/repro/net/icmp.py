"""ICMP: the error-signalling side of IP forwarding.

A real router answers TTL expiry with an ICMP Time Exceeded message.
The fast path only *detects* the condition (cheaply, inside the VRP
budget); generating the reply is exceptional work for the higher levels,
which is exactly where this module's helpers are called from.
"""

from __future__ import annotations

from typing import Optional

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.ethernet import EthernetHeader
from repro.net.ip import PROTO_ICMP, IPv4Header, checksum16
from repro.net.packet import Packet

TYPE_ECHO_REPLY = 0
TYPE_ECHO_REQUEST = 8
TYPE_TIME_EXCEEDED = 11

CODE_TTL_EXCEEDED = 0


class ICMPMessage:
    """Type/code/checksum plus the quoted bytes (original IP header + 8)."""

    __slots__ = ("icmp_type", "code", "checksum", "rest", "quoted")

    def __init__(self, icmp_type: int, code: int, quoted: bytes = b"", rest: bytes = b"\x00" * 4):
        if not 0 <= icmp_type <= 255 or not 0 <= code <= 255:
            raise ValueError("bad ICMP type/code")
        if len(rest) != 4:
            raise ValueError("ICMP 'rest of header' must be 4 bytes")
        self.icmp_type = icmp_type
        self.code = code
        self.checksum = 0
        self.rest = rest
        self.quoted = quoted

    def packed(self) -> bytes:
        body = bytes([self.icmp_type, self.code]) + b"\x00\x00" + self.rest + self.quoted
        self.checksum = checksum16(body)
        out = bytearray(body)
        out[2:4] = self.checksum.to_bytes(2, "big")
        return bytes(out)

    @classmethod
    def parse(cls, data: bytes) -> "ICMPMessage":
        if len(data) < 8:
            raise ValueError("truncated ICMP message")
        message = cls(data[0], data[1], quoted=bytes(data[8:]), rest=bytes(data[4:8]))
        message.checksum = int.from_bytes(data[2:4], "big")
        if checksum16(data) != 0:
            raise ValueError("bad ICMP checksum")
        return message

    def __repr__(self) -> str:
        return f"<ICMP type={self.icmp_type} code={self.code} quoted={len(self.quoted)}B>"


def _error_reply(original: Packet, router_addr: IPv4Address, icmp_type: int, code: int) -> Packet:
    """Build an ICMP error quoting the original IP header + 8 bytes, per
    RFC 792."""
    quoted = original.ip.packed(fill_checksum=False)
    l4 = original.tcp.packed() if original.tcp is not None else original.payload
    quoted += l4[:8]
    message = ICMPMessage(icmp_type, code, quoted=quoted)
    ip = IPv4Header(router_addr, original.ip.src, ttl=64, protocol=PROTO_ICMP)
    payload = message.packed()
    ip.total_length = ip.header_length + len(payload)
    eth = EthernetHeader(dst=original.eth.src, src=MACAddress.for_port(0xEE))
    reply = Packet(eth, ip, None, payload, arrival_port=original.arrival_port)
    reply.meta["icmp"] = (icmp_type, code)
    return reply


def time_exceeded(original: Packet, router_addr: IPv4Address) -> Packet:
    """The reply a router owes a packet whose TTL hit zero."""
    return _error_reply(original, router_addr, TYPE_TIME_EXCEEDED, CODE_TTL_EXCEEDED)


def parse_reply(packet: Packet) -> Optional[ICMPMessage]:
    """Parse a packet's payload as ICMP, or None if it is not ICMP."""
    if packet.ip.protocol != PROTO_ICMP:
        return None
    return ICMPMessage.parse(packet.payload)
