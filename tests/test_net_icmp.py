"""Tests for ICMP error generation and the router's TTL-exceeded path."""

import pytest

from repro import Router, RouterConfig
from repro.net import IPv4Address
from repro.net.icmp import (
    ICMPMessage,
    TYPE_TIME_EXCEEDED,
    parse_reply,
    time_exceeded,
)
from repro.net.packet import Packet, make_tcp_packet


def test_icmp_message_roundtrip():
    message = ICMPMessage(TYPE_TIME_EXCEEDED, 0, quoted=b"\x45\x00" + b"\x00" * 26)
    parsed = ICMPMessage.parse(message.packed())
    assert parsed.icmp_type == TYPE_TIME_EXCEEDED
    assert parsed.quoted == message.quoted


def test_icmp_checksum_detected():
    wire = bytearray(ICMPMessage(TYPE_TIME_EXCEEDED, 0).packed())
    wire[0] ^= 0xFF
    with pytest.raises(ValueError):
        ICMPMessage.parse(bytes(wire))


def test_icmp_validation():
    with pytest.raises(ValueError):
        ICMPMessage(300, 0)
    with pytest.raises(ValueError):
        ICMPMessage(11, 0, rest=b"\x00")
    with pytest.raises(ValueError):
        ICMPMessage.parse(b"\x0b\x00")


def test_time_exceeded_quotes_original():
    original = make_tcp_packet("192.168.1.5", "10.1.0.1", 5001, 80, ttl=1)
    router_addr = IPv4Address("10.255.255.1")
    reply = time_exceeded(original, router_addr)
    assert reply.ip.src == router_addr
    assert reply.ip.dst == original.ip.src
    message = parse_reply(reply)
    assert message.icmp_type == TYPE_TIME_EXCEEDED
    # Quoted bytes start with the original IP header.
    assert message.quoted[:1] == b"\x45"
    # Original source/destination visible in the quote (offsets 12/16).
    assert message.quoted[12:16] == original.ip.src.packed()
    # The first 8 L4 bytes (TCP ports + seq) are quoted too.
    assert message.quoted[20:22] == (5001).to_bytes(2, "big")


def test_parse_reply_non_icmp_is_none():
    assert parse_reply(make_tcp_packet("1.1.1.1", "2.2.2.2")) is None


def test_icmp_reply_survives_wire_roundtrip():
    original = make_tcp_packet("192.168.1.5", "10.1.0.1", ttl=1)
    reply = time_exceeded(original, IPv4Address("10.255.255.1"))
    parsed = Packet.from_bytes(reply.to_bytes())
    assert parse_reply(parsed).icmp_type == TYPE_TIME_EXCEEDED


def test_router_generates_time_exceeded_when_enabled():
    router = Router(RouterConfig(generate_icmp_errors=True))
    for port in range(10):
        router.add_route(f"10.{port}.0.0", 16, port)
    router.add_route("192.168.0.0", 16, 5)  # route back to the sender
    dying = make_tcp_packet("192.168.1.5", "10.1.0.1", ttl=1)
    router.warm_route_cache([dying.ip.dst, dying.ip.src])
    router.inject(0, iter([dying]))
    router.run(2_000_000)
    # The original never came out; an ICMP error went back toward the
    # sender's network (port 5).
    replies = router.transmitted(5)
    assert len(replies) == 1
    message = parse_reply(replies[0])
    assert message is not None and message.icmp_type == TYPE_TIME_EXCEEDED
    assert router.stats()["exceptional"] == 1


def test_router_default_still_drops_silently():
    router = Router()  # extension off by default (paper behaviour)
    router.add_route("10.1.0.0", 16, 1)
    dying = make_tcp_packet("192.168.1.5", "10.1.0.1", ttl=1)
    router.warm_route_cache([dying.ip.dst])
    router.inject(0, iter([dying]))
    router.run(1_000_000)
    assert router.stats()["vrp_dropped"] == 1
    assert len(router.transmitted()) == 0
