"""Tests for Packet construction/serialization and MP segmentation."""

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    FlowKey,
    MPPosition,
    Packet,
    make_tcp_packet,
    make_udp_like_packet,
    reassemble_mps,
    segment_packet,
)
from repro.net.mp import MP_SIZE, MacPacket, mp_count


def test_min_packet_is_64_bytes_on_wire():
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2")
    assert packet.frame_len == 64


def test_large_packet_frame_len():
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2", payload=b"x" * 1000)
    # 14 eth + 20 ip + 20 tcp + 1000 payload + 4 fcs
    assert packet.frame_len == 1058


def test_packet_bytes_roundtrip():
    packet = make_tcp_packet("10.1.0.5", "10.2.0.9", 5001, 443, payload=b"payload", seq=99)
    wire = packet.to_bytes()
    parsed = Packet.from_bytes(wire, arrival_port=3)
    assert parsed.ip.src == packet.ip.src
    assert parsed.ip.dst == packet.ip.dst
    assert parsed.tcp.seq == 99
    assert parsed.payload == b"payload"
    assert parsed.arrival_port == 3
    ok, reason = parsed.ip.validate(frame_payload_len=len(wire) - 14)
    assert ok, reason


def test_packet_flow_key():
    packet = make_tcp_packet("10.1.0.5", "10.2.0.9", 5001, 443)
    key = packet.flow_key()
    assert isinstance(key, FlowKey)
    assert key.src_port == 5001 and key.dst_port == 443
    assert str(key.dst_addr) == "10.2.0.9"


def test_non_tcp_flow_key_has_zero_ports():
    packet = make_udp_like_packet("1.1.1.1", "2.2.2.2")
    key = packet.flow_key()
    assert key.src_port == 0 and key.dst_port == 0


def test_packet_ids_are_unique():
    a = make_tcp_packet("1.1.1.1", "2.2.2.2")
    b = make_tcp_packet("1.1.1.1", "2.2.2.2")
    assert a.packet_id != b.packet_id


def test_packet_copy_is_deep_for_headers():
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2", ttl=10)
    packet.meta["queue"] = 7
    dup = packet.copy()
    dup.ip.ttl = 3
    dup.meta["queue"] = 1
    assert packet.ip.ttl == 10
    assert packet.meta["queue"] == 7


# -- MP segmentation ---------------------------------------------------------


def test_mp_count_examples_from_paper():
    assert mp_count(64) == 1
    # "forwarding a 1500-byte packet involves forwarding twenty-four MPs"
    assert mp_count(1500) == 24
    assert mp_count(65) == 2


def test_mp_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        mp_count(0)


def test_segment_min_packet_is_single_only_mp():
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2")
    mps = segment_packet(packet, port=4)
    assert len(mps) == 1
    assert mps[0].position is MPPosition.ONLY
    assert mps[0].port == 4
    assert mps[0].packet is packet


def test_segment_tags_first_middle_last():
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2", payload=b"x" * 200)
    mps = segment_packet(packet)
    positions = [mp.position for mp in mps]
    assert positions[0] is MPPosition.FIRST
    assert positions[-1] is MPPosition.LAST
    assert all(p is MPPosition.MIDDLE for p in positions[1:-1])
    assert len(positions) == mp_count(len(packet.to_bytes()))


def test_reassemble_roundtrip():
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2", payload=b"y" * 333)
    wire = packet.to_bytes()
    assert reassemble_mps(segment_packet(packet, wire)) == wire


def test_reassemble_rejects_out_of_order():
    packet = make_tcp_packet("1.1.1.1", "2.2.2.2", payload=b"y" * 200)
    mps = segment_packet(packet)
    with pytest.raises(ValueError):
        reassemble_mps(mps[::-1])


def test_reassemble_rejects_empty():
    with pytest.raises(ValueError):
        reassemble_mps([])


def test_mp_rejects_oversize_data():
    with pytest.raises(ValueError):
        MacPacket(b"x" * (MP_SIZE + 1), MPPosition.ONLY)
    with pytest.raises(ValueError):
        MacPacket(b"", MPPosition.ONLY)


@given(payload_len=st.integers(min_value=0, max_value=1400))
def test_segmentation_roundtrip_property(payload_len):
    packet = make_tcp_packet("3.3.3.3", "4.4.4.4", payload=b"z" * payload_len)
    wire = packet.to_bytes()
    mps = segment_packet(packet, wire)
    assert reassemble_mps(mps) == wire
    assert len(mps) == mp_count(len(wire))
    # All MPs except possibly the last are full.
    assert all(len(mp) == MP_SIZE for mp in mps[:-1])
