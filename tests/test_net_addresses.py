"""Tests for IPv4/MAC address value types."""

import pytest

from repro.net import IPv4Address, MACAddress


def test_ipv4_parse_and_format_roundtrip():
    addr = IPv4Address("192.168.1.200")
    assert str(addr) == "192.168.1.200"
    assert int(addr) == (192 << 24) | (168 << 16) | (1 << 8) | 200


def test_ipv4_from_int_and_bytes():
    addr = IPv4Address(0x0A000001)
    assert str(addr) == "10.0.0.1"
    assert IPv4Address.from_bytes(addr.packed()) == addr


def test_ipv4_copy_constructor():
    a = IPv4Address("1.2.3.4")
    assert IPv4Address(a) == a


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"])
def test_ipv4_rejects_bad_strings(bad):
    with pytest.raises(ValueError):
        IPv4Address(bad)


def test_ipv4_rejects_out_of_range_int():
    with pytest.raises(ValueError):
        IPv4Address(1 << 32)
    with pytest.raises(ValueError):
        IPv4Address(-1)


def test_ipv4_rejects_wrong_type():
    with pytest.raises(TypeError):
        IPv4Address(1.5)


def test_ipv4_int_fast_path_keeps_the_checked_behaviour():
    """Exact ints take a fast path; everything else behaves as the
    isinstance chain always did."""
    for value in (0, 1, 0x0A000001, 0xFFFFFFFF):
        assert IPv4Address(value).value == value
    # bool is an int subclass: the chain keeps it as given.
    flag = IPv4Address(True)
    assert flag.value is True
    assert flag == IPv4Address(1) and hash(flag) == hash(IPv4Address(1))
    assert str(flag) == "0.0.0.1"
    for bad in (1 << 32, -1, True << 32):
        with pytest.raises(ValueError, match="^IPv4 address out of range: "):
            IPv4Address(bad)
    with pytest.raises(ValueError, match=r"^bad IPv4 octet '256' in '1\.256\.3\.4'$"):
        IPv4Address("1.256.3.4")
    with pytest.raises(ValueError, match=r"^bad IPv4 address '1\.2\.3'$"):
        IPv4Address("1.2.3")
    original = IPv4Address("10.9.8.7")
    copy = IPv4Address(original)
    assert copy == original and copy is not original
    assert type(copy.value) is int and copy.value == 0x0A090807


def test_ipv4_prefix_bits():
    addr = IPv4Address("192.168.0.0")
    assert addr.prefix_bits(16) == (192 << 8) | 168
    assert addr.prefix_bits(0) == 0
    assert addr.prefix_bits(32) == int(addr)
    with pytest.raises(ValueError):
        addr.prefix_bits(33)


def test_ipv4_hash_and_ordering():
    a, b = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
    assert a < b
    assert len({a, IPv4Address("10.0.0.1")}) == 1


def test_mac_parse_format_roundtrip():
    mac = MACAddress("02:00:00:00:00:07")
    assert str(mac) == "02:00:00:00:00:07"
    assert MACAddress.from_bytes(mac.packed()) == mac


def test_mac_for_port_is_deterministic_and_local():
    mac = MACAddress.for_port(3)
    assert mac == MACAddress.for_port(3)
    assert mac != MACAddress.for_port(4)
    assert mac.packed()[0] == 0x02  # locally administered


@pytest.mark.parametrize("bad", ["02:00:00:00:00", "zz:00:00:00:00:00"])
def test_mac_rejects_bad_strings(bad):
    with pytest.raises(ValueError):
        MACAddress(bad)


def test_mac_and_ipv4_hash_distinctly():
    # Same integer value must not collide across types in a dict.
    table = {IPv4Address(5): "ip", MACAddress(5): "mac"}
    assert len(table) == 2
