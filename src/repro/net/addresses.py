"""IPv4 and MAC address value types.

Both are immutable, integer-backed, hashable, and cheap to construct --
they are created once per packet in traffic generators and compared
millions of times in classifiers.
"""

from __future__ import annotations

from typing import Union


class IPv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, str, "IPv4Address"]):
        # Exact ints first: generators and lookup probes build addresses
        # from ints; bools and other int subclasses take the chain below.
        if type(value) is int and 0 <= value <= 0xFFFFFFFF:
            self.value = value
            return
        if isinstance(value, IPv4Address):
            self.value = value.value
            return
        if isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"bad IPv4 address {value!r}")
            acc = 0
            for part in parts:
                octet = int(part)
                if not 0 <= octet <= 255:
                    raise ValueError(f"bad IPv4 octet {part!r} in {value!r}")
                acc = (acc << 8) | octet
            self.value = acc
            return
        if isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"IPv4 address out of range: {value:#x}")
            self.value = value
            return
        raise TypeError(f"cannot make IPv4Address from {type(value).__name__}")

    def packed(self) -> bytes:
        return self.value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        if len(data) != 4:
            raise ValueError(f"IPv4 address needs 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def prefix_bits(self, length: int) -> int:
        """The top ``length`` bits, right-aligned (used by trie lookup)."""
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        if length == 0:
            return 0
        return self.value >> (32 - length)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        v = self.value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"


class MACAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("value",)

    def __init__(self, value: Union[int, str, "MACAddress"]):
        if isinstance(value, MACAddress):
            self.value = value.value
            return
        if isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise ValueError(f"bad MAC address {value!r}")
            acc = 0
            for part in parts:
                octet = int(part, 16)
                if not 0 <= octet <= 255:
                    raise ValueError(f"bad MAC octet {part!r} in {value!r}")
                acc = (acc << 8) | octet
            self.value = acc
            return
        if isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFFFFFF:
                raise ValueError(f"MAC address out of range: {value:#x}")
            self.value = value
            return
        raise TypeError(f"cannot make MACAddress from {type(value).__name__}")

    @classmethod
    def for_port(cls, port: int) -> "MACAddress":
        """Deterministic locally-administered address for a router port."""
        return cls(0x02_00_00_00_00_00 | (port & 0xFFFF))

    def packed(self) -> bytes:
        return self.value.to_bytes(6, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "MACAddress":
        if len(data) != 6:
            raise ValueError(f"MAC address needs 6 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MACAddress) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("mac", self.value))

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        octets = self.value.to_bytes(6, "big")
        return ":".join(f"{b:02x}" for b in octets)

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"


BROADCAST_MAC = MACAddress(0xFFFFFFFFFFFF)
