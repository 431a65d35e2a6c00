"""The IXP1200 hardware hashing unit.

The fast-path classifier uses "a one-cycle hardware hash" of the
destination address (section 3.5.1), and the full classifier "hashes the
IP and TCP headers separately" then combines the values (section 4.5).
The VRP budget allows a forwarder three hashes per MP (section 4.3).
"""

from __future__ import annotations

from typing import Generator

from repro.engine import Simulator, delay
from repro.net.routing import hardware_hash


class HashUnit:
    """One-cycle hash engine."""

    def __init__(self, sim: Simulator, cycles_per_hash: int = 1):
        self.sim = sim
        self.cycles_per_hash = cycles_per_hash

    def compute(self, value: int, bits: int = 16) -> int:
        """Functional hash (no simulated time); pair with :meth:`use`."""
        return hardware_hash(value, bits)

    def use(self, count: int = 1) -> Generator:
        """Timed usage from a context program."""
        if count < 0:
            raise ValueError("hash count must be non-negative")
        if count:
            yield delay(self.cycles_per_hash * count)

    def combine(self, a: int, b: int, bits: int = 16) -> int:
        """Combine two hashed values into a flow-table index (section 4.5)."""
        return hardware_hash((a << 16) ^ b, bits)
