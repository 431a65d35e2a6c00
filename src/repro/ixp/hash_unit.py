"""The IXP1200 hardware hashing unit.

The fast-path classifier uses "a one-cycle hardware hash" of the
destination address (section 3.5.1), and the full classifier "hashes the
IP and TCP headers separately" then combines the values (section 4.5).
The VRP budget allows a forwarder three hashes per MP (section 4.3).
"""

from __future__ import annotations

from typing import Generator

from repro.engine import delay


class HashUnit:
    """One-cycle hash engine."""

    cycles_per_hash = 1

    def use(self, count: int = 1) -> Generator:
        """Timed usage from a context program."""
        if count < 0:
            raise ValueError("hash count must be non-negative")
        if count:
            yield delay(self.cycles_per_hash * count)
