"""Token passing: the paper's serialization mechanism for the DMA state
machine and the output FIFO ordering.

"Token passing can be viewed as a simple scheduler that serializes
contexts accessing the input DMA.  The order of DMA access is made
explicit by the order in which the token is passed ...  we rotate the
token so that a context on one MicroEngine always hands the token to a
context on another MicroEngine." (section 3.2.2)

The rotation order is *fixed*: if the next holder is still busy, the
token waits for it.  This is exactly the behaviour that throttles the
input stage when per-packet work grows, so it is modeled faithfully.
"""

from __future__ import annotations

from typing import Generator, List, Sequence

from repro.engine import Event, Simulator, delay


def interleave_across_engines(context_ids: Sequence[int], contexts_per_me: int) -> List[int]:
    """Order contexts so consecutive token holders sit on different
    MicroEngines: all first-contexts of each ME, then all second-contexts,
    and so on (ids are dense: me*contexts_per_me + slot)."""
    by_slot: List[List[int]] = [[] for __ in range(contexts_per_me)]
    for cid in context_ids:
        by_slot[cid % contexts_per_me].append(cid)
    order: List[int] = []
    for group in by_slot:
        order.extend(sorted(group))
    return order


class TokenRing:
    """A fixed-rotation token among a set of contexts."""

    def __init__(self, sim: Simulator, order: Sequence[int], pass_cycles: int = 1, name: str = ""):
        if not order:
            raise ValueError("token ring needs at least one member")
        if len(set(order)) != len(order):
            raise ValueError("token ring members must be unique")
        self.sim = sim
        self.order = list(order)
        self.pass_cycles = pass_cycles
        self.name = name
        self._position = 0
        self._waiting: dict = {}
        self._holder_active = False
        self.rotations = 0

    @property
    def current_holder(self) -> int:
        return self.order[self._position]

    def acquire(self, member_id: int) -> Generator:
        """Block until the token reaches ``member_id``."""
        if member_id not in self.order:
            raise ValueError(f"{member_id} is not in token ring {self.name!r}")
        while not (self.current_holder == member_id and not self._holder_active):
            event = self._waiting.get(member_id)
            if event is None or event.triggered:
                event = Event(self.sim, name=f"token-{self.name}-{member_id}")
                self._waiting[member_id] = event
            yield event
        self._holder_active = True

    def release(self, member_id: int) -> Generator:
        """Pass the token to the next member in rotation."""
        if self.current_holder != member_id or not self._holder_active:
            raise RuntimeError(
                f"context {member_id} released token it does not hold "
                f"(holder={self.current_holder})"
            )
        if self.pass_cycles:
            yield delay(self.pass_cycles)
        self._holder_active = False
        self._position = (self._position + 1) % len(self.order)
        self.rotations += 1
        event = self._waiting.pop(self.current_holder, None)
        if event is not None and not event.triggered:
            event.succeed()
