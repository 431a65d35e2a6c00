"""Idle parking: skip the microengines' idle loops in whole periods.

An idle router still runs its pipeline.  Every input context polls its
port under the fixed token rotation (Figure 5) and every output context
re-selects its queues after a backoff (Figure 6).  On an idle chip both
loops are exactly periodic, so once a loop has *provably* repeated the
stage is parked: its contexts block, no simulator event is spent on
them, and the skipped periods are charged analytically.

Exactness contract
------------------
A parked stage produces the same modeled state as the event-by-event
run at every point anyone can observe it:

* **Lazy charging.**  Per-ME ``busy_cycles`` and ring ``rotations`` of
  the skipped periods are charged by :meth:`IXP1200.settle`, called on
  resume and by every reader before it reads.  ``settle(t)`` charges
  everything the periodic loop would have charged strictly before cycle
  ``t``; an in-run reader passes ``sim.now`` (it is scheduled far ahead,
  so it runs before the loop's own events of that cycle), a reader
  between two ``Simulator.run`` calls passes ``sim.now + 1``.
* **Announced wakes.**  Every source of an event that could touch a
  parked stage -- a frame reaching one of its ports, an ME core being
  seized -- announces it in advance with :meth:`IXP1200.announce`.  The
  stage then resumes on a hop (input) or period (output) boundary that
  the event-by-event run also passes through, strictly before the
  announced cycle, without changing when or how the announcer schedules
  its own delivery.  A spurious announcement only costs a resume; a
  missing one is a bug.
* **Unannounced deliveries** (a direct ``MACPort.deliver`` between two
  runs) resume the input stage at once: the token holder continues at
  its pending port check.

Scope: the input stage parks in port mode only (the synthetic source
never idles, and a paced one idles in 1-cycle spins that stay event by
event).  The output stage parks only under ``SINGLE_BATCHED``, whose
idle loop makes no memory reference after its first empty select, and
only while the whole router is empty: no packet in the queue bank, the
StrongARM queues, the I2O pairs or the hosts, and the input stage
parked.  ``MULTI_INDIRECT`` and ``SINGLE_UNBATCHED`` read Scratch on
every idle iteration and stay event by event.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.ixp.programs import OUTPUT_BACKOFF, OUTPUT_BACKOFF_STEP

#: Private switch: ``False`` runs every idle loop event by event.  The
#: differential tests flip it to obtain their reference runs; it is read
#: when a chip is built.
_PARKING = True

#: Idle streak past which the output loop's backoff stays at its cap.
_BACKOFF_SATURATED = OUTPUT_BACKOFF // OUTPUT_BACKOFF_STEP


def _spread(counts: List[int], start: int, n: int, length: int) -> None:
    """Add ``n`` consecutive ring positions starting at ``start`` to the
    per-position ``counts`` (wrapping every ``length``)."""
    full, rest = divmod(n, length)
    if full:
        for i in range(length):
            counts[i] += full
    for i in range(rest):
        counts[(start + i) % length] += 1


class InputParking:
    """Parks the input token rotation of an idle chip (see
    :meth:`try_park`).

    A free-running idle hop is swap, ``input_port_check`` and pass
    (10 cycles with the default costs): hop ``k`` after parking starts
    at ``t0 + k * hop`` with the holder at ring position ``pos0 + k``.
    """

    def __init__(self, chip):
        self.sim = chip.sim
        ring = chip.input_ring
        self.ring = ring
        self.c_swap = chip.params.context_swap_cycles
        self.c_check = chip.params.cost.input_port_check
        self.c_pass = ring.pass_cycles
        self.check_off = self.c_swap + self.c_check
        self.hop = self.check_off + self.c_pass
        by_id = {ctx.ctx_id: ctx for ctx in chip.input_contexts}
        self.me_at = [by_id[cid].me for cid in ring.order]
        self.cores = []
        for me in self.me_at:
            if me.core not in self.cores:
                self.cores.append(me.core)
        self.length = len(ring.order)
        self.ports = chip.ports
        # (offset within a hop, cycles charged there); the last entry is
        # the rotation counted when the token moves on.
        self.charges = ((0, self.c_swap), (self.c_swap, self.c_check),
                        (self.check_off, self.c_pass), (self.hop, 0))
        self.parked = False
        self.t0 = 0
        self.pos0 = 0
        self.done = [0, 0, 0, 0]
        self.wake_at: Optional[int] = None
        self._wake_gen = 0
        self._pending: List[int] = []

    # -- called from the input loop's empty-port branch ---------------------

    def try_park(self, now: int, pos: int, own_core) -> bool:
        """After an empty hop passed the token to ``pos``: park instead
        of waking the next holder when from here on every hop is a free
        idle hop -- every other context is waiting for the token (none
        is still processing a packet), every port is empty, no input
        core is seized, and no announced frame is due within a few hops."""
        if len(self.ring._waiting) != self.length - 1:
            return False
        for port in self.ports:
            if port.rx_buffer:   # arrived behind its context's last check
                return False
        for core in self.cores:
            busy = 1 if core is own_core else 0
            if core.in_use != busy or core._queue:
                return False
        pending = self._pending
        while pending and pending[0] < now:
            heappop(pending)
        if pending and pending[0] - now < 3 * self.hop:
            return False
        self.parked = True
        self.t0 = now
        self.pos0 = pos
        self.done = [0, 0, 0, 0]
        if pending:
            self._schedule_wake(pending[0])
        return True

    # -- lazy charging ------------------------------------------------------

    def settle(self, through: int) -> None:
        """Charge the parked hops' work that falls strictly before
        ``through``."""
        if not self.parked:
            return
        span = through - self.t0
        hop = self.hop
        for i, (offset, cycles) in enumerate(self.charges):
            n = (span - offset + hop - 1) // hop if span > offset else 0
            done = self.done[i]
            if n <= done:
                continue
            self.done[i] = n
            if i == 3:
                self.ring.rotations += n - done
            elif cycles:
                counts = [0] * self.length
                _spread(counts, self.pos0 + done, n - done, self.length)
                for pos, count in enumerate(counts):
                    if count:
                        self.me_at[pos].busy_cycles += count * cycles

    # -- waking -------------------------------------------------------------

    def request(self, at: int) -> None:
        """Something may touch the stage at cycle ``at``."""
        now = self.sim.now
        pending = self._pending
        while pending and pending[0] < now:
            heappop(pending)
        heappush(pending, at)
        if self.parked:
            self._schedule_wake(at)

    def _schedule_wake(self, at: int) -> None:
        now = self.sim.now
        hop = self.hop
        k = (at - hop - self.t0) // hop
        boundary = self.t0 + k * hop
        if boundary <= now:
            self.wake_now()
            return
        if self.wake_at is not None and self.wake_at <= boundary:
            return
        self.wake_at = boundary
        self._wake_gen += 1
        self.sim.schedule(boundary - now, partial(self._at_boundary, self._wake_gen))

    def _unpark(self, pos: int):
        self.parked = False
        self.wake_at = None
        self._wake_gen += 1
        self.ring._position = pos
        return self.ring._waiting.pop(self.ring.order[pos], None)

    def _at_boundary(self, gen: int) -> None:
        # Queue the resume behind everything already due this cycle, so
        # that in-phase token rotations of other chips pass first.
        self.sim.schedule(0, partial(self._resume_at_boundary, gen))

    def _resume_at_boundary(self, gen: int) -> None:
        """Act as the pass that ends the last skipped hop: count its
        rotation and wake the next holder, exactly as the event-by-event
        run does on this cycle."""
        if gen != self._wake_gen or not self.parked:
            return
        now = self.sim.now
        k = (now - self.t0) // self.hop
        self.settle(now)
        self.ring.rotations += 1
        event = self._unpark((self.pos0 + k) % self.length)
        if event is not None and not event._done:
            event.succeed()

    def wake_now(self) -> None:
        """Resume immediately (an unannounced delivery or a late
        announcement).  Past the current hop's port check the stage
        resumes at the next boundary; before it, the holder is woken
        and continues straight at its pending check."""
        if not self.parked:
            return
        now = self.sim.now
        k = (now - self.t0) // self.hop
        start = self.t0 + k * self.hop
        if now - start >= self.check_off:
            boundary = start + self.hop
            if self.wake_at is None or boundary < self.wake_at:
                self.wake_at = boundary
                self._wake_gen += 1
                self.sim.schedule(boundary - now,
                                  partial(self._at_boundary, self._wake_gen))
            return
        # Everything up to this cycle is charged; the holder picks up
        # either before its check (swap still running: it charges the
        # check itself) or inside it (waits out the rest).
        self.settle(now + 1)
        check_at = start + self.c_swap
        if now < check_at:
            resume = (check_at - now, True)
        else:
            resume = (start + self.check_off - now, False)
        event = self._unpark((self.pos0 + k) % self.length)
        if event is not None and not event._done:
            event.succeed(resume)


class OutputParking:
    """Parks the output contexts of an empty router once every context
    has run one exact period of the saturated ``SINGLE_BATCHED`` idle
    loop: swap-in, swap, token, pass (+ rotation), batched select, then
    a 200-cycle backoff -- 207 cycles with the default costs.

    Contexts park one by one at their empty select, in the token order
    of the last period; a parked context ``i`` that parked at cycle
    ``e`` would have selected again at ``e + k * period``.
    """

    def __init__(self, chip, procs):
        self.sim = chip.sim
        ring = chip.output_ring
        self.ring = ring
        self.contexts = list(chip.output_contexts)
        self.procs = list(procs)
        s = chip.params.context_swap_cycles
        cost = chip.params.cost
        b = OUTPUT_BACKOFF
        token, pss, select = cost.output_token, ring.pass_cycles, cost.output_select_batched
        # (offset after the parking select, cycles charged there); the
        # last entry also counts the rotation.  The order is that of
        # output_loop's idle iteration: backoff, swap-in, swap, token,
        # pass, batched select.
        self.charges = ((b, s), (b + s, s), (b + 2 * s, token),
                        (b + 2 * s + token, pss), (b + 2 * s + token + pss, select))
        self.period = b + 2 * s + token + pss + select
        # Cycles after the backoff during which a context holds its core
        # or the token: no resume cut may fall inside them.
        self.busy_span = 2 * s + token + pss
        n = len(self.contexts)
        # How early to resume for something due at cycle ``at``: the cut
        # may slide past every context's busy span, and a context caught
        # between its pass and its select still selects virtually once.
        self.lead = n * (self.busy_span + 1) + select + 1
        self.last_e = [-1] * n
        self.steady = [False] * n
        self.parked_at: List[Optional[int]] = [None] * n
        self.resume_at: List[Optional[int]] = [None] * n
        self.done = [[0] * len(self.charges) for __ in range(n)]
        self.events = [None] * n
        self.parking = False
        self.num_parked = 0
        self._pending: List[int] = []
        self._wake_gen = 0
        self.wake_at: Optional[int] = None
        self.router_idle: Callable[[], bool] = lambda: False

    @property
    def parked(self) -> bool:
        return self.num_parked == len(self.contexts)

    # -- called from the output loop's empty-select branch ------------------

    def idle(self, slot: int, now: int, idle_streak: int):
        """An empty select by context ``slot``.  Returns the event to
        park on, or None to back off event by event."""
        steady = (idle_streak > _BACKOFF_SATURATED
                  and now - self.last_e[slot] == self.period)
        self.last_e[slot] = now
        self.steady[slot] = steady
        if not self.parking:
            if not steady:
                return None
            period = self.period
            for i, last in enumerate(self.last_e):
                if not self.steady[i] or now - last > period:
                    return None
            if not self.router_idle():
                return None
            self.parking = True
        elif not self.router_idle():
            # Work arrived while the contexts were parking one by one.
            self.resume(now)
            return None
        self._finish_segment(slot)
        self.parked_at[slot] = now
        self.resume_at[slot] = None
        self.done[slot] = [0] * len(self.charges)
        event = self.events[slot] = self.sim.event("output-park")
        self.num_parked += 1
        if self.parked:
            pending = self._pending
            while pending and pending[0] < now:
                heappop(pending)
            if pending:
                self._schedule_wake(pending[0])
        return event

    # -- lazy charging ------------------------------------------------------

    def _settle_slot(self, i: int, through: int) -> None:
        start = self.parked_at[i]
        if start is None:
            return
        end = self.resume_at[i]
        if end is not None and end < through:
            through = end
        span = through - start
        period = self.period
        done = self.done[i]
        me = self.contexts[i].me
        last = len(self.charges) - 1
        for j, (offset, cycles) in enumerate(self.charges):
            n = (span - offset + period - 1) // period if span > offset else 0
            if n <= done[j]:
                continue
            new = n - done[j]
            done[j] = n
            me.busy_cycles += new * cycles
            if j == last:
                self.ring.rotations += new

    def _finish_segment(self, i: int) -> None:
        if self.parked_at[i] is not None:
            self._settle_slot(i, self.sim.now)
            self.parked_at[i] = None

    def settle(self, through: int) -> None:
        for i in range(len(self.contexts)):
            self._settle_slot(i, through)

    # -- waking -------------------------------------------------------------

    def request(self, at: int) -> None:
        now = self.sim.now
        pending = self._pending
        while pending and pending[0] < now:
            heappop(pending)
        heappush(pending, at)
        if self.num_parked:
            self._schedule_wake(at)

    def _schedule_wake(self, at: int) -> None:
        now = self.sim.now
        target = at - self.lead
        if not self.parked or target <= now:
            self.resume(now)
            return
        if self.wake_at is not None and self.wake_at <= target:
            return
        self.wake_at = target
        self._wake_gen += 1
        self.sim.schedule(target - now, partial(self._wake, self._wake_gen))

    def _wake(self, gen: int) -> None:
        if gen == self._wake_gen:
            self.resume(self.sim.now)

    def _vulnerable(self, i: int, t: int) -> int:
        """How far ``t`` sits inside context ``i``'s swap-in-to-pass span
        (-1 if outside): a parked context holds its core and the token
        there, so a resume cut must avoid it."""
        start = self.parked_at[i]
        base = OUTPUT_BACKOFF
        if start is None or self.resume_at[i] is not None or t < start + base:
            return -1
        into = (t - start - base) % self.period
        return into if into <= self.busy_span else -1

    def resume(self, now: int) -> None:
        """Turn parked contexts back into events.  A cut ``C >= now`` is
        chosen where every parked context is backing off (or has passed
        the token); the ring position is advanced by the passes skipped
        before ``C``, and each context resumes at its first backoff end
        after ``C`` -- a step the event-by-event run also takes there."""
        self.parking = False
        self.wake_at = None
        self._wake_gen += 1
        active = [i for i in range(len(self.contexts))
                  if self.parked_at[i] is not None and self.resume_at[i] is None]
        if not active:
            return
        cut = now
        moved = True
        while moved:
            moved = False
            for i in active:
                into = self._vulnerable(i, cut)
                if into >= 0:
                    cut += self.busy_span - into + 1
                    moved = True
        base = OUTPUT_BACKOFF
        rot_offset = self.charges[-1][0]
        skipped = 0
        for i in active:
            start = self.parked_at[i]
            if start + base > cut:
                wake = start + base
            else:
                wake = start + base + ((cut - start - base) // self.period + 1) * self.period
            span = cut - start
            if span > rot_offset:
                skipped += (span - rot_offset + self.period - 1) // self.period
            self.resume_at[i] = wake
            event = self.events[i]
            proc = self.procs[i]
            self.events[i] = None
            # Resume the parked process directly at its backoff end (the
            # event it blocks on is never triggered).
            event._cancel(proc)
            proc._waiting_on = None
            self.sim._schedule_step(wake - now, proc, None)
        self.num_parked = 0
        ring = self.ring
        ring._position = (ring._position + skipped) % len(ring.order)
