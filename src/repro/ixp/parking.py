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
  stage then resumes at steps the event-by-event run also takes (a hop
  boundary of the input stage, each output context's swap-in) before
  the announced cycle, without changing when or how the announcer
  schedules its own delivery.  A spurious announcement only costs a
  resume; a missing one is a bug.
* **Unannounced deliveries** (a direct ``MACPort.deliver`` between two
  runs) resume the input stage at once: the token holder continues at
  its pending port check.

Scope: the input stage parks in port mode only (the synthetic source
never idles, and a paced one idles in 1-cycle spins that stay event by
event).  The output stage parks only under ``SINGLE_BATCHED``, whose
idle loop makes no memory reference after its first empty select, and
only while the whole router is empty: no packet in the queue bank, the
StrongARM queues, the I2O pairs or the hosts, and the input stage
parked.  It parks as soon as its token ring has locked, with backoffs
still ramping; a context's early swap-in that would meet an engine
neighbour's at the core is predicted, and the stage is awake for it.
``MULTI_INDIRECT`` and ``SINGLE_UNBATCHED`` read Scratch on every idle
iteration and stay event by event.
"""

from __future__ import annotations

import sys
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.ixp.programs import OUTPUT_BACKOFF, OUTPUT_BACKOFF_STEP, OUTPUT_RAMP

#: Private switch: ``False`` runs every idle loop event by event.  The
#: differential tests flip it to obtain their reference runs; it is read
#: when a chip is built.
_PARKING = True

#: A cycle no run reaches: when nothing lies ahead of a parked stage.
NEVER = sys.maxsize


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
        me_at = [by_id[cid].me for cid in ring.order]
        self.engines = []
        for me in me_at:
            if me not in self.engines:
                self.engines.append(me)
        self.cores = [me.core for me in self.engines]
        self.length = len(ring.order)
        # Per engine: how many of the first ``x`` ring positions it holds.
        self.positions = []
        for me in self.engines:
            counts = [0]
            for at in me_at:
                counts.append(counts[-1] + (at is me))
            self.positions.append(counts)
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
                # Hops done..n-1, held from ring position pos0 + done on.
                length = self.length
                full, rest = divmod(n - done, length)
                a = (self.pos0 + done) % length
                b = a + rest
                for me, counts in zip(self.engines, self.positions):
                    hops = full * counts[length]
                    if b <= length:
                        hops += counts[b] - counts[a]
                    else:
                        hops += counts[length] - counts[a] + counts[b - length]
                    me.busy_cycles += hops * cycles

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
    """Parks the ``SINGLE_BATCHED`` output contexts of an empty router
    once their token ring has locked: every context's last two empty
    selects are exactly one idle period apart.

    An idle period is backoff, swap-in, swap, token, pass (+ rotation),
    batched select -- 207 cycles with the default costs.  A context whose
    backoff is still ramping (``OUTPUT_BACKOFF_STEP`` more per empty
    select, up to ``OUTPUT_BACKOFF``) swaps in early and waits for its
    predecessor's pass, so on a locked ring it keeps the period: it
    takes the token, rotates and selects at the offsets of a saturated
    context, and only its swap-in moves.  A context that parked at cycle
    ``e`` with idle streak ``s`` asks for its core at
    ``e + k * period + min(OUTPUT_BACKOFF, OUTPUT_BACKOFF_STEP * (s + k))``
    in parked period ``k``.  If an engine neighbour then holds the core
    between its token take and its select, the swap-in waits for that
    select (:meth:`_scan`); any other meeting of two contexts at their
    core is a collision, before which the stage must be awake.

    Contexts park one by one at their empty select, in the token order
    of the last period, and only if the stage can be resumed in time for
    everything already known to lie ahead: an announced event and the
    period before a collision.
    """

    def __init__(self, chip, procs):
        self.sim = chip.sim
        self.input = chip.input_parking
        ring = chip.output_ring
        self.ring = ring
        self.contexts = list(chip.output_contexts)
        self.procs = list(procs)
        s = chip.params.context_swap_cycles
        cost = chip.params.cost
        b = OUTPUT_BACKOFF
        token, pss, select = cost.output_token, ring.pass_cycles, cost.output_select_batched
        # (offset after the parking select, cycles charged there) of a
        # saturated period; the last entry also counts the rotation.  The
        # order is that of output_loop's idle iteration: backoff, swap-in,
        # swap, token, pass, batched select.  A ramping context's swap-in
        # comes at other offsets (swap_ins); the rest keep theirs.
        self.charges = ((b, s), (b + s, s), (b + 2 * s, token),
                        (b + 2 * s + token, pss), (b + 2 * s + token + pss, select))
        self.period = b + 2 * s + token + pss + select
        self.c_swap_in = s
        # Cycles of the steps after the swap-in charged at offsets up to
        # each offset within a period, and per whole period.
        self.charged_upto = tuple(sum(c for off, c in self.charges[1:] if off <= r)
                                  for r in range(self.period))
        self.charged_per_period = self.charged_upto[-1]
        # The context re-takes its core and the token at ``take``, holds
        # the core until its select, and passes the token at ``rotation``.
        self.take = b + s
        self.rotation = b + 2 * s + token + pss
        self.ramp = OUTPUT_RAMP
        by_engine = {}
        for i, ctx in enumerate(self.contexts):
            by_engine.setdefault(ctx.me.me_id, []).append(i)
        self.engines = list(by_engine.values())
        self.ring_index = [ring.order.index(ctx.ctx_id) for ctx in self.contexts]
        n = len(self.contexts)
        self.last_e = [-1] * n
        self.last_streak = [0] * n
        self.locked = [False] * n
        self.num_locked = 0
        self.parked_at: List[Optional[int]] = [None] * n
        self.streak_at = [0] * n
        self.resume_at: List[Optional[int]] = [None] * n
        # Where each parked context's ramping swap-ins are charged: one
        # cycle per parked period until its backoff saturates.
        self.swap_ins: List[tuple] = [()] * n
        # Busy cycles and rotations charged so far for each parked span.
        self.done_busy = [0] * n
        self.done_rotations = [0] * n
        # What a parked context blocks on: never triggered (resume()
        # schedules the process itself), so one per context serves.
        self.events = [self.sim.event("output-park") for __ in range(n)]
        self.parking = False
        self.num_parked = 0
        # The parking contexts' (last select, idle streak) schedule, when
        # the last of them parks, and the swap-ins of that schedule that
        # wait for a neighbour: (context, cycle asked) -> (cycle granted,
        # neighbour, the neighbour's swap-in of the period that holds it).
        self.plan: List[tuple] = []
        self.last_park = 0
        self.delays: Dict[tuple, tuple] = {}
        # No parking is tried before this cycle (a refused plan's
        # deadline, while the ring stays locked).
        self.retry_at = 0
        self._pending: List[int] = []
        self._wake_gen = 0
        self.wake_at: Optional[int] = None
        self.router_idle: Callable[[], bool] = lambda: False

    @property
    def parked(self) -> bool:
        return self.num_parked == len(self.contexts)

    # -- the locked schedule -------------------------------------------------

    def _swap_in(self, e: int, s: int, k: int) -> int:
        """Where a context that selected at ``e`` with idle streak ``s``
        asks for its core, ``k`` periods on."""
        streak = s + k
        return e + k * self.period + (OUTPUT_BACKOFF if streak >= self.ramp
                                      else OUTPUT_BACKOFF_STEP * streak)

    def _scan(self, now: int, schedule, slot: int) -> Optional[int]:
        """Check every swap-in of a ramping context against its engine
        neighbours, if each context keeps the locked ``schedule`` (a
        (last select, idle streak) pair per context) and ``slot`` parks
        now, the others at their next select.  Fills :attr:`delays` and
        returns the first collision that is not over by ``now``, or None.

        A swap-in that falls where a neighbour holds the core between its
        token take and its select waits for that select, and is granted
        then if nothing else asks for the core there.  Every other
        meeting is a collision: two requests on one cycle, a second
        request queued behind a waiting one, a saturated context's
        swap-in delayed into its token take, and a live context's
        request queued behind a parked one's hold (which is not there in
        the event queue).  Every other core hold on a locked ring repeats
        each period without contention, and a context's swap-in stays
        put from its first saturated period on, so that is as far as it
        looks."""
        period = self.period
        take = self.take
        ramp = self.ramp
        first = NEVER
        delays = self.delays = {}
        waited = set()
        for engine in self.engines:
            for i in engine:
                e, s = schedule[i]
                # A context saturated in its last period swapped in where
                # it always will.
                for k in range(max(-1, ramp - s) + 1):
                    request = self._swap_in(e, s, k)
                    if request >= first:
                        break
                    grant = request
                    for j in engine:
                        if j == i:
                            continue
                        ej, sj = schedule[j]
                        m, x = divmod(request - ej, period)
                        swap = self._swap_in(ej, sj, m)
                        if x == take or request == swap:
                            grant = None
                            break
                        if x > take:
                            # Context j holds the core until its select.
                            if (s + k >= ramp or (j, swap) in waited
                                    or (i != slot and k == 0 and (j == slot or m > 0))):
                                grant = None
                                break
                            grant = ej + (m + 1) * period
                            delayer = (j, swap)
                    if grant is not None and grant != request:
                        for l in engine:
                            el, sl = schedule[l]
                            m, x = divmod(grant - el, period)
                            if l != i and (x == take or grant == self._swap_in(el, sl, m)):
                                grant = None
                                break
                    if grant is None:
                        # A collision on a cycle passed long enough ago
                        # left nothing behind that could still matter.
                        if request + period - take >= now:
                            first = max(request, now)
                            break
                    elif grant != request:
                        delays[(i, request)] = (grant,) + delayer
                        waited.add(delayer)
        return None if first == NEVER else first

    def _on_schedule(self, now: int, schedule, slot: int) -> bool:
        """Whether the stage is where the locked ``schedule`` puts it at
        ``now``: every output core held by exactly the contexts that
        hold it there and waited on by none, and the token where the
        last pass left it.  A core seized by something else, or a
        context running late behind one, shows up here before it shows
        up in a select; cycles on which a step may or may not have run
        yet do not pass."""
        period = self.period
        take = self.take
        held = {}
        latest = None
        for i, (e, s) in enumerate(schedule):
            ctx = self.contexts[i]
            if i != slot:
                x = now - e
                request = self._swap_in(e, s, 0)
                delayed = self.delays.get((i, request))
                grant = request if delayed is None else delayed[0]
                if x == take or request <= now <= grant + 1:
                    return False
                if ctx.holding_core != (take < x):
                    return False
            if ctx.holding_core:
                held[ctx.me] = held.get(ctx.me, 0) + 1
            turn = e + self.rotation + (now - e - self.rotation) // period * period
            if turn == now:
                return False
            if latest is None or turn > latest[0]:
                latest = (turn, i)
        for i in range(len(schedule)):
            core = self.contexts[i].me.core
            if core._queue or core.in_use != held.get(self.contexts[i].me, 0):
                return False
        ring = self.ring
        return ring._position == (self.ring_index[latest[1]] + 1) % len(ring.order)

    def _resume_time(self, at: int, schedule) -> int:
        """The latest cycle at which to resume for something due at
        ``at``: the first swap-in, over contexts on ``schedule``, of a
        period whose select lies at or after ``at`` -- or, if that
        swap-in waits for a neighbour's hold, the neighbour's swap-in of
        that period.  Resumed then, every context has made its skipped
        selects before ``at``."""
        period = self.period
        delays = self.delays
        first = NEVER
        for c, (e, s) in enumerate(schedule):
            key = (c, self._swap_in(e, s, max(0, (at - e - 1) // period)))
            while True:
                first = min(first, key[1])
                delayed = delays.get(key)
                if delayed is None:
                    break
                key = delayed[1:]
        return first

    # -- called from the output loop's empty-select branch ------------------

    def idle(self, slot: int, now: int, idle_streak: int):
        """An empty select by context ``slot``.  Returns the event to
        park on, or None to back off event by event."""
        period = self.period
        last_e = self.last_e
        locked = now - last_e[slot] == period
        last_e[slot] = now
        self.last_streak[slot] = idle_streak
        if locked != self.locked[slot]:
            self.locked[slot] = locked
            if locked:
                self.num_locked += 1
            else:
                self.num_locked -= 1
                self.retry_at = 0
        if not self.parking:
            if (not locked or self.num_locked < len(last_e) or now < self.retry_at
                    or not self.input.parked or now - min(last_e) > period
                    or not self.router_idle() or not self._plan(slot, now)):
                return None
            self.parking = True
        elif not locked or not self.router_idle():
            # Work arrived, or a context left the locked schedule, while
            # the contexts were parking one by one.
            self.resume(now)
            return None
        if self.parked_at[slot] is not None:
            self._settle_slot(slot, now)
        self.parked_at[slot] = now
        self.streak_at[slot] = idle_streak
        self.resume_at[slot] = None
        swap_ins = []
        for k in range(self.ramp - idle_streak):
            request = self._swap_in(now, idle_streak, k)
            delayed = self.delays.get((slot, request))
            swap_ins.append(request if delayed is None else delayed[0])
        self.swap_ins[slot] = tuple(swap_ins)
        self.done_busy[slot] = self.done_rotations[slot] = 0
        self.num_parked += 1
        if self.num_parked == len(last_e):
            pending = self._pending
            while pending and pending[0] < now:
                heappop(pending)
            if pending:
                self._schedule_wake(pending[0])
        return self.events[slot]

    def _plan(self, slot: int, now: int) -> bool:
        """Whether the stage may start parking at ``slot``'s select.  The
        other contexts park at their next select; the stage must not
        have to resume before the last of them has: not for an announced
        event, nor one period before a collision (the contexts then reach
        it from their own selects, so that their core requests queue in
        event order; that deadline becomes a request)."""
        period = self.period
        schedule = list(zip(self.last_e, self.last_streak))
        # The others park one period after their last select, ``slot``
        # (the latest to select) now.
        self.last_e[slot] = now - period
        last_park = max(self.last_e) + period
        self.last_e[slot] = now
        pending = self._pending
        while pending and pending[0] < now:
            heappop(pending)
        collision = self._scan(now, schedule, slot)
        if not self._on_schedule(now, schedule, slot):
            return False
        if pending and self._resume_time(pending[0], schedule) < last_park:
            refused = pending[0]
        elif collision is not None and self._resume_time(collision - period, schedule) < last_park:
            refused = collision
        else:
            refused = None
        if refused is not None:
            # Locked as they are, the contexts keep their schedule until
            # then; no later select can do better before.
            self.retry_at = max(refused, now + period)
            return False
        if collision is not None:
            heappush(pending, collision - period)
        self.plan = schedule
        self.last_park = last_park
        return True

    # -- lazy charging ------------------------------------------------------

    def _settle_slot(self, i: int, through: int) -> None:
        start = self.parked_at[i]
        end = self.resume_at[i]
        if end is not None and end <= through:
            through = end
            self.parked_at[i] = None    # charged in full below
        span = through - start
        if span <= 0:
            return
        # Every step at an offset below ``span`` is done: the whole
        # periods, then the steps of the last one up to offset ``r``;
        # the swap-ins of the ramp where they are granted, the rest at
        # the saturated offset.
        q, r = divmod(span - 1, self.period)
        swap_ins = self.swap_ins[i]
        ramp = len(swap_ins)
        swapped = 0
        for grant in swap_ins:
            if grant >= through:
                break
            swapped += 1
        if span > OUTPUT_BACKOFF:
            swapped += max(0, (span - OUTPUT_BACKOFF - 1) // self.period + 1 - ramp)
        busy = (q * self.charged_per_period + self.charged_upto[r]
                + self.c_swap_in * swapped)
        rotations = q + (r >= self.rotation)
        self.contexts[i].me.busy_cycles += busy - self.done_busy[i]
        self.ring.rotations += rotations - self.done_rotations[i]
        self.done_busy[i] = busy
        self.done_rotations[i] = rotations

    def settle(self, through: int) -> None:
        for i, start in enumerate(self.parked_at):
            if start is not None:
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
        if not self.parked:
            # Still parking: the last context to park schedules the wake
            # if there is time for it, as _plan checked for its deadline.
            if self._resume_time(at, self.plan) < self.last_park:
                self.resume(now)
            return
        wake = self._resume_time(at, zip(self.parked_at, self.streak_at))
        if wake <= now:
            self.resume(now)
            return
        if self.wake_at is not None and self.wake_at <= wake:
            return
        self.wake_at = wake
        self._wake_gen += 1
        self.sim.schedule(wake - now, partial(self._wake, self._wake_gen))

    def _wake(self, gen: int) -> None:
        if gen == self._wake_gen:
            self.resume(self.sim.now)

    def _pass(self) -> None:
        """The token pass of a context that stays parked through its
        current period, on the cycle it falls on: what output_loop does
        at its rotation (which is charged with the parked periods)."""
        ring = self.ring
        ring._position = pos = (ring._position + 1) % len(ring.order)
        event = ring._waiting.pop(ring.order[pos], None)
        if event is not None and not event._done:
            event.succeed()

    def resume(self, now: int) -> None:
        """Turn parked contexts back into events, each from where its
        locked schedule has it at ``now``.  A context still backing off
        resumes at its swap-in; one that has asked for its core already,
        or whose swap-in will wait for the hold of a neighbour that stays
        parked, keeps its period parked -- its token pass still happens
        on its cycle (_pass) -- and resumes at its next swap-in.  Either
        way it resumes with the idle streak it has reached by then, at a
        step the event-by-event run also takes there.  The ring position
        is advanced by the passes made before ``now``."""
        self.parking = False
        self.wake_at = None
        self._wake_gen += 1
        period = self.period
        rotation = self.rotation
        sim = self.sim
        # Each parked context's period at ``now``, and its swap-in there.
        where = {}
        for i, e in enumerate(self.parked_at):
            if e is not None and self.resume_at[i] is None:
                k = max(0, (now - e - 1) // period)
                where[i] = (k, self._swap_in(e, self.streak_at[i], k))
        stays = {i for i, (k, request) in where.items() if now > request}
        grown = True
        while grown:
            grown = False
            for i, (k, request) in where.items():
                delayed = self.delays.get((i, request))
                if (i not in stays and delayed is not None and delayed[1] in stays
                        and where[delayed[1]][1] == delayed[2]):
                    stays.add(i)
                    grown = True
        passed = 0
        for i, (k, wake) in where.items():
            e = self.parked_at[i]
            s = self.streak_at[i]
            if i in stays:
                turn = e + k * period + rotation
                if turn >= now:
                    sim.schedule(turn - now, self._pass)
                k += 1
                wake = self._swap_in(e, s, k)
            if now > e + rotation:
                passed += (now - e - rotation - 1) // period + 1
            self.resume_at[i] = wake
            proc = self.procs[i]
            # Resume the parked process directly at that swap-in (the
            # event it blocks on is never triggered).
            self.events[i]._cancel(proc)
            proc._waiting_on = None
            sim._schedule_step(wake - now, proc, s + k)
        self.num_parked = 0
        ring = self.ring
        ring._position = (ring._position + passed) % len(ring.order)
