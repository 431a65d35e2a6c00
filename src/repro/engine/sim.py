"""Cycle-resolution discrete-event simulator.

Processes are Python generators that yield *commands*:

* :class:`Delay` -- resume after a fixed number of cycles.
* :class:`Event` -- resume when the event is triggered (one-shot).
* :class:`Signal` -- resume on the next firing (repeating).
* ``resource.acquire()`` -- resume once the resource is granted.
* another :class:`Process` -- resume when that process terminates (join).

The simulator advances time only through the event queue; there is no
wall-clock component, so runs are fully deterministic given deterministic
process code.

Ordering contract (relied on by every hardware model): events execute in
``(cycle, seq)`` order, where ``seq`` is a global insertion counter.  In
particular, events scheduled for the same cycle run FIFO in the order
they were scheduled, including events scheduled *during* that cycle.

Two scheduler implementations provide this contract:

* ``"calendar"`` (default) -- a two-tier structure: a calendar ring of
  near-future cycle buckets (same-cycle wakes are O(1) appends, no heap
  churn) backed by a binary heap for far-future events.
* ``"heap"`` -- the original single binary heap, kept as a reference so
  the determinism suite can assert both produce bit-identical runs.

Select with ``Simulator(scheduler=...)`` or the ``REPRO_SIM_SCHEDULER``
environment variable.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import deque
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterator, List, Optional, Tuple

from repro.obs.recorder import NULL_RECORDER

# Calendar ring geometry: delays shorter than the ring go into per-cycle
# buckets; longer ones overflow to the far-future heap.
_RING_BITS = 10
_RING_SIZE = 1 << _RING_BITS
_RING_MASK = _RING_SIZE - 1


# A cycle and an event count no run reaches: the horizon of a run
# without ``until`` and the budget of a run without ``max_events``.
_NEVER = sys.maxsize

# What a ring-bucket entry's ``_send`` returns when there is no command to
# dispatch: the entry was a plain callback, or its process has finished.
_SKIP = object()

# ``Process._waiting_on`` of a process whose queued wake cannot be a
# resource grant: a fired event, signal or join, or an interrupt's throw.
# None means it may be one, so a withdrawn wake whose value is a Resource
# is that resource's grant (see Process.interrupt).
_WOKEN = object()


class SimulationError(RuntimeError):
    """Raised for illegal simulator usage (double release, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Delay:
    """Command: suspend the yielding process for ``cycles`` cycles."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise SimulationError(f"negative delay: {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Delay({self.cycles})"


# Delay instances are immutable, so the hot paths share one instance per
# small cycle count instead of allocating a fresh command per yield.
_DELAY_CACHE: Tuple[Delay, ...] = tuple(Delay(i) for i in range(_RING_SIZE))


def delay(cycles: int) -> Delay:
    """Cached :class:`Delay` factory for hot paths."""
    if 0 <= cycles < _RING_SIZE:
        return _DELAY_CACHE[cycles]
    return Delay(cycles)


class Event:
    """One-shot event.  Waiters resume when :meth:`succeed` is called.

    Waiting on an already-succeeded event resumes immediately with the
    stored value.  Succeeding twice is an error.
    """

    __slots__ = ("sim", "_waiters", "_done", "_value", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: List["Process"] = []
        self._done = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError(f"event {self.name!r} succeeded twice")
        self._done = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            self.sim._resume_many(waiters, value)

    def _wait(self, proc: "Process") -> None:
        if self._done:
            self.sim._resume(proc, self._value)
        else:
            self._waiters.append(proc)
            proc._waiting_on = self

    def _cancel(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)


class Signal:
    """Repeating signal: each :meth:`fire` wakes every currently-waiting
    process (and only those).  Used to model the IXP1200 inter-thread
    signalling hardware, which is on-chip and effectively instantaneous.
    """

    __slots__ = ("sim", "_waiters", "name", "fire_count")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: List["Process"] = []
        self.fire_count = 0

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns the number woken.

        All waiters land on the same cycle, so they are dispatched as one
        batch (a single bucket extension, no per-waiter heap traffic).
        """
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        if waiters:
            self.sim._resume_many(waiters, value)
        return len(waiters)

    def _wait(self, proc: "Process") -> None:
        self._waiters.append(proc)
        proc._waiting_on = self

    def _cancel(self, proc: "Process") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)


class _AcquireCommand:
    """Internal command produced by :meth:`Resource.acquire`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource


class Resource:
    """A counted resource with a FIFO wait queue.

    ``capacity`` units exist; a process acquires one unit with
    ``yield resource.acquire()`` and returns it with ``resource.release()``
    (a plain call, not a yield -- releasing costs no simulated time).
    """

    __slots__ = (
        "sim", "capacity", "in_use", "_queue", "name",
        "total_waits", "total_wait_cycles", "_acquire_command",
    )

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self.name = name
        self._queue: Deque[Tuple["Process", int]] = deque()
        self.total_waits = 0
        self.total_wait_cycles = 0
        # The command is stateless, so one shared instance serves every
        # acquire() of this resource.
        self._acquire_command = _AcquireCommand(self)

    def acquire(self) -> _AcquireCommand:
        return self._acquire_command

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def _request(self, proc: "Process") -> None:
        # Grant/defer.  A grant is a wake at this cycle that carries the
        # resource, with _waiting_on None (see _WOKEN).  The calendar's
        # drain loop inlines this method.
        if self.in_use < self.capacity and not self._queue:
            self.in_use += 1
            proc._waiting_on = None
            sim = self.sim
            if sim._use_ring:
                bucket = sim._ring[sim.now & _RING_MASK]
                if not bucket:
                    heappush(sim._ring_cycles, sim.now)
                bucket.append((proc, self))
            else:
                seq = sim._seq + 1
                sim._seq = seq
                heappush(sim._heap, (sim.now, seq, proc, self, None))
        else:
            self.total_waits += 1
            self._queue.append((proc, self.sim.now))
            proc._waiting_on = self

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            proc, enq_time = self._queue.popleft()
            sim = self.sim
            self.total_wait_cycles += sim.now - enq_time
            proc._waiting_on = None
            if sim._use_ring:
                bucket = sim._ring[sim.now & _RING_MASK]
                if not bucket:
                    heappush(sim._ring_cycles, sim.now)
                bucket.append((proc, self))
            else:
                seq = sim._seq + 1
                sim._seq = seq
                heappush(sim._heap, (sim.now, seq, proc, self, None))
        else:
            self.in_use -= 1

    def _cancel(self, proc: "Process") -> None:
        for i, (waiter, __) in enumerate(self._queue):
            if waiter is proc:
                del self._queue[i]
                return


class _CallbackRunner:
    """Stands where a process would in a plain callback's ring-bucket
    entry, ``(_CALLBACK, callback)``: "resuming" it runs the callback and
    leaves nothing to dispatch."""

    __slots__ = ()

    def _send(self, callback: Callable[[], None]) -> object:
        callback()
        return _SKIP


_CALLBACK = _CallbackRunner()


def _finished(value: Any) -> object:
    """``Process._send`` once the process has finished."""
    return _SKIP


class Process:
    """A generator-based simulated process."""

    __slots__ = (
        "sim", "gen", "name", "_alive", "_result", "_joiners", "_waiting_on",
        "_interrupted", "_send", "_wake",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._alive = True
        self._result: Any = None
        self._joiners: List["Process"] = []
        self._waiting_on: Any = None
        # The heap scheduler's _step tests _alive and _interrupted; the
        # calendar's drain loop resumes every entry through _send instead:
        # gen.send, swapped to _throw by interrupt() and to _finished by
        # _finish().
        self._interrupted = False
        self._send = gen.send
        # The ring entry of every Delay wake, built once.
        self._wake = (self, None)

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def result(self) -> Any:
        return self._result

    def interrupt(self, cause: Any = None) -> None:
        """Abort whatever this process is waiting for and throw
        :class:`Interrupt` into it at the current simulation time.

        A wake already queued for the process (a timer, a fired event, a
        resource grant, an earlier interrupt) is withdrawn first, and a
        withdrawn grant returns its unit, so the throw carries ``cause``
        and nothing else resumes the process.  A process cannot interrupt
        itself.
        """
        if not self._alive:
            return
        if self.gen.gi_running:
            raise SimulationError(f"process {self.name!r} cannot interrupt itself")
        waiting_on = self._waiting_on
        if hasattr(waiting_on, "_cancel"):
            waiting_on._cancel(self)
        else:
            value = self.sim._withdraw(self)
            if waiting_on is None and isinstance(value, Resource):
                value.release()
        self._waiting_on = _WOKEN
        self._interrupted = True
        self._send = self._throw
        self.sim._schedule_step(0, self, cause)

    def _throw(self, cause: Any) -> Any:
        self._interrupted = False
        self._send = self.gen.send
        return self.gen.throw(Interrupt(cause))

    def _wait(self, proc: "Process") -> None:
        # Support `yield other_process` as a join.
        if not self._alive:
            proc.sim._resume(proc, self._result)
        else:
            self._joiners.append(proc)
            proc._waiting_on = self

    def _cancel(self, proc: "Process") -> None:
        if proc in self._joiners:
            self._joiners.remove(proc)

    def _finish(self, result: Any) -> None:
        self._alive = False
        self._send = _finished
        self._result = result
        sim = self.sim
        if sim.recorder.enabled:
            sim.recorder.record(sim.now, "sim", "process_exit", None, self.name)
        joiners, self._joiners = self._joiners, []
        if joiners:
            sim._resume_many(joiners, result)

    def __repr__(self) -> str:
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} ({state})>"


@contextmanager
def collector_held() -> Iterator[None]:
    """Hold the cyclic garbage collector off for the block.

    Simulation allocates mostly refcount-collected tuples and generator
    frames, so collector passes in the middle of the work add pauses
    without reclaiming anything.  Re-entrant: a no-op when the collector
    is already off, so nested holds never turn it back on early and a
    caller that disabled it keeps it disabled.

    As a decorator (``@collector_held()``) the hold ends after the call's
    frame is gone, so the young pass that follows frees what the call
    left behind instead of promoting it to an older generation.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Simulator:
    """The event loop.  Time is an integer cycle count starting at zero.

    Queue entries are plain tuples, so the hot paths never allocate
    closures.  Ring buckets hold ``(proc, value)`` pairs -- or
    ``(_CALLBACK, callback)`` for plain callbacks -- with *no* sequence
    number: appends already happen in schedule order, and far-future
    heap events maturing into a bucket were necessarily scheduled at
    least ``_RING_SIZE`` cycles earlier than every ring entry for that
    cycle, so merging them is a plain prepend.  The far-future heap
    holds ``(when, seq, proc, value, callback)`` where ``seq`` breaks
    same-cycle ties among heap entries only.
    """

    def __init__(self, scheduler: Optional[str] = None):
        if scheduler is None:
            scheduler = os.environ.get("REPRO_SIM_SCHEDULER", "calendar")
        if scheduler not in ("calendar", "heap"):
            raise SimulationError(f"unknown scheduler {scheduler!r} (use 'calendar' or 'heap')")
        self.scheduler = scheduler
        self._use_ring = scheduler == "calendar"
        # Observability sink (repro.obs).  The hot event loop never
        # consults it: hooks live only on process-lifecycle edges
        # (spawn/finish), so the disabled path costs nothing per event.
        self.recorder = NULL_RECORDER
        self.now: int = 0
        self._seq = 0
        self._events_processed = 0
        self._stopped = False
        self._heap: List[tuple] = []
        if self._use_ring:
            self._ring: List[list] = [[] for __ in range(_RING_SIZE)]
            # Min-heap of cycles that currently have a non-empty bucket;
            # one entry per pending cycle, not per event.
            self._ring_cycles: List[int] = []

    # -- event queue ------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        if self._use_ring and delay < _RING_SIZE:
            bucket = self._ring[when & _RING_MASK]
            if not bucket:
                heappush(self._ring_cycles, when)
            bucket.append((_CALLBACK, callback))
        else:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, (when, seq, None, None, callback))

    def _schedule_step(self, delay: int, proc: "Process", value: Any) -> None:
        """Schedule ``self._step(proc, value)`` without allocating a closure."""
        when = self.now + delay
        if self._use_ring and delay < _RING_SIZE:
            bucket = self._ring[when & _RING_MASK]
            if not bucket:
                heappush(self._ring_cycles, when)
            bucket.append((proc, value))
        else:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, (when, seq, proc, value, None))

    def stop(self) -> None:
        """Stop :meth:`run` after the current callback returns."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue empties, ``until`` cycles is
        reached, or ``max_events`` callbacks have run.  Returns ``now``.
        An ``until`` behind ``now`` (possible after a ``max_events`` or
        ``stop()`` cut) is an error: the clock never runs backwards.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run back to cycle {until} (now {self.now})")
        self._stopped = False
        with collector_held():
            if self._use_ring:
                return self._run_ring(until, max_events)
            return self._run_heap(until, max_events)

    def _run_ring(self, until: Optional[int], max_events: Optional[int]) -> int:
        heap = self._heap
        ring = self._ring
        cycles = self._ring_cycles
        ring_size = _RING_SIZE
        mask = _RING_MASK
        delay_cls = Delay
        acquire_cls = _AcquireCommand
        skip = _SKIP
        horizon = _NEVER if until is None else until
        # Events this run may still process.  ``max_events=0`` (or
        # negative) still runs one event, like the heap's post-check.
        left = _NEVER if max_events is None else max(max_events, 1)
        # A stopped or limited run leaves the rest of its bucket at ``now``
        # without a marker; mark it, and the pick below takes it first.
        when = self.now
        if ring[when & mask] and (not cycles or cycles[0] != when):
            heappush(cycles, when)
        while True:
            # The next cycle is the ring's earliest marked bucket, unless
            # the far heap's head is due first or at the same cycle.
            if cycles and (not heap or cycles[0] < heap[0][0]):
                when = cycles[0]
                if when > horizon:
                    self.now = until
                    break
                heappop(cycles)
                bucket = ring[when & mask]
            elif heap:
                when = heap[0][0]
                if when > horizon:
                    self.now = until
                    break
                bucket = self._mature(when)
            else:
                if until is not None:
                    self.now = max(self.now, until)
                break
            self.now = when
            # Drain the bucket FIFO; the list iterator picks up same-cycle
            # wakes appended while draining.  Every entry resumes through
            # ``_send`` (see Process), and the Delay and acquire commands
            # are dispatched here, with no intermediate Python calls.
            i = 0
            for proc, value in bucket:
                i += 1
                try:
                    command = proc._send(value)
                except StopIteration as stop:
                    proc._finish(stop.value)
                except Interrupt:
                    proc._finish(None)
                else:
                    cls = command.__class__
                    if cls is delay_cls:
                        d = command.cycles
                        if d < ring_size:
                            target = ring[(when + d) & mask]
                            if not target:
                                heappush(cycles, when + d)
                            target.append(proc._wake)
                        else:
                            seq = self._seq + 1
                            self._seq = seq
                            heappush(heap, (when + d, seq, proc, None, None))
                    elif cls is acquire_cls:
                        # Resource._request; an immediate grant is a wake at
                        # this cycle, i.e. an append to this bucket.
                        resource = command.resource
                        if resource.in_use < resource.capacity and not resource._queue:
                            resource.in_use += 1
                            proc._waiting_on = None
                            bucket.append((proc, resource))
                        else:
                            resource.total_waits += 1
                            resource._queue.append((proc, when))
                            proc._waiting_on = resource
                    elif command is not skip:
                        if isinstance(command, Delay):
                            self._schedule_step(command.cycles, proc, None)
                        elif isinstance(command, (Event, Signal, Process)):
                            command._wait(proc)
                        else:
                            raise SimulationError(
                                f"process {proc.name!r} yielded unsupported "
                                f"command {command!r}"
                            )
                if i == left or self._stopped:
                    # The rest of the bucket waits for the next run.
                    del bucket[:i]
                    self._events_processed += i
                    return when
            bucket.clear()
            self._events_processed += i
            left -= i
        return self.now

    def _mature(self, when: int) -> list:
        """Move the far-heap events due at ``when`` into its bucket, and
        return the bucket.  A heap event for ``when`` was scheduled at
        least ``_RING_SIZE`` cycles earlier, i.e. before every ring entry
        waiting there, so the batch (popped in seq order) simply prepends.
        """
        heap = self._heap
        matured = []
        while heap and heap[0][0] == when:
            __, __, proc, value, callback = heappop(heap)
            matured.append((proc, value) if proc is not None else (_CALLBACK, callback))
        bucket = self._ring[when & _RING_MASK]
        bucket[:0] = matured
        cycles = self._ring_cycles
        if cycles and cycles[0] == when:
            heappop(cycles)
        return bucket

    def _withdraw(self, proc: Process) -> Any:
        """Remove the wake queued for ``proc`` and return its value (None
        if it has none): the interrupt path.  A process that is not
        running and waits on nothing has exactly one queued wake."""
        heap = self._heap
        for k, entry in enumerate(heap):
            if entry[2] is proc:
                del heap[k]
                heapify(heap)
                return entry[3]
        if self._use_ring:
            return self._withdraw_from_ring(proc)
        return None

    def _withdraw_from_ring(self, proc: Process) -> Any:
        """Remove ``proc``'s ring entry and return its value (None if it
        has none).  Buckets ahead of ``now`` hold only pending entries;
        the bucket at ``now`` may also hold entries this cycle has already
        drained, and they all precede the pending one.  So the first entry
        of ``proc`` seen scanning back from the farthest bucket is it."""
        cycles = self._ring_cycles
        for when in range(self.now + _RING_SIZE - 1, self.now - 1, -1):
            bucket = self._ring[when & _RING_MASK]
            for k in range(len(bucket) - 1, -1, -1):
                if bucket[k][0] is proc:
                    value = bucket.pop(k)[1]
                    if not bucket and when in cycles:
                        cycles.remove(when)
                        heapify(cycles)
                    return value
        return None

    def _run_heap(self, until: Optional[int], max_events: Optional[int]) -> int:
        heap = self._heap
        step = self._step
        count = 0
        while heap and not self._stopped:
            entry = heap[0]
            when = entry[0]
            if until is not None and when > until:
                self.now = until
                break
            heappop(heap)
            self.now = when
            proc = entry[2]
            if proc is not None:
                step(proc, entry[3])
            else:
                entry[4]()
            self._events_processed += 1
            count += 1
            if max_events is not None and count >= max_events:
                break
        else:
            if until is not None and not self._stopped:
                self.now = max(self.now, until)
        return self.now

    # -- processes --------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process; it takes its first step at
        the current simulation time (via a zero-delay event)."""
        proc = Process(self, gen, name=name)
        self._schedule_step(0, proc, None)
        if self.recorder.enabled:
            self.recorder.record(self.now, "sim", "spawn", None, proc.name)
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def signal(self, name: str = "") -> Signal:
        return Signal(self, name)

    def resource(self, capacity: int = 1, name: str = "") -> Resource:
        return Resource(self, capacity, name)

    def _resume(self, proc: Process, value: Any) -> None:
        proc._waiting_on = _WOKEN
        if self._use_ring:
            bucket = self._ring[self.now & _RING_MASK]
            if not bucket:
                heappush(self._ring_cycles, self.now)
            bucket.append((proc, value))
        else:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, (self.now, seq, proc, value, None))

    def _resume_many(self, procs: List[Process], value: Any) -> None:
        """Wake a batch of processes at the current cycle in one pass,
        preserving their FIFO order (one bucket extension, no per-waiter
        heap traffic)."""
        if self._use_ring:
            bucket = self._ring[self.now & _RING_MASK]
            if not bucket:
                heappush(self._ring_cycles, self.now)
            for proc in procs:
                proc._waiting_on = _WOKEN
                bucket.append((proc, value))
        else:
            for proc in procs:
                proc._waiting_on = _WOKEN
                self._schedule_step(0, proc, value)

    def _step(self, proc: Process, value: Any) -> None:
        if not proc._alive:
            return
        try:
            if proc._interrupted:
                proc._interrupted = False
                command = proc.gen.throw(Interrupt(value))
            else:
                command = proc.gen.send(value)
        except StopIteration as stop:
            proc._finish(getattr(stop, "value", None))
            return
        except Interrupt:
            proc._finish(None)
            return
        # Dispatch, most frequent command first.
        if isinstance(command, Delay):
            self._schedule_step(command.cycles, proc, None)
        elif isinstance(command, _AcquireCommand):
            command.resource._request(proc)
        elif isinstance(command, (Event, Signal, Process)):
            command._wait(proc)
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded unsupported command {command!r}"
            )
