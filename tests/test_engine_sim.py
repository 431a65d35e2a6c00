"""Unit tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.engine import Delay, Interrupt, SimulationError, Simulator
from repro.engine.sim import collector_held


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(10, lambda: order.append("b"))
    sim.schedule(5, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 20


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(7, lambda tag=tag: order.append(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(1))
    sim.run(until=50)
    assert fired == []
    assert sim.now == 50
    sim.run()
    assert fired == [1]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_process_delay_sequence():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(("start", sim.now))
        yield Delay(10)
        trace.append(("mid", sim.now))
        yield Delay(5)
        trace.append(("end", sim.now))

    sim.spawn(worker())
    sim.run()
    assert trace == [("start", 0), ("mid", 10), ("end", 15)]


def test_process_result_and_join():
    sim = Simulator()
    seen = []

    def child():
        yield Delay(3)
        return 42

    def parent():
        proc = sim.spawn(child())
        value = yield proc
        seen.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert seen == [(3, 42)]


def test_join_on_finished_process_resumes_immediately():
    sim = Simulator()
    seen = []

    def child():
        yield Delay(1)
        return "done"

    def parent(proc):
        yield Delay(10)
        value = yield proc
        seen.append((sim.now, value))

    proc = sim.spawn(child())
    sim.spawn(parent(proc))
    sim.run()
    assert seen == [(10, "done")]


def test_event_wakes_all_waiters_with_value():
    sim = Simulator()
    event = sim.event("go")
    woken = []

    def waiter(i):
        value = yield event
        woken.append((i, sim.now, value))

    for i in range(3):
        sim.spawn(waiter(i))
    sim.schedule(9, lambda: event.succeed("v"))
    sim.run()
    assert sorted(woken) == [(0, 9, "v"), (1, 9, "v"), (2, 9, "v")]


def test_event_succeed_twice_is_error():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_wait_on_triggered_event_is_immediate():
    sim = Simulator()
    event = sim.event()
    event.succeed(7)
    got = []

    def waiter():
        value = yield event
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0, 7)]


def test_signal_only_wakes_current_waiters():
    sim = Simulator()
    signal = sim.signal()
    log = []

    def waiter(i, delay):
        yield Delay(delay)
        yield signal
        log.append((i, sim.now))

    sim.spawn(waiter(0, 0))
    sim.spawn(waiter(1, 20))  # arrives after the first fire
    sim.schedule(10, signal.fire)
    sim.schedule(30, signal.fire)
    sim.run()
    assert log == [(0, 10), (1, 30)]
    assert signal.fire_count == 2


def test_resource_mutual_exclusion_and_fifo():
    sim = Simulator()
    resource = sim.resource(capacity=1, name="bus")
    log = []

    def user(i):
        yield resource.acquire()
        log.append(("in", i, sim.now))
        yield Delay(10)
        log.append(("out", i, sim.now))
        resource.release()

    for i in range(3):
        sim.spawn(user(i))
    sim.run()
    assert log == [
        ("in", 0, 0), ("out", 0, 10),
        ("in", 1, 10), ("out", 1, 20),
        ("in", 2, 20), ("out", 2, 30),
    ]
    assert resource.total_waits == 2


def test_resource_capacity_two_allows_parallelism():
    sim = Simulator()
    resource = sim.resource(capacity=2)
    done_at = []

    def user():
        yield resource.acquire()
        yield Delay(10)
        resource.release()
        done_at.append(sim.now)

    for __ in range(4):
        sim.spawn(user())
    sim.run()
    assert done_at == [10, 10, 20, 20]


def test_release_without_acquire_is_error():
    sim = Simulator()
    resource = sim.resource()
    with pytest.raises(SimulationError):
        resource.release()


def test_bad_yield_raises():
    sim = Simulator()

    def broken():
        yield 123

    sim.spawn(broken())
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_breaks_wait():
    sim = Simulator()
    event = sim.event()
    log = []

    def waiter():
        try:
            yield event
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield Delay(5)
        log.append(("after", sim.now))

    proc = sim.spawn(waiter())
    sim.schedule(8, lambda: proc.interrupt("timeout"))
    sim.run()
    assert log == [("interrupted", 8, "timeout"), ("after", 13)]
    # The event later firing must not resurrect the canceled wait.
    event.succeed()
    sim.run()
    assert log == [("interrupted", 8, "timeout"), ("after", 13)]


def test_interrupted_resource_waiter_leaves_queue():
    sim = Simulator()
    resource = sim.resource()
    log = []

    def holder():
        yield resource.acquire()
        yield Delay(100)
        resource.release()

    def impatient():
        try:
            yield resource.acquire()
            log.append("acquired")
            resource.release()
        except Interrupt:
            log.append("gave-up")

    sim.spawn(holder())
    proc = sim.spawn(impatient())
    sim.schedule(10, proc.interrupt)
    sim.run()
    assert log == ["gave-up"]
    assert resource.available == 1


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
@pytest.mark.parametrize("nap", [100, 5_000])  # a ring wake and a far-heap wake
def test_interrupt_withdraws_the_pending_timer(scheduler, nap):
    """An interrupted sleeper that then waits on an event nobody fires
    must stay asleep: its old timer no longer resumes it."""
    sim = Simulator(scheduler=scheduler)
    never = sim.event()
    log = []

    def sleeper():
        try:
            yield Delay(nap)
            log.append(("woke", sim.now))
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        value = yield never
        log.append(("resumed", sim.now, value))

    proc = sim.spawn(sleeper())
    sim.schedule(10, lambda: proc.interrupt("stop"))
    sim.run()
    assert log == [("interrupted", 10, "stop")]
    assert proc.alive


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_interrupt_carries_its_cause_past_a_same_cycle_wake(scheduler):
    """The interrupt lands in the cycle the victim's timer expires, ahead
    of the timer's wake: the victim sees the cause, once, and its next
    wait is not answered by the cause."""
    sim = Simulator(scheduler=scheduler)
    log = []
    procs = []

    def victim():
        try:
            yield Delay(10)
            log.append(("woke", sim.now))
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        value = yield sim.event()
        log.append(("resumed", sim.now, value))

    sim.schedule(10, lambda: procs[0].interrupt("cause"))
    procs.append(sim.spawn(victim()))
    sim.run()
    assert log == [("interrupted", 10, "cause")]


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_interrupt_hands_back_a_queued_grant(scheduler):
    """A waiter granted the resource but interrupted before it resumes
    returns the unit, which passes on to the next waiter."""
    sim = Simulator(scheduler=scheduler)
    resource = sim.resource()
    log = []
    procs = {}

    def holder():
        yield resource.acquire()
        yield Delay(10)
        resource.release()  # queues the grant to "first"
        procs["first"].interrupt("late")

    def waiter(name):
        try:
            yield resource.acquire()
            log.append((name, "acquired", sim.now))
            yield Delay(5)
            resource.release()
        except Interrupt as intr:
            log.append((name, "interrupted", sim.now, intr.cause))

    sim.spawn(holder())
    procs["first"] = sim.spawn(waiter("first"))
    procs["second"] = sim.spawn(waiter("second"))
    sim.run()
    # The withdrawal's release grants "second" before the throw is queued.
    assert log == [("second", "acquired", 10), ("first", "interrupted", 10, "late")]
    assert resource.available == 1


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_interrupt_hands_back_an_immediate_grant(scheduler):
    """A process woken by an event, then granted the idle resource at
    once and interrupted before the grant resumes it, returns the unit."""
    sim = Simulator(scheduler=scheduler)
    resource = sim.resource()
    go = sim.event()
    log = []

    def waiter():
        yield go
        try:
            yield resource.acquire()
            log.append(("acquired", sim.now))
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.spawn(waiter())

    def fire():
        go.succeed()
        # Runs after the waiter's wake and its grant, before the grant's wake.
        sim.schedule(0, lambda: proc.interrupt("late"))

    sim.schedule(5, fire)
    sim.run()
    assert log == [("interrupted", 5, "late")]
    assert resource.available == 1


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
@pytest.mark.parametrize("late", [False, True])  # waits before or after the firing
def test_interrupt_keeps_a_resource_an_event_carried(scheduler, late):
    """A fired event's wake whose value is a Resource is not a grant:
    withdrawing it hands nothing back, and its holder keeps the unit."""
    sim = Simulator(scheduler=scheduler)
    held = sim.resource()
    fired = sim.event()
    log = []

    def waiter():
        try:
            if late:
                yield Delay(1)
            yield fired
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def owner():
        yield held.acquire()
        fired.succeed(held)
        if late:
            # Runs right behind the waiter's Delay wake, which waits on the
            # fired event and so queues its wake.
            sim.schedule(1, lambda: procs[0].interrupt("cause"))
        else:
            procs[0].interrupt("cause")
        yield Delay(100)

    procs = [sim.spawn(waiter())]
    sim.spawn(owner())
    sim.run()
    assert log == [("interrupted", int(late), "cause")]
    assert held.in_use == 1


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_second_interrupt_replaces_the_pending_throw(scheduler):
    """Two interrupts before the victim runs: it sees the second cause
    once, and withdrawing the first throw releases nothing, even when
    that cause is a Resource."""
    sim = Simulator(scheduler=scheduler)
    held = sim.resource()
    log = []

    def victim():
        try:
            yield Delay(50)
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        value = yield sim.event()
        log.append(("resumed", sim.now, value))

    def owner():
        yield held.acquire()
        yield Delay(100)

    proc = sim.spawn(victim())
    sim.spawn(owner())

    def interrupt_twice():
        proc.interrupt(held)
        proc.interrupt("second")

    sim.schedule(10, interrupt_twice)
    sim.run()
    assert log == [("interrupted", 10, "second")]
    assert held.in_use == 1


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_interrupt_withdraws_a_wake_behind_drained_entries(scheduler):
    """The victim already ran this cycle and queued a zero-delay wake
    behind the interrupting callback: that wake is withdrawn, and every
    other entry of the cycle still runs once."""
    sim = Simulator(scheduler=scheduler)
    log = []

    def victim():
        yield Delay(5)
        log.append(("ran", sim.now))
        try:
            yield Delay(0)
            log.append(("woke", sim.now))
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.spawn(victim())
    sim.run(until=0)
    sim.schedule(5, lambda: proc.interrupt("now"))
    sim.schedule(5, lambda: log.append(("bystander", sim.now)))
    sim.run()
    assert log == [("ran", 5), ("bystander", 5), ("interrupted", 5, "now")]


def test_process_cannot_interrupt_itself():
    sim = Simulator()
    procs = []

    def rogue():
        yield Delay(1)
        procs[0].interrupt()

    procs.append(sim.spawn(rogue()))
    with pytest.raises(SimulationError):
        sim.run()


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(5, lambda: (fired.append(1), sim.stop()))
    sim.schedule(10, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_run_until_behind_now_is_rejected(scheduler):
    """A run cut by ``max_events`` can leave ``now`` past a later
    ``until``; the clock must not run backwards, and the pending wake
    keeps its cycle."""
    sim = Simulator(scheduler=scheduler)
    woke = []

    def proc():
        yield Delay(100)
        yield Delay(1000)
        woke.append(sim.now)

    sim.spawn(proc())
    sim.run(max_events=2)
    assert sim.now == 100
    with pytest.raises(SimulationError):
        sim.run(until=76)
    assert sim.now == 100
    sim.run()
    assert woke == [1100]


# ---------------------------------------------------------------------------
# The collector policy: held for the block, re-entrant, exception-safe.
# ---------------------------------------------------------------------------


@pytest.fixture
def collector_on():
    """Start with the collector enabled, and leave it as it was found."""
    was = gc.isenabled()
    gc.enable()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def test_collector_held_turns_an_enabled_collector_off_for_the_block(collector_on):
    with collector_held():
        assert not gc.isenabled()
    assert gc.isenabled()

    with pytest.raises(ValueError):
        with collector_held():
            assert not gc.isenabled()
            raise ValueError("boom")
    assert gc.isenabled()


def test_collector_held_leaves_a_disabled_collector_disabled(collector_on):
    gc.disable()
    with collector_held():
        with collector_held():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_run_reenables_the_collector_after_a_process_raises(collector_on):
    sim = Simulator()
    seen = []

    def proc():
        seen.append(gc.isenabled())
        yield Delay(1)
        raise ValueError("boom")

    sim.spawn(proc())
    with pytest.raises(ValueError):
        sim.run()
    assert seen == [False]
    assert gc.isenabled()
