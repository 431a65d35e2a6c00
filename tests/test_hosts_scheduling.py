"""Tests for the proportional-share (stride) scheduler."""

import pytest

from repro.hosts.scheduling import StrideScheduler


def drain(scheduler, rounds, work_per_item=100):
    """Run the scheduler for ``rounds`` selections, charging equal work."""
    served = []
    for __ in range(rounds):
        pick = scheduler.select()
        if pick is None:
            break
        name, __item = pick
        scheduler.charge(name, work_per_item)
        served.append(name)
    return served


def test_equal_shares_serve_equally():
    scheduler = StrideScheduler()
    scheduler.add_flow("a")
    scheduler.add_flow("b")
    for i in range(100):
        scheduler.enqueue("a", i)
        scheduler.enqueue("b", i)
    served = drain(scheduler, 100)
    assert abs(served.count("a") - served.count("b")) <= 2


def test_proportional_shares_respected():
    scheduler = StrideScheduler()
    scheduler.add_flow("heavy", tickets=300)
    scheduler.add_flow("light", tickets=100)
    for i in range(400):
        scheduler.enqueue("heavy", i)
        scheduler.enqueue("light", i)
    served = drain(scheduler, 200)
    heavy, light = served.count("heavy"), served.count("light")
    assert heavy / light == pytest.approx(3.0, rel=0.15)


def test_backlogged_flow_does_not_starve_when_other_empties():
    scheduler = StrideScheduler()
    scheduler.add_flow("a", tickets=100)
    scheduler.add_flow("b", tickets=100)
    for i in range(10):
        scheduler.enqueue("a", i)
    served = drain(scheduler, 10)
    assert served == ["a"] * 10


def test_new_flow_joins_at_current_pass():
    """A late-arriving flow must not get a huge burst from pass=0."""
    scheduler = StrideScheduler(queue_capacity=2000)
    scheduler.add_flow("old")
    for i in range(1000):
        scheduler.enqueue("old", i)
    drain(scheduler, 500)
    scheduler.add_flow("new")
    for i in range(100):
        scheduler.enqueue("new", i)
    served = drain(scheduler, 100)
    # Roughly alternating, not 100 consecutive "new".
    assert served.count("new") <= 60


def test_per_flow_queue_capacity_isolates_overload():
    scheduler = StrideScheduler(queue_capacity=10)
    scheduler.add_flow("attacker")
    scheduler.add_flow("victim")
    for i in range(1000):
        scheduler.enqueue("attacker", i)
    assert scheduler.total_dropped == 990
    assert scheduler.enqueue("victim", 0)  # victim unaffected
    stats = scheduler.stats()
    assert stats["victim"]["dropped"] == 0
    assert stats["attacker"]["dropped"] == 990


def test_unknown_flow_auto_registers():
    scheduler = StrideScheduler()
    assert scheduler.enqueue("surprise", 1)
    assert "surprise" in scheduler.flows()


def test_duplicate_and_bad_flows_rejected():
    scheduler = StrideScheduler()
    scheduler.add_flow("a")
    with pytest.raises(ValueError):
        scheduler.add_flow("a")
    with pytest.raises(ValueError):
        scheduler.add_flow("zero", tickets=0)


def test_select_empty_returns_none():
    assert StrideScheduler().select() is None
