"""The chaos campaign: seeded schedule generation, trial invariants,
campaign byte-identity, schedule shrinking, and the CLI surface."""

import gc
import json
import weakref

import pytest

from repro.chaos import (FAULT_KINDS, FaultSpec, generate_schedule,
                         run_campaign, run_trial, schedule_from_json,
                         schedule_to_json, shrink_schedule)
from repro.chaos.campaign import RING_LINKS, RING_ROUTERS, replay_schedule
from repro.chaos.shrink import ddmin
from repro.cli import main

WINDOW = 90_000


# ---------------------------------------------------------------------------
# Schedule generation + serialization.
# ---------------------------------------------------------------------------


def test_generator_is_deterministic_per_seed_and_trial():
    a = generate_schedule(7, 3, RING_LINKS, RING_ROUTERS, WINDOW)
    b = generate_schedule(7, 3, RING_LINKS, RING_ROUTERS, WINDOW)
    assert a == b
    assert generate_schedule(7, 4, RING_LINKS, RING_ROUTERS, WINDOW) != a
    assert generate_schedule(8, 3, RING_LINKS, RING_ROUTERS, WINDOW) != a


def test_generated_schedules_are_well_formed():
    for trial in range(10):
        schedule = generate_schedule(7, trial, RING_LINKS, RING_ROUTERS,
                                     WINDOW)
        assert 2 <= len(schedule) <= 5
        assert schedule == sorted(schedule,
                                  key=lambda f: (f.at, f.kind, f.target))
        for spec in schedule:
            assert spec.kind in FAULT_KINDS
            if spec.kind == "router-restart":
                assert spec.target in RING_ROUTERS
            else:
                assert spec.target in RING_LINKS
            # Every fault starts, ends and leaves recovery room inside
            # the window.
            assert 0 <= spec.at < WINDOW // 2
            assert spec.at + spec.duration < WINDOW


def test_schedule_json_round_trip():
    schedule = generate_schedule(7, 0, RING_LINKS, RING_ROUTERS, WINDOW)
    assert schedule_from_json(schedule_to_json(schedule)) == schedule


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="meteor-strike", target="r1", at=0, duration=100)
    with pytest.raises(ValueError):
        FaultSpec(kind="link-flap", target="r1--r2", at=-1, duration=100)
    with pytest.raises(ValueError):
        FaultSpec(kind="ctrl-loss", target="r1--r2", at=0, duration=100,
                  drop=0.7, corrupt=0.4)


# ---------------------------------------------------------------------------
# Trials + campaign.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_seed7_trials_recover():
    for trial in range(3):
        result = run_trial(7, trial)
        assert result.ok, (trial, result.violations)
        assert result.detections > 0  # every schedule provokes detections


@pytest.mark.slow
def test_campaign_artifact_is_byte_identical_per_seed():
    first = run_campaign(7, 2).artifact()
    second = run_campaign(7, 2).artifact()
    assert (json.dumps(first, sort_keys=True)
            == json.dumps(second, sort_keys=True))


def test_finished_trial_topology_is_freed_before_the_next_is_built(monkeypatch):
    # Simulator.run suspends the cyclic collector and a topology is
    # cyclic garbage, so without an explicit collection every finished
    # trial's topology (about 5 MB) would stay alive into the next ones.
    from repro.chaos import campaign

    build = campaign.ring_with_primary
    built = []
    alive_at_build = []

    def tracked_build(*args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in built))
        topo = build(*args, **kwargs)
        built.append(weakref.ref(topo))
        return topo

    monkeypatch.setattr(campaign, "ring_with_primary", tracked_build)
    run_campaign(7, 3)
    assert alive_at_build == [0, 0, 0]


def test_trials_hold_the_collector_and_collect_young(monkeypatch):
    # A trial runs with the cyclic collector held, so the previous
    # trial's topology is still young when the next trial starts and a
    # young pass frees it; a full pass would also walk everything that
    # was alive before the campaign.
    from repro.chaos import campaign

    build, collect = campaign.ring_with_primary, gc.collect
    enabled_at_build = []
    generations = []

    def tracked_build(*args, **kwargs):
        enabled_at_build.append(gc.isenabled())
        return build(*args, **kwargs)

    def tracked_collect(generation=2):
        generations.append(generation)
        return collect(generation)

    monkeypatch.setattr(campaign, "ring_with_primary", tracked_build)
    monkeypatch.setattr(gc, "collect", tracked_collect)
    assert gc.isenabled()
    run_campaign(7, 2)
    assert enabled_at_build == [False, False]
    assert generations == [0, 0]
    assert gc.isenabled()


@pytest.mark.slow
def test_empty_schedule_is_a_healthy_baseline():
    result = run_trial(7, 0, schedule=[])
    assert result.ok
    assert result.detections == 0


# ---------------------------------------------------------------------------
# Shrinking.
# ---------------------------------------------------------------------------


def _spec(i, kind="link-flap"):
    target = "r1" if kind == "router-restart" else "r1--r2"
    return FaultSpec(kind=kind, target=target, at=i * 1_000, duration=10_000)


def test_ddmin_finds_single_culprit():
    culprit = _spec(3, kind="router-restart")
    schedule = [_spec(0), _spec(1), _spec(2), culprit, _spec(4), _spec(5)]
    runs = []

    def oracle(subset):
        runs.append(len(subset))
        return culprit in subset

    assert shrink_schedule(schedule, oracle) == [culprit]
    # ddmin beats brute force: far fewer oracle calls than 2^6 subsets.
    assert len(runs) < 30


def test_ddmin_finds_interacting_pair_and_preserves_order():
    a, b = _spec(1), _spec(4, kind="router-restart")
    schedule = [_spec(0), a, _spec(2), _spec(3), b, _spec(5)]

    def oracle(subset):
        return a in subset and b in subset

    minimal = shrink_schedule(schedule, oracle)
    assert minimal == [a, b]  # both kept, original order intact


def test_ddmin_keeps_full_set_when_all_needed():
    schedule = [_spec(i) for i in range(3)]

    def oracle(subset):
        return len(subset) == 3

    assert ddmin(schedule, oracle) == schedule


def test_shrink_refuses_passing_schedule():
    with pytest.raises(ValueError):
        shrink_schedule([_spec(0)], lambda subset: False)


@pytest.mark.slow
def test_shrinker_reduces_planted_regression_to_minimal_replay():
    """The acceptance demo: a retransmit budget of 1 plants a fragile
    control plane; trial 1's 5-fault schedule violates
    ``flooding-reliable``, and the shrinker reduces it to a single
    ctrl-loss fault that still reproduces -- and replays from JSON."""
    full = run_trial(7, 1, ctrl_max_attempts=1)
    assert not full.ok and "flooding-reliable" in full.violations
    assert len(full.schedule) == 5

    def reproduces(subset):
        return not run_trial(7, 1, schedule=subset,
                             ctrl_max_attempts=1).ok

    minimal = shrink_schedule(full.schedule, reproduces)
    assert len(minimal) == 1
    assert minimal[0].kind == "ctrl-loss"
    # 1-minimality: the empty schedule does not reproduce.
    assert run_trial(7, 1, schedule=[], ctrl_max_attempts=1).ok
    # Round trip through the replay artifact.
    replayed = schedule_from_json(schedule_to_json(minimal))
    assert replayed == minimal
    result = replay_schedule(replayed, seed=7, ctrl_max_attempts=1)
    assert not result.ok and "flooding-reliable" in result.violations
    # The same schedule on the default retransmit budget recovers:
    # the regression is the handicap, not the faults.
    assert replay_schedule(replayed, seed=7).ok


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_cli_chaos_smoke(tmp_path, capsys):
    artifact = tmp_path / "campaign.json"
    rc = main(["chaos", "--seed", "7", "--trials", "1",
               "--artifact-out", str(artifact)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos campaign (seed 7" in out
    doc = json.loads(artifact.read_text())
    assert doc["ok"] is True and doc["trials"] == 1


@pytest.mark.slow
def test_cli_chaos_shrink_and_replay(tmp_path, capsys):
    minimal = tmp_path / "minimal.json"
    rc = main(["chaos", "--seed", "7", "--trials", "2", "--max-attempts", "1",
               "--shrink", "--minimal-out", str(minimal)])
    assert rc == 1
    assert "minimal schedule for trial" in capsys.readouterr().out
    schedule = schedule_from_json(minimal.read_text())
    assert 1 <= len(schedule) <= 5

    rc = main(["chaos", "--seed", "7", "--replay", str(minimal),
               "--max-attempts", "1"])
    assert rc == 1
    assert "VIOLATIONS" in capsys.readouterr().out
    rc = main(["chaos", "--seed", "7", "--replay", str(minimal)])
    assert rc == 0
    assert "recovered" in capsys.readouterr().out
