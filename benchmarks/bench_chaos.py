"""Chaos campaign: seeded randomized fault schedules against the scenario
ring.

Each trial draws a schedule of link flaps, control-frame loss, gray
links and router restarts from the seed, runs it on the 4-router ring
and checks the network-wide and control-plane recovery invariants.  The
hard assertion is that every trial recovers; the trajectory rows record
the recovery rate and the fault volume behind it.
"""

from conftest import report, run_once

from repro.chaos import run_campaign

SEED = 7
TRIALS = 3


def test_chaos_campaign(benchmark):
    campaign = run_once(benchmark, lambda: run_campaign(SEED, TRIALS))
    assert not campaign.failed_trials, campaign.failed_trials
    results = campaign.results
    report(
        benchmark,
        f"Chaos campaign ({TRIALS} trials, seed {SEED})",
        [
            ("trials passed", TRIALS, sum(1 for r in results if r.ok)),
            ("violating trials", 0, len(campaign.failed_trials)),
            ("faults injected", None, sum(len(r.schedule) for r in results)),
            ("detections", None, sum(r.detections for r in results)),
            ("reconvergences", None, sum(r.reconvergences for r in results)),
        ],
    )
