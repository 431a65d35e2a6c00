"""Paired comparison of two source trees with this one benchmark.

    python benchmarks/perf/compare.py PARENT/ CHANGE/ [--pairs 10]
                                      [--workload NAME|all] [--seed 11]

``PARENT`` and ``CHANGE`` are checkouts (each with ``src/repro``); both
are measured with the benchmark code of the tree this file lives in, so
the two sides differ only in the code under test.  Each pair runs one
set (the workload's fixed rep count) on each side, alternating which
side goes first.  For every workload and end-to-end metric of
BENCHMARK.json it prints both sides' medians and quartiles over the
per-set medians, the change's win fraction, and a verdict:

* ``improved``  -- the change won at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile spread;
* ``worse``     -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``-- the parent's spread is wider than the bound and not
  every change set beat every parent set;
* ``unchanged`` -- none of the above.

A digest that differs between the two sides is an error (exit 2): a
change that claims speed may not move any output.  Exit 1 when a
verdict is ``worse`` or the change fails more operations than the parent.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

import run
from worker import WORKLOADS


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """Classify paired per-set medians (pair i is ``parent[i]``,
    ``change[i]``) by the rules in the module docstring."""
    sign = 1 if better == "lower" else -1
    p, c = run.summary(parent), run.summary(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    gain = sign * (p["median"] - c["median"])
    spread = p["q3"] - p["q1"]
    if wins >= 0.9 * len(parent) and gain > spread:
        return "improved"
    if -gain / p["median"] > bound:
        return "worse"
    beats_all = all(sign * (b - a) < 0 for a in parent for b in change)
    if spread / p["median"] > bound and not beats_all:
        return "unresolved"
    return "unchanged"


def _quartiles(s: dict) -> str:
    return f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("at least 10 pairs are needed for a verdict")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in sides.items():
        if not (root / "src" / "repro").is_dir():
            parser.error(f"{side} {root} has no src/repro")

    metrics = run.load_benchmark()["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    exit_code = 0
    print(f"{'workload':<16}{'metric':<14}{'parent median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'wins':>7}  verdict")
    for workload in names:
        medians: Dict[str, Dict[str, List[float]]] = {s: {} for s in sides}
        failed = {s: 0 for s in sides}
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            digests = {}
            for side in order:
                result = run.run_set(workload, args.seed, root=sides[side])
                check = run.evaluate(result, run.load_expected(workload, args.seed))
                failed[side] += check["failed"]
                digests[side] = check["digest"]
                good = [r for r in result["reps"] if "error" not in r]
                for name, s in (run.e2e_metrics(good, check) if good else {}).items():
                    medians[side].setdefault(name, []).append(s["median"])
            if digests["parent"] != digests["change"]:
                print(f"error: {workload} outputs differ: parent {digests['parent']} "
                      f"change {digests['change']}", file=sys.stderr)
                return 2
        if failed["change"] > failed["parent"]:
            print(f"{workload}: change failed {failed['change']} operations, "
                  f"parent {failed['parent']}")
            exit_code = 1
        for metric in metrics:
            p, c = medians["parent"][metric["name"]], medians["change"][metric["name"]]
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0) / len(p)
            ps, cs = run.summary(p), run.summary(c)
            call = verdict(p, c, metric["better"], metric["bound"])
            exit_code = max(exit_code, int(call == "worse"))
            print(f"{workload:<16}{metric['name']:<14}{_quartiles(ps):>34}"
                  f"{_quartiles(cs):>34}{wins:>7.0%}  {call}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
