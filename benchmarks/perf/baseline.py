"""Record the benchmark's committed baseline at one seed.

    python benchmarks/perf/baseline.py [--seed 7]

Runs two sets of every workload back to back -- set A untraced, set B
with its traced rep -- and writes ``baseline.json``: both sets'
end-to-end metrics, set B's per-layer metrics, each end-to-end median's
set-to-set difference against its bound, and the host it ran on.

If ``expected/seed<N>.json`` does not exist yet, it is written first from
one rep of each workload (every operation must pass its own invariants,
which include the committed topology goldens at seed 7).  After that it
is an oracle: every later run is checked against it, so re-pinning it is
a deliberate act -- delete the file and run this again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict

import run
from worker import WORKLOADS

def pin_expected(seed: int) -> None:
    path = run.HERE / "expected" / f"seed{seed}.json"
    if path.exists():
        return
    pinned = {}
    for workload in WORKLOADS:
        rep = run.run_rep(workload, seed, run.ROOT)
        bad = [o["name"] for o in rep["ops"] if not o["ok"]]
        if "error" in rep or bad:
            sys.exit(f"cannot pin {workload}: {rep.get('error') or bad}")
        pinned[workload] = {"digest": rep["digest"],
                            "ops": {o["name"]: o["canonical"] for o in rep["ops"]}}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "workloads": pinned},
                               indent=2, sort_keys=True) + "\n")
    print(f"pinned {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    pin_expected(args.seed)
    bench = run.load_benchmark()
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    # The throughput metrics are work / wall_s: they share its bound.
    bounds.update((name, ("higher", bounds["wall_s"][1]))
                  for name in ("sim_mcycles_per_s", "lookups_per_s"))
    e2e = set(bounds) | {"fail_frac", "rep_wall_s", "calibration_ms"}

    sets: Dict[str, Dict[str, dict]] = {"A": {}, "B": {}}
    traced: Dict[str, dict] = {}
    digests: Dict[str, str] = {}
    failed = 0
    for label, trace in (("A", False), ("B", True)):
        for workload in WORKLOADS:
            result = run.measure(workload, args.seed, trace=trace)
            failed += result["verdict"]["failed"]
            digests[workload] = result["verdict"]["digest"]
            metrics = result["metrics"]
            sets[label][workload] = {k: v for k, v in metrics.items() if k in e2e}
            if trace:
                traced[workload] = {k: v for k, v in metrics.items() if k not in e2e}

    set_to_set: Dict[str, dict] = {}
    for workload in WORKLOADS:
        rows = {}
        for name, (better, bound) in bounds.items():
            a, b = sets["A"][workload].get(name), sets["B"][workload].get(name)
            if a is None or b is None:
                continue
            diff = b["median"] / a["median"] - 1
            worse = diff if better == "lower" else -diff
            rows[name] = {"a": a["median"], "b": b["median"], "diff": diff,
                          "bound": bound, "within_bound": worse <= bound}
        set_to_set[workload] = rows

    doc = {
        "schema": "repro-perf-baseline-v1",
        "seed": args.seed,
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "machine": platform.machine(),
                 "system": platform.system()},
        "reps": {w: spec.reps for w, spec in WORKLOADS.items()},
        "digests": digests,
        "failed_operations": failed,
        "sets": sets,
        "traced": traced,
        "set_to_set": set_to_set,
    }
    out = run.HERE / "baseline.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    misses = [f"{w}.{m}" for w, rows in set_to_set.items()
              for m, row in rows.items() if not row["within_bound"]]
    print(f"wrote {out}; set-to-set misses: {misses or 'none'}")
    return 1 if failed or misses else 0


if __name__ == "__main__":
    sys.exit(main())
