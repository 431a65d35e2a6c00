"""Machine-readable benchmark trajectory: ``BENCH_<name>.json``.

Every benchmark module already prints a paper-vs-measured table through
``benchmarks/conftest.py``'s ``report()`` helper and mirrors the rows
into pytest-benchmark's ``extra_info``.  This module serializes those
rows, plus wall time, into one JSON file per bench module at the repo
root, so the committed files record each bench's figures over time.
The benchmarks' session hook is its only caller: no runner writes a
BENCH file.

Schema (``repro-bench-trajectory-v2``)::

    {
      "schema": "repro-bench-trajectory-v2",
      "bench": "bench_engine_kernel",
      "wall_time_s": 12.8,
      "rows": {"events/s": {"paper": null, "measured": 2.1e6}, ...},
      "tests": {
        "test_kernel_throughput": {
          "wall_time_s": 3.1,
          "rows": {"events/s": {"paper": null, "measured": 2.1e6}}
        }, ...
      }
    }

``rows`` at the top level is the union across the module's tests (later
tests win on key collisions, mirroring how the printed tables stack).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.obs import export

SCHEMA = "repro-bench-trajectory-v2"

#: Environment override for where BENCH_*.json land (tests point this at
#: a tmp dir; CI leaves it unset so files land at the repo root).
ROOT_ENV = "REPRO_BENCH_ROOT"


def bench_path(bench_name: str, root: Optional[str] = None) -> str:
    """Where ``BENCH_<name>.json`` lives for ``bench_name``."""
    if root is None:
        root = os.environ.get(ROOT_ENV, ".")
    return os.path.join(root, f"BENCH_{bench_name}.json")


def record_benchmark(
    bench_name: str,
    rows: Dict[str, Dict[str, Any]],
    tests: Optional[Dict[str, Dict[str, Any]]] = None,
    wall_time_s: Optional[float] = None,
    root: Optional[str] = None,
) -> str:
    """Write one bench module's trajectory file; returns its path.

    ``rows`` maps metric name -> ``{"paper": ..., "measured": ...}``;
    ``tests`` optionally maps test name -> ``{"wall_time_s", "rows"}``.
    """
    if wall_time_s is None and tests:
        wall_time_s = sum(
            t.get("wall_time_s") or 0.0 for t in tests.values()
        )
    doc = {
        "schema": SCHEMA,
        "bench": bench_name,
        "wall_time_s": wall_time_s,
        "rows": rows,
        "tests": tests or {},
    }
    path = bench_path(bench_name, root)
    with open(path, "w") as fh:
        fh.write(export.dumps(doc, indent=2, sort_keys=True))
        fh.write("\n")
    return path
