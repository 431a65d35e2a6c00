"""Opt-in observability: tracing, accounting, analytics, health.

Kept import-light on purpose: :mod:`repro.engine.sim` imports the null
recorder from here, so this package must not (transitively) import the
engine at module load.  The heavier pieces -- the one sampling path
and its probes (:mod:`repro.obs.metrics`: the periodic process
``every``, the ``Deltas`` helper, the recorder's utilization probes and
the topology metrics), the profile scenarios
(:mod:`repro.obs.profile`), the trace analytics
(:mod:`repro.obs.analysis`), the health watchdog
(:mod:`repro.obs.monitor`) and the bench trajectory recorder
(:mod:`repro.obs.bench_record`) -- are imported lazily by their callers
(or via the module-level ``__getattr__`` below).

Entry points:

* ``chip.enable_observability()`` / ``router.enable_observability()``
  attach a live :class:`Recorder` to every hook;
* ``python -m repro profile <scenario>`` renders the per-stage cost
  table and exports the trace as JSON/CSV/Chrome-trace;
* ``python -m repro monitor <scenario>`` runs the health watchdog and
  exits non-zero on red rules;
* :func:`repro.obs.analysis.latency_report` answers "where did this
  packet's latency go?" with per-stage percentiles;
* :mod:`repro.obs.export` serializes any report structure to *valid*
  JSON (non-finite floats sanitized).

See ``docs/observability.md`` for the recorder API and trace schema.
"""

from repro.obs.export import dumps, sanitize, trace_hash, trace_to_csv
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    RingBuffer,
    TraceEvent,
)

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "RingBuffer",
    "TraceEvent",
    "dumps",
    "sanitize",
    "trace_hash",
    "trace_to_csv",
    # Lazy submodules (resolved on first attribute access, preserving
    # the import-light contract above).
    "analysis",
    "bench_record",
    "metrics",
    "monitor",
    "profile",
]

_LAZY_SUBMODULES = ("analysis", "bench_record", "metrics", "monitor",
                    "profile")


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.obs.{name}")
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
