"""Opt-in observability: tracing, accounting, analytics, health.

Kept import-light on purpose: :mod:`repro.engine.sim` imports the null
recorder from here, so this package must not (transitively) import the
engine at module load.  The one series store and sampling path
(:mod:`repro.obs.metrics`: the store, the periodic process ``every``,
the ``Deltas`` helper, the recorder's utilization probes and the
topology metrics) imports only the standard library there.  The
heavier pieces -- the profile scenarios (:mod:`repro.obs.profile`), the
trace analytics (:mod:`repro.obs.analysis`), the health watchdog
(:mod:`repro.obs.monitor`) and the bench trajectory recorder
(:mod:`repro.obs.bench_record`) -- are imported by their callers.

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
from repro.obs.metrics import RingBuffer
from repro.obs.recorder import NULL_RECORDER, NullRecorder, Recorder, TraceEvent

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
]
