"""The canonical registry of trace event, component, and rule names.

Every string a hook site passes to ``Recorder.record`` and every stage
list an analysis consumes must resolve against this module -- it is the
single place where the trace vocabulary is defined, so the recorder,
the analytics (:mod:`repro.obs.analysis`), the watchdog
(:mod:`repro.obs.monitor`) and the docs cannot drift apart one rename
at a time.  ``repro lint`` enforces the contract statically (rules
RPR301-RPR305, see ``docs/static-analysis.md``): an event literal at a
``record(...)`` call site that is not registered here fails the lint
gate, as does a stage list hardcoded outside this module or a series
name at a ``sample(...)`` site that resolves against no registered name
or family.

Adding a new event is deliberate: register it here (in pipeline order
for lifecycle events), emit it from the hook site, and document it in
``docs/observability.md``.
"""

from __future__ import annotations

import re
from typing import Iterable

# repro-lint: file-disable=RPR303 -- this module IS the registry the
# hardcoded-stage-list rule points everyone else at.

#: Lifecycle events marking a packet's progress through the processor
#: hierarchy, in pipeline order (docs/observability.md lists the
#: emitting sites).  ``repro.obs.analysis`` consumes this exact order
#: for its per-stage latency decomposition.
LIFECYCLE_EVENTS = (
    "mac_in",
    "classify",
    "to_sa",
    "sa_dispatch",
    "to_pentium",
    "pentium_in",
    "pentium_done",
    "requeue",
    "enqueue",
    "dequeue",
    "mac_out",
)

#: Terminal events: the packet died here.
DROP_EVENTS = ("drop", "sa_drop", "requeue_drop")

#: Component-level markers that carry no packet lifecycle meaning.
#: The ``hello_*`` / ``lsa_*`` / ``ctrl_*`` / ``adjacency_*`` markers
#: are the control plane's survivability trail (emitted by
#: :mod:`repro.control.integration` and :mod:`repro.control.channel`).
MARKER_EVENTS = (
    "spawn",
    "process_exit",
    "bridge_drop",
    "hello_tx",
    "hello_rx",
    "lsa_retransmit",
    "lsa_abandoned",
    "lsa_ack",
    "ctrl_reject",
    "adjacency_up",
    "adjacency_down",
)

#: Every event name a hook site may pass to ``Recorder.record``.
TRACE_EVENTS = frozenset(LIFECYCLE_EVENTS + DROP_EVENTS + MARKER_EVENTS)

#: Fixed component names used by ``record``/``account`` hook sites.
COMPONENTS = frozenset((
    "chip",
    "sim",
    "strongarm",
    "pentium",
    "pci",
    "dram",
    "sram",
    "scratch",
    "control",
))

#: Parameterized component families (context slots, queues, engines).
COMPONENT_PATTERNS = (
    r"me\d+(\.ctx\d+)?",        # "me0", "me0.ctx1"
    r"queue\d+",                # "queue3"
)

_COMPONENT_RE = re.compile(
    "^(?:" + "|".join(COMPONENT_PATTERNS) + ")$"
)

#: Health-watchdog rule names (:mod:`repro.obs.monitor`).  Incident
#: logs key on these, so a rename is a breaking schema change.
MONITOR_RULES = frozenset((
    "vrp-budget",
    "queue-overflow",
    "pci-saturation",
    "wfq-fairness",
    "trace-truncation",
    "fault-injection",
    "control-plane",
))


#: Fixed sampled series (:mod:`repro.obs.metrics`).  The ``net.*``
#: gauges are the fault probe's once-per-period samples over the whole
#: topology (``topo.metrics``); the ``*.utilization`` series are the
#: recorder's busy fractions per sample period from the chip and host
#: utilization probes (``recorder.metrics``).
METRIC_SERIES = frozenset((
    "net.links_down",
    "net.incidents",
    "net.reconvergences",
    "net.quarantined",
    "dram.utilization",
    "sram.utilization",
    "scratch.utilization",
    "strongarm.utilization",
    "pci.utilization",
    "pentium.utilization",
))

#: Parameterized sampled-series families: one series per link / router /
#: microengine / packet queue, the subject name between the family prefix
#: and the gauge suffix.  ``repro lint`` rule RPR305 resolves every
#: literal (and every f-string template) passed to ``MetricsSampler.sample``
#: against these and :data:`METRIC_SERIES`.
METRIC_PATTERNS = (
    r"link\.[^.]+\.(occupancy|carried|dropped|utilization|up)",
    r"router\.[^.]+\.(queue_depth|route_cache_hit_rate|spf_runs|lsas)",
    r"ctrl\.[^.]+\.(hellos|retransmits|rejected|deaths|unacked)",
    r"me[^.]+\.utilization",
    r"queue[^.]+\.depth",
)

_METRIC_RE = re.compile(
    "^(?:" + "|".join(METRIC_PATTERNS) + ")$"
)


def is_trace_event(name: str) -> bool:
    """True when ``name`` is a registered trace event."""
    return name in TRACE_EVENTS


def is_component(name: str) -> bool:
    """True when ``name`` is a registered component name or matches a
    registered component family pattern."""
    return name in COMPONENTS or _COMPONENT_RE.match(name) is not None


def is_metric_series(name: str) -> bool:
    """True when ``name`` is a registered metric series (fixed name or a
    member of a registered family)."""
    return name in METRIC_SERIES or _METRIC_RE.match(name) is not None


def unregistered_metric_series(names: Iterable[str]) -> list:
    """The subset of ``names`` that resolve against no registered metric
    series or family, in input order (deduplicated)."""
    out = []
    for name in names:
        if not is_metric_series(name) and name not in out:
            out.append(name)
    return out


def unregistered_events(names: Iterable[str]) -> list:
    """The subset of ``names`` that are not registered trace events,
    in input order (deduplicated)."""
    out = []
    for name in names:
        if name not in TRACE_EVENTS and name not in out:
            out.append(name)
    return out
