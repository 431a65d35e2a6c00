"""Per-layer accounting for the perf benchmark: cProfile self time split
by ``repro`` package, and span self time.

Everything here is a pure function over plain data (``pstats``-shaped
dicts, span dicts), so the harness tests can check the arithmetic
without running a workload.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: The runtime packages of ``repro`` -- the layers every per-layer metric
#: is named after.  Anything else (stdlib, the harness, ``repro.analysis``,
#: ``repro.cli``) lands in ``other``.
LAYERS: Tuple[str, ...] = ("engine", "ixp", "hosts", "core", "net", "control",
                           "topo", "faults", "obs", "chaos", "workloads")
OTHER = "other"

#: ``pstats`` function key: (filename, first line, function name).
FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """The layer a source file belongs to: ``.../repro/<layer>/<mod>.py``."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 3, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1] if parts[i + 1] in LAYERS else OTHER
    return OTHER


def attribute(stats: Mapping[FuncKey, tuple],
              overrides: Optional[Mapping[FuncKey, str]] = None,
              ) -> Dict[str, Dict[str, float]]:
    """Split a profile's self time and call counts by layer.

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (nc, cc, tt, ct)``.  A C builtin
    (filename ``"~"``: generator ``send``, ``heappush``, ``list.append``
    ...) has no layer of its own, so each caller edge's share of its self
    time is charged to the *calling* function's layer; time no edge
    explains goes to ``other``.  ``overrides`` pins specific functions
    (the harness's counting wrappers) to the layer they stand in for.

    The per-layer self times sum to the profile's total self time.
    """
    overrides = overrides or {}
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS + (OTHER,)}

    def home(func: FuncKey) -> Optional[str]:
        if func in overrides:
            return overrides[func]
        if func[0] == "~":
            return None
        return layer_of(func[0])

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = home(func)
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        rest_tt, rest_nc = tt, nc
        for caller, (edge_nc, _edge_cc, edge_tt, _edge_ct) in callers.items():
            owner = home(caller) or OTHER
            self_s[owner] += edge_tt
            calls[owner] += edge_nc
            rest_tt -= edge_tt
            rest_nc -= edge_nc
        self_s[OTHER] += rest_tt
        calls[OTHER] += rest_nc
    return {"self_s": self_s, "calls": calls}


def coverage(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def span_self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's self time: its duration minus the part of it that its
    child spans cover (``{span id: seconds}``)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - coverage(children[span["id"]], span["start"], span["end"])
            for span in spans}


def self_time_by_name(spans: List[dict]) -> Dict[str, float]:
    """Span self time summed per span name."""
    own = span_self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span["name"]] += own[span["id"]]
    return dict(out)


def chrome_trace(spans: List[dict], process: str) -> dict:
    """Spans as a Chrome/Perfetto trace: one complete (``X``) event per
    span on one thread, timestamps in microseconds from the first span."""
    t0 = min((s["start"] for s in spans), default=0.0)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": process}}]
    for span in sorted(spans, key=lambda s: (s["start"], s["id"])):
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round((span["start"] - t0) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "args": {"id": span["id"], "parent": span["parent"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
