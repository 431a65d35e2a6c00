"""Declarative topology builders: line, ring, mesh, fat-tree, and
dict/JSON specs.

Every builder returns an un-converged :class:`~repro.topo.network.Topology`
with hosts already attached, so callers (tests, scenarios, examples) do::

    topo = ring(4, seed=7)
    topo.converge()
    topo.hosts["h1"].start_flow(topo.hosts["h3"], count=100)
    topo.run(200_000)
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Union

from repro.topo.network import Topology

_LINK_KEYS = ("cost", "latency", "bandwidth_bps", "loss", "queue_limit")


def _link_kwargs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in kwargs.items() if k in _LINK_KEYS}


def _attach_hosts(topo: Topology, names: List[str], hosts: str) -> None:
    if hosts == "none":
        return
    targets = [names[0], names[-1]] if hosts == "ends" else list(names)
    for name in targets:
        topo.add_host(f"h{name[1:]}" if name.startswith("r") else f"h_{name}",
                      name)


def line(n: int = 4, seed: int = 0, hosts: str = "ends", **link_kw) -> Topology:
    """``r1 -- r2 -- ... -- rn``; hosts at the ends (``hosts="ends"``),
    on every router (``"all"``) or nowhere (``"none"``)."""
    if n < 2:
        raise ValueError("a line needs at least 2 routers")
    topo = Topology(seed=seed)
    names = [f"r{i + 1}" for i in range(n)]
    for name in names:
        topo.add_router(name)
    for a, b in zip(names, names[1:]):
        topo.connect(a, b, **_link_kwargs(link_kw))
    _attach_hosts(topo, names, hosts)
    return topo


def ring(n: int = 4, seed: int = 0, hosts: str = "ends", **link_kw) -> Topology:
    """A cycle of ``n`` routers: every pair of nodes has two disjoint
    paths, the minimal topology for reroute-on-failure scenarios.
    ``hosts="ends"`` places hosts at r1 and the antipodal router."""
    if n < 3:
        raise ValueError("a ring needs at least 3 routers")
    topo = Topology(seed=seed)
    names = [f"r{i + 1}" for i in range(n)]
    for name in names:
        topo.add_router(name)
    for a, b in zip(names, names[1:]):
        topo.connect(a, b, **_link_kwargs(link_kw))
    topo.connect(names[-1], names[0], **_link_kwargs(link_kw))
    if hosts == "ends":
        topo.add_host("h1", names[0])
        antipode = names[n // 2]
        topo.add_host(f"h{n // 2 + 1}", antipode)
    else:
        _attach_hosts(topo, names, hosts)
    return topo


def mesh(n: int = 4, seed: int = 0, hosts: str = "all", **link_kw) -> Topology:
    """A full mesh of ``n`` routers (n*(n-1)/2 links), one host each by
    default -- the densest alternate-path topology."""
    if n < 2:
        raise ValueError("a mesh needs at least 2 routers")
    topo = Topology(seed=seed, default_ports=max(6, n + 1))
    names = [f"r{i + 1}" for i in range(n)]
    for name in names:
        topo.add_router(name)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            topo.connect(a, b, **_link_kwargs(link_kw))
    _attach_hosts(topo, names, hosts)
    return topo


def fat_tree(k: int = 2, seed: int = 0, hosts_per_edge: int = 1, **link_kw) -> Topology:
    """A k-ary fat-tree (k even): (k/2)^2 cores, k pods of k/2 aggregation
    and k/2 edge routers; hosts hang off the edges.  ``k=2`` is the
    5-router minimal instance used in tests."""
    if k < 2 or k % 2:
        raise ValueError("fat-tree arity k must be even and >= 2")
    half = k // 2
    topo = Topology(seed=seed, default_ports=max(6, k + hosts_per_edge + 1))
    cores = [topo.add_router(f"core{c + 1}").name for c in range(half * half)]
    for p in range(k):
        aggs = [topo.add_router(f"agg{p + 1}_{a + 1}").name for a in range(half)]
        edges = [topo.add_router(f"edge{p + 1}_{e + 1}").name for e in range(half)]
        for agg in aggs:
            for edge in edges:
                topo.connect(agg, edge, **_link_kwargs(link_kw))
        for a, agg in enumerate(aggs):
            for c in range(half):
                topo.connect(agg, cores[a * half + c], **_link_kwargs(link_kw))
        for e, edge in enumerate(edges):
            for h in range(hosts_per_edge):
                topo.add_host(f"h{p + 1}_{e + 1}_{h + 1}", edge)
    return topo


def from_spec(spec: Union[str, Dict[str, Any]], seed: Optional[int] = None) -> Topology:
    """Build a topology from a dict (or a path to a JSON file)::

        {
          "seed": 7,
          "routers": ["core1", "core2"]            # or {"core1": {"num_ports": 8}}
          "links":   [["core1", "core2"],
                      ["core1", "edge1", {"cost": 2, "latency": 300}]],
          "hosts":   [["h1", "edge1"],
                      ["h2", "edge2", {"latency": 50}]]
        }
    """
    if isinstance(spec, str):
        with open(spec) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise TypeError(f"spec must be a dict or a JSON path, got {type(spec).__name__}")
    topo = Topology(seed=spec.get("seed", 0) if seed is None else seed)
    routers = spec.get("routers", {})
    if isinstance(routers, dict):
        for name in routers:
            topo.add_router(name, **(routers[name] or {}))
    else:
        for name in routers:
            topo.add_router(name)
    for entry in spec.get("links", []):
        a, b = entry[0], entry[1]
        opts = dict(entry[2]) if len(entry) > 2 else {}
        topo.connect(a, b, **opts)
    for entry in spec.get("hosts", []):
        name, router = entry[0], entry[1]
        opts = dict(entry[2]) if len(entry) > 2 else {}
        topo.add_host(name, router, **opts)
    return topo


#: A small ISP-like graph: a two-router core, dual-homed aggregation,
#: and two edge routers with customer hosts.
ISP_SPEC: Dict[str, Any] = {
    "routers": ["core1", "core2", "agg1", "agg2", "edge1", "edge2"],
    "links": [
        ["core1", "core2", {"cost": 1, "latency": 400}],
        ["core1", "agg1", {"cost": 2, "latency": 250}],
        ["core1", "agg2", {"cost": 3, "latency": 250}],
        ["core2", "agg1", {"cost": 3, "latency": 250}],
        ["core2", "agg2", {"cost": 2, "latency": 250}],
        ["agg1", "edge1", {"cost": 1, "latency": 150}],
        ["agg2", "edge2", {"cost": 1, "latency": 150}],
    ],
    "hosts": [
        ["h1", "edge1"],
        ["h2", "edge2"],
        ["hc", "core1"],
    ],
}


def isp(seed: int = 0) -> Topology:
    """The ISP-like reference graph (6 routers, 3 hosts)."""
    return from_spec(ISP_SPEC, seed=seed)
