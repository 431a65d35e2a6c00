"""Multi-router topology simulation (see docs/topology.md)."""

from repro.topo.builders import fat_tree, from_spec, isp, line, mesh, ring
from repro.topo.network import Host, InterRouterLink, RouterNode, Topology

__all__ = [
    "Topology", "RouterNode", "Host", "InterRouterLink",
    "line", "ring", "mesh", "fat_tree", "from_spec", "isp",
]
