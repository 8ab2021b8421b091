"""Routing graphs ``G_r(n)`` (Fig. 3): construction, bridge/deletability
classification, and tentative-tree wire-length estimation."""

from .graph import (
    DeletionResult,
    EdgeKind,
    RouteEdge,
    RouteVertex,
    RoutingGraph,
    VertexKind,
)
from .build import build_routing_graph
from .tentative_tree import TentativeTree, compute_tentative_tree
from .tree_engine import (
    FullTreeEngine,
    IncrementalTreeEngine,
    dijkstra_to_terminals,
    tree_graph_labels,
)

__all__ = [
    "DeletionResult",
    "EdgeKind",
    "FullTreeEngine",
    "IncrementalTreeEngine",
    "RouteEdge",
    "RouteVertex",
    "RoutingGraph",
    "TentativeTree",
    "VertexKind",
    "build_routing_graph",
    "compute_tentative_tree",
    "dijkstra_to_terminals",
    "tree_graph_labels",
]
