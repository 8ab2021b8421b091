"""The paper's edge-deletion algorithm as a :class:`RoutingEngine`.

A thin adapter: :meth:`route` delegates to
:meth:`repro.core.router.GlobalRouter.route` unchanged, so results stay
bit-identical to the seed (the equivalence suites pin this down).  The
adapter exists so every caller — CLI, bench runner, service — selects
engines uniformly through :func:`repro.engines.make_engine`.

Deletions issued through this engine take the graph's incremental
reclassification path (:attr:`RoutingGraph.incremental_reclassify`);
the bit-identity pin therefore also covers the incremental bridge
maintenance against the reference full-Tarjan recompute.
"""

from __future__ import annotations

from ..core.result import GlobalRoutingResult
from .base import EngineCapabilities, RoutingEngine


class EdgeDeletionEngine(RoutingEngine):
    """Global greedy edge deletion plus the Section 3.5 phases."""

    name = "edge-deletion"
    capabilities = EngineCapabilities(
        deterministic=True,
        emits_edge_deleted=True,
        iterative=False,
    )

    def route(self) -> GlobalRoutingResult:
        return self.router.route()
