"""The pluggable routing-engine interface.

A *routing engine* is anything that turns a design (circuit, placement,
constraints) into a :class:`~repro.core.result.GlobalRoutingResult`
while sharing the seed's nets, feedthrough assignment, density
accounting, timing model, and sign-off.  Two engines ship today:

* :class:`~repro.engines.edge_deletion.EdgeDeletionEngine` — the paper's
  global greedy edge-deletion loop (wraps
  :class:`~repro.core.router.GlobalRouter` unchanged, bit-identical to
  the seed);
* :class:`~repro.engines.negotiated.NegotiatedEngine` — PathFinder-style
  negotiated congestion (iterative rip-up-and-reroute with present and
  history costs; legal but not bit-identical).

Engines advertise :class:`EngineCapabilities` so downstream tooling
(``compare-runs``, the trace differ) can decide which comparisons make
sense: diffing deletion sequences across engines is meaningless when one
of them never emits ``edge_deleted`` events.

Every engine is constructed with the :class:`GlobalRouter` signature and
exposes the attributes the CLI, the bench runner, and sign-off read off
a router after routing (``gd``, ``assignment``, ``caps``, ``states``,
``margin_attribution``), so callers can swap engines without branching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.config import RouterConfig
from ..core.result import GlobalRoutingResult
from ..core.router import GlobalRouter
from ..layout.placement import Placement
from ..netlist.circuit import Circuit
from ..obs.events import TraceSink
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..timing.constraint import PathConstraint


@dataclass(frozen=True)
class EngineCapabilities:
    """What a routing engine guarantees about its results.

    Attributes:
        deterministic: same inputs always give the same routing.
        emits_edge_deleted: the trace carries the seed's per-deletion
            ``edge_deleted`` events, so deletion-sequence diffs
            (``compare-runs`` deletion divergence) are meaningful.
        iterative: the engine converges over rip-up-and-reroute
            iterations (emits ``negotiation_iteration`` events).
    """

    deterministic: bool = True
    emits_edge_deleted: bool = True
    iterative: bool = False


class RoutingEngine:
    """Base class: owns an inner :class:`GlobalRouter` for shared state.

    The inner router performs the common setup (pins, feedthroughs,
    routing graphs, density profiles, timing) and materializes the final
    result; subclasses decide how the per-net graphs converge to trees.
    """

    name: str = "abstract"
    capabilities = EngineCapabilities()

    def __init__(
        self,
        circuit: Circuit,
        placement: Placement,
        constraints: Sequence[PathConstraint] = (),
        config: RouterConfig = RouterConfig(),
        *,
        trace_sink: Optional[TraceSink] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
        decision_sampling: Optional[str] = None,
    ):
        self.router = GlobalRouter(
            circuit,
            placement,
            constraints,
            config,
            trace_sink=trace_sink,
            metrics=metrics,
            profiler=profiler,
            decision_sampling=decision_sampling,
        )

    # -- the attributes sign-off / CLI / bench read after routing ------
    @property
    def config(self) -> RouterConfig:
        return self.router.config

    @property
    def gd(self):
        return self.router.gd

    @property
    def assignment(self):
        return self.router.assignment

    @property
    def caps(self):
        return self.router.caps

    @property
    def states(self):
        return self.router.states

    @property
    def metrics(self) -> MetricsRegistry:
        return self.router.metrics

    def margin_attribution(self):
        return self.router.margin_attribution()

    def route(self) -> GlobalRoutingResult:
        raise NotImplementedError
