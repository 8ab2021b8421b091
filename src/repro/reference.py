"""Seed reference implementations: the oracles the production loop is
held to.

The router ships one path for each hot layer of the Fig. 2 loop: the
array-backed :class:`~repro.core.candidates.CandidateEngine` picks each
deletion, and :class:`~repro.routegraph.tree_engine.IncrementalTreeEngine`
evaluates tentative trees.  The seed's from-scratch versions live here,
unchanged in behaviour and in cost, so that equivalence tests and the
A/B benches (``benchmarks/bench_selection.py``,
``benchmarks/bench_tree.py``) can measure the production path against
them:

* :func:`evaluate_delay_criteria` — the scalar ``(C_d, Gl, LD)`` of one
  candidate, the element-by-element referee of
  :func:`~repro.core.criteria.evaluate_delay_criteria_batch`;
* :class:`RescanSelector` — the seed's full scan of every candidate per
  deletion, over a version-stamped scalar key cache;
* :class:`OracleRouter` — a :class:`~repro.core.router.GlobalRouter`
  that runs the rescan selector and/or binds
  :class:`~repro.routegraph.tree_engine.FullTreeEngine` (one full
  Dijkstra per evaluation).  Either swap routes bit-identically to the
  production router.

Nothing in the ``repro`` package imports this module (a tier-1 test
scans the source to keep it that way); it is not a configuration
option, so it adds nothing to ``RouterConfig`` or to cache keys.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from .core.criteria import (
    DelayCriteria,
    NetTimingContext,
    _worst_excess,
    penalty,
)
from .core.router import GlobalRouter, _NetState
from .core.selection import SelectionMode, selection_key
from .errors import RoutingError
from .routegraph.tree_engine import FullTreeEngine
from .timing.sta import ConstraintTiming


def evaluate_delay_criteria(
    context: NetTimingContext,
    cl_now_pf: float,
    cl_if_deleted_pf: float,
    timings: Mapping[str, ConstraintTiming],
) -> DelayCriteria:
    """``(C_d, Gl, LD)`` of a candidate edge (Section 3.2), one at a time.

    Args:
        context: the net's constraint involvement.
        cl_now_pf: the net's current tentative-tree capacitance.
        cl_if_deleted_pf: its capacitance if the edge is deleted.
        timings: current per-constraint analysis results.
    """
    if not context.constrained:
        return DelayCriteria.ZERO
    critical_count = 0
    global_delay = 0.0
    local_delay = 0.0
    delta_cl = cl_if_deleted_pf - cl_now_pf
    for arc_rows in context.arc_rows():
        cg = arc_rows.cg
        timing = timings[cg.name]
        lm = timing.margin_ps - _worst_excess(
            arc_rows.rows, timing, cl_if_deleted_pf
        )
        if lm <= 0.0:
            critical_count += 1
        global_delay += penalty(lm, cg.limit_ps) - penalty(
            timing.margin_ps, cg.limit_ps
        )
        # Accumulated per arc, in row order, to keep the float sum
        # bit-identical to the pre-resolved-rows implementation.
        for arc, _, _ in arc_rows.rows:
            local_delay += delta_cl * arc.td_ps_per_pf
    return DelayCriteria(critical_count, global_delay, local_delay)


class RescanSelector:
    """The seed's selector: full scan of every candidate per pick."""

    def __init__(
        self,
        router: "OracleRouter",
        states: Sequence[_NetState],
        mode: SelectionMode,
    ):
        self._router = router
        self._states = list(states)
        self._mode = mode

    def select(self) -> Optional[Tuple[_NetState, int]]:
        return self._router._best_candidate(self._states, self._mode)

    def close(self) -> None:
        pass


class OracleRouter(GlobalRouter):
    """:class:`GlobalRouter` with the seed's selector and/or tree engine.

    ``rescan`` picks every deletion by :class:`RescanSelector` instead of
    the candidate engine; ``full_trees`` binds :class:`FullTreeEngine`
    instead of the incremental engine.  The routing is bit-identical to
    the production router's under any combination; only the work
    counters (``router.key_evals``, ``router.tree_dijkstra_runs``, ...)
    and the wall clock differ.

    The scalar key cache reproduces the seed's invalidation exactly, so
    the oracle's cost is the seed's cost: an entry is reused only while
    its channel's density version and the timing version are the ones
    it was computed at, while the net's tree engine is the same object
    (a rebind wiped the seed's cache), and — for a constrained net in a
    timing-driven run — while that engine's ``version`` is unchanged
    (the seed wiped those nets' entries on every tree refresh, and every
    refresh bumps the version).
    """

    def __init__(
        self,
        *args,
        rescan: bool = True,
        full_trees: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.rescan = rescan
        if full_trees:
            self.tree_engine_type = FullTreeEngine
        # net name -> (tree engine the entries belong to, {edge_id:
        #   (key, density version, timing version, tree version)}).
        self._key_cache: Dict[str, Tuple[FullTreeEngine, Dict]] = {}

    def _make_selector(
        self, states: Sequence[_NetState], mode: SelectionMode
    ):
        if self.rescan:
            return RescanSelector(self, states, mode)
        return super()._make_selector(states, mode)

    def _best_candidate(
        self, states: Sequence[_NetState], mode: SelectionMode
    ) -> Optional[Tuple[_NetState, int]]:
        if self.config.timing_driven:
            self._ensure_timings()
        track = self.tracer.enabled
        best_key = None
        runner_key = None
        best: Optional[Tuple[_NetState, int]] = None
        for state in states:
            for edge_id in state.graph.deletable_edges():
                key = self._key_for(state, edge_id, mode)
                if best_key is None or key < best_key:
                    if track:
                        runner_key = best_key
                    best_key = key
                    best = (state, edge_id)
                elif track and (runner_key is None or key < runner_key):
                    runner_key = key
        if track and best is not None:
            self._record_selection(best_key, runner_key, mode)
        return best

    def _key_for(
        self, state: _NetState, edge_id: int, mode: SelectionMode
    ) -> tuple:
        """The candidate's selection key, from the cache when its stamp
        is current (see the class docstring)."""
        self._m_key_evals.inc()
        edge = state.graph.edge(edge_id)
        dens_version = self.engine.version[edge.channel]
        engine = state.tree_engine
        bound, cache = self._key_cache.get(state.net.name, (None, None))
        if bound is not engine:
            cache = {}
            self._key_cache[state.net.name] = (engine, cache)
        sensitive = self.config.timing_driven and state.context.constrained
        cached = cache.get(edge_id)
        if cached is not None:
            key, cached_dens, cached_timing, cached_tree = cached
            if (
                cached_dens == dens_version
                and cached_timing == self._timing_version
                and (not sensitive or cached_tree == engine.version)
            ):
                return key
        self._m_key_recomputes.inc()
        delay = DelayCriteria.ZERO
        if sensitive:
            timings = self._ensure_timings()
            delay = evaluate_delay_criteria(
                state.context,
                state.cl_pf,
                self._cl_if_deleted(state, edge_id),
                timings,
            )
        stats = self.engine.channel_stats(edge.channel)
        params = self.engine.edge_params(edge)
        key = selection_key(
            edge, delay, stats, params, mode,
            tie_break=(state.net.name, edge_id),
        )
        cache[edge_id] = (
            key, dens_version, self._timing_version, engine.version
        )
        return key

    def fresh_key(
        self, state: _NetState, edge_id: int, mode: SelectionMode
    ) -> tuple:
        """The candidate's selection key recomputed now: its cache entry
        is dropped first."""
        _, cache = self._key_cache.get(state.net.name, (None, {}))
        cache.pop(edge_id, None)
        return self._key_for(state, edge_id, mode)

    def _cl_if_deleted(self, state: _NetState, edge_id: int) -> float:
        """One candidate's ``CL(n)`` after deletion, through the state's
        version-stamped cache and the engine's scalar ``evaluate``."""
        engine = self._tree_engine(state)
        cached = state.cl_if_deleted.get(edge_id)
        if cached is not None and cached[1] == engine.version:
            return cached[0]
        tree = engine.evaluate(edge_id)
        if tree is None:
            raise RoutingError(
                f"net {state.net.name}: edge {edge_id} is essential but "
                "was offered as a candidate"
            )
        cl = self.delay_model.wire_cap_pf(
            tree.total_length_um, state.net.width_pitches
        )
        state.cl_if_deleted[edge_id] = (cl, engine.version)
        return cl
