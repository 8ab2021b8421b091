"""Seed-equivalence of incremental reclassification on real designs.

The graph-level property tests (:mod:`tests.test_routegraph_incremental`)
pin the incremental bridge-maintenance path to the full-Tarjan reference
on random graphs; these tests pin it on every standard-suite design
through the complete Fig. 2 flow — TIMING-mode deletion loop,
rip-up/reroute re-entry, improvement phases — and through a standalone
AREA-mode loop.  The contract is bit-identity: same deletion sequence
(net, edge, criterion, depth, phase, length), same result metrics, same
reported total length, under either value of
``RoutingGraph.incremental_reclassify``.

Every design routes once more under the reference path (the incremental
route is the production route shared through the ``suite_routes``
fixture), so this file is slow; it is the acceptance gate for the
incremental reclassify path and must not be skipped casually.
"""

import pytest

from conftest import deletion_events
from repro.bench.circuits import make_dataset, standard_suite
from repro.core import GlobalRouter, RouterConfig
from repro.core.selection import SelectionMode
from repro.obs import MemorySink
from repro.routegraph.graph import RoutingGraph

DESIGNS = [spec.name for spec in standard_suite()]
_SPECS = {spec.name: spec for spec in standard_suite()}


def _make_router(design, sink):
    dataset = make_dataset(_SPECS[design])
    return GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        RouterConfig(),
        trace_sink=sink,
    )


def _route(design, incremental):
    """Full route of one design under one reclassification path."""
    prev = RoutingGraph.incremental_reclassify
    RoutingGraph.incremental_reclassify = incremental
    try:
        sink = MemorySink()
        router = _make_router(design, sink)
        result = router.route()
        return deletion_events(sink), result, router.metrics.flat()
    finally:
        RoutingGraph.incremental_reclassify = prev


def _area_loop(design, incremental):
    """Standalone AREA-mode deletion loop over all lead states."""
    prev = RoutingGraph.incremental_reclassify
    RoutingGraph.incremental_reclassify = incremental
    try:
        sink = MemorySink()
        router = _make_router(design, sink)
        router._build_timing()
        router._assign_pins_and_feedthroughs()
        router._build_routing_graphs()
        router._init_density_and_trees()
        router._deletion_loop(router._lead_states(), SelectionMode.TIMING)
        router._deletion_loop(router._lead_states(), SelectionMode.AREA)
        return deletion_events(sink)
    finally:
        RoutingGraph.incremental_reclassify = prev


@pytest.fixture(scope="module", params=DESIGNS)
def routed_pair(request, suite_routes):
    """One design routed under both reclassification paths (the
    incremental one is the session's shared production route)."""
    design = request.param
    production = suite_routes.route(design)
    return (
        design,
        _route(design, False),
        (production.events, production.result, production.metrics),
    )


class TestFullRouteEquivalence:
    def test_deletion_sequence_identical(self, routed_pair):
        design, (seq_ref, _, _), (seq_inc, _, _) = routed_pair
        assert seq_inc == seq_ref, (
            f"{design}: incremental reclassify diverged from the full "
            f"reference at index "
            f"{next(i for i, (a, b) in enumerate(zip(seq_ref, seq_inc)) if a != b)}"
        )

    def test_results_identical(self, routed_pair):
        design, (_, res_ref, _), (_, res_inc, _) = routed_pair
        assert res_inc.deletions == res_ref.deletions
        assert res_inc.reroutes == res_ref.reroutes
        assert res_inc.total_length_um == res_ref.total_length_um
        assert res_inc.critical_delay_ps == res_ref.critical_delay_ps
        assert res_inc.channel_peak_density == res_ref.channel_peak_density
        assert res_inc.constraint_margins == res_ref.constraint_margins

    def test_incremental_path_actually_ran(self, routed_pair):
        design, (_, _, m_ref), (_, _, m_inc) = routed_pair
        assert m_inc.get("graph.bridge_local_recomputes", 0) > 0, (
            f"{design}: incremental mode never took the local path"
        )
        assert m_ref.get("graph.bridge_local_recomputes", 0) == 0
        assert m_ref.get("graph.bridge_full_fallbacks", 0) > 0


@pytest.mark.parametrize("design", DESIGNS)
def test_area_mode_sequence_identical(design):
    assert _area_loop(design, True) == _area_loop(design, False)
