"""Seed-equivalence of the incremental tree engine.

The :class:`IncrementalTreeEngine`'s contract is *bit-identical*
reproduction of the full per-candidate Dijkstra: on every standard-suite
design the production router and the full-Dijkstra oracle
(:class:`repro.reference.OracleRouter` binding ``FullTreeEngine``) must
produce the identical deletion sequence — same net, same edge id, same
order, same winning criterion — and the identical final routing,
through the complete Fig. 2 flow and through a standalone AREA-mode
deletion loop.

The production routes come from the session's ``suite_routes`` fixture
(shared with the selection and reclassify suites); the oracle routes
every design once more here.  These tests are the acceptance gate for
the production tree engine and must not be skipped casually.

Both routers here run under the default incremental graph
reclassification; ``tests/test_reclassify_equivalence.py`` is the
companion suite pinning that axis (incremental vs full-Tarjan
reclassify) to the same bit-identity bar.
"""

import pytest

from conftest import SUITE_DESIGNS

FULL_TREES = {"rescan": False, "full_trees": True}


@pytest.fixture(scope="module", params=SUITE_DESIGNS)
def routed_pair(request, suite_routes):
    """One design routed by the full-Dijkstra oracle and by production."""
    design = request.param
    return (
        design,
        suite_routes.route(design, **FULL_TREES),
        suite_routes.route(design),
    )


class TestFullRouteEquivalence:
    def test_deletion_sequence_identical(self, routed_pair):
        design, full, incremental = routed_pair
        seq_full, seq_inc = full.events, incremental.events
        assert seq_inc == seq_full, (
            f"{design}: incremental tree engine diverged from the full "
            f"baseline at index "
            f"{next(i for i, (a, b) in enumerate(zip(seq_full, seq_inc)) if a != b)}"
        )

    def test_results_identical(self, routed_pair):
        design, full, incremental = routed_pair
        res_full, res_inc = full.result, incremental.result
        assert res_inc.deletions == res_full.deletions
        assert res_inc.reroutes == res_full.reroutes
        assert res_inc.total_length_um == res_full.total_length_um
        assert res_inc.critical_delay_ps == res_full.critical_delay_ps
        assert (
            res_inc.channel_peak_density == res_full.channel_peak_density
        )
        assert res_inc.constraint_margins == res_full.constraint_margins

    def test_final_trees_bit_identical(self, routed_pair):
        design, full, incremental = routed_pair
        assert incremental.trees == full.trees

    def test_incremental_never_runs_more_dijkstras(self, routed_pair):
        design, full, incremental = routed_pair
        m_full, m_inc = full.metrics, incremental.metrics
        assert (
            m_inc["router.tree_dijkstra_runs"]
            <= m_full["router.tree_dijkstra_runs"]
        )
        assert (
            m_inc["router.tree_dijkstra_repeats"]
            <= m_full["router.tree_dijkstra_repeats"]
        )

    def test_fast_path_actually_fires(self, routed_pair):
        design, _, incremental = routed_pair
        assert incremental.metrics["router.tree_fastpath_hits"] > 0


@pytest.mark.parametrize("design", SUITE_DESIGNS)
def test_area_mode_sequence_identical(design, suite_routes):
    assert suite_routes.area_loop(design) == suite_routes.area_loop(
        design, **FULL_TREES
    )
