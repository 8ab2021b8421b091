"""Seed-equivalence of the incremental candidate engine.

The ``CandidateEngine``'s contract is *exact* reproduction of the full
rescan's behaviour: on every standard-suite design the production router
and the rescan oracle (:class:`repro.reference.OracleRouter`) must
produce the identical deletion sequence — same net, same edge id, same
order, same winning criterion — through the complete Fig. 2 flow
(initial loop, differential-pair mirror deletions, rip-up/reroute
re-entry in all three improvement phases) and through a standalone
AREA-mode deletion loop.

The production routes come from the session's ``suite_routes`` fixture
(shared with the tree-engine and reclassify suites); the rescan oracle
routes every design once more here.  These tests are the acceptance
gate for the production selector and must not be skipped casually.

Both routers here run under the default incremental graph
reclassification; ``tests/test_reclassify_equivalence.py`` is the
companion suite pinning that axis (incremental vs full-Tarjan
reclassify) to the same bit-identity bar.
"""

import pytest

from conftest import SUITE_DESIGNS

LARGEST = "C3P1"


@pytest.fixture(scope="module", params=SUITE_DESIGNS)
def routed_pair(request, suite_routes):
    """One design routed by the rescan oracle and by production."""
    design = request.param
    return (
        design,
        suite_routes.route(design, rescan=True),
        suite_routes.route(design),
    )


class TestFullRouteEquivalence:
    def test_deletion_sequence_identical(self, routed_pair):
        design, rescan, incremental = routed_pair
        seq_rescan, seq_inc = rescan.events, incremental.events
        assert seq_inc == seq_rescan, (
            f"{design}: incremental engine diverged from the rescan "
            f"baseline at index "
            f"{next(i for i, (a, b) in enumerate(zip(seq_rescan, seq_inc)) if a != b)}"
        )

    def test_results_identical(self, routed_pair):
        design, rescan, incremental = routed_pair
        res_rescan, res_inc = rescan.result, incremental.result
        assert res_inc.deletions == res_rescan.deletions
        assert res_inc.reroutes == res_rescan.reroutes
        assert res_inc.total_length_um == res_rescan.total_length_um
        assert res_inc.critical_delay_ps == res_rescan.critical_delay_ps
        assert (
            res_inc.channel_peak_density == res_rescan.channel_peak_density
        )
        assert res_inc.constraint_margins == res_rescan.constraint_margins

    def test_incremental_never_evaluates_more_keys(self, routed_pair):
        design, rescan, incremental = routed_pair
        m_rescan, m_inc = rescan.metrics, incremental.metrics
        assert (
            m_inc["router.key_evals"] <= m_rescan["router.key_evals"]
        )
        assert (
            m_inc["router.key_recomputes"]
            <= m_rescan["router.key_recomputes"]
        )

    def test_vectorized_core_is_exercised(self, routed_pair):
        """The array-native hot path must actually run (not silently
        fall back to scalar): every design refreshes candidate rows in
        batches, and each batch covers multiple rows on average."""
        design, _, incremental = routed_pair
        rows = incremental.metrics.get("router.vectorized_rows", 0)
        batches = incremental.metrics.get("router.vectorized_batches", 0)
        assert rows > 0, f"{design}: vectorized path never ran"
        assert batches > 0
        assert rows >= batches


@pytest.mark.parametrize("design", SUITE_DESIGNS)
def test_area_mode_sequence_identical(design, suite_routes):
    assert suite_routes.area_loop(design) == suite_routes.area_loop(
        design, rescan=True
    )


def test_largest_design_key_eval_reduction(suite_routes):
    """The headline speedup claim: ≥5× fewer selection-key evaluations
    per deletion on the largest standard-suite design (C3P1).  Reads the
    two C3P1 routes ``routed_pair`` already made."""
    rescan = suite_routes.route(LARGEST, rescan=True)
    incremental = suite_routes.route(LARGEST)
    per_del_rescan = (
        rescan.metrics["router.key_evals"] / rescan.result.deletions
    )
    per_del_inc = (
        incremental.metrics["router.key_evals"]
        / incremental.result.deletions
    )
    assert per_del_rescan >= 5.0 * per_del_inc
