"""Unit tests for candidate selection (lifecycle, the selector seam,
metrics) — the heavy equivalence guarantees against the rescan oracle
live in ``test_selection_equivalence.py`` /
``test_selection_property.py``."""

from conftest import build_chain_circuit
from repro import (
    GlobalDelayGraph,
    GlobalRouter,
    PathConstraint,
    PlacerConfig,
    RouterConfig,
    place_circuit,
)
from repro.core.candidates import CandidateEngine
from repro.core.selection import SelectionMode
from repro.reference import OracleRouter, RescanSelector


def make_router(library, rescan=False, config=RouterConfig()):
    circuit = build_chain_circuit(library, n_gates=8)
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    gd = GlobalDelayGraph.build(circuit)
    constraint = PathConstraint(
        "p0",
        frozenset([gd.vertex_of(circuit.external_pin("din")).index]),
        frozenset([gd.vertex_of(circuit.cell("ff").terminal("D")).index]),
        2000.0,
    )
    if rescan:
        return OracleRouter(circuit, placement, [constraint], config)
    return GlobalRouter(circuit, placement, [constraint], config)


def prepared(library, rescan=False, config=RouterConfig()):
    router = make_router(library, rescan, config)
    router._build_timing()
    router._assign_pins_and_feedthroughs()
    router._build_routing_graphs()
    router._init_density_and_trees()
    return router


class TestConfig:
    def test_engine_survives_unconstrained(self, library):
        router = prepared(
            library, rescan=True, config=RouterConfig().unconstrained()
        )
        selector = router._make_selector(
            router._lead_states(), SelectionMode.TIMING
        )
        assert isinstance(selector, RescanSelector)

    def test_selector_factory_honours_config(self, library):
        router = prepared(library)
        selector = router._make_selector(
            router._lead_states(), SelectionMode.TIMING
        )
        assert isinstance(selector, CandidateEngine)
        selector.close()
        router = prepared(library, rescan=True)
        selector = router._make_selector(
            router._lead_states(), SelectionMode.TIMING
        )
        assert isinstance(selector, RescanSelector)
        selector.close()  # no-op


class TestEngineLifecycle:
    def test_close_unsubscribes(self, library):
        router = prepared(library)
        listeners_before = len(router.engine._listeners)
        engine = CandidateEngine(
            router, router._lead_states(), SelectionMode.TIMING
        )
        assert len(router.engine._listeners) == listeners_before + 1
        engine.close()
        assert len(router.engine._listeners) == listeners_before

    def test_loop_closes_engine_on_completion(self, library):
        router = prepared(library)
        router._deletion_loop(router._lead_states(), SelectionMode.TIMING)
        assert router.engine._listeners == []

    def test_select_exhausts_to_none(self, library):
        router = prepared(library)
        states = router._lead_states()
        engine = CandidateEngine(router, states, SelectionMode.TIMING)
        try:
            while True:
                choice = engine.select()
                if choice is None:
                    break
                router._delete_edge(*choice)
            assert not any(
                True
                for state in states
                for _ in state.graph.deletable_edges()
            )
            assert engine.select() is None
        finally:
            engine.close()


class TestMetrics:
    def test_heap_counters_populated(self, library):
        router = make_router(library)
        router.route()
        flat = router.metrics.flat()
        assert flat["router.heap_pops"] > 0
        assert flat["router.heap_stale"] >= 0
        assert flat["router.key_evals"] >= flat["router.key_recomputes"]

    def test_rescan_has_no_heap_pops(self, library):
        router = make_router(library, rescan=True)
        router.route()
        flat = router.metrics.flat()
        assert flat.get("router.heap_pops", 0) == 0
        assert flat["router.key_evals"] > 0
