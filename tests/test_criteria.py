"""Tests for repro.core.criteria (LM, C_d, Gl, LD, pen), against the
scalar reference :func:`repro.reference.evaluate_delay_criteria`."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import build_diamond_circuit
from repro.core.criteria import (
    DelayCriteria,
    NetTimingContext,
    evaluate_delay_criteria_batch,
    local_margin,
    penalty,
)
from repro.errors import TimingError
from repro.reference import evaluate_delay_criteria
from repro.timing import (
    GlobalDelayGraph,
    PathConstraint,
    StaticTimingAnalyzer,
    WireCaps,
    build_constraint_graph,
)


class TestPenalty:
    def test_zero_margin(self):
        assert penalty(0.0, 100.0) == pytest.approx(1.0)

    def test_positive_margin_linear(self):
        assert penalty(50.0, 100.0) == pytest.approx(0.5)
        assert penalty(100.0, 100.0) == pytest.approx(0.0)

    def test_negative_margin_exponential(self):
        assert penalty(-100.0, 100.0) == pytest.approx(math.e)

    def test_continuous_at_zero(self):
        assert penalty(-1e-9, 100.0) == pytest.approx(
            penalty(1e-9, 100.0), abs=1e-6
        )

    def test_requires_positive_limit(self):
        with pytest.raises(TimingError):
            penalty(1.0, 0.0)

    @given(
        st.floats(-500, 500), st.floats(-500, 500), st.floats(1.0, 1000.0)
    )
    def test_monotone_decreasing_in_margin(self, x1, x2, limit):
        lo, hi = min(x1, x2), max(x1, x2)
        assert penalty(lo, limit) >= penalty(hi, limit) - 1e-12

    @given(st.floats(-200, 200), st.floats(1.0, 500.0))
    def test_always_positive_below_limit(self, x, limit):
        if x < limit:
            assert penalty(x, limit) > 0.0


@pytest.fixture()
def timed_diamond(library):
    circuit = build_diamond_circuit(library)
    gd = GlobalDelayGraph.build(circuit)
    src = gd.vertex_of(circuit.external_pin("din")).index
    snk = gd.vertex_of(circuit.external_pin("dout")).index
    cg = build_constraint_graph(
        gd, PathConstraint("p", frozenset([src]), frozenset([snk]), 300.0)
    )
    analyzer = StaticTimingAnalyzer(gd, [cg])
    return circuit, gd, cg, analyzer


class TestLocalMargin:
    def test_no_increase_keeps_margin(self, timed_diamond):
        circuit, gd, cg, analyzer = timed_diamond
        caps = WireCaps()
        timing = analyzer.analyze_constraint(cg, caps)
        net = circuit.net("n_b")
        lm = local_margin(cg, timing, net, caps.get(net))
        assert lm == pytest.approx(timing.margin_ps)

    def test_increase_on_critical_net_reduces_margin_exactly(
        self, timed_diamond
    ):
        circuit, gd, cg, analyzer = timed_diamond
        caps = WireCaps({"n_b": 1.0})
        timing = analyzer.analyze_constraint(cg, caps)
        net = circuit.net("n_b")
        arc_pos = cg.arcs_of_net["n_b"][0]
        td = cg.arcs[arc_pos].td_ps_per_pf
        lm = local_margin(cg, timing, net, 1.5)
        # n_b is on the critical path -> LM is exactly the new margin.
        assert lm == pytest.approx(timing.margin_ps - 0.5 * td)

    def test_off_path_increase_is_pessimistic(self, timed_diamond):
        circuit, gd, cg, analyzer = timed_diamond
        caps = WireCaps({"n_b": 2.0})  # b-branch dominates
        timing = analyzer.analyze_constraint(cg, caps)
        net = circuit.net("n_c")
        small = local_margin(cg, timing, net, 0.01)
        # A small increase on the non-critical branch cannot violate.
        assert small <= timing.margin_ps

    def test_margin_never_improves(self, timed_diamond):
        circuit, gd, cg, analyzer = timed_diamond
        caps = WireCaps({"n_b": 0.4, "n_c": 0.2})
        timing = analyzer.analyze_constraint(cg, caps)
        for net_name in ("n_a", "n_b", "n_c", "n_d", "n_in"):
            net = circuit.net(net_name)
            lm = local_margin(
                cg, timing, net, caps.get(net) + 0.3
            )
            assert lm <= timing.margin_ps + 1e-9


class TestEvaluateDelayCriteria:
    def test_unconstrained_net_is_zero(self, timed_diamond):
        circuit, _, _, _ = timed_diamond
        context = NetTimingContext(circuit.net("n_b"))
        result = evaluate_delay_criteria(context, 0.0, 1.0, {})
        assert result is DelayCriteria.ZERO

    def test_contexts_built_from_constraints(self, timed_diamond):
        circuit, _, cg, _ = timed_diamond
        contexts = NetTimingContext.build_all(circuit.routable_nets, [cg])
        assert contexts["n_b"].constrained
        assert contexts["n_b"].constraints == [cg]

    def test_gl_nonnegative_and_ld_positive(self, timed_diamond):
        circuit, gd, cg, analyzer = timed_diamond
        caps = WireCaps()
        timings = {cg.name: analyzer.analyze_constraint(cg, caps)}
        contexts = NetTimingContext.build_all(circuit.routable_nets, [cg])
        result = evaluate_delay_criteria(
            contexts["n_b"], 0.0, 0.5, timings
        )
        assert result.global_delay >= 0.0
        assert result.local_delay > 0.0
        assert result.critical_count == 0

    def test_critical_count_triggers_on_violation(self, timed_diamond):
        circuit, gd, cg, analyzer = timed_diamond
        caps = WireCaps()
        timings = {cg.name: analyzer.analyze_constraint(cg, caps)}
        contexts = NetTimingContext.build_all(circuit.routable_nets, [cg])
        huge = evaluate_delay_criteria(
            contexts["n_b"], 0.0, 100.0, timings
        )
        assert huge.critical_count == 1
        assert huge.global_delay > 0.0

    def test_ld_scales_with_arc_count(self, timed_diamond):
        circuit, gd, cg, analyzer = timed_diamond
        caps = WireCaps()
        timings = {cg.name: analyzer.analyze_constraint(cg, caps)}
        contexts = NetTimingContext.build_all(circuit.routable_nets, [cg])
        # n_a feeds two arcs, n_b feeds one.
        ld_a = evaluate_delay_criteria(
            contexts["n_a"], 0.0, 1.0, timings
        ).local_delay
        ld_b = evaluate_delay_criteria(
            contexts["n_b"], 0.0, 1.0, timings
        ).local_delay
        assert ld_a > ld_b

    def test_as_tuple_ordering(self):
        a = DelayCriteria(0, 1.0, 5.0)
        b = DelayCriteria(1, 0.0, 0.0)
        assert a.as_tuple() < b.as_tuple()


class TestEvaluateDelayCriteriaBatch:
    """The vectorized evaluator must be BIT-identical to the scalar one
    per element — deletion sequences ride on exact float equality."""

    def _timings_and_contexts(self, timed_diamond, caps):
        circuit, _, cg, analyzer = timed_diamond
        timings = {cg.name: analyzer.analyze_constraint(cg, caps)}
        contexts = NetTimingContext.build_all(circuit.routable_nets, [cg])
        return circuit, timings, contexts

    def test_unconstrained_net_is_all_zero(self, timed_diamond):
        circuit, _, _, _ = timed_diamond
        context = NetTimingContext(circuit.net("n_b"))
        crit, gl, ld = evaluate_delay_criteria_batch(
            context, 0.0, np.array([0.5, 1.0, 2.0]), {}
        )
        assert crit.tolist() == [0, 0, 0]
        assert gl.tolist() == [0.0, 0.0, 0.0]
        assert ld.tolist() == [0.0, 0.0, 0.0]

    def test_empty_batch(self, timed_diamond):
        circuit, timings, contexts = self._timings_and_contexts(
            timed_diamond, WireCaps()
        )
        crit, gl, ld = evaluate_delay_criteria_batch(
            contexts["n_b"], 0.0, np.empty(0), timings
        )
        assert crit.shape == gl.shape == ld.shape == (0,)

    def test_bit_identical_to_scalar(self, timed_diamond):
        circuit, timings, contexts = self._timings_and_contexts(
            timed_diamond, WireCaps({"n_b": 0.7, "n_c": 0.3})
        )
        cls = np.array([0.0, 0.1, 0.5, 1.7, 13.0, 100.0])
        for net_name in ("n_a", "n_b", "n_c", "n_d", "n_in"):
            context = contexts[net_name]
            crit, gl, ld = evaluate_delay_criteria_batch(
                context, 0.4, cls, timings
            )
            for i, cl in enumerate(cls):
                scalar = evaluate_delay_criteria(
                    context, 0.4, float(cl), timings
                )
                assert int(crit[i]) == scalar.critical_count
                # Exact equality on purpose: no pytest.approx.
                assert float(gl[i]) == scalar.global_delay
                assert float(ld[i]) == scalar.local_delay

    @given(
        st.lists(
            st.floats(0.0, 150.0, allow_nan=False), min_size=1, max_size=12
        ),
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
    )
    @settings(
        max_examples=40,
        deadline=None,
        # The fixture is read-only here (analysis results are fresh per
        # draw), so sharing it across examples is safe.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bit_identical_property(
        self, timed_diamond, cls, cl_now, cap_b, cap_c
    ):
        circuit, timings, contexts = self._timings_and_contexts(
            timed_diamond, WireCaps({"n_b": cap_b, "n_c": cap_c})
        )
        context = contexts["n_b"]
        crit, gl, ld = evaluate_delay_criteria_batch(
            context, cl_now, np.array(cls), timings
        )
        for i, cl in enumerate(cls):
            scalar = evaluate_delay_criteria(context, cl_now, cl, timings)
            assert int(crit[i]) == scalar.critical_count
            assert float(gl[i]) == scalar.global_delay
            assert float(ld[i]) == scalar.local_delay

    def test_nonpositive_limit_raises(self, timed_diamond):
        circuit, gd, cg, analyzer = timed_diamond
        timings = {cg.name: analyzer.analyze_constraint(cg, WireCaps())}
        contexts = NetTimingContext.build_all(circuit.routable_nets, [cg])
        # PathConstraint rejects non-positive limits at construction, so
        # reach around the frozen dataclass to exercise the defensive
        # check in the batch evaluator.
        object.__setattr__(cg.constraint, "limit_ps", 0.0)
        try:
            with pytest.raises(TimingError):
                evaluate_delay_criteria_batch(
                    contexts["n_b"], 0.0, np.array([1.0]), timings
                )
        finally:
            object.__setattr__(cg.constraint, "limit_ps", 300.0)
