"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import flows  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import service_load  # noqa: E402
import spans as tracing  # noqa: E402
from stats import Ledger, fit_exponent, tail  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_valid_and_unique():
    rows = run.END_TO_END + run.REPORTED + run.PER_LAYER + run.NEGOTIATE_LAYERS
    names = [name for name, _, _ in rows]
    assert len(names) == len(set(names))
    for name, unit, better in rows:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("lower", "higher")


def test_benchmark_json_mirrors_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _flow(label, **fields):
    base = dict(make_s=0.1, route_s=1.0, flow_s=1.5, delay_ps=100.0, area_mm2=2.0,
                length_mm=3.0, violations=1, deletions=10, digest="d")
    base.update(fields)
    return flows.FlowResult(label, **base)


def test_every_workload_produces_every_metric_it_promises():
    passes = [flows.Pass([_flow("A.c"), _flow("A.u")])]
    promised = {n for n, _, _ in run.END_TO_END}
    assert promised <= set(flows.end_to_end(passes, 0.5, 50.0))
    assert promised <= set(service_load.end_to_end(service_load.Session(), 0.5, 50.0))
    produced = set(flows.layers(flows.Pass([]))) | set(service_load.layers(service_load.Session()))
    layer_names = {n for n, _, _ in run.PER_LAYER + run.NEGOTIATE_LAYERS}
    assert produced | {"trace.overhead_pct"} == layer_names


def test_pass_schedule_depends_on_seconds_only():
    assert flows.schedule("paper-suite", 40) == [0, 0, 1, 2, 3]
    assert flows.schedule("paper-suite", 20) == [0, 0]
    assert flows.schedule("scale-x1", 40) == [0, 0]


def test_a_pass_after_the_cap_is_skipped_and_counted_as_a_failure():
    ledger = Ledger()
    assert flows.run_passes([], None, [0, 0, 1], -1.0, ledger, {}) == []
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "3 passes left" in ledger.failures[0]


def test_timings_average_each_variant_before_averaging_variants():
    passes = [
        flows.Pass([_flow("A.c", route_s=1.0, flow_s=1.0)], variant=0),
        flows.Pass([_flow("A.c", route_s=3.0, flow_s=3.0)], variant=0),  # the repeat of pass 0
        flows.Pass([_flow("A.c", route_s=5.0, flow_s=5.0)], variant=1),
    ]
    assert flows.per_variant(passes, "route_s") == (2.0 + 5.0) / 2
    metrics = flows.end_to_end(passes, 0.0, 1.0)
    assert (metrics["flow_s"], metrics["cold_latency_tail_s"]) == (3.5, 5.0)


def test_times_are_rescaled_by_the_probe_and_wall_times_are_reported():
    slow = _flow("A.c", route_s=2.0, flow_s=3.0, probe_s=2 * probe.NOMINAL_S)
    metrics = flows.end_to_end([flows.Pass([slow])], 0.0, 1.0)
    slower = 0.5 ** probe.EXPONENT
    assert (metrics["route_s"], metrics["flow_s"]) == pytest.approx((2.0 * slower, 3.0 * slower))
    assert (metrics["route_wall_s"], metrics["flow_wall_s"]) == (2.0, 3.0)


def test_probe_takes_time_and_repeats_its_result():
    assert 0.0 < probe.probe() < 60.0
    assert probe.probe() > 0.0  # a second run checks the first's result


# ----------------------------------------------------------------------
# Self time and layer aggregation
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_child_spans():
    parent = tracing.Span("route", 0.0, 10.0)
    spans = [
        parent,
        tracing.Span("core.select", 1.0, 3.0, parent),
        tracing.Span("core.select", 2.0, 5.0, parent),   # overlaps the first
        tracing.Span("core.verify", 7.0, 8.0, parent),
        tracing.Span("core.verify", 9.5, 12.0, parent),  # clipped at the parent's end
    ]
    assert tracing.covered_seconds(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert tracing.self_seconds(spans, "route") == 10.0 - (4.0 + 1.0 + 0.5)


def test_layer_time_counts_nested_spans_of_one_layer_once():
    outer = tracing.Span("timing.sta", 0.0, 4.0)
    spans = [outer, tracing.Span("timing.sta", 1.0, 2.0, outer), tracing.Span("timing.sta", 5.0, 6.0)]
    assert tracing.layer_seconds(spans, "timing.sta") == 5.0
    assert tracing.span_count(spans, "timing.sta") == 2


def test_timing_layers_count_only_calls_inside_route():
    route = tracing.Span("route", 0.0, 10.0)
    signoff = tracing.Span("analysis.signoff", 11.0, 14.0)
    spans = [
        route,
        tracing.Span("timing.sta", 1.0, 2.0, route),
        signoff,
        tracing.Span("timing.sta", 12.0, 13.5, signoff),
    ]
    layer = flows.layers(flows.Pass([], spans=spans))
    assert (layer["timing.sta_s"], layer["timing.sta_calls"]) == (1.0, 1)
    assert layer["analysis.signoff_s"] == 3.0


def test_installed_wrappers_record_spans_and_are_removed_afterwards():
    from repro.core import verify
    from repro.layout.feedthrough import RowSlots

    original_verify, original_find = verify.verify_routing, RowSlots.__dict__["find_group"]
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        assert verify.verify_routing is not original_verify
        with recorder.span("outer"), pytest.raises(AttributeError):
            # No placement: the call raises, and its span must still close.
            verify.verify_routing(SimpleNamespace(routable_nets=[]), None,
                                  SimpleNamespace(routes={}, channel_peak_density={}))
    assert verify.verify_routing is original_verify
    assert RowSlots.__dict__["find_group"] is original_find
    inner = [s for s in recorder.spans if s.name == "core.verify"]
    assert len(inner) == 1 and inner[0].parent.name == "outer"
    assert inner[0].end >= inner[0].start > 0


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_ledger_counts_one_failure_per_failed_operation():
    ledger = Ledger()
    assert ledger.record("ok")
    assert not ledger.record("bad", ["first", "second"])
    assert (ledger.attempted, ledger.failed, ledger.failed_ratio) == (2, 1, 0.5)


def test_check_flow_fails_on_exception_finding_or_changed_digest():
    ledger, digests = Ledger(), {}
    flows.check_flow(_flow("A.c"), ledger, digests, 0)
    flows.check_flow(_flow("A.c"), ledger, digests, 0)
    flows.check_flow(_flow("A.c", digest="another circuit"), ledger, digests, 1)
    assert ledger.failed == 0
    flows.check_flow(_flow("A.c", digest="other"), ledger, digests, 0)
    flows.check_flow(_flow("B.c", findings=["net n1: no route"]), ledger, digests, 0)
    flows.check_flow(flows.FlowResult("C.c", error="Traceback\nValueError: boom\n"), ledger, digests, 0)
    assert ledger.attempted == 6 and ledger.failed == 3
    assert "ValueError: boom" in ledger.failures[-1]


def test_refused_service_submission_is_a_failed_operation_not_a_crash():
    from repro.service.client import ServiceError

    class Refusing:
        def submit(self, payload):
            raise ServiceError(429, "tenant over quota", retry_after_s=1.0)

    samples, problems = service_load.run_op(Refusing(), service_load.Op("cold", "S1P1", 5), {})
    assert samples == [] and "429" in problems[0]


class _FakeService:
    """Answers like the service: a known key is a cache hit, a new one
    runs, and a resubmission while it runs coalesces onto it."""

    def __init__(self, record):
        self.record, self.jobs, self.done = record, {}, set()

    def submit(self, payload):
        key = (payload["dataset"], payload["seed"])
        cached = key in self.done
        job = self.jobs.setdefault(key, {"id": str(len(self.jobs)), "status": "queued"})
        return {**job, "status": "done" if cached else "running", "cached": cached}

    def events(self, job_id):
        self.done.update(k for k, job in self.jobs.items() if job["id"] == job_id)
        return iter(())

    def result(self, job_id):
        return {"status": "done", "result": {"record": self.record}}


def test_service_ops_classify_samples_and_check_cache_hits():
    record = {"dataset": "S1P1", "delay_ps": 10.0}
    service = _FakeService(record)
    cold, problems = service_load.run_op(service, service_load.Op("cold", "S1P1", 7), {})
    assert [s.kind for s in cold] == ["cold"] and problems == []
    warm, problems = service_load.run_op(service, service_load.Op("warm", "S1P1", 7), {"S1P1": record})
    assert [s.kind for s in warm] == ["warm"] and problems == []
    dup, problems = service_load.run_op(service, service_load.Op("dup", "S1P1", 8), {})
    assert [s.kind for s in dup] == ["cold", "coalesced"] and problems == []
    _, problems = service_load.run_op(service, service_load.Op("warm", "S1P1", 9), {"S1P1": {"delay_ps": 11.0}})
    assert "warm resubmission was not served from the cache" in problems
    assert "cache hit differs from the cold result" in problems


def test_op_sequence_is_seeded_and_keeps_its_mix():
    first, second = service_load.OpSequence(3, 30), service_load.OpSequence(3, 30)
    ops = [first.next() for _ in range(30)]
    assert ops == [second.next() for _ in range(30)]
    assert first.next() is None and first.left == 0
    kinds = [op.kind for op in ops]
    assert (kinds.count("cold"), kinds.count("warm"), kinds.count("dup")) == (12, 12, 6)
    assert all(op.seed == 3 for op in ops if op.kind == "warm")
    fresh = [op.seed for op in ops if op.kind != "warm"]
    assert len(set(fresh)) == len(fresh) and 3 not in fresh


def test_op_sequence_chunks_do_not_change_the_operations():
    whole, chunked = service_load.OpSequence(5, 25), service_load.OpSequence(5, 25)
    ops = []
    for _ in range(3):
        chunked.release(10)
        ops += iter(chunked.next, None)
    assert len(ops) == 25 and chunked.left == 0
    assert ops == [whole.next() for _ in range(25)]


# ----------------------------------------------------------------------
# Digests and statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Edge:
    kind: object
    channel: int
    interval: object
    length_um: float


def test_route_digest_ignores_order_but_not_wiring():
    kind = SimpleNamespace(value="trunk")
    e1 = _Edge(kind, 0, SimpleNamespace(lo=1, hi=4), 30.0)
    e2 = _Edge(kind, 1, SimpleNamespace(lo=2, hi=2), 10.0)
    one = SimpleNamespace(routes={"a": SimpleNamespace(edges=[e1, e2]), "b": SimpleNamespace(edges=[])})
    two = SimpleNamespace(routes={"b": SimpleNamespace(edges=[]), "a": SimpleNamespace(edges=[e2, e1])})
    moved = _Edge(kind, 1, SimpleNamespace(lo=2, hi=3), 10.0)
    three = SimpleNamespace(routes={"a": SimpleNamespace(edges=[e1, moved]), "b": SimpleNamespace(edges=[])})
    assert flows.route_digest(one) == flows.route_digest(two) != flows.route_digest(three)


def test_same_seed_routes_to_the_same_verified_digest_traced_or_not():
    design = flows.Design(flows.circuits.small_suite()[0])
    plain = flows.run_flow(design, 5)
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        traced = flows.run_flow(design, 5, recorder)
    other = flows.run_flow(design, 6)
    assert plain.error is None and plain.findings == []
    assert plain.digest == traced.digest != other.digest
    layer = flows.layers(flows.Pass([traced], spans=recorder.spans, calls=recorder.calls))
    assert layer["routegraph.build_calls"] > 0 and layer["core.verify_s"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = list(range(1, 21))
    assert tail(values) == (10, 50.0)
    assert len([v for v in values if v > tail(values)[0]]) == 10


def test_fit_exponent_recovers_a_power_law():
    assert abs(fit_exponent([(x, 3.0 * x ** 1.5) for x in (10, 100, 1000)]) - 1.5) < 1e-9
    assert fit_exponent([(10, 1.0)]) != fit_exponent([(10, 1.0)])  # NaN
