"""Design workloads: placed netlist → ``route()`` → channel routing →
sign-off → ``verify_routing``, the flow a user of the router waits for.

Functions that :mod:`spans` wraps are called through their modules
(``circuits.make_dataset``, ``leftedge.route_channels`` …) so the
traced half of a run sees the wrappers and the untraced half does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.analysis import signoff
from repro.baselines import lower_bound
from repro.bench import circuits
from repro.channelrouter import leftedge
from repro.core import verify
from repro.core.config import RouterConfig
from repro.engines import make_engine
from repro.layout.floorplan import Floorplan
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler

import probe
import spans as tracing
from stats import Ledger, fit_exponent, median, ratio


@dataclass(frozen=True)
class Design:
    """One design routed one way: a row of the workload."""

    spec: circuits.DatasetSpec
    constrained: bool = True
    engine: str = "edge-deletion"

    @property
    def label(self) -> str:
        if self.engine != "edge-deletion":
            return f"{self.spec.name}.neg"
        return f"{self.spec.name}.{'c' if self.constrained else 'u'}"

    def dataset_spec(self, seed: Optional[int], variant: int = 0) -> circuits.DatasetSpec:
        """The dataset with ``CircuitSpec.seed`` replaced by ``--seed``
        (``None`` keeps the suite seed).  Variant ``v > 0`` is a further
        circuit of the same recipe, derived from that seed."""
        if variant:
            base = self.spec.circuit.seed if seed is None else seed
            seed = base + variant * 1_000_003
        if seed is None:
            return self.spec
        return replace(self.spec, circuit=replace(self.spec.circuit, seed=seed))


def workload_designs(workload: str) -> List[Design]:
    standard = {spec.name: spec for spec in circuits.standard_suite()}
    if workload == "paper-suite":
        return [
            Design(spec, constrained)
            for spec in circuits.standard_suite()
            for constrained in (True, False)
        ]
    if workload == "scale-x1":
        # The C rungs are cheap next to X1P1 and give the ladder fit its
        # small end; X1P1 is >95% of the pass.
        rungs = [Design(standard[name]) for name in ("C1P1", "C2P1", "C3P1")]
        return rungs + [Design(circuits.scale_suite()[0])]
    if workload == "negotiated":
        return [
            Design(standard["C3P1"], engine="negotiated"),
            Design(circuits.congestion_suite()[0], engine="negotiated"),
        ]
    raise KeyError(workload)


def route_digest(result) -> str:
    """SHA-256 over every net's final wiring, independent of dict and
    edge order."""
    digest = hashlib.sha256()
    for name in sorted(result.routes):
        digest.update(name.encode())
        edges = sorted(
            (e.kind.value, e.channel, e.interval.lo, e.interval.hi, e.length_um)
            for e in result.routes[name].edges
        )
        for edge in edges:
            digest.update(repr(edge).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class FlowResult:
    """One design through the whole flow (times in seconds)."""

    label: str
    make_s: float = 0.0
    route_s: float = 0.0
    flow_s: float = 0.0
    delay_ps: float = 0.0
    area_mm2: float = 0.0
    length_mm: float = 0.0
    violations: int = 0
    deletions: int = 0
    bound_ps: float = 0.0
    hpwl_mm: float = 0.0
    base_area_mm2: float = 0.0
    findings: List[str] = field(default_factory=list)
    digest: str = ""
    error: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)
    phases: Optional[PhaseProfiler] = None
    #: Mean of the machine-speed probes timed right before and right
    #: after this flow; the nominal value leaves its times unscaled.
    probe_s: float = probe.NOMINAL_S

    def rescaled(self, attr: str) -> float:
        """A time of this flow at the probe's nominal machine speed."""
        return getattr(self, attr) * probe.factor(self.probe_s)


def run_flow(
    design: Design,
    seed: Optional[int],
    recorder: Optional[tracing.SpanRecorder] = None,
    variant: int = 0,
) -> FlowResult:
    """Route one design end to end; exceptions become ``error``."""
    out = FlowResult(design.label)
    try:
        t0 = time.perf_counter()
        dataset = circuits.make_dataset(design.dataset_spec(seed, variant))
        ready = time.perf_counter()
        config = RouterConfig(routing_engine=design.engine)
        if not design.constrained:
            config = config.unconstrained()
        metrics, profiler = MetricsRegistry(), PhaseProfiler()
        router = make_engine(
            dataset.circuit, dataset.placement, dataset.constraints, config,
            metrics=metrics, profiler=profiler,
        )
        scope = recorder.span("route") if recorder else contextlib.nullcontext()
        with scope:
            r0 = time.perf_counter()
            result = router.route()
            r1 = time.perf_counter()
        channels = leftedge.route_channels(result, dataset.placement, config.technology)
        report = signoff.sign_off(
            dataset.circuit, dataset.placement, result, channels,
            dataset.constraints, config.technology, config.width_cap_exponent,
            gd=router.gd,
        )
        findings = verify.verify_routing(
            dataset.circuit, dataset.placement, result, router.assignment
        )
        done = time.perf_counter()
        # Seed-independent quality: each figure over its own lower bound
        # on the routed chip (Table 3's HPWL delay bound, HPWL, and the
        # chip with empty channels).  Untimed: it is the benchmark's
        # yardstick, not part of the flow.
        tracks = report.floorplan.channel_tracks
        out.bound_ps = lower_bound.critical_path_lower_bound_ps(
            dataset.circuit, dataset.placement, config.technology,
            gd=router.gd, channel_tracks=tracks,
        )
        out.hpwl_mm = sum(
            lower_bound.hpwl_length_um(net, dataset.placement, config.technology, tracks)
            for net in dataset.circuit.routable_nets
        ) / 1000.0
        out.base_area_mm2 = Floorplan.from_placement(
            dataset.placement, {}, config.technology
        ).area_mm2
    except Exception:  # noqa: BLE001 - one failed operation, keep going
        out.error = traceback.format_exc(limit=-3)
        return out
    out.make_s = ready - t0
    out.route_s = r1 - r0
    out.flow_s = done - ready
    out.delay_ps = report.critical_delay_ps
    out.area_mm2 = report.area_mm2
    out.length_mm = report.total_length_mm
    out.violations = len(report.violations)
    out.deletions = result.deletions
    out.findings = list(findings)
    out.digest = route_digest(result)
    out.counters = metrics.flat()
    out.phases = profiler
    return out


def check_flow(flow: FlowResult, ledger: Ledger, digests: Dict, variant: int) -> None:
    """One operation: an exception, a verifier finding, or wiring that
    differs from an earlier route of the same circuit is a failure."""
    if flow.error is not None:
        problems = [flow.error.strip().splitlines()[-1]]
    else:
        problems = [f"verify: {finding}" for finding in flow.findings]
        if digests.setdefault((flow.label, variant), flow.digest) != flow.digest:
            problems.append("route digest differs from an earlier route of this circuit")
    ledger.record(flow.label, problems)


@dataclass
class Pass:
    """Every design of the workload once, on circuit variant ``variant``."""

    flows: List[FlowResult]
    variant: int = 0
    spans: List[tracing.Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)

    def total(self, attr: str) -> float:
        return sum(getattr(flow, attr) for flow in self.flows)

    def rescaled(self, attr: str) -> float:
        return sum(flow.rescaled(attr) for flow in self.flows)


#: Planned wall time of one pass of each workload on a 2-core machine.
#: It fixes how many passes ``--seconds`` buys, so the circuits a run
#: routes never depend on how fast the code under test is.
PASS_S = {"paper-suite": 8.0, "negotiated": 5.0, "scale-x1": 110.0}


def schedule(workload: str, seconds: float) -> List[int]:
    """The circuit variant of each pass: variant 0 twice, so every run
    checks that routing repeats exactly, then one new variant per pass,
    as many passes as ``seconds`` plans for and never fewer than two."""
    count = max(2, round(seconds / PASS_S[workload]))
    return [0] + list(range(count - 1))


def run_passes(
    designs: List[Design],
    seed: Optional[int],
    variants: List[int],
    cap_s: float,
    ledger: Ledger,
    digests: Dict,
    recorder: Optional[tracing.SpanRecorder] = None,
) -> List[Pass]:
    """One pass per entry of ``variants``.  A pass that would start after
    ``cap_s`` is not run; hitting the cap is one failed operation.

    Variant ``v > 0`` is a further circuit of each design, derived from
    ``seed``: one circuit's route time swings by 30-40% from seed to
    seed, so a run averages over several.  The machine-speed probe runs
    before the first design of a pass and after every design.
    """
    passes: List[Pass] = []
    start = time.perf_counter()
    for variant in variants:
        if time.perf_counter() - start > cap_s:
            skipped = len(variants) - len(passes)
            ledger.record("pass schedule", [f"{skipped} passes left after the {cap_s:.0f} s cap"])
            break
        first_span = len(recorder.spans) if recorder else 0
        calls_before = Counter(recorder.calls) if recorder else Counter()
        if recorder:
            recorder.trace_id = f"pass-{len(passes)}"
        flows = []
        before = probe.probe()
        for design in designs:
            flow = run_flow(design, seed, recorder, variant)
            after = probe.probe()
            flow.probe_s = (before + after) / 2
            before = after
            check_flow(flow, ledger, digests, variant)
            flows.append(flow)
        passes.append(Pass(flows, variant))
        if recorder:
            passes[-1].spans = recorder.spans[first_span:]
            passes[-1].calls = Counter(recorder.calls) - calls_before
    return passes


def variant_totals(passes: List[Pass], attr: str, rescaled: bool = True) -> Dict[int, float]:
    """Each variant's mean pass total of a time (variant 0 runs twice),
    rescaled to the probe's nominal speed unless ``rescaled`` is false."""
    groups: Dict[int, List[float]] = {}
    for p in passes:
        groups.setdefault(p.variant, []).append(p.rescaled(attr) if rescaled else p.total(attr))
    return {variant: sum(v) / len(v) for variant, v in groups.items()}


def per_variant(passes: List[Pass], attr: str, rescaled: bool = True) -> float:
    """Mean over circuit variants of each variant's mean pass total."""
    totals = variant_totals(passes, attr, rescaled)
    return ratio(sum(totals.values()), len(totals))


def end_to_end(passes: List[Pass], setup_s: float, rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of the untraced passes of a run.

    Set-up, route and flow times are rescaled to the probe's nominal
    machine speed (see :mod:`probe`); their wall-clock forms are
    report-only.
    The latency and throughput metrics are the service's; here they are
    derived from the same per-variant flow times as ``flow_s`` (per
    design, and the slowest variant), so they add no independent figure.
    """
    designs = len(passes[0].flows) if passes else 0
    flow_totals = variant_totals(passes, "flow_s")
    flow_s = per_variant(passes, "flow_s")
    one_per_variant = {p.variant: p for p in passes}.values()
    return {
        "setup_s": setup_s + median([p.rescaled("make_s") for p in passes]),
        "route_s": per_variant(passes, "route_s"),
        "flow_s": flow_s,
        "peak_rss_mb": rss_mb,
        **quality([f for p in one_per_variant for f in p.flows]),
        "cold_latency_s": ratio(flow_s, designs),
        "cold_latency_tail_s": ratio(max(flow_totals.values(), default=0.0), designs),
        "jobs_per_s": ratio(designs, flow_s),
        "verify_errors": sum(len(f.findings) for p in passes for f in p.flows),
        "route_wall_s": per_variant(passes, "route_s", rescaled=False),
        "flow_wall_s": per_variant(passes, "flow_s", rescaled=False),
        "probe_s": median([f.probe_s for p in passes for f in p.flows]),
    }


def quality(done: List[FlowResult]) -> Dict[str, float]:
    """Routing quality of one set of flows: normalized and absolute."""
    def total(attr: str) -> float:
        return sum(getattr(flow, attr) for flow in done)

    return {
        "delay_over_bound": ratio(total("delay_ps"), total("bound_ps")),
        "wire_over_hpwl": ratio(total("length_mm"), total("hpwl_mm")),
        "area_over_base": ratio(total("area_mm2"), total("base_area_mm2")),
        "critical_delay_ps": total("delay_ps"),
        "area_mm2": total("area_mm2"),
        "wire_length_mm": total("length_mm"),
        "timing_violations": total("violations"),
    }


def layers(p: Pass) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = p.spans
    c: Counter = Counter()
    for flow in p.flows:
        c.update(flow.counters)
    tree_flows = [f for f in p.flows if f.counters.get("router.tree_evals")]

    def phase(name: str) -> float:
        return sum(f.phases.wall_s("route", name) for f in p.flows if f.phases)

    def secs(name: str, within: Optional[str] = None) -> float:
        return tracing.layer_seconds(spans, name, within=within)

    # Timing layers count only the calls route() makes: sign-off builds
    # and analyses its own graph, and that time is analysis.signoff_s.
    return {
        "bench.make_dataset_s": secs("bench.make_dataset"),
        "timing.build_s": secs("timing.build", "route"),
        "timing.sta_s": secs("timing.sta", "route"),
        "timing.sta_calls": tracing.span_count(spans, "timing.sta", within="route"),
        "layout.assign_s": secs("layout.assign"),
        "layout.find_group_calls": p.calls["layout.find_group"],
        "routegraph.build_s": secs("routegraph.build"),
        "routegraph.build_calls": tracing.span_count(spans, "routegraph.build"),
        "routegraph.reclassify_s": secs("routegraph.reclassify"),
        "routegraph.local_recompute_ratio": ratio(
            c["graph.bridge_local_recomputes"],
            c["graph.bridge_local_recomputes"] + c["graph.bridge_full_fallbacks"],
        ),
        "routegraph.tree_eval_s": secs("routegraph.tree_eval"),
        "routegraph.tree_fastpath_ratio": ratio(
            sum(f.counters["router.tree_fastpath_hits"] for f in tree_flows),
            sum(f.counters["router.tree_evals"] for f in tree_flows),
        ),
        "routegraph.dijkstra_per_deletion": ratio(
            c["router.tree_dijkstra_runs"], c["router.deletions"]
        ),
        "core.density_s": secs("core.density"),
        "core.select_s": secs("core.select"),
        "core.key_evals_per_deletion": ratio(c["router.key_evals"], c["router.deletions"]),
        "core.heap_stale_ratio": ratio(c["router.heap_stale"], c["router.heap_pops"]),
        "core.criteria_s": secs("core.criteria"),
        "core.recover_s": phase("recover_violate"),
        "core.improve_delay_s": phase("improve_delay"),
        "core.improve_area_s": phase("improve_area"),
        "core.reroute_s": secs("core.reroute"),
        "core.reroutes": c["router.reroutes"],
        "core.reroute_revert_ratio": ratio(c["router.reroutes_reverted"], c["router.reroutes"]),
        "core.verify_s": secs("core.verify"),
        "channelrouter.route_s": secs("channelrouter.route"),
        "analysis.signoff_s": secs("analysis.signoff"),
        "analysis.violations": p.total("violations"),
        "engines.prepare_s": secs("engines.prepare"),
        "engines.negotiate_s": phase("negotiate"),
        "engines.astar_pops_per_reroute": ratio(
            c["negotiate.astar_pops"], c["negotiate.reroutes"]
        ),
        "engines.negotiate_iterations": c["negotiate.iterations"],
        "route.other_self_s": tracing.self_seconds(spans, "route"),
    }


def report_rows(passes: List[Pass], workload: str) -> List[str]:
    """Report-only lines for the ``--seed`` circuits (variant 0): one row
    per design (medians over its passes), one per routing mode, and the
    ladder scaling exponent."""
    by_label: Dict[str, List[FlowResult]] = {}
    for p in passes:
        for flow in p.flows:
            if flow.error is None and p.variant == 0:
                by_label.setdefault(flow.label, []).append(flow)
    lines = [
        f"{'design':<10} {'make_s':>8} {'route_s':>8} {'flow_s':>8} "
        f"{'deletions':>9} {'delay_ps':>10} {'area_mm2':>9} {'wire_mm':>9} "
        f"{'viol':>4} {'verify':>6}  digest"
    ]
    ladder = []
    for label, runs in by_label.items():
        f0 = runs[0]
        route = median([f.route_s for f in runs])
        lines.append(
            f"{label:<10} {median([f.make_s for f in runs]):8.3f} {route:8.3f} "
            f"{median([f.flow_s for f in runs]):8.3f} {f0.deletions:9d} "
            f"{f0.delay_ps:10.1f} {f0.area_mm2:9.3f} {f0.length_mm:9.2f} "
            f"{f0.violations:4d} {len(f0.findings):6d}  {f0.digest[:12]}"
        )
        if label.endswith(".c"):
            ladder.append((f0.deletions, route))
    if workload == "paper-suite":
        for mode, suffix in (("constrained", ".c"), ("unconstrained", ".u")):
            rows = [runs for label, runs in by_label.items() if label.endswith(suffix)]
            lines.append(
                f"mode {mode:<14} route_s {sum(median([f.route_s for f in r]) for r in rows):8.3f}"
                f"  flow_s {sum(median([f.flow_s for f in r]) for r in rows):8.3f}"
                f"  delay_ps {sum(r[0].delay_ps for r in rows):10.1f}"
                f"  area_mm2 {sum(r[0].area_mm2 for r in rows):8.3f}"
            )
    if len(ladder) >= 2:
        lines.append(
            f"ladder exponent (log route_s vs log deletions, {len(ladder)} "
            f"constrained designs): {fit_exponent(ladder):.3f}"
        )
    return lines
