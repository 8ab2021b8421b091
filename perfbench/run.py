"""The repository's benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric (plus report-only rows) and, as its last line, one
JSON object whose ``metrics`` are the end-to-end metrics.  With
``--trace 1`` the first half of the time runs untraced and the second
half runs with span wrappers installed; the JSON then carries the
per-layer metrics, including the tracing overhead between the halves.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe
from stats import Ledger, median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("paper-suite", "scale-x1", "negotiated", "service")

#: (name, unit, better) of the metrics ``--trace 0`` emits; mirrored in
#: ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("route_s", "s", "lower"),
    ("flow_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("delay_over_bound", "ratio", "lower"),
    ("wire_over_hpwl", "ratio", "lower"),
    ("area_over_base", "ratio", "lower"),
    ("cold_latency_s", "s", "lower"),
    ("cold_latency_tail_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
)
#: Printed with the end-to-end metrics but kept out of the JSON.  The
#: absolute quality sums swing by 15-25% between circuit seeds, so the
#: JSON carries them over their lower bounds instead; the counts can
#: legitimately read 0, and a zero median cannot bound a change.
#: ``failed_ratio`` is the JSON's ``failed`` over ``attempted``.  The
#: design workloads' ``route_s`` and ``flow_s`` are rescaled by the
#: machine-speed probe, like the service's times and throughput; their
#: wall-clock forms and the median probe time are printed here.
REPORTED = (
    ("route_wall_s", "s", "lower"),
    ("flow_wall_s", "s", "lower"),
    ("probe_s", "s", "lower"),
    ("critical_delay_ps", "ps", "lower"),
    ("area_mm2", "mm2", "lower"),
    ("wire_length_mm", "mm", "lower"),
    ("warm_latency_s", "s", "lower"),
    ("timing_violations", "count", "lower"),
    ("verify_errors", "count", "lower"),
    ("failed_ratio", "ratio", "lower"),
)
#: (name, unit, better) of the metrics ``--trace 1`` emits, mirrored in
#: ``BENCHMARK.json``; a metric that does not apply to the workload
#: reads 0.
PER_LAYER = (
    ("bench.make_dataset_s", "s", "lower"),
    ("timing.build_s", "s", "lower"),
    ("timing.sta_s", "s", "lower"),
    ("timing.sta_calls", "count", "lower"),
    ("layout.assign_s", "s", "lower"),
    ("layout.find_group_calls", "count", "lower"),
    ("routegraph.build_s", "s", "lower"),
    ("routegraph.build_calls", "count", "lower"),
    ("routegraph.reclassify_s", "s", "lower"),
    ("routegraph.local_recompute_ratio", "ratio", "higher"),
    ("routegraph.tree_eval_s", "s", "lower"),
    ("routegraph.tree_fastpath_ratio", "ratio", "higher"),
    ("routegraph.dijkstra_per_deletion", "runs/deletion", "lower"),
    ("core.density_s", "s", "lower"),
    ("core.select_s", "s", "lower"),
    ("core.key_evals_per_deletion", "evals/deletion", "lower"),
    ("core.heap_stale_ratio", "ratio", "lower"),
    ("core.criteria_s", "s", "lower"),
    ("core.recover_s", "s", "lower"),
    ("core.improve_delay_s", "s", "lower"),
    ("core.improve_area_s", "s", "lower"),
    ("core.reroute_s", "s", "lower"),
    ("core.reroutes", "count", "lower"),
    ("core.reroute_revert_ratio", "ratio", "lower"),
    ("core.verify_s", "s", "lower"),
    ("channelrouter.route_s", "s", "lower"),
    ("analysis.signoff_s", "s", "lower"),
    ("analysis.violations", "count", "lower"),
    ("engines.prepare_s", "s", "lower"),
    ("exec.cache_get_s", "s", "lower"),
    ("exec.cache_put_s", "s", "lower"),
    ("exec.job_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.coalesced", "count", "higher"),
    ("service.drain_s", "s", "lower"),
    ("service.warm_latency_s", "s", "lower"),
    ("route.other_self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)
#: Per-layer metrics of the negotiated engine.  Only the ``negotiated``
#: workload, which ``BENCHMARK.json`` leaves out, moves them, so a
#: ``--trace 1`` run prints them but keeps them out of the JSON.
NEGOTIATE_LAYERS = (
    ("engines.negotiate_s", "s", "lower"),
    ("engines.astar_pops_per_reroute", "pops/reroute", "lower"),
    ("engines.negotiate_iterations", "count", "lower"),
)

#: What a user of each workload imports before the first job.
IMPORTS = {
    "service": "import repro.service.server, repro.service.client",
    "design": (
        "import repro.bench.circuits, repro.engines, repro.channelrouter.leftedge, "
        "repro.analysis.signoff, repro.core.verify"
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="replaces every design's CircuitSpec.seed (default: suite seeds)",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(src: Path, workload: str) -> float:
    """Interpreter start plus the workload's imports, in a fresh process,
    rescaled by the machine-speed probes timed right before and after."""
    statement = IMPORTS["service" if workload == "service" else "design"]
    env = dict(os.environ, PYTHONPATH=str(src))
    before = probe.probe()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", statement], env=env, cwd=ROOT, check=True)
    elapsed = time.perf_counter() - t0
    return elapsed * probe.scale(before, probe.probe())


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def overhead_pct(traced: float, plain: float) -> float:
    return 100.0 * (traced / plain - 1.0) if plain else 0.0


def run_designs(args, setup_s: float, ledger: Ledger):
    import flows
    import spans as tracing

    designs = flows.workload_designs(args.workload)
    digests: dict = {}
    # ``--seconds`` sets the number of passes; three times it is the cap.
    seconds = args.seconds / 2 if args.trace else args.seconds
    variants = flows.schedule(args.workload, seconds)
    plain = flows.run_passes(designs, args.seed, variants, 3 * seconds, ledger, digests)
    if not args.trace:
        metrics = flows.end_to_end(plain, setup_s, peak_rss_mb())
        return metrics, flows.report_rows(plain, args.workload), None
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        traced = flows.run_passes(
            designs, args.seed, variants, 3 * seconds, ledger, digests, recorder
        )
    per_pass = [flows.layers(p) for p in traced]
    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    # Overhead on the same circuits: the ``--seed`` variant of each half.
    metrics["trace.overhead_pct"] = overhead_pct(
        median([p.rescaled("flow_s") for p in traced if p.variant == 0]),
        median([p.rescaled("flow_s") for p in plain if p.variant == 0]),
    )
    return metrics, flows.report_rows(plain + traced, args.workload), recorder


def run_service(args, setup_s: float, ledger: Ledger):
    import service_load
    import spans as tracing

    work = WORK / f"service-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if not args.trace:
            session = service_load.run_session(args.seed, args.seconds, work, ledger)
            service_load.check_references(session, args.seed, ledger)
            metrics = service_load.end_to_end(session, setup_s, peak_rss_mb())
            return metrics, service_load.report_rows(session), None
        plain = service_load.run_session(args.seed, args.seconds / 2, work / "plain", ledger)
        service_load.check_references(plain, args.seed, ledger)
        recorder = tracing.SpanRecorder()
        with tracing.installed(recorder):
            traced = service_load.run_session(
                args.seed, args.seconds / 2, work / "traced", ledger, recorder
            )
        key = service_load.record_key
        for dataset, record in traced.base.items():
            same = key(record) == key(plain.base.get(dataset, {}))
            ledger.record(f"traced {dataset}", [] if same else ["differs from the untraced run"])
        metrics = service_load.layers(traced)
        metrics["trace.overhead_pct"] = overhead_pct(
            median([s.latency_s * s.scale for s in service_load.cold_samples(traced)]),
            median([s.latency_s * s.scale for s in service_load.cold_samples(plain)]),
        )
        return metrics, service_load.report_rows(traced), recorder
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a checkout", file=sys.stderr)
        return 2
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep the pool's spool directories inside the checkout.
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    setup_s = median([import_seconds(src, args.workload) for _ in range(5)])
    sys.path.insert(0, str(src))

    ledger = Ledger()
    runner = run_service if args.workload == "service" else run_designs
    measured, rows, recorder = runner(args, setup_s, ledger)

    for line in rows:
        print(line)
    measured["failed_ratio"] = ledger.failed_ratio
    wanted = PER_LAYER if args.trace else END_TO_END
    shown = PER_LAYER + NEGOTIATE_LAYERS if args.trace else END_TO_END
    for name, unit, better in shown + REPORTED:
        if name in measured:
            print(f"{name:<34} {measured[name]:>14.6g} {unit:<14} ({better} is better)")
    if recorder is not None:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(spans_path)
        print(f"spans: {len(recorder.spans)} written to {spans_path.relative_to(ROOT)}")
    for failure in ledger.failures[:20]:
        print(f"failure: {failure}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit, _ in wanted
    }
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
