#!/usr/bin/env python
"""Selection benchmark: the incremental candidate engine vs the rescan oracle.

Routes each design twice — under the rescan oracle
(``repro.reference.OracleRouter``, the seed's O(deletions × candidates)
scan) and under the production router (the array-backed incremental
candidate engine) — asserts the deletion sequences are identical, and
reports selection-key evaluations per deletion plus wall clock for
both.

Modes::

    python benchmarks/bench_selection.py --smoke        # small suite, CI gate
    python benchmarks/bench_selection.py                # standard suite report
    python benchmarks/bench_selection.py --scale-smoke  # 10x design, ceiling

``--smoke`` exits non-zero if any design's sequences diverge or the
incremental engine evaluates *more* keys than the rescan — the cheap
always-on guard CI runs on every push.  The full mode additionally
checks the ISSUE's headline acceptance bars on the largest design
(C3P1): ≥5× fewer key evaluations per deletion, and ≥5× lower wall
clock than the rescan engine — the rescan path *is* the pre-vectorized
seed selection loop, so the same-process wall ratio is the
machine-noise-robust form of "5× over the pre-PR snapshot".
``--scale-smoke`` exercises the scale tier: X1P1 routes twice — once
under the reference full-Tarjan reclassification and once under the
incremental bridge-maintenance path — asserting bit-identical deletion
sequences and lengths, gating a ≥3× reduction in the share of wall
clock spent reclassifying, and failing if either route exceeds
``--scale-ceiling`` seconds; then the 100× design (X2P1, incremental
reclassify only) must route under ``--scale-x2-ceiling`` seconds with
local bridge recomputes covering ≥90% of its deletions.  Both
incremental routes are then checked by ``verify_routing`` with the
router's feedthrough assignment: any finding fails, and so does a verify
wall above 25% of that design's ``route()`` wall.  The incremental X1P1
route also gates the design-wide graph build: the profiler's
``setup/graphs`` phase must stay within 5% of that route's wall, and
every X1P1 net's batch-built graph must equal the per-net reference
build (``tests/routegraph_oracle.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.run_diff import BENCH_SELECTION_SCHEMA
from repro.bench.circuits import (
    make_dataset,
    scale_suite,
    small_suite,
    standard_suite,
)
from repro.core import GlobalRouter, RouterConfig, verify_routing
from repro.obs import MemorySink
from repro.reference import OracleRouter
from repro.routegraph.graph import RoutingGraph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from routegraph_oracle import lockstep_mismatches  # noqa: E402

LARGEST = "C3P1"
REQUIRED_SPEEDUP = 5.0
REQUIRED_WALL_SPEEDUP = 5.0
# Generous CI ceiling for the 10x scale design: ~16 s on a warm dev
# box; shared runners are slower and noisy, the gate is against
# quadratic blow-ups (pre-PR the same route took minutes), not drift.
SCALE_CEILING_S = 120.0
# The 100x design under incremental reclassify: ~19-20 min on a warm
# dev box (42k deletions; reclassification is down to a ~6% wall share
# — it would dominate under the reference per-deletion full Tarjan),
# same noise allowance philosophy as SCALE_CEILING_S.
SCALE_X2_CEILING_S = 3600.0
# Same-process A/B on X1P1: the share of route wall spent in
# reclassify() must drop at least this much going from the reference
# full-Tarjan path to incremental bridge maintenance.  A share ratio is
# robust to machine speed (both numerator and denominator scale).
REQUIRED_RECLASSIFY_SHARE_REDUCTION = 3.0
# At scale, nearly every deletion must stay on the local path; full
# fallbacks are the defensive escape hatch, not a steady state.
REQUIRED_LOCAL_RATIO = 0.90
# The verifier checks every scale route, and must stay cheap next to
# the route it checks: a same-process ratio, robust to machine speed
# (~5% measured on X1P1).
MAX_VERIFY_SHARE = 0.25
# The design-wide graph build (profiler phase setup/graphs) must stay a
# small slice of the X1P1 route: a same-process ratio (~3.5% measured;
# the per-net build it replaced took ~14%).
MAX_GRAPH_BUILD_SHARE = 0.05


def route_once(spec, rescan=False, verify=False):
    """Route one design under the production router, or with
    ``rescan`` under the rescan oracle; returns comparable artifacts.

    With ``verify``, also runs :func:`verify_routing` against the
    router's feedthrough assignment and records its findings and wall.
    """
    dataset = make_dataset(spec)
    sink = MemorySink()
    router_type = OracleRouter if rescan else GlobalRouter
    router = router_type(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        RouterConfig(),
        trace_sink=sink,
    )
    start = time.perf_counter()
    result = router.route()
    wall = time.perf_counter() - start
    sequence = [
        (e.data["net"], e.data["edge"], e.data["criterion"])
        for e in sink.of_kind("edge_deleted")
    ]
    findings, verify_wall = [], 0.0
    if verify:
        start = time.perf_counter()
        findings = verify_routing(
            dataset.circuit, dataset.placement, result, router.assignment
        )
        verify_wall = time.perf_counter() - start
    flat = router.metrics.flat()
    return {
        "wall_s": wall,
        "graphs_wall_s": router.profiler.wall_s("route", "setup", "graphs"),
        "verify_wall_s": verify_wall,
        "findings": findings,
        "sequence": sequence,
        "deletions": result.deletions,
        "total_length_um": result.total_length_um,
        "key_evals": int(flat["router.key_evals"]),
        "key_recomputes": int(flat["router.key_recomputes"]),
        "heap_pops": int(flat.get("router.heap_pops", 0)),
        "heap_stale": int(flat.get("router.heap_stale", 0)),
        "vectorized_rows": int(flat.get("router.vectorized_rows", 0)),
        "vectorized_batches": int(
            flat.get("router.vectorized_batches", 0)
        ),
        "reclassify_wall_s": float(
            flat.get("graph.reclassify_s.total", 0.0)
        ),
        "local_recomputes": int(
            flat.get("graph.bridge_local_recomputes", 0)
        ),
        "full_fallbacks": int(
            flat.get("graph.bridge_full_fallbacks", 0)
        ),
    }


def local_ratio(run):
    """Share of instrumented reclassifications answered locally."""
    calls = run["local_recomputes"] + run["full_fallbacks"]
    return run["local_recomputes"] / max(1, calls)


def compare_design(spec):
    rescan = route_once(spec, rescan=True)
    incremental = route_once(spec)
    failures = []
    if incremental["sequence"] != rescan["sequence"]:
        first = next(
            (
                i
                for i, (a, b) in enumerate(
                    zip(rescan["sequence"], incremental["sequence"])
                )
                if a != b
            ),
            min(len(rescan["sequence"]), len(incremental["sequence"])),
        )
        failures.append(
            f"{spec.name}: deletion sequences diverge at index {first}"
        )
    if incremental["key_evals"] > rescan["key_evals"]:
        failures.append(
            f"{spec.name}: incremental evaluates MORE keys "
            f"({incremental['key_evals']} > {rescan['key_evals']})"
        )
    if incremental["key_recomputes"] > rescan["key_recomputes"]:
        failures.append(
            f"{spec.name}: incremental recomputes MORE keys "
            f"({incremental['key_recomputes']} > "
            f"{rescan['key_recomputes']})"
        )
    return rescan, incremental, failures


def per_deletion(run):
    return run["key_evals"] / max(1, run["deletions"])


def report_line(name, rescan, incremental):
    ratio = per_deletion(rescan) / max(1e-9, per_deletion(incremental))
    return (
        f"{name:6s} dels {rescan['deletions']:5d}  "
        f"key-evals/del {per_deletion(rescan):8.1f} -> "
        f"{per_deletion(incremental):7.1f}  ({ratio:4.1f}x)  "
        f"wall {rescan['wall_s']:6.2f}s -> {incremental['wall_s']:6.2f}s  "
        f"stale-pops {incremental['heap_stale']}"
    )


def snapshot_entry(rescan, incremental):
    """One design's row of the ``--json`` snapshot (see
    :data:`repro.analysis.run_diff.BENCH_SELECTION_SCHEMA`)."""
    return {
        "deletions": rescan["deletions"],
        "key_evals_rescan": rescan["key_evals"],
        "key_evals_incremental": incremental["key_evals"],
        "key_evals_per_deletion_rescan": round(per_deletion(rescan), 3),
        "key_evals_per_deletion_incremental": round(
            per_deletion(incremental), 3
        ),
        "speedup": round(
            per_deletion(rescan) / max(1e-9, per_deletion(incremental)), 3
        ),
        "vectorized_rows_incremental": incremental["vectorized_rows"],
        "vectorized_batches_incremental": incremental[
            "vectorized_batches"
        ],
        "heap_pops_incremental": incremental["heap_pops"],
        "heap_stale_incremental": incremental["heap_stale"],
        "wall_s_rescan": round(rescan["wall_s"], 4),
        "wall_s_incremental": round(incremental["wall_s"], 4),
        "wall_speedup": round(wall_speedup(rescan, incremental), 3),
        "reclassify_wall_s": round(
            incremental["reclassify_wall_s"], 4
        ),
        "local_recomputes": incremental["local_recomputes"],
        "full_fallbacks": incremental["full_fallbacks"],
        "local_recompute_ratio": round(local_ratio(incremental), 4),
    }


def wall_speedup(rescan, incremental):
    return rescan["wall_s"] / max(1e-9, incremental["wall_s"])


def route_reclassify_mode(spec, incremental_reclassify, verify=False):
    """route_once under a pinned reclassification path."""
    previous = RoutingGraph.incremental_reclassify
    RoutingGraph.incremental_reclassify = incremental_reclassify
    try:
        return route_once(spec, verify=verify)
    finally:
        RoutingGraph.incremental_reclassify = previous


def check_verified(name, run):
    """Print a verified run's verify wall; fail on findings or a verify
    wall above MAX_VERIFY_SHARE of the route wall."""
    share = run["verify_wall_s"] / max(1e-9, run["wall_s"])
    print(
        f"{name:6s} verify {run['verify_wall_s']:6.2f}s "
        f"({share:5.1%} of route)  findings {len(run['findings'])}"
    )
    failures = [f"{name}: verify: {finding}" for finding in run["findings"]]
    if share > MAX_VERIFY_SHARE:
        failures.append(
            f"{name}: verify took {share:.1%} of route wall (max "
            f"{MAX_VERIFY_SHARE:.0%})"
        )
    return failures


def check_graph_build(spec, run):
    """Gate X1P1's design-wide graph build: its share of the route wall,
    and lockstep identity with the per-net reference on every net."""
    failures = []
    share = run["graphs_wall_s"] / max(1e-9, run["wall_s"])
    print(
        f"{spec.name:6s} setup/graphs {run['graphs_wall_s']:6.2f}s "
        f"({share:5.1%} of route)"
    )
    if share > MAX_GRAPH_BUILD_SHARE:
        failures.append(
            f"{spec.name}: setup/graphs took {share:.1%} of route wall "
            f"(max {MAX_GRAPH_BUILD_SHARE:.0%})"
        )
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    router.begin_route()
    router._build_timing()
    router._assign_pins_and_feedthroughs()
    nets = router.circuit.routable_nets
    mismatched = lockstep_mismatches(
        nets, router.placement, router.assignment.of_net,
        router.config.technology,
    )
    print(
        f"{spec.name:6s} lockstep builder check: {len(nets)} nets, "
        f"{len(mismatched)} differ from the per-net reference"
    )
    if mismatched:
        failures.append(
            f"{spec.name}: batch graphs differ from the per-net reference "
            f"for {mismatched[:5]}"
        )
    return failures


def scale_smoke(ceiling_s, x2_ceiling_s):
    """Route the scale-tier designs under wall-time ceilings.

    Production selection only: the point is catching accidental
    quadratics at scale (slot scans, placement repacks, wholesale
    re-analysis), not engine equivalence — the small/standard suites
    already pin that down bit-exactly.  X1P1 additionally routes under
    *both* reclassification paths in the same process, which (a)
    re-asserts the bit-identity contract at scale and (b) gates the
    headline reduction of reclassification wall share as a
    machine-speed-robust ratio.  X2P1 then routes once, incremental
    reclassify only — the reference path at 20× is exactly the
    quadratic this PR removes.
    """
    specs = {s.name: s for s in scale_suite()}
    failures = []

    spec = specs["X1P1"]
    print(f"scale-tier smoke: {spec.name} (ceiling {ceiling_s:.0f}s)")
    reference = route_reclassify_mode(spec, False)
    run = route_reclassify_mode(spec, True, verify=True)
    for label, r in (("reference", reference), ("incremental", run)):
        print(
            f"{spec.name:6s} [{label:11s}] dels {r['deletions']:5d}  "
            f"wall {r['wall_s']:6.2f}s  "
            f"reclassify {r['reclassify_wall_s']:6.2f}s "
            f"({r['reclassify_wall_s'] / max(1e-9, r['wall_s']):5.1%})  "
            f"local {r['local_recomputes']}  "
            f"fallbacks {r['full_fallbacks']}"
        )
    if run["sequence"] != reference["sequence"]:
        failures.append(
            f"{spec.name}: incremental reclassify changed the deletion "
            "sequence"
        )
    if run["total_length_um"] != reference["total_length_um"]:
        failures.append(
            f"{spec.name}: incremental reclassify changed the reported "
            f"length ({run['total_length_um']} vs "
            f"{reference['total_length_um']})"
        )
    share_ref = reference["reclassify_wall_s"] / max(
        1e-9, reference["wall_s"]
    )
    share_inc = run["reclassify_wall_s"] / max(1e-9, run["wall_s"])
    reduction = share_ref / max(1e-9, share_inc)
    print(
        f"{spec.name:6s} reclassify wall share "
        f"{share_ref:5.1%} -> {share_inc:5.1%}  ({reduction:.1f}x lower)"
    )
    if reduction < REQUIRED_RECLASSIFY_SHARE_REDUCTION:
        failures.append(
            f"{spec.name}: reclassify wall share reduced only "
            f"{reduction:.2f}x (required "
            f"{REQUIRED_RECLASSIFY_SHARE_REDUCTION:.0f}x)"
        )
    for label, r in (("reference", reference), ("incremental", run)):
        if r["wall_s"] > ceiling_s:
            failures.append(
                f"{spec.name} ({label}): wall {r['wall_s']:.1f}s exceeds "
                f"the {ceiling_s:.0f}s ceiling"
            )
    failures += check_verified(spec.name, run)
    failures += check_graph_build(spec, run)

    spec = specs["X2P1"]
    print(f"scale-tier smoke: {spec.name} (ceiling {x2_ceiling_s:.0f}s)")
    run = route_reclassify_mode(spec, True, verify=True)
    ratio = local_ratio(run)
    print(
        f"{spec.name:6s} dels {run['deletions']:5d}  "
        f"wall {run['wall_s']:6.2f}s  "
        f"reclassify {run['reclassify_wall_s']:6.2f}s  "
        f"local-ratio {ratio:5.1%}"
    )
    if run["wall_s"] > x2_ceiling_s:
        failures.append(
            f"{spec.name}: wall {run['wall_s']:.1f}s exceeds the "
            f"{x2_ceiling_s:.0f}s ceiling"
        )
    if ratio < REQUIRED_LOCAL_RATIO:
        failures.append(
            f"{spec.name}: local recomputes cover only {ratio:.1%} of "
            f"reclassifications (required {REQUIRED_LOCAL_RATIO:.0%})"
        )
    failures += check_verified(spec.name, run)

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        "ok: scale designs routed under the wall ceilings, bit-identical "
        "reclassification, share reduction and local ratio within bars, "
        "verified clean, X1P1 graph build within its share and in "
        "lockstep with the per-net reference"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small suite only; assert equivalence + no extra key evals",
    )
    parser.add_argument(
        "--scale-smoke",
        action="store_true",
        help="route the 10x generated design (X1P1) under a wall ceiling",
    )
    parser.add_argument(
        "--scale-ceiling",
        type=float,
        metavar="SECONDS",
        default=SCALE_CEILING_S,
        help="wall-time ceiling for --scale-smoke "
        f"(default {SCALE_CEILING_S:.0f}s)",
    )
    parser.add_argument(
        "--scale-x2-ceiling",
        type=float,
        metavar="SECONDS",
        default=SCALE_X2_CEILING_S,
        help="wall-time ceiling for the 20x design in --scale-smoke "
        f"(default {SCALE_X2_CEILING_S:.0f}s)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable snapshot (diff two with "
        "'repro-router compare-runs')",
    )
    args = parser.parse_args(argv)

    if args.scale_smoke:
        return scale_smoke(args.scale_ceiling, args.scale_x2_ceiling)

    suite = small_suite() if args.smoke else standard_suite()
    failures = []
    designs = {}
    print(
        "selection-engine bench "
        f"({'smoke/small' if args.smoke else 'standard'} suite)"
    )
    for spec in suite:
        rescan, incremental, design_failures = compare_design(spec)
        failures.extend(design_failures)
        designs[spec.name] = snapshot_entry(rescan, incremental)
        print(report_line(spec.name, rescan, incremental))
        if not args.smoke and spec.name == LARGEST:
            speedup = per_deletion(rescan) / max(
                1e-9, per_deletion(incremental)
            )
            if speedup < REQUIRED_SPEEDUP:
                failures.append(
                    f"{LARGEST}: key-evals/deletion speedup {speedup:.1f}x "
                    f"below the required {REQUIRED_SPEEDUP:.0f}x"
                )
            walls = wall_speedup(rescan, incremental)
            if walls < REQUIRED_WALL_SPEEDUP:
                failures.append(
                    f"{LARGEST}: wall speedup {walls:.2f}x below the "
                    f"required {REQUIRED_WALL_SPEEDUP:.0f}x "
                    f"({incremental['wall_s']:.2f}s vs "
                    f"{rescan['wall_s']:.2f}s rescan)"
                )
    if args.json is not None:
        snapshot = {
            "schema": BENCH_SELECTION_SCHEMA,
            "suite": "small" if args.smoke else "standard",
            "designs": designs,
        }
        with open(args.json, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ok: identical sequences, incremental never evaluates more keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
