#!/usr/bin/env python
"""Tree-engine benchmark: incremental tentative trees vs the full-Dijkstra oracle.

Routes each design twice — under the oracle router with
``full_trees=True`` (``repro.reference.OracleRouter`` binding
``FullTreeEngine``, the seed's full Dijkstra per tentative-tree
evaluation) and under the production router (``IncrementalTreeEngine``:
off-tree fast path, early-terminated CSR Dijkstra, alternate-tree memo,
and traversal refresh on converged graphs) — asserts the deletion
sequences and final lengths are bit-identical, and reports Dijkstra
runs, repeat runs, fast-path hit rate, and wall clock for both.

Modes::

    python benchmarks/bench_tree.py --smoke   # small suite, CI gate
    python benchmarks/bench_tree.py           # standard suite report

``--smoke`` exits non-zero if any design's routing diverges between the
engines or the incremental engine runs *more* Dijkstras than the full
one — the cheap always-on guard CI runs on every push.  The full mode
additionally checks the acceptance bar on the largest design (C3P1):
≥3× fewer **repeat** Dijkstra runs per deletion, and reduced wall
clock.

Why repeats?  Both engines share an irreducible floor: the initial
shortest-path-union build of every routing graph, and the first-ever
scoring of each candidate edge (no cache can answer a question never
asked).  What the seed re-pays — and the incremental engine exists to
kill — is the *repeat* per-candidate Dijkstra: rescoring a candidate
whose answer is already known.  Repeat counts are exact routing
invariants (no timing noise), so the gate is deterministic.  Total runs
per key recompute are still reported for context.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.analysis.run_diff import BENCH_TREE_SCHEMA
from repro.bench.circuits import make_dataset, small_suite, standard_suite
from repro.core import GlobalRouter, RouterConfig
from repro.obs import MemorySink
from repro.reference import OracleRouter

LARGEST = "C3P1"
REQUIRED_REPEAT_SPEEDUP = 3.0


def route_once(spec, full=False):
    """Route one design under the production router, or with ``full``
    under the full-Dijkstra oracle; returns comparable data."""
    dataset = make_dataset(spec)
    sink = MemorySink()
    router_type = OracleRouter if full else GlobalRouter
    oracle = {"rescan": False, "full_trees": True} if full else {}
    router = router_type(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        RouterConfig(),
        trace_sink=sink,
        **oracle,
    )
    start = time.perf_counter()
    result = router.route()
    wall = time.perf_counter() - start
    sequence = [
        (e.data["net"], e.data["edge"], e.data["criterion"])
        for e in sink.of_kind("edge_deleted")
    ]
    flat = router.metrics.flat()
    runs = int(flat.get("router.tree_dijkstra_runs", 0))
    fastpath = int(flat.get("router.tree_fastpath_hits", 0))
    traversals = int(flat.get("router.tree_traversals", 0))
    requests = runs + fastpath + traversals
    return {
        "wall_s": wall,
        "sequence": sequence,
        "deletions": result.deletions,
        "total_length_um": result.total_length_um,
        "dijkstra_runs": runs,
        "repeat_runs": int(flat.get("router.tree_dijkstra_repeats", 0)),
        "traversals": traversals,
        "fastpath_hits": fastpath,
        "tree_evals": int(flat.get("router.tree_evals", 0)),
        "key_recomputes": int(flat.get("router.key_recomputes", 0)),
        # Share of all tree requests answered without a full Dijkstra.
        "fastpath_hit_rate": fastpath / max(1, requests),
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


def compare_design(spec):
    full = route_once(spec, full=True)
    incremental = route_once(spec)
    failures = []
    if incremental["sequence"] != full["sequence"]:
        first = next(
            (
                i
                for i, (a, b) in enumerate(
                    zip(full["sequence"], incremental["sequence"])
                )
                if a != b
            ),
            min(len(full["sequence"]), len(incremental["sequence"])),
        )
        failures.append(
            f"{spec.name}: deletion sequences diverge at index {first}"
        )
    if incremental["total_length_um"] != full["total_length_um"]:
        failures.append(
            f"{spec.name}: final lengths differ "
            f"({incremental['total_length_um']} vs "
            f"{full['total_length_um']})"
        )
    if incremental["dijkstra_runs"] > full["dijkstra_runs"]:
        failures.append(
            f"{spec.name}: incremental runs MORE Dijkstras "
            f"({incremental['dijkstra_runs']} > {full['dijkstra_runs']})"
        )
    if incremental["repeat_runs"] > full["repeat_runs"]:
        failures.append(
            f"{spec.name}: incremental repeats MORE Dijkstras "
            f"({incremental['repeat_runs']} > {full['repeat_runs']})"
        )
    return full, incremental, failures


def repeats_per_deletion(run):
    return run["repeat_runs"] / max(1, run["deletions"])


def runs_per_recompute(run):
    return run["dijkstra_runs"] / max(1, run["key_recomputes"])


def repeat_speedup(full, incremental):
    return repeats_per_deletion(full) / max(
        1e-9, repeats_per_deletion(incremental)
    )


def report_line(name, full, incremental):
    return (
        f"{name:6s} dels {full['deletions']:5d}  "
        f"dijkstras {full['dijkstra_runs']:5d} -> "
        f"{incremental['dijkstra_runs']:5d}  "
        f"repeats/del {repeats_per_deletion(full):6.3f} -> "
        f"{repeats_per_deletion(incremental):6.3f}  "
        f"({repeat_speedup(full, incremental):4.1f}x)  "
        f"fast-path {incremental['fastpath_hit_rate']:5.1%}  "
        f"wall {full['wall_s']:6.2f}s -> {incremental['wall_s']:6.2f}s"
    )


def snapshot_entry(full, incremental):
    """One design's row of the ``--json`` snapshot (see
    :data:`repro.analysis.run_diff.BENCH_TREE_SCHEMA`)."""
    return {
        "deletions": full["deletions"],
        "dijkstra_runs_full": full["dijkstra_runs"],
        "dijkstra_runs_incremental": incremental["dijkstra_runs"],
        "repeat_runs_full": full["repeat_runs"],
        "repeat_runs_incremental": incremental["repeat_runs"],
        "repeat_runs_per_deletion_full": round(
            repeats_per_deletion(full), 4
        ),
        "repeat_runs_per_deletion_incremental": round(
            repeats_per_deletion(incremental), 4
        ),
        "repeat_speedup": round(repeat_speedup(full, incremental), 3),
        "runs_per_key_recompute_full": round(runs_per_recompute(full), 5),
        "runs_per_key_recompute_incremental": round(
            runs_per_recompute(incremental), 5
        ),
        "traversals_incremental": incremental["traversals"],
        "fastpath_hits_incremental": incremental["fastpath_hits"],
        "fastpath_hit_rate_incremental": round(
            incremental["fastpath_hit_rate"], 4
        ),
        "wall_s_full": round(full["wall_s"], 4),
        "wall_s_incremental": round(incremental["wall_s"], 4),
        "wall_speedup": round(
            full["wall_s"] / max(1e-9, incremental["wall_s"]), 3
        ),
        "reclassify_wall_s": round(
            incremental["reclassify_wall_s"], 4
        ),
        "local_recomputes": incremental["local_recomputes"],
        "full_fallbacks": incremental["full_fallbacks"],
        "local_recompute_ratio": round(
            incremental["local_recomputes"]
            / max(
                1,
                incremental["local_recomputes"]
                + incremental["full_fallbacks"],
            ),
            4,
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small suite only; assert equivalence + no extra Dijkstras",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable snapshot (diff two with "
        "'repro-router compare-runs')",
    )
    args = parser.parse_args(argv)

    suite = small_suite() if args.smoke else standard_suite()
    failures = []
    designs = {}
    print(
        "tree-engine bench "
        f"({'smoke/small' if args.smoke else 'standard'} suite)"
    )
    for spec in suite:
        full, incremental, design_failures = compare_design(spec)
        failures.extend(design_failures)
        designs[spec.name] = snapshot_entry(full, incremental)
        print(report_line(spec.name, full, incremental))
        if not args.smoke and spec.name == LARGEST:
            speedup = repeat_speedup(full, incremental)
            if speedup < REQUIRED_REPEAT_SPEEDUP:
                failures.append(
                    f"{LARGEST}: repeat-Dijkstras/deletion speedup "
                    f"{speedup:.2f}x below the required "
                    f"{REQUIRED_REPEAT_SPEEDUP:.0f}x"
                )
            if incremental["wall_s"] > full["wall_s"]:
                failures.append(
                    f"{LARGEST}: incremental wall clock not reduced "
                    f"({incremental['wall_s']:.2f}s vs "
                    f"{full['wall_s']:.2f}s full)"
                )
    if args.json is not None:
        snapshot = {
            "schema": BENCH_TREE_SCHEMA,
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
    print(
        "ok: bit-identical routing, incremental never runs more Dijkstras"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
