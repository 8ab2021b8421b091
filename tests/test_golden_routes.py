"""Golden routes: the standard suite's deletion sequences, pinned.

The equivalence suites (selection, tree engine, reclassify) compare two
engine settings through one graph builder, so a builder that renumbered
edges — or reordered vertices — would pass all three while changing
every route.  This file pins the routes themselves: for C1P1..C3P1,
constrained and unconstrained, the SHA-256 of the ``edge_deleted``
sequence ``(net, edge, criterion, depth, phase)``, the SHA-256 of each
net's final wiring, and the deletion and reroute counts, against
``tests/golden/standard_suite_routes.json``.

Regenerate the file (only for an intended change of routes) with::

    PYTHONPATH=src python -m tests.test_golden_routes --write

The file maps Python ``major.minor`` to that version's record: floats
may sum differently across versions (``sum()`` is compensated from 3.12
on), so a record only vouches for the version that wrote it, and the
test skips on a version without one.  Run ``--write`` under a new
version to add its record.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.bench.circuits import make_dataset, standard_suite
from repro.core import GlobalRouter, RouterConfig
from repro.obs import MemorySink

GOLDEN = Path(__file__).parent / "golden" / "standard_suite_routes.json"
DESIGNS = ("C1P1", "C1P2", "C2P1", "C2P2", "C3P1")
MODES = ("constrained", "unconstrained")
_SPECS = {spec.name: spec for spec in standard_suite()}


def _sha(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def route_record(design: str, mode: str) -> Dict[str, object]:
    """Route one design in one mode and digest everything pinned."""
    dataset = make_dataset(_SPECS[design])
    config = RouterConfig()
    if mode == "unconstrained":
        config = config.unconstrained()
    sink = MemorySink()
    router = GlobalRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        config,
        trace_sink=sink,
    )
    result = router.route()
    sequence = [
        [
            e.data["net"],
            e.data["edge"],
            e.data["criterion"],
            e.data["depth"],
            e.data["phase"],
        ]
        for e in sink.of_kind("edge_deleted")
    ]
    wiring = {
        name: _sha(
            [
                [
                    edge.kind.value,
                    edge.channel,
                    edge.interval.lo,
                    edge.interval.hi,
                    repr(edge.length_um),
                ]
                for edge in route.edges
            ]
            + [repr(route.total_length_um)]
        )
        for name, route in sorted(result.routes.items())
    }
    return {
        "deletions": result.deletions,
        "reroutes": result.reroutes,
        "sequence_sha256": _sha(sequence),
        "wiring_sha256": wiring,
    }


def _python_key() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def _expected() -> Dict[str, Dict[str, object]]:
    records = json.loads(GOLDEN.read_text()).get(_python_key())
    if records is None:
        pytest.skip(f"no golden record for python {_python_key()}")
    return records


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("design", DESIGNS)
def test_route_matches_golden(design, mode):
    expected = _expected()[f"{design}/{mode}"]
    got = route_record(design, mode)
    assert got["deletions"] == expected["deletions"]
    assert got["reroutes"] == expected["reroutes"]
    assert got["sequence_sha256"] == expected["sequence_sha256"], (
        f"{design}/{mode}: edge_deleted sequence changed"
    )
    changed = sorted(
        name
        for name, digest in expected["wiring_sha256"].items()
        if got["wiring_sha256"].get(name) != digest
    )
    assert not changed, f"{design}/{mode}: wiring changed for {changed[:5]}"
    assert set(got["wiring_sha256"]) == set(expected["wiring_sha256"])


def _write() -> None:
    records = {
        f"{design}/{mode}": route_record(design, mode)
        for design in DESIGNS
        for mode in MODES
    }
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data[_python_key()] = records
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote python {_python_key()} record to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_routes --write")
    _write()
