"""The seed reference oracles in :mod:`repro.reference`.

Two guarantees keep the oracles honest yardsticks:

* **isolation** — no module of the ``repro`` package other than
  ``repro/reference.py`` itself imports the oracle module or its entry
  points (the scalar criteria, the rescan selector, the scanning
  feedthrough search and assignment, the rescanning left-edge router),
  so production has one path per layer;
* **seed cost** — the oracles do exactly the seed's work.  The rescan
  oracle's key evaluations and the full-tree oracle's Dijkstra runs on
  the smoke design S1P1 equal the counts in the committed A/B snapshots
  (``BENCH_selection.json``, ``BENCH_tree.json``), which the seed's
  config-selected engines produced.  A cheaper oracle would inflate
  the A/B ratios those snapshots gate.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.bench.circuits import make_dataset, small_suite
from repro.core import RouterConfig
from repro.reference import OracleRouter

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
ORACLE_NAMES = {
    "RescanSelector",
    "evaluate_delay_criteria",
    "scan_find_group",
    "scan_assign_all",
    "scan_route_channel",
}


def _oracle_imports(source: str, package: str):
    """``(line, what)`` of every import in ``source`` (a module of
    ``package``) that reaches the oracle module or one of its scalar
    entry points."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.reference":
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                module = ".".join(base + ([module] if module else []))
            names = {alias.name for alias in node.names}
            if module == "repro.reference" or (
                module == "repro" and "reference" in names
            ):
                found.append((node.lineno, module))
            for name in sorted(names & ORACLE_NAMES):
                found.append((node.lineno, f"{module}.{name}"))
    return found


def test_only_the_oracle_module_imports_the_oracles():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "reference.py":
            continue
        # A module's package, or for an __init__.py the package itself.
        package = ".".join(path.relative_to(PACKAGE.parent).parts[:-1])
        for line, what in _oracle_imports(path.read_text(), package):
            offenders.append(
                f"{path.relative_to(REPO)}:{line} imports {what}"
            )
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "source,expected",
    [
        ("from ..reference import OracleRouter", 1),
        ("from .. import reference", 1),
        ("import repro.reference", 1),
        ("from repro.reference import RescanSelector", 2),
        ("from .criteria import evaluate_delay_criteria", 1),
        ("from .criteria import evaluate_delay_criteria_batch", 0),
        ("from ..routegraph.tree_engine import FullTreeEngine", 0),
        ("from ..reference import scan_route_channel", 2),
        ("from repro.reference import scan_find_group, scan_assign_all", 3),
        ("from ..layout.feedthrough import RowSlots", 0),
        ("from ..channelrouter.leftedge import route_channel", 0),
    ],
)
def test_guard_sees_every_spelling(source, expected):
    """The scan catches relative and absolute oracle imports alike, as
    seen from a module of ``repro.core``."""
    assert len(_oracle_imports(source, "repro.core")) == expected


def _smoke_spec(name):
    return next(spec for spec in small_suite() if spec.name == name)


def _snapshot_row(filename, design):
    snapshot = json.loads((REPO / filename).read_text())
    return snapshot["designs"][design]


@pytest.mark.parametrize(
    "oracle,snapshot,counter,field",
    [
        (
            {"rescan": True},
            "BENCH_selection.json",
            "router.key_evals",
            "key_evals_rescan",
        ),
        (
            {"rescan": False, "full_trees": True},
            "BENCH_tree.json",
            "router.tree_dijkstra_runs",
            "dijkstra_runs_full",
        ),
    ],
    ids=["rescan", "full_trees"],
)
def test_oracle_does_the_seeds_work(oracle, snapshot, counter, field):
    dataset = make_dataset(_smoke_spec("S1P1"))
    router = OracleRouter(
        dataset.circuit,
        dataset.placement,
        dataset.constraints,
        RouterConfig(),
        **oracle,
    )
    result = router.route()
    row = _snapshot_row(snapshot, "S1P1")
    assert result.deletions == row["deletions"]
    assert int(router.metrics.flat()[counter]) == row[field]
