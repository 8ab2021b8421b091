"""Tests for the routing verifier (repro.core.verify)."""

import dataclasses
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_chain_circuit, route_chain
from repro import (
    GlobalDelayGraph,
    GlobalRouter,
    PathConstraint,
    PlacerConfig,
    RouterConfig,
    place_circuit,
)
from repro.core.result import (
    AttachSide,
    ChannelAttachment,
    NetRoute,
    RoutedEdge,
)
from repro.core.verify import _check_tree, verify_routing
from repro.geometry import Interval
from repro.layout.feedthrough import AssignedSlot
from repro.routegraph.graph import EdgeKind


@pytest.fixture()
def verified_setup(library):
    circuit = build_chain_circuit(library, n_gates=8)
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    router = GlobalRouter(circuit, placement, [], RouterConfig())
    result = router.route()
    return circuit, placement, router, result


class TestCleanResult:
    def test_router_output_verifies_clean(self, verified_setup):
        circuit, placement, router, result = verified_setup
        violations = verify_routing(
            circuit, placement, result, router.assignment
        )
        assert violations == []

    def test_random_circuits_verify_clean(self):
        from repro.bench.circuits import make_dataset, small_suite

        dataset = make_dataset(small_suite()[0])
        router = GlobalRouter(
            dataset.circuit, dataset.placement, dataset.constraints,
            RouterConfig(),
        )
        result = router.route()
        assert verify_routing(
            dataset.circuit, dataset.placement, result, router.assignment
        ) == []


class TestViolationDetection:
    def test_missing_route_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        broken = dataclasses.replace(result)
        name = next(iter(broken.routes))
        del broken.routes[name]
        violations = verify_routing(circuit, placement, broken)
        assert any("no route" in v for v in violations)

    def test_out_of_chip_edge_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        name = next(iter(result.routes))
        route = result.routes[name]
        route.edges.append(
            RoutedEdge(
                EdgeKind.TRUNK, 0, Interval(0, 10_000), 40.0
            )
        )
        violations = verify_routing(circuit, placement, result)
        assert any("outside chip" in v for v in violations)

    def test_length_mismatch_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        name = next(iter(result.routes))
        result.routes[name].total_length_um += 123.0
        violations = verify_routing(circuit, placement, result)
        assert any("reported length" in v for v in violations)

    def test_disconnected_wiring_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        # Find a route with a trunk and add a far-away disconnected trunk.
        name = next(
            n for n, r in result.routes.items()
            if any(e.kind is EdgeKind.TRUNK for e in r.edges)
        )
        route = result.routes[name]
        width = placement.width_columns
        stray = RoutedEdge(
            EdgeKind.TRUNK, placement.n_channels - 1,
            Interval(width - 2, width - 1), 4.0,
        )
        route.edges.append(stray)
        route.total_length_um += 4.0
        violations = verify_routing(circuit, placement, result)
        assert any("not connected" in v for v in violations)

    def test_missing_attachment_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        name = next(iter(sorted(result.routes)))
        route = result.routes[name]
        route.attachments.clear()
        violations = verify_routing(circuit, placement, result)
        assert any("has no attachment" in v for v in violations)

    def test_ungranted_slot_detected(self, verified_setup):
        circuit, placement, router, result = verified_setup
        # Find a route with a branch edge and shift its column.
        for name, route in result.routes.items():
            branch = next(
                (e for e in route.edges if e.kind is EdgeKind.BRANCH),
                None,
            )
            if branch is not None:
                break
        else:
            pytest.skip("no branch edges in this fixture")
        route.edges.remove(branch)
        moved = RoutedEdge(
            EdgeKind.BRANCH, branch.channel,
            Interval(branch.interval.lo + 1, branch.interval.lo + 1),
            branch.length_um,
        )
        route.edges.append(moved)
        violations = verify_routing(
            circuit, placement, result, router.assignment
        )
        assert any("ungranted slot" in v for v in violations)


# ----------------------------------------------------------------------
# One mutation per finding, asserting the complete findings list
# ----------------------------------------------------------------------
def _wires(route):
    return [
        e for e in route.edges
        if e.kind in (EdgeKind.TRUNK, EdgeKind.BRANCH)
    ]


def _single_trunk_route(result):
    return next(
        name for name in sorted(result.routes)
        if [e.kind for e in _wires(result.routes[name])] == [EdgeKind.TRUNK]
    )


def _brute_force_peak(result, channel, width):
    """Peak column density of one channel, one column at a time, over
    each net's merged trunk runs (a run ``[lo, hi]`` covers columns
    ``lo .. hi-1``)."""
    peak = 0
    for column in range(width):
        peak = max(peak, sum(
            route.width_pitches
            for route in result.routes.values()
            if any(
                span.lo <= column < span.hi
                for span in route.trunk_intervals().get(channel, [])
            )
        ))
    return peak


class TestEveryFinding:
    @pytest.mark.parametrize("where", ["below", "above"])
    def test_illegal_channel(self, verified_setup, where):
        circuit, placement, router, result = verified_setup
        name = _single_trunk_route(result)
        route = result.routes[name]
        trunk = _wires(route)[0]
        channel = -1 if where == "below" else placement.n_channels
        route.edges[route.edges.index(trunk)] = dataclasses.replace(
            trunk, channel=channel
        )
        assert verify_routing(
            circuit, placement, result, router.assignment
        ) == [f"net {name}: edge in illegal channel {channel}"]

    def test_negative_edge_length(self, verified_setup):
        circuit, placement, router, result = verified_setup
        name = _single_trunk_route(result)
        route = result.routes[name]
        trunk = _wires(route)[0]
        route.edges[route.edges.index(trunk)] = dataclasses.replace(
            trunk, length_um=-trunk.length_um
        )
        route.total_length_um = sum(e.length_um for e in route.edges)
        assert verify_routing(
            circuit, placement, result, router.assignment
        ) == [f"net {name}: negative edge length"]

    @pytest.mark.parametrize("kind", [EdgeKind.TRUNK, EdgeKind.BRANCH])
    def test_duplicate_wire(self, verified_setup, kind):
        circuit, placement, router, result = verified_setup
        name, wire = next(
            (name, e)
            for name in sorted(result.routes)
            for e in result.routes[name].edges
            if e.kind is kind
        )
        route = result.routes[name]
        route.edges.append(wire)
        route.total_length_um += wire.length_um
        assert verify_routing(
            circuit, placement, result, router.assignment
        ) == [
            f"net {name}: duplicate {kind.name} wire in channel "
            f"{wire.channel} at columns "
            f"{wire.interval.lo}..{wire.interval.hi}"
        ]

    def test_density_under_report(self, verified_setup):
        circuit, placement, router, result = verified_setup
        channel = max(
            result.channel_peak_density,
            key=lambda c: (result.channel_peak_density[c], -c),
        )
        peak = _brute_force_peak(result, channel, placement.width_columns)
        assert peak > 0
        result.channel_peak_density[channel] = peak
        assert verify_routing(
            circuit, placement, result, router.assignment
        ) == []
        result.channel_peak_density[channel] = peak - 1
        assert verify_routing(
            circuit, placement, result, router.assignment
        ) == [
            f"channel {channel}: actual peak density {peak} exceeds "
            f"reported {peak - 1}"
        ]

    def test_slot_granted_to_two_nets(self, verified_setup):
        circuit, placement, router, result = verified_setup
        assignment = router.assignment
        owner = next(
            name for name in sorted(result.routes) if assignment.slots.get(name)
        )
        row, slot = sorted(assignment.slots[owner].items())[0]
        # A net routed before the owner, with no slot of its own there.
        thief = next(
            name for name in sorted(result.routes)
            if name < owner and row not in assignment.slots.get(name, {})
        )
        assignment.record(
            AssignedSlot(circuit.net(thief), row, slot.x, slot.width)
        )
        assert verify_routing(circuit, placement, result, assignment) == [
            f"slot row {row} column {column} granted to both {thief} "
            f"and {owner}"
            for column in slot.columns
        ]

    def test_connection_through_a_cell(self):
        # A cell pin reachable from the channels below and above its row
        # is the only link between a trunk in each channel.
        from repro.bench.circuits import make_dataset, small_suite

        dataset = make_dataset(small_suite()[0])
        router = GlobalRouter(
            dataset.circuit, dataset.placement, dataset.constraints,
            RouterConfig(),
        )
        result = router.route()
        args = (dataset.circuit, dataset.placement, result, router.assignment)
        assert verify_routing(*args) == []
        name, column, upper = next(
            _through_cell_joins(result.routes)
        )
        route = result.routes[name]
        route.attachments = [
            a for a in route.attachments
            if (a.channel, a.column) != (upper, column)
        ]
        assert verify_routing(*args) == [
            f"net {name}: wiring is not connected (2 separate pieces)"
        ]


def _through_cell_joins(routes):
    """Routes made of two trunks in adjacent channels sharing exactly one
    column, attached in both channels there: ``(net, column, upper)``."""
    for name in sorted(routes):
        route = routes[name]
        wires = sorted(_wires(route), key=lambda e: e.channel)
        if [e.kind for e in wires] != [EdgeKind.TRUNK, EdgeKind.TRUNK]:
            continue
        low, high = wires
        if high.channel != low.channel + 1:
            continue
        if not low.interval.overlaps(high.interval):
            continue
        shared = low.interval.intersection(high.interval)
        if shared.width != 1:
            continue
        points = {(a.channel, a.column) for a in route.attachments}
        if {(low.channel, shared.lo), (high.channel, shared.lo)} <= points:
            yield name, shared.lo, high.channel


# ----------------------------------------------------------------------
# Tree legality: the sweep agrees with the all-pairs reference
# ----------------------------------------------------------------------
def _pairwise_check_tree(route: NetRoute) -> List[str]:
    """Reference tree-legality check: O(W^2) comparison of every pair of
    wires, kept as the oracle for :func:`repro.core.verify._check_tree`."""
    trunks = [e for e in route.edges if e.kind is EdgeKind.TRUNK]
    branches = [e for e in route.edges if e.kind is EdgeKind.BRANCH]
    wires = trunks + branches
    if len(wires) <= 1:
        return []

    parent = list(range(len(wires)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    def channels_of(edge) -> Tuple[int, ...]:
        if edge.kind is EdgeKind.TRUNK:
            return (edge.channel,)
        return (edge.channel, edge.channel + 1)

    def touches(a, b) -> bool:
        shared = set(channels_of(a)) & set(channels_of(b))
        if not shared:
            return False
        return a.interval.overlaps(b.interval)

    for i in range(len(wires)):
        for j in range(i + 1, len(wires)):
            if touches(wires[i], wires[j]):
                union(i, j)

    columns_with_attachments: Dict[int, List[int]] = {}
    for attachment in route.attachments:
        columns_with_attachments.setdefault(
            attachment.column, []
        ).append(attachment.channel)
    for column, channels in columns_with_attachments.items():
        incident: List[int] = []
        for channel in set(channels):
            for index, wire in enumerate(wires):
                if channel in channels_of(wire) and wire.interval.contains(
                    column
                ):
                    incident.append(index)
        for a, b in zip(incident, incident[1:]):
            union(a, b)

    roots = {find(i) for i in range(len(wires))}
    if len(roots) > 1:
        return [
            f"net {route.net_name}: wiring is not connected "
            f"({len(roots)} separate pieces)"
        ]
    return []


TOP_CHANNEL = 4          # channels 0..4, rows 0..3
COLUMNS = 12


def _edge(kind, channel, lo, hi):
    return RoutedEdge(kind, channel, Interval(lo, hi), float(hi - lo))


@st.composite
def _motif(draw):
    """A few wires (and attachments) in one of the shapes that decide
    connectivity."""
    channel = draw(st.sampled_from([0, TOP_CHANNEL, 1, 2, 3]))
    row = draw(st.integers(0, TOP_CHANNEL - 1))
    lo = draw(st.integers(0, COLUMNS - 1))
    hi = draw(st.integers(lo, COLUMNS))
    shape = draw(st.sampled_from([
        "trunk", "abutting", "gap_of_one", "stacked", "duplicate",
        "branch", "through_cell", "correspondence",
    ]))
    T, B = EdgeKind.TRUNK, EdgeKind.BRANCH
    edges, attachments = [], []
    if shape == "trunk":
        edges = [_edge(T, channel, lo, hi)]
    elif shape == "abutting":
        edges = [_edge(T, channel, lo, hi), _edge(T, channel, hi, hi + 3)]
    elif shape == "gap_of_one":
        edges = [
            _edge(T, channel, lo, hi), _edge(T, channel, hi + 1, hi + 2)
        ]
    elif shape == "stacked":
        edges = [_edge(B, r, lo, lo) for r in range(row, TOP_CHANNEL)]
    elif shape == "duplicate":
        kind = draw(st.sampled_from([T, B]))
        wire = _edge(kind, min(channel, row) if kind is B else channel,
                     lo, lo if kind is B else hi)
        edges = [wire, wire]
    elif shape == "branch":
        edges = [_edge(B, row, lo, lo)]
    elif shape == "correspondence":
        edges = [_edge(EdgeKind.CORRESPONDENCE, channel, lo, lo)]
    elif shape == "through_cell":
        edges = [
            _edge(T, row, max(0, lo - 2), lo), _edge(T, row + 1, lo, hi)
        ]
    if shape == "through_cell" or draw(st.booleans()):
        channels = draw(st.sets(
            st.integers(0, TOP_CHANNEL), min_size=1, max_size=3
        ))
        if shape == "through_cell":
            channels |= {row, row + 1}
        attachments = [
            ChannelAttachment(c, lo, AttachSide.BOTTOM) for c in channels
        ]
    return edges, attachments


@st.composite
def _wire_sets(draw):
    motifs = draw(st.lists(_motif(), max_size=10))
    edges = [e for es, _ in motifs for e in es]
    attachments = [a for _, ats in motifs for a in ats]
    edges = draw(st.permutations(edges))
    return NetRoute(
        "n", 1, list(edges), attachments,
        sum(e.length_um for e in edges), 0.0,
    )


@given(_wire_sets())
@settings(max_examples=400, deadline=None)
def test_tree_check_matches_pairwise_reference(route):
    assert _check_tree(route) == _pairwise_check_tree(route)


def test_tree_check_hand_cases():
    T, B = EdgeKind.TRUNK, EdgeKind.BRANCH

    def route(edges, attachments=()):
        return NetRoute("n", 1, edges, [
            ChannelAttachment(c, x, AttachSide.BOTTOM)
            for c, x in attachments
        ], 0.0, 0.0)

    cases = [
        (route([_edge(T, 1, 0, 5), _edge(T, 1, 5, 9)]), []),
        (route([_edge(T, 1, 0, 5), _edge(T, 1, 6, 9)]), 2),
        (route([_edge(B, 0, 3, 3), _edge(B, 1, 3, 3)]), []),
        (route([_edge(T, 0, 0, 3), _edge(T, 1, 3, 6)]), 2),
        (route([_edge(T, 0, 0, 3), _edge(T, 1, 3, 6)], [(0, 3), (1, 3)]),
         []),
        (route([_edge(T, 0, 0, 3), _edge(T, 1, 3, 6), _edge(T, 2, 9, 9)],
               [(0, 3), (1, 3)]), 2),
    ]
    for case, expected in cases:
        if expected:
            expected = [
                f"net n: wiring is not connected ({expected} separate pieces)"
            ]
        assert _pairwise_check_tree(case) == expected
        assert _check_tree(case) == expected
