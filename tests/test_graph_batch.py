"""Lockstep properties: the design-wide graph builder and classifier
against the per-net reference (:mod:`routegraph_oracle`).

Production builds every net's ``G_r(n)`` in one array pass
(:func:`repro.routegraph.build.build_graph_batch`) and classifies all of
them at once (:meth:`repro.routegraph.graph.GraphBatch.classify`).  The
contract is identity with the per-net builder plus a full scalar
reclassify: the same vertex and edge lists, terminal and driver ids,
alive/essential/vertex-alive flags and degrees, the same 2ECC
decomposition up to relabelling, and the same ``DeletionResult`` for
any first deletion.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.circuits import (
    CircuitSpec,
    DatasetSpec,
    make_dataset,
    standard_suite,
)
from repro.core import GlobalRouter, RouterConfig
from repro.errors import RoutingGraphError
from repro.geometry import Interval
from repro.layout.feedthrough import FeedthroughAssignment, FeedthroughPlanner
from repro.layout.placement import Placement
from repro.layout.placer import FeedStyle
from repro.netlist import Circuit, PinSide, TerminalDirection
from repro.netlist import standard_ecl_library
from repro.routegraph.build import build_graph_batch, build_routing_graph
from repro.routegraph.graph import (
    EdgeKind,
    RouteEdge,
    RouteVertex,
    RoutingGraph,
    VertexKind,
)
from repro.tech import Technology
from routegraph_oracle import (
    graph_state,
    oracle_build_routing_graph,
    oracle_graph,
)


def assert_lockstep(nets, placement, slots_of, technology, twins=True):
    """Every net of a batch equals its per-net oracle build; with
    ``twins``, deleting each initially deletable edge once on a fresh
    batch graph and a fresh oracle graph gives the same result."""
    batch = build_graph_batch(nets, placement, slots_of, technology)
    graphs = batch.graphs()
    for index, net in enumerate(nets):
        oracle = oracle_build_routing_graph(
            net, placement, slots_of(net), technology
        )
        graph = graphs[index]
        assert graph_state(graph) == graph_state(oracle), net.name
        assert graph_state(batch.graph(index)) == graph_state(oracle)
        if not twins:
            continue
        for edge_id in oracle.deletable_edges():
            ours = batch.graph(index)
            theirs = oracle_graph(
                net,
                oracle.vertices,
                oracle.edges,
                oracle.terminal_vertices,
                oracle.driver_vertex,
            )
            assert ours.delete(edge_id) == theirs.delete(edge_id)
            assert graph_state(ours) == graph_state(theirs)


# ----------------------------------------------------------------------
# Generated datasets: feedthrough assignment, differential pairs,
# multi-pitch clocks, single-row chips.
# ----------------------------------------------------------------------
@st.composite
def dataset_specs(draw):
    circuit = CircuitSpec(
        name="L",
        n_gates=draw(st.integers(8, 30)),
        n_flops=draw(st.integers(1, 4)),
        n_inputs=draw(st.integers(1, 4)),
        n_outputs=draw(st.integers(1, 4)),
        n_diff_pairs=draw(st.integers(0, 2)),
        clock_pitch=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 10_000)),
    )
    return DatasetSpec(
        name="LDS",
        circuit=circuit,
        feed_style=draw(st.sampled_from(list(FeedStyle))),
        feed_fraction=draw(st.floats(0.0, 0.3)),
        n_rows=draw(st.sampled_from([1, 2, 3, None])),
        n_constraints=1,
    )


@given(dataset_specs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_generated_datasets_match_oracle(spec):
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    router.begin_route()
    router._build_timing()
    router._assign_pins_and_feedthroughs()
    assert_lockstep(
        router.circuit.routable_nets,
        router.placement,
        router.assignment.of_net,
        router.config.technology,
    )


# ----------------------------------------------------------------------
# Hand-placed chips: external pins on both boundaries, terminals in the
# same column, nets with and without feedthroughs.
# ----------------------------------------------------------------------
@st.composite
def hand_placements(draw):
    library = standard_ecl_library()
    circuit = Circuit("hp", library)
    n_rows = draw(st.integers(1, 3))
    rows = [[] for _ in range(n_rows)]
    cells = []
    for i in range(draw(st.integers(2, 7))):
        cell = circuit.add_cell(
            f"c{i}", draw(st.sampled_from(["INV1", "NOR2", "BUF1"]))
        )
        rows[draw(st.integers(0, n_rows - 1))].append(cell)
        cells.append(cell)
    for i in range(draw(st.integers(0, 2 * n_rows))):
        row = rows[draw(st.integers(0, n_rows - 1))]
        row.insert(
            draw(st.integers(0, len(row))), circuit.add_cell(f"f{i}", "FEED")
        )
    rows = [row for row in rows if row]
    placement = Placement(circuit, rows)
    width = max(1, placement.width_columns)
    outputs = [c.terminal("O") for c in cells]
    inputs = [
        t for c in cells for t in c.terminals if t is not c.terminal("O")
    ]
    nets = []
    for n, driver in enumerate(outputs):
        sinks = draw(
            st.lists(st.sampled_from(inputs), min_size=0, max_size=3,
                     unique_by=lambda t: t.full_name)
        )
        sinks = [t for t in sinks if t.net is None]
        pins = []
        for side in draw(
            st.lists(st.sampled_from([PinSide.BOTTOM, PinSide.TOP]),
                     max_size=2)
        ):
            # Columns collide with cell terminals on purpose.
            pins.append(
                circuit.add_external_pin(
                    f"p{n}_{len(pins)}", TerminalDirection.OUTPUT,
                    side=side, column=draw(st.integers(0, width - 1)),
                )
            )
        if not sinks and not pins:
            continue
        circuit.add_net(f"n{n}")
        circuit.connect(f"n{n}", driver, *sinks, *pins)
        nets.append(circuit.net(f"n{n}"))
    with_slots = draw(st.booleans())
    return circuit, placement, nets, with_slots


@given(hand_placements())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hand_placements_match_oracle(case):
    circuit, placement, nets, with_slots = case
    if not nets:
        return
    assignment = FeedthroughAssignment()
    if with_slots:
        assignment = FeedthroughPlanner(circuit, placement).assign_all(nets)
    technology = Technology()
    oracle_error = None
    for net in nets:
        try:
            oracle_build_routing_graph(
                net, placement, assignment.of_net(net), technology
            )
        except RoutingGraphError as error:
            oracle_error = str(error)
            break
    if oracle_error is not None:
        # A net crossing rows without feedthroughs: the batch reports
        # the same first disconnected terminal.
        with pytest.raises(RoutingGraphError) as raised:
            build_graph_batch(nets, placement, assignment.of_net, technology)
        assert str(raised.value) == oracle_error
        return
    assert_lockstep(nets, placement, assignment.of_net, technology)


def test_same_column_terminals(library):
    circuit = Circuit("sc", library)
    a = circuit.add_cell("a", "NOR2")
    b = circuit.add_cell("b", "NOR2")
    placement = Placement(circuit, [[a], [b]])
    bottom = circuit.add_external_pin(
        "pb", TerminalDirection.OUTPUT, side=PinSide.BOTTOM,
        column=placement.terminal_column(a.terminal("O")),
    )
    top = circuit.add_external_pin(
        "pt", TerminalDirection.OUTPUT, side=PinSide.TOP,
        column=placement.terminal_column(b.terminal("I0")),
    )
    net = circuit.add_net("n")
    circuit.connect(
        "n", a.terminal("O"), b.terminal("I0"), b.terminal("I1"), bottom,
        top,
    )
    assert_lockstep([net], placement, lambda _: {}, Technology())


@pytest.mark.parametrize("spec", standard_suite(), ids=lambda s: s.name)
def test_standard_designs_match_oracle(spec):
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    router.begin_route()
    router._build_timing()
    router._assign_pins_and_feedthroughs()
    assert_lockstep(
        router.circuit.routable_nets,
        router.placement,
        router.assignment.of_net,
        router.config.technology,
    )


# ----------------------------------------------------------------------
# Batch of one against the scalar full reclassify, on random multigraphs
# ----------------------------------------------------------------------
def random_multigraph(rng, library):
    """A connected multi-terminal graph with parallel edges, loops that
    need deleting, pendant position chains and terminal-free cycles
    hanging off the graph by a bridge."""
    n_terminals = rng.randint(2, 5)
    n_positions = rng.randint(2, 12)
    circuit = Circuit(f"rm{rng.random()}", library)
    driver = circuit.add_cell("drv", "INV1")
    net = circuit.add_net("m")
    circuit.connect("m", driver.terminal("O"))
    for i in range(n_terminals - 1):
        circuit.connect("m", circuit.add_cell(f"s{i}", "INV1").terminal("I0"))
    vertices = []
    for t in range(n_terminals):
        vertices.append(
            RouteVertex(t, VertexKind.TERMINAL, 0, 5 * t, net.pins[t])
        )

    def position():
        vertices.append(
            RouteVertex(
                len(vertices), VertexKind.POSITION, rng.randint(0, 2),
                rng.randint(0, 30),
            )
        )
        return len(vertices) - 1

    edges = []

    def edge(u, v, kind=EdgeKind.TRUNK):
        lo, hi = sorted((vertices[u].x, vertices[v].x))
        length = float(hi - lo) + rng.random()
        edges.append(
            RouteEdge(len(edges), kind, u, v, vertices[u].channel,
                      Interval(lo, hi), length)
        )

    positions = [position() for _ in range(n_positions)]
    chain = [0] + positions
    for u, v in zip(chain, chain[1:]):
        edge(u, v, EdgeKind.CORRESPONDENCE if u == 0 else EdgeKind.TRUNK)
    for t in range(1, n_terminals):
        edge(t, rng.choice(positions), EdgeKind.CORRESPONDENCE)
    for _ in range(rng.randint(0, 8)):
        u, v = rng.choice(positions), rng.choice(positions)
        if u != v:
            edge(u, v)
            if rng.random() < 0.3:
                edge(u, v)  # parallel edge
    for _ in range(rng.randint(0, 2)):
        # A terminal-free cycle hanging by a bridge.
        ring = [position() for _ in range(rng.randint(2, 4))]
        edge(rng.choice(positions), ring[0])
        for u, v in zip(ring, ring[1:] + ring[:1]):
            edge(u, v)
    for _ in range(rng.randint(0, 3)):
        # A pendant position chain (pruned on construction).
        tail = rng.choice(positions)
        for _ in range(rng.randint(1, 3)):
            nxt = position()
            edge(tail, nxt)
            tail = nxt
    for _ in range(rng.randint(0, 2)):
        # An unreachable fragment (pruned on construction).
        a, b = position(), position()
        edge(a, b)
    return net, vertices, edges, list(range(n_terminals)), 0


@given(st.integers(0, 1_000_000))
@settings(max_examples=300, deadline=None)
def test_batch_of_one_matches_full_reclassify(seed):
    library = standard_ecl_library()
    net, vertices, edges, terminals, driver = random_multigraph(
        random.Random(seed), library
    )
    ours = RoutingGraph(net, vertices, edges, terminals, driver)
    theirs = oracle_graph(net, vertices, edges, terminals, driver)
    assert graph_state(ours) == graph_state(theirs)
    # And the two stay in lockstep through a full deletion sequence.
    rng = random.Random(seed + 1)
    while ours.deletable_edges():
        assert ours.deletable_edges() == theirs.deletable_edges()
        edge_id = rng.choice(ours.deletable_edges())
        assert ours.delete(edge_id) == theirs.delete(edge_id)
        assert graph_state(ours) == graph_state(theirs)
    assert not theirs.deletable_edges()


def test_disconnected_terminal_message_matches_oracle(library):
    circuit = Circuit("dc", library)
    a = circuit.add_cell("a", "INV1")
    b = circuit.add_cell("b", "INV1")
    c = circuit.add_cell("c", "INV1")
    placement = Placement(circuit, [[a], [b], [c]])
    net = circuit.add_net("n")
    circuit.connect("n", a.terminal("O"), c.terminal("I0"))
    with pytest.raises(RoutingGraphError) as expected:
        oracle_build_routing_graph(net, placement, {})
    with pytest.raises(RoutingGraphError) as got:
        build_routing_graph(net, placement, {})
    assert str(got.value) == str(expected.value)


# ----------------------------------------------------------------------
# Reroutes restored from the setup arrays
# ----------------------------------------------------------------------
def test_restored_reroute_graph_equals_fresh_oracle_build():
    spec = next(s for s in standard_suite() if s.name == "C1P1")
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    result = router.route()
    assert result.reroutes > 0
    restored = router.metrics.flat()["router.reroute_graphs_restored"]
    assert restored > 0
    for name, state in sorted(router.states.items()):
        fresh = router._fresh_graph(state.net)
        oracle = oracle_build_routing_graph(
            state.net,
            router.placement,
            router.assignment.of_net(state.net),
            router.config.technology,
        )
        assert graph_state(fresh) == graph_state(oracle), name


def test_moved_slots_rebuild_instead_of_restoring():
    spec = next(s for s in standard_suite() if s.name == "C1P1")
    dataset = make_dataset(spec)
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints,
        RouterConfig(),
    )
    router.prepare()
    net = next(
        n for n in router.circuit.routable_nets
        if router.assignment.of_net(n)
    )
    row, slot = next(iter(router.assignment.of_net(net).items()))
    moved = type(slot)(slot.net, slot.row, slot.x + 1, slot.width)
    router.assignment.slots[net.name][row] = moved
    before = router.metrics.flat().get("router.reroute_graphs_restored", 0)
    fresh = router._fresh_graph(net)
    assert router.metrics.flat().get(
        "router.reroute_graphs_restored", 0
    ) == before
    oracle = oracle_build_routing_graph(
        net, router.placement, router.assignment.of_net(net),
        router.config.technology,
    )
    assert graph_state(fresh) == graph_state(oracle)
