"""Shared fixtures: small hand-built circuits, placements, and routed
results reused across the test suite."""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest

from repro import (
    Circuit,
    GlobalDelayGraph,
    GlobalRouter,
    PathConstraint,
    PinSide,
    Placement,
    PlacerConfig,
    RouterConfig,
    Technology,
    TerminalDirection,
    place_circuit,
    standard_ecl_library,
)
from repro.bench.circuits import make_dataset, standard_suite
from repro.core.selection import SelectionMode
from repro.obs import MemorySink
from repro.reference import OracleRouter


@pytest.fixture(scope="session")
def library():
    return standard_ecl_library()


@pytest.fixture()
def tech():
    return Technology()


def build_chain_circuit(
    library, n_gates: int = 6, name: str = "chain"
) -> Circuit:
    """in -> gate chain -> ff -> out, plus a clock. Deterministic."""
    circuit = Circuit(name, library)
    din = circuit.add_external_pin("din", TerminalDirection.INPUT)
    clk = circuit.add_external_pin("clk", TerminalDirection.INPUT)
    dout = circuit.add_external_pin(
        "dout", TerminalDirection.OUTPUT, side=PinSide.TOP
    )
    prev = circuit.add_net("n_in")
    prev.attach(din)
    for i in range(n_gates):
        gate = circuit.add_cell(f"g{i}", "INV1" if i % 2 else "BUF1")
        prev.attach(gate.terminal("I0"))
        prev = circuit.add_net(f"n{i}")
        prev.attach(gate.terminal("O"))
    ff = circuit.add_cell("ff", "DFF")
    prev.attach(ff.terminal("D"))
    clk_net = circuit.add_net("n_clk")
    clk_net.attach(clk)
    clk_net.attach(ff.terminal("CLK"))
    q_net = circuit.add_net("n_q")
    q_net.attach(ff.terminal("Q"))
    q_net.attach(dout)
    return circuit


def build_diamond_circuit(library) -> Circuit:
    """din -> a -> {b, c} -> d -> dout : two parallel reconvergent paths."""
    circuit = Circuit("diamond", library)
    din = circuit.add_external_pin("din", TerminalDirection.INPUT)
    dout = circuit.add_external_pin("dout", TerminalDirection.OUTPUT)
    a = circuit.add_cell("a", "BUF1")
    b = circuit.add_cell("b", "INV1")
    c = circuit.add_cell("c", "BUF1")
    d = circuit.add_cell("d", "NOR2")
    circuit.connect(circuit.add_net("n_in").name, din, a.terminal("I0"))
    circuit.connect(
        circuit.add_net("n_a").name,
        a.terminal("O"), b.terminal("I0"), c.terminal("I0"),
    )
    circuit.connect(
        circuit.add_net("n_b").name, b.terminal("O"), d.terminal("I0")
    )
    circuit.connect(
        circuit.add_net("n_c").name, c.terminal("O"), d.terminal("I1")
    )
    circuit.connect(circuit.add_net("n_d").name, d.terminal("O"), dout)
    return circuit


def build_fanout_circuit(library, fanout: int = 4) -> Circuit:
    """One driver gate feeding several sinks spread over rows."""
    circuit = Circuit("fanout", library)
    din = circuit.add_external_pin("din", TerminalDirection.INPUT)
    src = circuit.add_cell("src", "BUF1")
    n_in = circuit.add_net("n_in")
    n_in.attach(din)
    n_in.attach(src.terminal("I0"))
    big = circuit.add_net("big")
    big.attach(src.terminal("O"))
    for i in range(fanout):
        sink = circuit.add_cell(f"s{i}", "INV1")
        big.attach(sink.terminal("I0"))
        out = circuit.add_net(f"o{i}")
        out.attach(sink.terminal("O"))
        pin = circuit.add_external_pin(
            f"out{i}",
            TerminalDirection.OUTPUT,
            side=PinSide.TOP if i % 2 else PinSide.BOTTOM,
        )
        out.attach(pin)
    return circuit


@pytest.fixture()
def chain_circuit(library):
    return build_chain_circuit(library)


@pytest.fixture()
def fanout_circuit(library):
    return build_fanout_circuit(library)


@pytest.fixture()
def chain_placed(chain_circuit):
    placement = place_circuit(
        chain_circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    return chain_circuit, placement


@pytest.fixture()
def fanout_placed(fanout_circuit):
    placement = place_circuit(
        fanout_circuit, PlacerConfig(n_rows=2, feed_fraction=0.5)
    )
    return fanout_circuit, placement


def route_chain(library, constrained: bool = True):
    """Route the chain circuit end to end; returns (circuit, placement,
    constraints, result)."""
    circuit = build_chain_circuit(library)
    placement = place_circuit(
        circuit, PlacerConfig(n_rows=3, feed_fraction=0.4)
    )
    gd = GlobalDelayGraph.build(circuit)
    din = circuit.external_pin("din")
    ff = circuit.cell("ff")
    constraint = PathConstraint(
        "p0",
        frozenset([gd.vertex_of(din).index]),
        frozenset([gd.vertex_of(ff.terminal("D")).index]),
        2000.0,
    )
    config = RouterConfig()
    if not constrained:
        config = config.unconstrained()
    router = GlobalRouter(circuit, placement, [constraint], config)
    return circuit, placement, [constraint], router.route()


@pytest.fixture()
def routed_chain(library):
    return route_chain(library)


# ----------------------------------------------------------------------
# Standard-suite routes shared by the equivalence suites
# ----------------------------------------------------------------------
SUITE_DESIGNS = [spec.name for spec in standard_suite()]
_SUITE_SPECS = {spec.name: spec for spec in standard_suite()}


def deletion_events(sink):
    """Every ``edge_deleted`` event as a comparable tuple."""
    return [
        (
            e.data["net"],
            e.data["edge"],
            e.data["criterion"],
            e.data["depth"],
            e.data["phase"],
            e.data["length_um"],
        )
        for e in sink.of_kind("edge_deleted")
    ]


class SuiteRoute(NamedTuple):
    """What the equivalence suites compare of one full route."""

    events: list
    result: object
    metrics: dict
    trees: dict


class SuiteRoutes:
    """Memoised standard-suite routes, production and oracle.

    ``oracle`` keyword arguments (``rescan``, ``full_trees``) route under
    :class:`repro.reference.OracleRouter`; none routes under the
    production :class:`GlobalRouter`.  Every combination is routed once
    per session, however many suites compare against it.
    """

    def __init__(self):
        self._routes = {}
        self._area_loops = {}

    @staticmethod
    def _router(design, sink, oracle):
        dataset = make_dataset(_SUITE_SPECS[design])
        args = (dataset.circuit, dataset.placement, dataset.constraints)
        if oracle:
            return OracleRouter(
                *args, RouterConfig(), trace_sink=sink, **oracle
            )
        return GlobalRouter(*args, RouterConfig(), trace_sink=sink)

    def route(self, design, **oracle) -> SuiteRoute:
        """The full Fig. 2 flow on one design."""
        key = (design, tuple(sorted(oracle.items())))
        if key not in self._routes:
            sink = MemorySink()
            router = self._router(design, sink, oracle)
            result = router.route()
            trees = {
                name: (
                    state.cl_pf,
                    None
                    if state.tree is None
                    else (
                        state.tree.total_length_um,
                        frozenset(state.tree.edge_ids),
                    ),
                )
                for name, state in router.states.items()
            }
            self._routes[key] = SuiteRoute(
                deletion_events(sink), result, router.metrics.flat(), trees
            )
        return self._routes[key]

    def area_loop(self, design, **oracle) -> list:
        """A standalone AREA-mode deletion loop over all lead states."""
        key = (design, tuple(sorted(oracle.items())))
        if key not in self._area_loops:
            sink = MemorySink()
            router = self._router(design, sink, oracle)
            router._build_timing()
            router._assign_pins_and_feedthroughs()
            router._build_routing_graphs()
            router._init_density_and_trees()
            router._deletion_loop(router._lead_states(), SelectionMode.AREA)
            self._area_loops[key] = deletion_events(sink)
        return self._area_loops[key]


@pytest.fixture(scope="session")
def suite_routes():
    return SuiteRoutes()
