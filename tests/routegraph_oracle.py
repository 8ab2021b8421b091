"""Reference construction of ``G_r(n)``: the per-net builder and the
construction-time full reclassify, kept as a test oracle.

Production builds every net at once (:func:`repro.routegraph.build.
build_graph_batch`) and classifies in one array pass.  This module is the
original path: RouteVertex/RouteEdge objects appended one by one, then a
full :meth:`RoutingGraph.reclassify` (reach, pendant strip, fresh
Tarjan) on an unclassified graph.  The lockstep tests compare the two.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import RoutingGraphError
from repro.geometry import Interval
from repro.layout.feedthrough import AssignedSlot
from repro.layout.placement import Placement
from repro.netlist.circuit import Net
from repro.routegraph.graph import (
    EdgeKind,
    GraphBatch,
    RouteEdge,
    RouteVertex,
    RoutingGraph,
    VertexKind,
)
from repro.tech import Technology


def oracle_graph(
    net: Net,
    vertices: Sequence[RouteVertex],
    edges: Sequence[RouteEdge],
    terminal_vertices: Sequence[int],
    driver_vertex: int,
) -> RoutingGraph:
    """A graph classified by the scalar full reclassify, not the batch
    classifier: loaded unclassified (everything alive), then
    ``reclassify()`` — the pre-batch constructor's last step."""
    batch = GraphBatch.from_objects(
        net, vertices, edges, terminal_vertices, driver_vertex
    )
    graph = RoutingGraph.from_batch(batch, 0)
    graph.vertices = list(vertices)
    graph.edges = list(edges)
    graph._check_initial()
    graph.reclassify()
    return graph


def oracle_build_routing_graph(
    net: Net,
    placement: Placement,
    slots: Mapping[int, AssignedSlot],
    technology: Technology = Technology(),
) -> RoutingGraph:
    """The per-net builder: objects in creation order, then
    :func:`oracle_graph`."""
    if len(net.pins) < 2:
        raise RoutingGraphError(f"net {net.name} has fewer than 2 pins")

    span_lo, span_hi = _channel_span(net, placement)
    vertices: List[RouteVertex] = []
    edges: List[RouteEdge] = []
    position_index: Dict[Tuple[int, int], int] = {}
    by_channel: Dict[int, List[int]] = {}

    def position_vertex(channel: int, x: int) -> int:
        key = (channel, x)
        if key in position_index:
            return position_index[key]
        index = len(vertices)
        vertices.append(RouteVertex(index, VertexKind.POSITION, channel, x))
        position_index[key] = index
        by_channel.setdefault(channel, []).append(index)
        return index

    def add_edge(kind, u, v, channel, interval, length_um) -> None:
        edges.append(
            RouteEdge(len(edges), kind, u, v, channel, interval, length_um)
        )

    terminal_vertices: List[int] = []
    driver_vertex: Optional[int] = None
    source = net.source
    for pin in net.pins:
        column, _ = placement.pin_position(pin)
        access = [
            c
            for c in placement.pin_adjacent_channels(pin)
            if span_lo <= c <= span_hi
        ]
        if not access:
            raise RoutingGraphError(
                f"net {net.name}: pin {pin.full_name} outside channel span"
            )
        anchor = min(access)
        term_index = len(vertices)
        vertices.append(
            RouteVertex(term_index, VertexKind.TERMINAL, anchor, column, pin)
        )
        terminal_vertices.append(term_index)
        if pin is source:
            driver_vertex = term_index
        for channel in access:
            pos = position_vertex(channel, column)
            add_edge(
                EdgeKind.CORRESPONDENCE,
                term_index,
                pos,
                channel,
                Interval(column, column),
                0.0,
            )

    if driver_vertex is None:
        raise RoutingGraphError(f"net {net.name}: driver pin not found")

    for row, slot in sorted(slots.items()):
        if slot.net.name != net.name:
            raise RoutingGraphError(
                f"net {net.name}: slot for {slot.net.name} passed in"
            )
        below = position_vertex(row, slot.x)
        above = position_vertex(row + 1, slot.x)
        add_edge(
            EdgeKind.BRANCH,
            below,
            above,
            row,
            Interval(slot.x, slot.x),
            technology.row_height_um,
        )

    for channel, members in sorted(by_channel.items()):
        ordered = sorted(members, key=lambda i: vertices[i].x)
        for left, right in zip(ordered, ordered[1:]):
            x_lo, x_hi = vertices[left].x, vertices[right].x
            if x_lo == x_hi:
                continue
            add_edge(
                EdgeKind.TRUNK,
                left,
                right,
                channel,
                Interval(x_lo, x_hi),
                technology.columns_to_um(x_hi - x_lo),
            )

    return oracle_graph(
        net, vertices, edges, terminal_vertices, driver_vertex
    )


def _channel_span(net: Net, placement: Placement) -> Tuple[int, int]:
    lows: List[int] = []
    highs: List[int] = []
    for pin in net.pins:
        access = placement.pin_adjacent_channels(pin)
        lows.append(min(access))
        highs.append(max(access))
    return min(lows), max(highs)


def decomposition(graph: RoutingGraph):
    """The 2ECC decomposition up to relabelling: the partition of alive
    vertices (as frozensets), and per part its anchor, entry bridge and
    the hang counts, plus degrees."""
    parts: Dict[int, set] = {}
    for v, c in enumerate(graph._comp):
        if graph.vertex_alive[v]:
            parts.setdefault(c, set()).add(v)
    labelled = {
        frozenset(members): (
            graph._comp_anchor[c],
            graph._comp_entry[c],
            graph._comp_size[c],
        )
        for c, members in parts.items()
    }
    hang = {v: t for v, t in graph._hang_tcount.items() if t}
    degree = [
        d if graph.vertex_alive[v] else 0
        for v, d in enumerate(graph._degree)
    ]
    return labelled, hang, degree


def lockstep_mismatches(nets, placement, slots_of, technology):
    """Names of the nets whose design-wide batch graph differs from
    their per-net oracle build (see :func:`graph_state`)."""
    from repro.routegraph.build import build_graph_batch

    batch = build_graph_batch(nets, placement, slots_of, technology)
    return [
        net.name
        for net, graph in zip(nets, batch.graphs())
        if graph_state(graph)
        != graph_state(
            oracle_build_routing_graph(
                net, placement, slots_of(net), technology
            )
        )
    ]


def graph_state(graph: RoutingGraph):
    """Everything the lockstep tests compare, as plain data."""
    return (
        graph.vertices,
        graph.edges,
        graph.terminal_vertices,
        graph.driver_vertex,
        graph.alive,
        graph.essential,
        graph.vertex_alive,
        graph._stranded,
        decomposition(graph),
        graph.csr_lists(),
        graph.edge_u,
        graph.edge_v,
        graph.edge_length,
        graph.total_alive_length_um(),
    )
