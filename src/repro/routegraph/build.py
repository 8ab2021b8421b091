"""Construction of ``G_r(n)`` from a placement and feedthrough assignment.

For one net the construction is (Fig. 3):

1. every pin contributes a *terminal vertex*, plus one *position vertex*
   per channel it can be reached from — a cell terminal is reachable from
   the channels below and above its row, an external pin only from its
   boundary channel — joined by zero-weight *correspondence* edges;
2. every assigned feedthrough (one per crossed row, Section 3.1)
   contributes position vertices in the two channels it joins, linked by a
   *branch* edge one row-height long;
3. within each channel, the net's position vertices are sorted by column
   and consecutive pairs are linked by *trunk* edges.

The redundancy (and hence the router's freedom) comes from terminals being
reachable from two channels: closed loops appear wherever two pins share a
pair of channels, and the edge-deletion process picks which channel each
horizontal span actually uses.

:func:`build_graph_batch` builds every net of a design in one pass: a
single Python loop gathers pin columns, access channels and slots, and
numpy lays out all vertex and edge arrays in the per-net order above —
vertices per pin (the terminal, then each new ``(channel, x)``
position), then the feedthrough positions; edges as correspondence
edges, branches by row, trunks by channel and column — before
:meth:`~repro.routegraph.graph.GraphBatch.classify` classifies them all
at once.  :func:`build_routing_graph` is the same builder on a batch of
one net.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Sequence, Tuple

import numpy as np

from ..errors import RoutingGraphError
from ..layout.feedthrough import AssignedSlot
from ..layout.placement import Placement
from ..netlist.circuit import Net, NetPin
from ..tech import Technology
from .graph import (
    EDGE_KIND_CODE,
    EdgeKind,
    GraphBatch,
    RoutingGraph,
    counts_to_offsets,
)

SlotsOf = Callable[[Net], Mapping[int, AssignedSlot]]


def build_routing_graph(
    net: Net,
    placement: Placement,
    slots: Mapping[int, AssignedSlot],
    technology: Technology = Technology(),
) -> RoutingGraph:
    """Build ``G_r(n)`` for ``net`` (a one-net :func:`build_graph_batch`).

    Args:
        net: the net to route (≥ 2 pins).
        placement: resolved cell placement.
        slots: ``row -> AssignedSlot`` granted to this net by the
            feedthrough assignment stage.
        technology: geometry used for edge lengths.
    """
    return build_graph_batch(
        [net], placement, lambda _: slots, technology
    ).graph(0)


def slot_key(
    net: Net, slots: Mapping[int, AssignedSlot]
) -> Tuple[Tuple[int, int], ...]:
    """``((row, x), ...)`` of a net's slots in row order — everything a
    net's graph depends on besides the (fixed) placement."""
    key = []
    for row, slot in sorted(slots.items()):
        if slot.net.name != net.name:
            raise RoutingGraphError(
                f"net {net.name}: slot for {slot.net.name} passed in"
            )
        key.append((row, slot.x))
    return tuple(key)


def build_graph_batch(
    nets: Sequence[Net],
    placement: Placement,
    slots_of: SlotsOf,
    technology: Technology = Technology(),
) -> GraphBatch:
    """Build and classify ``G_r(n)`` of every net in ``nets`` at once.

    ``slots_of(net)`` returns the net's ``row -> AssignedSlot`` map.
    Net ``i``'s graph is ``batch.graph(i)``; its vertex and edge ids,
    lengths and classification are those of the per-net construction,
    and ``batch.branch_slots(i)`` is the :func:`slot_key` it was built
    from.
    """
    (
        pin_x, access, access_count, pins, terminal_count,
        driver_terminal, slots, slot_count,
    ) = _gather(nets, placement, slots_of)

    # --- position requests in creation order ---------------------------
    # Per net: each pin's terminal, then its access channels; then each
    # slot's channel below and above.  The first request of a
    # (net, channel, x) key creates its position vertex.
    n_nets = len(nets)
    ids = np.int32
    nets_idx = np.arange(n_nets, dtype=ids)
    pin_net = np.repeat(nets_idx, terminal_count)
    per_pin = np.asarray(access_count, dtype=ids)
    acc_off = counts_to_offsets(per_pin)
    pin_events = per_pin + 1
    pin_event_off = counts_to_offsets(pin_events)
    net_pin_events = np.bincount(
        pin_net, weights=pin_events, minlength=n_nets
    ).astype(np.int64)
    n_slots = np.asarray(slot_count, dtype=np.int64)
    net_base = counts_to_offsets(net_pin_events + 2 * n_slots)
    first_pin = counts_to_offsets(np.asarray(terminal_count, dtype=ids))
    # Event index of each pin's terminal, and of each access request.
    terminal_ev = (
        net_base[pin_net]
        + pin_event_off[:-1]
        - pin_event_off[first_pin[pin_net]]
    )
    acc_owner = np.repeat(np.arange(len(pins), dtype=ids), per_pin)
    acc_ev = (
        terminal_ev[acc_owner]
        + 1
        + np.arange(len(access), dtype=ids)
        - acc_off[acc_owner]
    )
    slot_net = np.repeat(nets_idx, slot_count)
    slot_rc = np.asarray(slots, dtype=ids).reshape(-1, 2)
    slot_row, slot_x = slot_rc[:, 0], slot_rc[:, 1]
    slot_first = counts_to_offsets(n_slots)
    below = (
        net_base[slot_net]
        + net_pin_events[slot_net]
        + 2 * (np.arange(len(slots)) - slot_first[slot_net])
    )
    n_events = int(net_base[-1])
    e_net = np.empty(n_events, dtype=ids)
    e_channel = np.empty(n_events, dtype=ids)
    e_x = np.empty(n_events, dtype=ids)
    is_terminal = np.zeros(n_events, dtype=bool)
    access_arr = np.asarray(access, dtype=ids)
    pin_x_arr = np.asarray(pin_x, dtype=ids)
    e_net[terminal_ev] = pin_net
    e_channel[terminal_ev] = (
        np.minimum.reduceat(access_arr, acc_off[:-1]) if len(pins) else 0
    )
    e_x[terminal_ev] = pin_x_arr
    is_terminal[terminal_ev] = True
    e_net[acc_ev] = pin_net[acc_owner]
    e_channel[acc_ev] = access_arr
    e_x[acc_ev] = pin_x_arr[acc_owner]
    for offset, channel in ((0, slot_row), (1, slot_row + 1)):
        e_net[below + offset] = slot_net
        e_channel[below + offset] = channel
        e_x[below + offset] = slot_x

    # --- vertices --------------------------------------------------------
    requests = np.flatnonzero(~is_terminal)
    x0 = int(e_x.min()) if e_x.size else 0
    c0 = int(e_channel.min()) if e_channel.size else 0
    width = int(e_x.max()) - x0 + 1 if e_x.size else 1
    depth = int(e_channel.max()) - c0 + 1 if e_channel.size else 1
    keys = (
        e_net[requests].astype(np.int64) * depth + (e_channel[requests] - c0)
    ) * width + (e_x[requests] - x0)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    creates = is_terminal.copy()
    creates[requests[first]] = True
    vertex_of = np.cumsum(creates) - 1
    vertex_of[requests] = vertex_of[requests[first][inverse.ravel()]]
    made = np.flatnonzero(creates)
    v_net = e_net[made]
    v_channel = e_channel[made]
    v_x = e_x[made]
    v_terminal = is_terminal[made]
    v_off = counts_to_offsets(np.bincount(v_net, minlength=n_nets))

    terminal_events = np.flatnonzero(is_terminal)
    terminals = vertex_of[terminal_events] - v_off[e_net[terminal_events]]
    t_off = first_pin
    drivers = terminals[np.asarray(driver_terminal, dtype=np.int32)]

    # --- edges: correspondence, branch, trunk ----------------------------
    corr_t = terminal_ev[acc_owner]
    corr_p = acc_ev
    positions = np.flatnonzero(~v_terminal)
    order = np.lexsort(
        (v_x[positions], v_channel[positions], v_net[positions])
    )
    sorted_pos = positions[order]
    left, right = sorted_pos[:-1], sorted_pos[1:]
    run = (v_net[left] == v_net[right]) & (
        v_channel[left] == v_channel[right]
    )
    left, right = left[run], right[run]

    u = np.concatenate((vertex_of[corr_t], vertex_of[below], left))
    v = np.concatenate((vertex_of[corr_p], vertex_of[below + 1], right))
    net_of = np.concatenate(
        (e_net[corr_t], slot_net, v_net[left])
    )
    kind = np.concatenate(
        (
            np.full(len(corr_t), EDGE_KIND_CODE[EdgeKind.CORRESPONDENCE]),
            np.full(len(below), EDGE_KIND_CODE[EdgeKind.BRANCH]),
            np.full(len(left), EDGE_KIND_CODE[EdgeKind.TRUNK]),
        )
    ).astype(np.int8)
    channel = np.concatenate(
        (
            e_channel[corr_p],
            slot_row,
            v_channel[left],
        )
    )
    lo = np.concatenate((e_x[corr_p], e_x[below], v_x[left]))
    hi = np.concatenate((e_x[corr_p], e_x[below], v_x[right]))
    length = np.concatenate(
        (
            np.zeros(len(corr_t), dtype=np.float64),
            np.full(len(below), technology.row_height_um, dtype=np.float64),
            np.asarray(
                technology.columns_to_um(v_x[right] - v_x[left]),
                dtype=np.float64,
            ),
        )
    )
    # Per net: correspondence edges, then branches, then trunks — each
    # block is already in net order, so a stable sort by net suffices.
    order = np.argsort(net_of, kind="stable")
    net_of = net_of[order]
    e_off = counts_to_offsets(np.bincount(net_of, minlength=n_nets))
    return GraphBatch(
        nets,
        v_off,
        e_off,
        t_off,
        v_channel,
        v_x,
        kind[order],
        u[order] - v_off[net_of],
        v[order] - v_off[net_of],
        channel[order],
        lo[order],
        hi[order],
        length[order],
        terminals,
        pins,
        drivers,
    ).classify()


def _gather(nets: Sequence[Net], placement: Placement, slots_of: SlotsOf):
    """One pass over every net's pins and slots: pin columns, access
    channels (flattened, with per-pin counts), pins, per-net terminal
    counts and driver pin index, and ``(row, x)`` slots with per-net
    counts."""
    pin_x: List[int] = []
    access: List[int] = []  # every pin's access channels, flattened
    access_count: List[int] = []
    pins: List[NetPin] = []
    terminal_count: List[int] = []
    driver_terminal: List[int] = []
    slots: List[Tuple[int, int]] = []  # (row, x), per net in row order
    slot_count: List[int] = []
    for net in nets:
        if len(net.pins) < 2:
            raise RoutingGraphError(f"net {net.name} has fewer than 2 pins")
        source = net.source
        driver = -1
        # Every pin's access channels lie inside the net's channel span
        # (the hull of those same channels), so none is filtered out.
        for pin in net.pins:
            if pin is source:
                driver = len(pins)
            channels = placement.pin_adjacent_channels(pin)
            pin_x.append(placement.pin_position(pin)[0])
            access.extend(channels)
            access_count.append(len(channels))
            pins.append(pin)
        if driver < 0:
            raise RoutingGraphError(f"net {net.name}: driver pin not found")
        driver_terminal.append(driver)
        terminal_count.append(len(net.pins))
        key = slot_key(net, slots_of(net))
        slots.extend(key)
        slot_count.append(len(key))
    return (
        pin_x, access, access_count, pins, terminal_count,
        driver_terminal, slots, slot_count,
    )
