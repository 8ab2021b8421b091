"""The routing graph ``G_r(n) = (V_r, E_r)`` of one net (Fig. 3).

Vertices are either *terminal* vertices (one per circuit terminal or
external pin of the net) or *position* vertices (physical points: terminal
access points in a channel, feedthrough endpoints, external terminal
positions).  Edges are

* **correspondence** edges (zero weight) tying a terminal vertex to each of
  its physical positions,
* **trunk** edges — horizontal runs in a channel (these are what the
  channel-density profiles count), and
* **branch** edges — vertical row crossings through a feedthrough.

The edge-deletion router repeatedly removes edges while the graph still
connects every terminal.  Following the paper's terminology, an edge whose
removal would disconnect some terminals is a **bridge**; only *non-bridge*
edges may be deleted.  We classify with respect to terminal connectivity:

* ``essential`` (paper's bridge) — removal separates two terminals; such
  edges are guaranteed to appear in the final wiring and feed the lower
  density profile ``d_m``;
* ``deletable`` — removal keeps all terminals connected.  Removing one may
  strand a terminal-free fragment, which is pruned immediately (a stranded
  fragment can never serve the net again, so it must stop occupying the
  density profile).

The fixed point of deletion — every alive edge essential — is a tree
spanning all terminal vertices whose leaves are terminals: exactly the
paper's required interconnection wiring.

Construction is **design-wide**: :class:`GraphBatch` holds every net's
vertex and edge arrays back to back and classifies them all in one numpy
pass (driver reach, pendant strip, a driver-rooted breadth-first spanning
forest, cycle marks from the non-tree edges, subtree terminal counts).
A :class:`RoutingGraph` is then a view of one net's slice; its
:class:`RouteVertex`/:class:`RouteEdge` objects are only materialized
when something asks for them.  Hand-built graphs go through the same
classifier as a batch of one.

Classification is maintained **incrementally**: alongside the alive sets
the graph keeps its 2-edge-connected-component decomposition (the bridge
forest rooted at the driver), so :meth:`RoutingGraph.delete` only
re-searches bridges inside the one component the deleted edge belonged
to, and prunes by walking a frontier out from the deletion site instead
of rescanning every vertex.  Deletion can only *create* bridges (it
never merges components), so flags outside the affected component are
untouched.  The classic full pass — prune everything unreachable, strip
pendant subtrees, fresh driver-rooted Tarjan — remains the reference
path: :meth:`reclassify` runs it wholesale (that is also the contract
for callers that flip ``alive`` flags directly, like the negotiated
engine's finalizer — mutate, then ``reclassify()``), and ``delete``
falls back to it whenever the local bookkeeping cannot vouch for the
affected region.  All three — batch, incremental and full — produce
bit-identical alive/essential state, pruned sets, and lengths;
``incremental_reclassify = False`` pins a graph (or the class) to the
reference path for A/B measurement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..errors import RoutingGraphError
from ..geometry import Interval
from ..netlist.circuit import Net, NetPin
from ..obs.metrics import NULL_COUNTER, null_timer


class VertexKind(enum.Enum):
    TERMINAL = "terminal"
    POSITION = "position"


class EdgeKind(enum.Enum):
    CORRESPONDENCE = "correspondence"
    TRUNK = "trunk"
    BRANCH = "branch"


@dataclass(frozen=True)
class RouteVertex:
    """A vertex of ``G_r(n)``.

    Terminal vertices carry the netlist ``pin``; position vertices carry
    their physical ``(channel, x)`` point.  For uniform geometry queries a
    terminal vertex also records the channel/column of its pin's location.
    """

    index: int
    kind: VertexKind
    channel: int
    x: int
    pin: Optional[NetPin] = None

    @property
    def is_terminal(self) -> bool:
        return self.kind is VertexKind.TERMINAL


@dataclass(frozen=True)
class RouteEdge:
    """An edge of ``G_r(n)``.

    ``channel`` and ``interval`` define where the edge shows up in the
    channel-density profiles; for branch and correspondence edges the
    interval is the single column they occupy (density conditions only
    ever prefer trunks, but ties among non-trunks still need *some*
    geometry to compare).
    """

    index: int
    kind: EdgeKind
    u: int
    v: int
    channel: int
    interval: Interval
    length_um: float

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise RoutingGraphError(
            f"vertex {vertex} is not an endpoint of edge {self.index}"
        )

    @property
    def is_trunk(self) -> bool:
        return self.kind is EdgeKind.TRUNK


@dataclass
class DeletionResult:
    """Outcome of one edge deletion.

    ``removed`` lists every edge that left the graph (the deleted edge
    plus any pruned stranded fragment); ``newly_essential`` lists edges
    that were deletable before and are now guaranteed wiring.  The router
    uses both to update the density profiles incrementally.  ``removed``
    always starts with the deleted edge; the order of the pruned tail is
    an implementation detail (density updates commute and the tree
    engine treats it as a set), so equivalence checks compare it as one.
    """

    deleted: int
    removed: List[int] = field(default_factory=list)
    newly_essential: List[int] = field(default_factory=list)


#: Edge kinds by their code in :class:`GraphBatch` arrays.
EDGE_KINDS: Tuple[EdgeKind, ...] = (
    EdgeKind.CORRESPONDENCE,
    EdgeKind.TRUNK,
    EdgeKind.BRANCH,
)
EDGE_KIND_CODE: Dict[EdgeKind, int] = {
    kind: code for code, kind in enumerate(EDGE_KINDS)
}
TRUNK_CODE = EDGE_KIND_CODE[EdgeKind.TRUNK]


def counts_to_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0+c1, ...]``: CSR-style offsets of per-item counts."""
    out = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=out[1:])
    return out


def _first_of_each(values: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct value, in
    ascending value order — ``np.unique(values, return_index=True)[1]``
    without its per-call overhead (classification calls it per level)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return order[keep]


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``."""
    return values[_first_of_each(values)]


def _expand(
    indptr: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR positions of every neighbour slot of ``vertices``, in order,
    and the index into ``vertices`` each slot belongs to."""
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    owner = np.repeat(np.arange(len(vertices), dtype=np.int32), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return starts[owner] + np.arange(len(owner), dtype=np.int32) - first, owner


class GraphBatch:
    """Many nets' routing graphs as one set of flat arrays.

    Net ``i`` owns vertices ``v_off[i]:v_off[i+1]``, edges
    ``e_off[i]:e_off[i+1]`` and terminals ``t_off[i]:t_off[i+1]``;
    endpoint ids (``e_u``, ``e_v``), ``terminals`` and ``drivers`` are
    *local* to their net, exactly the ids its :class:`RoutingGraph`
    uses.  Edge kinds are codes into :data:`EDGE_KINDS`; ``pins`` is
    parallel to ``terminals``.

    :meth:`classify` fills the initial classification of every net at
    once — the state a fresh graph's full :meth:`RoutingGraph.reclassify`
    would reach — and :meth:`graph` hands out a graph for one slice.
    The arrays are never mutated afterwards, so :meth:`graph` can be
    called again later for a pristine copy.
    """

    def __init__(
        self,
        nets: Sequence[Net],
        v_off: np.ndarray,
        e_off: np.ndarray,
        t_off: np.ndarray,
        v_channel: np.ndarray,
        v_x: np.ndarray,
        e_kind: np.ndarray,
        e_u: np.ndarray,
        e_v: np.ndarray,
        e_channel: np.ndarray,
        e_lo: np.ndarray,
        e_hi: np.ndarray,
        e_len: np.ndarray,
        terminals: np.ndarray,
        pins: Sequence[Optional[NetPin]],
        drivers: np.ndarray,
    ):
        ids = np.int32
        self.nets = list(nets)
        self.v_off = np.asarray(v_off, dtype=ids)
        self.e_off = np.asarray(e_off, dtype=ids)
        self.t_off = np.asarray(t_off, dtype=ids)
        self.v_channel = np.asarray(v_channel, dtype=ids)
        self.v_x = np.asarray(v_x, dtype=ids)
        self.e_kind = np.asarray(e_kind, dtype=np.int8)
        self.e_u = np.asarray(e_u, dtype=ids)
        self.e_v = np.asarray(e_v, dtype=ids)
        self.e_channel = np.asarray(e_channel, dtype=ids)
        self.e_lo = np.asarray(e_lo, dtype=ids)
        self.e_hi = np.asarray(e_hi, dtype=ids)
        self.e_len = np.asarray(e_len, dtype=np.float64)
        self.terminals = np.asarray(terminals, dtype=ids)
        self.pins = list(pins)
        self.drivers = np.asarray(drivers, dtype=ids)
        self._v_off = self.v_off.tolist()
        self._e_off = self.e_off.tolist()
        self._t_off = self.t_off.tolist()
        self._drivers = self.drivers.tolist()
        n_v, n_e = self._v_off[-1], self._e_off[-1]
        # Unclassified state (what a graph looks like before its first
        # reclassify): everything alive, nothing essential, no
        # decomposition.  classify() replaces it.
        self.alive = np.ones(n_e, dtype=bool)
        self.essential = np.zeros(n_e, dtype=bool)
        self.vertex_alive = np.ones(n_v, dtype=bool)
        self.degree = np.zeros(n_v, dtype=np.int32)
        self.anchor = np.full(n_v, -1, dtype=np.int32)
        self.entry = np.full(n_v, -1, dtype=np.int32)
        self.hang = np.zeros(n_v, dtype=np.int32)
        self.stranded: List[bool] = [False] * len(self.nets)
        self._csr: Optional[Tuple[np.ndarray, ...]] = None

    @classmethod
    def from_objects(
        cls,
        net: Net,
        vertices: Sequence[RouteVertex],
        edges: Sequence[RouteEdge],
        terminal_vertices: Sequence[int],
        driver_vertex: int,
    ) -> "GraphBatch":
        """A batch of one from hand-built vertex and edge objects."""
        n_v, n_e = len(vertices), len(edges)
        return cls(
            [net],
            np.array([0, n_v], dtype=np.int32),
            np.array([0, n_e], dtype=np.int32),
            np.array([0, len(terminal_vertices)], dtype=np.int32),
            np.array([v.channel for v in vertices], dtype=np.int32),
            np.array([v.x for v in vertices], dtype=np.int32),
            np.array(
                [EDGE_KIND_CODE[e.kind] for e in edges], dtype=np.int8
            ),
            np.array([e.u for e in edges], dtype=np.int32),
            np.array([e.v for e in edges], dtype=np.int32),
            np.array([e.channel for e in edges], dtype=np.int32),
            np.array([e.interval.lo for e in edges], dtype=np.int32),
            np.array([e.interval.hi for e in edges], dtype=np.int32),
            np.array([e.length_um for e in edges], dtype=np.float64),
            np.array(terminal_vertices, dtype=np.int32),
            [vertices[t].pin for t in terminal_vertices],
            np.array([driver_vertex], dtype=np.int32),
        )

    def branch_slots(self, index: int) -> Tuple[Tuple[int, int], ...]:
        """``((row, x), ...)`` of net ``index``'s branch edges in edge
        order — for a built net, the feedthrough slots it was built
        from, in row order."""
        es, ee = self._e_off[index], self._e_off[index + 1]
        branch = self.e_kind[es:ee] == EDGE_KIND_CODE[EdgeKind.BRANCH]
        return tuple(
            zip(
                self.e_channel[es:ee][branch].tolist(),
                self.e_lo[es:ee][branch].tolist(),
            )
        )

    def graph(self, index: int) -> "RoutingGraph":
        """A fresh, classified graph of net ``index``."""
        return RoutingGraph.from_batch(self, index)

    # ------------------------------------------------------------------
    def _owners(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Net index of every vertex, edge and terminal."""
        nets = np.arange(len(self.nets), dtype=np.int32)
        return (
            np.repeat(nets, np.diff(self.v_off)),
            np.repeat(nets, np.diff(self.e_off)),
            np.repeat(nets, np.diff(self.t_off)),
        )

    def _alive_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Global CSR of the alive edges: ``(indptr, local other
        endpoint, local edge id)``, each vertex's slots in ascending
        edge id (the order of ``RoutingGraph.csr_lists``)."""
        v_net, e_net, _ = self._owners()
        gu = self.e_u + self.v_off[e_net]
        gv = self.e_v + self.v_off[e_net]
        edges = np.flatnonzero(self.alive)
        ends = np.concatenate((gu[edges], gv[edges]))
        other = np.concatenate((self.e_v[edges], self.e_u[edges]))
        eid = np.concatenate((edges, edges))
        order = np.lexsort((eid, ends))
        ends, other, eid = ends[order], other[order], eid[order]
        indptr = counts_to_offsets(np.bincount(ends, minlength=len(v_net)))
        return indptr, other, eid - self.e_off[e_net[eid]]

    def classify(self) -> "GraphBatch":
        """Classify every net at once; returns ``self``.

        Per net this reaches the same state as a fresh graph's full
        reclassify — prune what the driver cannot reach, strip pendant
        non-terminal vertices, find the terminal-separating bridges and
        the 2-edge-connected decomposition — but over all nets' arrays
        together:

        1. a breadth-first spanning forest rooted at the drivers (its
           reach is the drivers' reach);
        2. iterated pendant strip (confluent, so the pruned set is the
           scalar one);
        3. the forest restricted to the survivors;
        4. every non-tree edge walks its endpoints up to their lowest
           common ancestor, marking the tree edges it passes as lying
           on a cycle;
        5. subtree terminal counts, deepest level first;
        6. a bridge is a tree edge on no cycle; it is essential when
           its child's subtree holds a terminal — in any driver-rooted
           spanning tree the far side of a bridge is exactly the
           child's subtree, so this equals the Tarjan flags;
        7. component anchors, entry bridges and hang counts follow from
           the same parent arrays.

        Raises :class:`RoutingGraphError` for the first net (in batch
        order) with a terminal the driver cannot reach.
        """
        n_v = int(self.v_off[-1])
        n_e = int(self.e_off[-1])
        v_net, e_net, t_net = self._owners()
        gu = self.e_u + self.v_off[e_net]
        gv = self.e_v + self.v_off[e_net]
        ends = np.concatenate((gu, gv))
        other = np.concatenate((gv, gu))
        eid = np.tile(np.arange(n_e, dtype=np.int32), 2)
        order = np.argsort(ends, kind="stable")
        ends, other, eid = ends[order], other[order], eid[order]
        indptr = counts_to_offsets(np.bincount(ends, minlength=n_v))
        drivers = self.drivers + self.v_off[:-1]
        g_terminals = self.terminals + self.v_off[t_net]
        is_terminal = np.zeros(n_v, dtype=bool)
        is_terminal[g_terminals] = True

        # 1. breadth-first spanning forest rooted at the drivers; what it
        #    reaches is what the driver can reach.
        depth = np.full(n_v, -1, dtype=np.int32)
        parent = np.full(n_v, -1, dtype=np.int32)
        parent_edge = np.full(n_v, -1, dtype=np.int32)
        depth[drivers] = 0
        levels = []
        frontier = drivers
        level = 0
        while True:
            pos, owner = _expand(indptr, frontier)
            e, nb = eid[pos], other[pos]
            keep = depth[nb] < 0
            nb = nb[keep]
            first = _first_of_each(nb)
            nb = nb[first]
            if not nb.size:
                break
            level += 1
            depth[nb] = level
            parent[nb] = frontier[owner[keep][first]]
            parent_edge[nb] = e[keep][first]
            levels.append(nb)
            frontier = nb
        vertex_alive = depth >= 0
        missing = ~vertex_alive[g_terminals]
        if missing.any():
            k = int(np.argmax(missing))
            raise RoutingGraphError(
                f"net {self.nets[t_net[k]].name}: terminal vertex "
                f"{int(self.terminals[k])} disconnected"
            )
        alive = vertex_alive[gu].copy()

        # 2. iterated pendant strip.
        degree = np.bincount(gu[alive], minlength=n_v) + np.bincount(
            gv[alive], minlength=n_v
        )
        leaves = np.flatnonzero(vertex_alive & ~is_terminal & (degree <= 1))
        while leaves.size:
            vertex_alive[leaves] = False
            dead = _distinct(eid[_expand(indptr, leaves)[0]])
            dead = dead[alive[dead]]
            alive[dead] = False
            np.subtract.at(degree, gu[dead], 1)
            np.subtract.at(degree, gv[dead], 1)
            touched = _distinct(np.concatenate((gu[dead], gv[dead])))
            leaves = touched[
                vertex_alive[touched]
                & ~is_terminal[touched]
                & (degree[touched] <= 1)
            ]

        # 3. the forest restricted to the survivors spans the pruned
        #    graph.  No survivor's parent was stripped: the parent keeps
        #    its edge to the survivor, so stripping it needs its own
        #    parent stripped first, and so on up to a driver, which is a
        #    terminal and never stripped.
        levels = [nodes[vertex_alive[nodes]] for nodes in levels]

        # 4. cycle marks from the non-tree edges.
        tree_edge = np.zeros(n_e, dtype=bool)
        tree_edge[parent_edge[parent_edge >= 0]] = True
        on_cycle = np.zeros(n_e, dtype=bool)
        walk = np.flatnonzero(alive & ~tree_edge)
        a, b = gu[walk], gv[walk]
        keep = (a != b) & (depth[a] >= 0) & (depth[b] >= 0)
        a, b = a[keep], b[keep]
        while a.size:
            da, db = depth[a], depth[b]
            up_a, up_b = da >= db, db >= da
            on_cycle[parent_edge[a[up_a]]] = True
            on_cycle[parent_edge[b[up_b]]] = True
            a = np.where(up_a, parent[a], a)
            b = np.where(up_b, parent[b], b)
            keep = a != b
            a, b = a[keep], b[keep]

        # 5. subtree terminal counts.
        tcount = is_terminal.astype(np.int32)
        for nodes in reversed(levels):
            np.add.at(tcount, parent[nodes], tcount[nodes])

        # 6. bridges and essential flags.
        children = np.flatnonzero(vertex_alive & (parent_edge >= 0))
        bridge_child = children[~on_cycle[parent_edge[children]]]
        heavy = bridge_child[tcount[bridge_child] > 0]
        essential = np.zeros(n_e, dtype=bool)
        essential[parent_edge[heavy]] = True
        hang = np.zeros(n_v, dtype=np.int32)
        np.add.at(hang, parent[heavy], tcount[heavy])

        # 7. 2ECC anchors (nearest-driver vertex) and entry bridges.
        is_anchor = np.zeros(n_v, dtype=bool)
        is_anchor[bridge_child] = True
        anchor = np.full(n_v, -1, dtype=np.int32)
        anchor[drivers] = drivers
        for nodes in levels:
            anchor[nodes] = np.where(
                is_anchor[nodes], nodes, anchor[parent[nodes]]
            )
        entry = np.full(n_v, -1, dtype=np.int32)
        entry[bridge_child] = (
            parent_edge[bridge_child] - self.e_off[v_net[bridge_child]]
        )
        labelled = anchor >= 0
        anchor[labelled] -= self.v_off[v_net[labelled]]

        self.alive = alive
        self.essential = essential
        self.vertex_alive = vertex_alive
        self.degree = np.bincount(gu[alive], minlength=n_v) + np.bincount(
            gv[alive], minlength=n_v
        )
        self.anchor = anchor
        self.entry = entry
        self.hang = hang
        stranded = np.zeros(len(self.nets), dtype=bool)
        stranded[v_net[vertex_alive & ~labelled]] = True
        self.stranded = stranded.tolist()
        self._csr = None
        return self

    def graphs(self) -> List["RoutingGraph"]:
        """A fresh, classified graph of every net, in batch order.

        Converts the arrays to Python lists once for the whole batch;
        each graph then takes plain list slices, which costs far less
        than a ``tolist()`` per array per graph.
        """
        mirror = self._mirror(0, len(self.nets))
        return [
            RoutingGraph.from_batch(self, index, mirror)
            for index in range(len(self.nets))
        ]

    def _mirror(self, first: int, last: int) -> Dict[str, object]:
        """Python-list copies of nets ``first..last-1``'s per-graph
        arrays; offsets ``n0``/``v0``/``e0``/``c0`` locate the range.
        ``csr_indptr[v]`` is relative to the first CSR slot of ``v``'s
        net; ``cyclic[i]`` counts the alive non-essential edges of net
        ``n0 + i`` (zero for a tree)."""
        vs, ve = self._v_off[first], self._v_off[last]
        es, ee = self._e_off[first], self._e_off[last]
        if self._csr is None:
            self._csr = self._alive_csr()
        indptr, other, eid = self._csr
        cs, ce = int(indptr[vs]), int(indptr[ve])
        sizes = np.diff(self.v_off[first : last + 1])
        net_start = np.repeat(indptr[self.v_off[first:last]], sizes)
        loose = self.alive[es:ee] & ~self.essential[es:ee]
        e_net = np.repeat(
            np.arange(last - first), np.diff(self.e_off[first : last + 1])
        )
        return {
            "n0": first,
            "cyclic": np.bincount(
                e_net[loose], minlength=last - first
            ).tolist(),
            "v0": vs,
            "e0": es,
            "c0": cs,
            "alive": self.alive[es:ee].tolist(),
            "essential": self.essential[es:ee].tolist(),
            "vertex_alive": self.vertex_alive[vs:ve].tolist(),
            "e_u": self.e_u[es:ee].tolist(),
            "e_v": self.e_v[es:ee].tolist(),
            "e_len": self.e_len[es:ee].tolist(),
            "csr_indptr": (indptr[vs:ve] - net_start).tolist(),
            "csr_start": (indptr[vs : ve + 1] - cs).tolist(),
            "csr_other": other[cs:ce].tolist(),
            "csr_edge": eid[cs:ce].tolist(),
        }

    def alive_trunks(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(net index, channel, lo, hi, essential)`` of every alive
        trunk edge, in net order then edge order — the edges a fresh
        graph registers in the density profiles."""
        _, e_net, _ = self._owners()
        mask = self.alive & (self.e_kind == TRUNK_CODE)
        return (
            e_net[mask],
            self.e_channel[mask],
            self.e_lo[mask],
            self.e_hi[mask],
            self.essential[mask],
        )


#: Attributes :meth:`RoutingGraph.__getattr__` builds on first use.
_LAZY_ATTRS: Dict[str, str] = {
    "vertices": "_load_vertices",
    "edges": "_load_edges",
    "_adjacency": "_load_adjacency",
    **{
        name: "_load_decomposition"
        for name in (
            "_degree",
            "_comp",
            "_comp_size",
            "_comp_anchor",
            "_comp_entry",
            "_hang_tcount",
        )
    },
}


class RoutingGraph:
    """Mutable routing graph of one net with live classification."""

    #: Class-wide switch for the incremental delete path.  ``False``
    #: pins every deletion to the reference full reclassify (prune +
    #: fresh Tarjan) — the pre-optimization behaviour — for A/B
    #: benchmarks and property tests.  Deliberately *not* a
    #: :class:`~repro.core.config.RouterConfig` knob: both paths are
    #: bit-identical, so the choice must never enter batch cache keys.
    incremental_reclassify: bool = True

    def __init__(
        self,
        net: Net,
        vertices: Sequence[RouteVertex],
        edges: Sequence[RouteEdge],
        terminal_vertices: Sequence[int],
        driver_vertex: int,
    ):
        """A hand-built graph, classified as a :class:`GraphBatch` of
        one — the same classifier the design-wide build uses."""
        self.net = net
        self.vertices: List[RouteVertex] = list(vertices)
        self.edges: List[RouteEdge] = list(edges)
        self.terminal_vertices: List[int] = list(terminal_vertices)
        self.driver_vertex = driver_vertex
        self._check_initial()
        batch = GraphBatch.from_objects(
            net, self.vertices, self.edges, self.terminal_vertices,
            driver_vertex,
        ).classify()
        self._load(batch, 0)

    @classmethod
    def from_batch(
        cls,
        batch: GraphBatch,
        index: int,
        mirror: Optional[Dict[str, object]] = None,
    ) -> "RoutingGraph":
        """The graph of net ``index`` of ``batch``, in the batch's
        classification state (see :meth:`GraphBatch.graph`); ``mirror``
        is a :meth:`GraphBatch._mirror` covering the net, if the caller
        has one."""
        graph = cls.__new__(cls)
        graph.net = batch.nets[index]
        ts, te = batch._t_off[index], batch._t_off[index + 1]
        graph.terminal_vertices = batch.terminals[ts:te].tolist()
        graph.driver_vertex = batch._drivers[index]
        graph._load(batch, index, mirror)
        return graph

    def _load(
        self,
        batch: GraphBatch,
        index: int,
        mirror: Optional[Dict[str, object]] = None,
    ) -> None:
        """Per-graph state from net ``index``'s slice of ``batch``.

        Vertex/edge objects are left to :meth:`__getattr__`, which
        builds them from the same slice on first use; so are the
        adjacency lists and the 2ECC decomposition of a graph that is a
        tree on arrival (most of a design).  Graph walks, density
        registration and the result read the list columns below, so
        such a graph never builds any of them.
        """
        self._batch = batch
        self._index = index
        vs, ve = batch._v_off[index], batch._v_off[index + 1]
        es, ee = batch._e_off[index], batch._e_off[index + 1]
        self.n_vertices = ve - vs
        self.n_edges = ee - es
        m = mirror if mirror is not None else batch._mirror(index, index + 1)
        a, b = vs - m["v0"], ve - m["v0"]
        c, d = es - m["e0"], ee - m["e0"]
        self.alive: List[bool] = m["alive"][c:d]
        self.essential: List[bool] = m["essential"][c:d]
        self.vertex_alive: List[bool] = m["vertex_alive"][a:b]
        # Endpoint and length columns: scalar walks that only need
        # ``edge.other(v)`` or ``edge.length_um`` read these instead of
        # materializing edge objects.
        self.edge_u: List[int] = m["e_u"][c:d]
        self.edge_v: List[int] = m["e_v"][c:d]
        self.edge_length: List[float] = m["e_len"][c:d]
        start = m["csr_start"]
        cs, ce = start[a], start[b]
        indptr = m["csr_indptr"][a:b]
        indptr.append(ce - cs)
        nbr_edge = m["csr_edge"][cs:ce]
        lengths = self.edge_length
        self._csr: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._csr_lists: Optional[
            Tuple[List[int], List[int], List[int], List[float]]
        ] = (
            indptr,
            m["csr_other"][cs:ce],
            nbr_edge,
            # The edge's own float objects, not copies.
            [lengths[e] for e in nbr_edge],
        )
        self._alive_length: Optional[float] = None
        # Terminals never change after construction; every prune and
        # bridge search shares this one frozenset.
        self._terminal_set: frozenset = frozenset(self.terminal_vertices)
        # Fixed-order length ledger: the per-edge lengths never change,
        # so the alive sum is a masked fold over this array (see
        # total_alive_length_um).
        self._lengths: np.ndarray = batch.e_len[es:ee]
        # Alive flags as of the last reclassification — lets
        # reclassify() detect both its own pruning and direct external
        # mutation, and skip cache invalidation when nothing changed.
        self._alive_mirror: np.ndarray = batch.alive[es:ee].copy()
        # 2ECC decomposition (loaded lazily from the batch, rebuilt by
        # every full reclassify, patched by the incremental delete path):
        #   _degree[v]        alive degree of vertex v
        #   _comp[v]          component id (-1 for dead vertices)
        #   _comp_size[c]     alive vertices in component c
        #   _comp_anchor[c]   entry vertex of c (nearest the driver)
        #   _comp_entry[c]    the bridge edge toward the driver (-1 for
        #                     the driver's own component)
        #   _hang_tcount[v]   terminals hanging below v through bridges
        #                     whose near endpoint is v
        # The batch labels a component by its anchor vertex; fresh ids
        # start above every vertex id and are never reused, so stale ids
        # on dead vertices can never collide with live ones.
        self._next_comp = self.n_vertices
        # Defensive only: set when the decomposition cannot vouch for
        # the graph (it never fires in practice — pendant pruning
        # preserves connectivity — but if it does, every delete falls
        # back to the reference full pass until a reclassify clears it).
        self._stranded = batch.stranded[index]
        # Observability (router-attached; no-ops by default).
        self._m_local = NULL_COUNTER
        self._m_fallbacks = NULL_COUNTER
        self._m_frontier = NULL_COUNTER
        self._timer: Callable[[], ContextManager[None]] = null_timer
        if m["cyclic"][index - m["n0"]]:
            # Deletions will follow: build what they walk now, as part
            # of the graph, not inside the first delete.
            self._load_adjacency()
            self._load_decomposition()

    # ------------------------------------------------------------------
    # Lazily built views of the batch slice
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        loader = _LAZY_ATTRS.get(name)
        if loader is None or "_batch" not in self.__dict__:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        getattr(self, loader)()
        return self.__dict__[name]

    def _slice(self) -> Tuple[GraphBatch, int, int, int, int]:
        batch, index = self._batch, self._index
        return (
            batch,
            batch._v_off[index],
            batch._v_off[index + 1],
            batch._e_off[index],
            batch._e_off[index + 1],
        )

    def _load_vertices(self) -> None:
        pins = self.pin_map()
        terminal, position = VertexKind.TERMINAL, VertexKind.POSITION
        self.vertices = [
            RouteVertex(
                i,
                terminal if i in pins else position,
                channel,
                x,
                pins.get(i),
            )
            for i, (channel, x) in enumerate(zip(*self.vertex_columns()))
        ]

    def _load_edges(self) -> None:
        self.edges = [
            RouteEdge(i, kind, u, v, channel, Interval(lo, hi), length)
            for i, (kind, u, v, channel, lo, hi, length) in enumerate(
                zip(*self.edge_columns())
            )
        ]

    def edge(self, edge_id: int) -> RouteEdge:
        """``edges[edge_id]``, without building the other edge objects
        when they do not exist yet."""
        edges = self.__dict__.get("edges")
        if edges is not None:
            return edges[edge_id]
        batch, _, _, es, _ = self._slice()
        k = es + edge_id
        return RouteEdge(
            edge_id,
            EDGE_KINDS[batch.e_kind[k]],
            self.edge_u[edge_id],
            self.edge_v[edge_id],
            int(batch.e_channel[k]),
            Interval(int(batch.e_lo[k]), int(batch.e_hi[k])),
            self.edge_length[edge_id],
        )

    def pin_map(self) -> Dict[int, NetPin]:
        """Terminal vertex -> its pin."""
        batch, index = self._batch, self._index
        ts = batch._t_off[index]
        return dict(
            zip(
                self.terminal_vertices,
                batch.pins[ts : ts + len(self.terminal_vertices)],
            )
        )

    def vertex_columns(self) -> Tuple[List[int], List[int]]:
        """``(channel, x)`` of every vertex, as fresh lists — the fields
        of :attr:`vertices` without building the objects."""
        batch, vs, ve, _, _ = self._slice()
        return batch.v_channel[vs:ve].tolist(), batch.v_x[vs:ve].tolist()

    def edge_columns(
        self,
    ) -> Tuple[
        List[EdgeKind], List[int], List[int], List[int], List[int],
        List[int], List[float],
    ]:
        """``(kind, u, v, channel, lo, hi, length_um)`` of every edge, as
        fresh lists — the fields of :attr:`edges` without building the
        objects."""
        batch, _, _, es, ee = self._slice()
        return (
            [EDGE_KINDS[k] for k in batch.e_kind[es:ee].tolist()],
            self.edge_u,
            self.edge_v,
            batch.e_channel[es:ee].tolist(),
            batch.e_lo[es:ee].tolist(),
            batch.e_hi[es:ee].tolist(),
            self.edge_length,
        )

    def _load_adjacency(self) -> None:
        adjacency: List[List[int]] = [[] for _ in range(self.n_vertices)]
        for edge_id, (u, v) in enumerate(zip(self.edge_u, self.edge_v)):
            adjacency[u].append(edge_id)
            adjacency[v].append(edge_id)
        self._adjacency = adjacency

    def _load_decomposition(self) -> None:
        batch, vs, ve, _, _ = self._slice()
        self._degree = batch.degree[vs:ve].tolist()
        anchor = batch.anchor[vs:ve]
        self._comp = anchor.tolist()
        sizes = np.bincount(anchor[anchor >= 0], minlength=self.n_vertices)
        anchors = np.flatnonzero(sizes)
        ids = anchors.tolist()
        self._comp_size = dict(zip(ids, sizes[anchors].tolist()))
        self._comp_anchor = dict(zip(ids, ids))
        self._comp_entry = dict(zip(ids, batch.entry[vs + anchors].tolist()))
        hang = batch.hang[vs:ve]
        hung = np.flatnonzero(hang)
        self._hang_tcount = dict(zip(hung.tolist(), hang[hung].tolist()))

    # ------------------------------------------------------------------
    def _check_initial(self) -> None:
        if self.driver_vertex not in self.terminal_vertices:
            raise RoutingGraphError(
                f"net {self.net.name}: driver vertex is not a terminal"
            )
        if len(set(self.terminal_vertices)) != len(self.terminal_vertices):
            raise RoutingGraphError(
                f"net {self.net.name}: duplicate terminal vertices"
            )
        for t in self.terminal_vertices:
            if not self.vertices[t].is_terminal:
                raise RoutingGraphError(
                    f"net {self.net.name}: vertex {t} is not terminal-kind"
                )

    def instrument(
        self,
        *,
        local_recomputes=None,
        full_fallbacks=None,
        frontier_vertices=None,
        timer: Optional[Callable[[], ContextManager[None]]] = None,
    ) -> None:
        """Attach router-owned counters/timer to the reclassify paths.

        ``local_recomputes`` counts deletions handled by the localized
        path, ``full_fallbacks`` deletions that ran the reference full
        reclassify, ``frontier_vertices`` vertices visited by localized
        prune walks, and ``timer`` wraps every reclassification (both
        paths) — the ``graph.reclassify_s`` histogram.
        """
        if local_recomputes is not None:
            self._m_local = local_recomputes
        if full_fallbacks is not None:
            self._m_fallbacks = full_fallbacks
        if frontier_vertices is not None:
            self._m_frontier = frontier_vertices
        if timer is not None:
            self._timer = timer

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbours(self, vertex: int) -> Iterator[Tuple[RouteEdge, int]]:
        """Alive ``(edge, other-vertex)`` pairs around ``vertex``."""
        for edge_id in self._adjacency[vertex]:
            if self.alive[edge_id]:
                edge = self.edges[edge_id]
                yield edge, edge.other(vertex)

    def alive_edges(self) -> Iterator[RouteEdge]:
        return (e for e in self.edges if self.alive[e.index])

    def deletable_edges(self) -> List[int]:
        """Edge ids that may legally be deleted (the net's share of the
        paper's ``N_b``)."""
        return [
            edge_id
            for edge_id, (alive, essential) in enumerate(
                zip(self.alive, self.essential)
            )
            if alive and not essential
        ]

    def degree(self, vertex: int) -> int:
        return sum(1 for _ in self.neighbours(vertex))

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat adjacency over the *alive* edges, CSR-style, as arrays.

        Returns ``(indptr, nbr_vertex, nbr_edge, nbr_length)``:
        ``indptr``/``nbr_vertex``/``nbr_edge`` are ``int32`` arrays and
        ``nbr_length`` ``float64``; the alive neighbours of vertex ``v``
        occupy slots ``indptr[v]:indptr[v + 1]`` of the three parallel
        arrays.  Neighbour order matches :meth:`neighbours` (ascending
        edge index per vertex), so graph walks over either
        representation break ties identically.  The arrays are cached
        and rebuilt lazily after a deletion or a reclassification that
        actually changed the alive set — a no-op :meth:`reclassify`
        keeps them, so the tree engine's CSR survives wholesale
        re-checks of already-converged graphs.  Batch consumers
        (vectorized density/criteria evaluation, the negotiated
        engine's cost maps) index them directly, while scalar graph
        walks use the :meth:`csr_lists` mirror.
        """
        if self._csr is None:
            indptr, nbr_vertex, nbr_edge, nbr_length = self.csr_lists()
            self._csr = (
                np.asarray(indptr, dtype=np.int32),
                np.asarray(nbr_vertex, dtype=np.int32),
                np.asarray(nbr_edge, dtype=np.int32),
                np.asarray(nbr_length, dtype=np.float64),
            )
        return self._csr

    def csr_lists(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[float]]:
        """The same CSR adjacency as :meth:`csr`, as Python lists.

        The tree engine's Dijkstra inner loop pops these with plain
        ``int``/``float`` scalars (numpy scalar boxing would slow the
        hot loop and leak ``np.float64`` into tree lengths); both
        caches are built from one pass and invalidated together.
        """
        if self._csr_lists is None:
            indptr: List[int] = [0]
            nbr_vertex: List[int] = []
            nbr_edge: List[int] = []
            nbr_length: List[float] = []
            alive = self.alive
            edge_u, edge_v = self.edge_u, self.edge_v
            lengths = self.edge_length
            for vertex in range(self.n_vertices):
                for edge_id in self._adjacency[vertex]:
                    if alive[edge_id]:
                        u = edge_u[edge_id]
                        other = edge_v[edge_id] if vertex == u else u
                        nbr_vertex.append(other)
                        nbr_edge.append(edge_id)
                        nbr_length.append(lengths[edge_id])
                indptr.append(len(nbr_vertex))
            self._csr_lists = (indptr, nbr_vertex, nbr_edge, nbr_length)
        return self._csr_lists

    @property
    def is_tree(self) -> bool:
        """Whether deletion has converged (every alive edge essential)."""
        return all(
            essential
            for alive, essential in zip(self.alive, self.essential)
            if alive
        )

    def terminals_connected(self) -> bool:
        """Whether every terminal vertex is reachable from the driver."""
        seen = self._reach(self.driver_vertex)
        return all(t in seen for t in self.terminal_vertices)

    def _reach(self, start: int, skip_edge: Optional[int] = None) -> Set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for edge_id in self._adjacency[v]:
                if not self.alive[edge_id] or edge_id == skip_edge:
                    continue
                u = self.edge_u[edge_id]
                w = self.edge_v[edge_id] if u == v else u
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def delete(self, edge_id: int) -> DeletionResult:
        """Delete a deletable edge; prune strands; reclassify.

        Raises :class:`RoutingGraphError` for dead or essential edges.
        """
        if not (0 <= edge_id < self.n_edges):
            raise RoutingGraphError(f"edge {edge_id} out of range")
        if not self.alive[edge_id]:
            raise RoutingGraphError(f"edge {edge_id} is already deleted")
        if self.essential[edge_id]:
            raise RoutingGraphError(
                f"edge {edge_id} is essential and cannot be deleted"
            )
        if self._stranded or not self.incremental_reclassify:
            # Reference mode, or the decomposition cannot vouch for the
            # graph: classic full pass (prune + fresh Tarjan).
            self._m_fallbacks.inc()
            self.alive[edge_id] = False
            result = DeletionResult(deleted=edge_id, removed=[edge_id])
            pruned, newly_essential = self.reclassify()
            result.removed.extend(pruned)
            result.newly_essential.extend(newly_essential)
            return result
        with self._timer():
            return self._delete_incremental(edge_id)

    def _delete_incremental(self, edge_id: int) -> DeletionResult:
        """Localized deletion: frontier prune + in-component Tarjan.

        Deleting a *non-bridge* edge perturbs exactly one 2ECC — the
        pendant cascade from its endpoints can only consume that
        component's own vertices plus terminal-free trees hanging off
        them (multi-vertex 2ECCs have internal degree ≥ 2, so the
        cascade stops at their boundary), and new bridges can only
        appear inside it.  Deleting a non-essential *bridge* detaches a
        terminal-free fragment — exactly what the reference
        ``_prune_unreachable`` would discover with its full scan — and
        changes no flags at all.  Either way the rest of the graph is
        provably untouched, so flags, component labels and hang counts
        elsewhere stay as they are.
        """
        self._csr = None
        self._csr_lists = None
        self._alive_length = None
        eu, ev = self.edge_u[edge_id], self.edge_v[edge_id]
        self._kill_edge(edge_id)
        result = DeletionResult(deleted=edge_id, removed=[edge_id])
        removed = result.removed
        frontier = 0
        cu, cv = self._comp[eu], self._comp[ev]
        local_comp = -1
        if cu == cv:
            seeds: Tuple[int, ...] = (eu, ev)
            local_comp = cu
        else:
            # A (non-essential) bridge: the component it was the
            # driver-ward entry of is now a terminal-free fragment.
            if self._comp_entry.get(cu) == edge_id:
                far, near = eu, ev
            elif self._comp_entry.get(cv) == edge_id:
                far, near = ev, eu
            else:
                # Bookkeeping cannot name the far side — repair with
                # the reference full pass (counted as a fallback).
                self._m_fallbacks.inc()
                pruned, newly = self._reclassify_full()
                removed.extend(pruned)
                result.newly_essential.extend(newly)
                return result
            frontier += self._drop_fragment(far, removed)
            seeds = (near,)
        stranded_comps, eaten = self._pendant_cascade(seeds, removed)
        frontier += eaten
        detached = {
            c for c in stranded_comps if self._comp_size.get(c, 0) > 0
        }
        if detached:
            # A fragment survived losing its bridge to the driver.
            # Unreachable by construction (pendant pruning preserves
            # connectivity), but if bookkeeping ever disagrees, route
            # every later delete through the reference path, which
            # prunes it the way a fresh reclassify would.
            self._stranded = True
        if (
            local_comp >= 0
            and local_comp not in detached
            and self._comp_size.get(local_comp, 0) > 1
        ):
            result.newly_essential.extend(
                self._local_bridge_refresh(local_comp)
            )
        self._m_local.inc()
        if frontier:
            self._m_frontier.inc(frontier)
        return result

    def _kill_edge(self, edge_id: int) -> None:
        self.alive[edge_id] = False
        self._alive_mirror[edge_id] = False
        self._degree[self.edge_u[edge_id]] -= 1
        self._degree[self.edge_v[edge_id]] -= 1

    def _kill_vertex(self, vertex: int) -> None:
        self.vertex_alive[vertex] = False
        c = self._comp[vertex]
        if c >= 0:
            self._comp_size[c] -= 1

    def _drop_fragment(self, far: int, removed: List[int]) -> int:
        """Kill everything reachable from ``far`` (the detached side of
        a deleted bridge); returns the number of vertices visited.

        Ascending-vertex kill order matches the reference
        ``_prune_unreachable`` scan, so the pruned edge order is
        identical too.
        """
        adjacency = self._adjacency
        alive = self.alive
        edge_u, edge_v = self.edge_u, self.edge_v
        seen = {far}
        stack = [far]
        while stack:
            v = stack.pop()
            for edge_id in adjacency[v]:
                if not alive[edge_id]:
                    continue
                u = edge_u[edge_id]
                w = edge_v[edge_id] if u == v else u
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        for t in self.terminal_vertices:
            if t in seen:
                raise RoutingGraphError(
                    f"net {self.net.name}: terminal vertex {t} disconnected"
                )
        for v in sorted(seen):
            self._kill_vertex(v)
            for edge_id in adjacency[v]:
                if alive[edge_id]:
                    self._kill_edge(edge_id)
                    removed.append(edge_id)
        return len(seen)

    def _pendant_cascade(
        self, seeds: Sequence[int], removed: List[int]
    ) -> Tuple[Set[int], int]:
        """Strip pendant non-terminal vertices outward from ``seeds``.

        The localized form of ``_prune_terminal_free_subtrees``: only
        the deletion site can have created new pendants, so the walk
        starts there instead of scanning every vertex.  Iterated leaf
        removal is confluent, so the pruned set is identical to the
        full scan's.  Returns the component ids whose driver-ward
        bridge was consumed (stranding candidates) and the number of
        vertices eaten.
        """
        terminal_set = self._terminal_set
        degree = self._degree
        vertex_alive = self.vertex_alive
        adjacency = self._adjacency
        alive = self.alive
        edge_u, edge_v = self.edge_u, self.edge_v
        comp = self._comp
        comp_entry = self._comp_entry
        queue = [
            v
            for v in seeds
            if vertex_alive[v] and degree[v] <= 1 and v not in terminal_set
        ]
        stranded: Set[int] = set()
        eaten = 0
        while queue:
            v = queue.pop()
            if not vertex_alive[v]:
                continue
            self._kill_vertex(v)
            eaten += 1
            for edge_id in adjacency[v]:
                if not alive[edge_id]:
                    continue
                self._kill_edge(edge_id)
                removed.append(edge_id)
                u = edge_u[edge_id]
                w = edge_v[edge_id] if u == v else u
                cw = comp[w]
                if cw != comp[v]:
                    # A bridge died with the pruned leaf; whichever side
                    # it was the entry of may now be detached.
                    if comp_entry.get(cw) == edge_id:
                        stranded.add(cw)
                    elif comp_entry.get(comp[v]) == edge_id:
                        stranded.add(comp[v])
                    else:
                        self._stranded = True
                if (
                    vertex_alive[w]
                    and degree[w] <= 1
                    and w not in terminal_set
                ):
                    queue.append(w)
        return stranded, eaten

    def _local_bridge_refresh(self, comp_id: int) -> List[int]:
        """Tarjan restricted to one 2ECC after it lost an edge.

        Rooted at the component's anchor (its driver-ward entry vertex),
        with per-vertex *effective* terminal counts: a vertex counts
        itself if terminal, plus every terminal hanging below it through
        pre-existing bridges (``_hang_tcount``).  A new bridge is
        essential iff its far-side effective count is positive — the
        near side always reaches the driver, a terminal.  New bridges
        split the component; the far pieces get fresh ids with the
        bridge as entry, and the near endpoint inherits the far side's
        terminal weight in its hang count.  Returns newly essential
        edge ids in ascending order (the reference scan's order).
        """
        anchor = self._comp_anchor[comp_id]
        if not self.vertex_alive[anchor]:
            # Anchor gone but members remain — detached component the
            # cascade bookkeeping missed; defer to the full path.
            self._stranded = True
            return []
        adjacency = self._adjacency
        alive = self.alive
        edge_u, edge_v = self.edge_u, self.edge_v
        comp = self._comp
        terminal_set = self._terminal_set
        hang = self._hang_tcount

        disc: Dict[int, int] = {anchor: 0}
        low: Dict[int, int] = {anchor: 0}
        teff: Dict[int, int] = {
            anchor: (1 if anchor in terminal_set else 0)
            + hang.get(anchor, 0)
        }
        timer = 1
        # (edge_id, child, parent, far-side effective terminals)
        bridges: List[Tuple[int, int, int, int]] = []
        stack: List[Tuple[int, int, Iterator[int]]] = [
            (anchor, -1, iter(adjacency[anchor]))
        ]
        while stack:
            vertex, parent_edge, it = stack[-1]
            advanced = False
            for edge_id in it:
                if not alive[edge_id] or edge_id == parent_edge:
                    continue
                u = edge_u[edge_id]
                w = edge_v[edge_id] if u == vertex else u
                if comp[w] != comp_id:
                    continue
                if w not in disc:
                    disc[w] = low[w] = timer
                    timer += 1
                    teff[w] = (
                        1 if w in terminal_set else 0
                    ) + hang.get(w, 0)
                    stack.append((w, edge_id, iter(adjacency[w])))
                    advanced = True
                    break
                if disc[w] < low[vertex]:
                    low[vertex] = disc[w]
            if advanced:
                continue
            stack.pop()
            if stack:
                pvertex = stack[-1][0]
                if low[vertex] < low[pvertex]:
                    low[pvertex] = low[vertex]
                if low[vertex] > disc[pvertex]:
                    bridges.append(
                        (parent_edge, vertex, pvertex, teff[vertex])
                    )
                teff[pvertex] += teff[vertex]
        newly: List[int] = []
        if not bridges:
            return newly
        bridge_ids = {b[0] for b in bridges}
        # Pop order is leaf-to-root, so inner split pieces are labelled
        # before the enclosing ones and each vertex is relabelled once.
        for edge_id, child, parent, subtree_t in bridges:
            new_id = self._next_comp
            self._next_comp += 1
            comp[child] = new_id
            self._comp_anchor[new_id] = child
            self._comp_entry[new_id] = edge_id
            size = 1
            stack2 = [child]
            while stack2:
                v = stack2.pop()
                for eid in adjacency[v]:
                    if not alive[eid] or eid in bridge_ids:
                        continue
                    u = edge_u[eid]
                    w = edge_v[eid] if u == v else u
                    if comp[w] != comp_id:
                        continue
                    comp[w] = new_id
                    size += 1
                    stack2.append(w)
            self._comp_size[new_id] = size
            self._comp_size[comp_id] -= size
            if subtree_t > 0:
                self.essential[edge_id] = True
                newly.append(edge_id)
                self._hang_tcount[parent] = (
                    self._hang_tcount.get(parent, 0) + subtree_t
                )
        newly.sort()
        return newly

    def reclassify(self) -> Tuple[List[int], List[int]]:
        """Prune unreachable fragments and refresh essential flags.

        The reference full pass: global reach from the driver, pendant
        strip, fresh Tarjan — and a rebuild of the incremental
        decomposition from the result.  Callers that flip ``alive``
        flags directly (the negotiated engine's finalizer) must call
        this afterwards; the alive-set change is detected against the
        mirror kept from the last classification, and the CSR/length
        caches are only invalidated when the alive set actually
        changed.

        Returns ``(pruned_edge_ids, newly_essential_edge_ids)``.
        """
        with self._timer():
            return self._reclassify_full()

    def _reclassify_full(self) -> Tuple[List[int], List[int]]:
        n_edges = self.n_edges
        entry_mask = np.fromiter(self.alive, dtype=bool, count=n_edges)
        externally_changed = not np.array_equal(
            entry_mask, self._alive_mirror
        )
        pruned = self._prune_unreachable()
        pruned.extend(self._prune_terminal_free_subtrees())
        newly_essential = self._refresh_essential()
        if externally_changed or pruned:
            self._csr = None
            self._csr_lists = None
            self._alive_length = None
            self._alive_mirror = np.fromiter(
                self.alive, dtype=bool, count=n_edges
            )
        return pruned, newly_essential

    def _prune_unreachable(self) -> List[int]:
        """Kill vertices/edges not reachable from the driver."""
        seen = self._reach(self.driver_vertex)
        for t in self.terminal_vertices:
            if t not in seen:
                raise RoutingGraphError(
                    f"net {self.net.name}: terminal vertex {t} disconnected"
                )
        removed: List[int] = []
        for vertex in range(self.n_vertices):
            if self.vertex_alive[vertex] and vertex not in seen:
                self.vertex_alive[vertex] = False
                for edge_id in self._adjacency[vertex]:
                    if self.alive[edge_id]:
                        self.alive[edge_id] = False
                        removed.append(edge_id)
        return removed

    def _prune_terminal_free_subtrees(self) -> List[int]:
        """Iteratively strip pendant non-terminal vertices.

        A degree-1 position vertex can never help connect two terminals;
        removing it (and recursing) erases terminal-free bridge-hanging
        subtrees so they stop polluting the density profiles.
        """
        removed: List[int] = []
        terminal_set = self._terminal_set
        degrees = [0] * self.n_vertices
        edge_u, edge_v = self.edge_u, self.edge_v
        for edge_id, alive in enumerate(self.alive):
            if alive:
                degrees[edge_u[edge_id]] += 1
                degrees[edge_v[edge_id]] += 1
        queue = [
            v
            for v in range(self.n_vertices)
            if self.vertex_alive[v]
            and degrees[v] <= 1
            and v not in terminal_set
        ]
        while queue:
            v = queue.pop()
            if not self.vertex_alive[v]:
                continue
            self.vertex_alive[v] = False
            for edge_id in self._adjacency[v]:
                if not self.alive[edge_id]:
                    continue
                self.alive[edge_id] = False
                removed.append(edge_id)
                u = edge_u[edge_id]
                w = edge_v[edge_id] if u == v else u
                degrees[w] -= 1
                if degrees[w] <= 1 and w not in terminal_set:
                    queue.append(w)
            degrees[v] = 0
        return removed

    def _refresh_essential(self) -> List[int]:
        """Recompute essential flags via an iterative bridge search.

        An alive edge is essential iff it is a graph bridge whose removal
        separates two terminals.  After pruning, every bridge has at least
        one terminal on each side *unless* it hangs a terminal-free cycle
        component — rare, but handled by counting terminals per subtree.
        The same pass collects *every* bridge (terminal-separating or
        not) plus per-subtree terminal counts, which seed the rebuild of
        the incremental 2ECC decomposition.
        """
        n = self.n_vertices
        disc = [-1] * n
        low = [0] * n
        tcount = [0] * n
        terminal_set = self._terminal_set
        bridges: List[int] = []
        all_bridges: List[Tuple[int, int]] = []  # (edge_id, far vertex)
        timer = 0

        edge_u, edge_v = self.edge_u, self.edge_v
        start = self.driver_vertex
        # Iterative Tarjan with explicit stack; parent edge tracked to
        # ignore the tree edge when computing low-links.
        stack: List[Tuple[int, int, Iterator[int]]] = [
            (start, -1, iter(self._adjacency[start]))
        ]
        disc[start] = low[start] = timer
        timer += 1
        tcount[start] = 1 if start in terminal_set else 0

        while stack:
            vertex, parent_edge, it = stack[-1]
            advanced = False
            for edge_id in it:
                if not self.alive[edge_id] or edge_id == parent_edge:
                    continue
                u = edge_u[edge_id]
                w = edge_v[edge_id] if u == vertex else u
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    tcount[w] = 1 if w in terminal_set else 0
                    stack.append((w, edge_id, iter(self._adjacency[w])))
                    advanced = True
                    break
                low[vertex] = min(low[vertex], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                pvertex, _, _ = stack[-1]
                low[pvertex] = min(low[pvertex], low[vertex])
                tcount[pvertex] += tcount[vertex]
                if low[vertex] > disc[pvertex]:
                    all_bridges.append((parent_edge, vertex))
                    if tcount[vertex] > 0:
                        bridges.append(parent_edge)

        newly_essential: List[int] = []
        bridge_set = set(bridges)
        for edge_id in range(self.n_edges):
            if not self.alive[edge_id]:
                self.essential[edge_id] = False
                continue
            now = edge_id in bridge_set
            if now and not self.essential[edge_id]:
                newly_essential.append(edge_id)
            self.essential[edge_id] = now
        self._rebuild_decomposition(tcount, all_bridges)
        return newly_essential

    def _rebuild_decomposition(
        self, tcount: List[int], all_bridges: List[Tuple[int, int]]
    ) -> None:
        """Derive degrees, 2ECC labels, the bridge forest and hang
        counts from a completed full Tarjan pass."""
        n = self.n_vertices
        alive = self.alive
        edge_u, edge_v = self.edge_u, self.edge_v
        degree = [0] * n
        for edge_id, is_alive in enumerate(alive):
            if is_alive:
                degree[edge_u[edge_id]] += 1
                degree[edge_v[edge_id]] += 1
        self._degree = degree
        comp = [-1] * n
        self._comp = comp
        self._comp_size = {}
        self._comp_anchor = {}
        self._comp_entry = {}
        hang: Dict[int, int] = {}
        for edge_id, child in all_bridges:
            t = tcount[child]
            if t > 0:
                u = edge_u[edge_id]
                parent = edge_v[edge_id] if u == child else u
                hang[parent] = hang.get(parent, 0) + t
        self._hang_tcount = hang
        bridge_ids = {edge_id for edge_id, _ in all_bridges}
        start = self.driver_vertex
        root = self._next_comp
        self._next_comp += 1
        comp[start] = root
        self._comp_anchor[root] = start
        self._comp_entry[root] = -1
        self._comp_size[root] = 1
        stack = [start]
        while stack:
            v = stack.pop()
            for edge_id in self._adjacency[v]:
                if not alive[edge_id]:
                    continue
                u = edge_u[edge_id]
                w = edge_v[edge_id] if u == v else u
                if comp[w] != -1:
                    continue
                if edge_id in bridge_ids:
                    c = self._next_comp
                    self._next_comp += 1
                    self._comp_anchor[c] = w
                    self._comp_entry[c] = edge_id
                    self._comp_size[c] = 1
                else:
                    c = comp[v]
                    self._comp_size[c] += 1
                comp[w] = c
                stack.append(w)
        # Anything alive the driver cannot reach means the graph was
        # mutated in a way the full pass should have pruned — never the
        # case today, but stay safe rather than mislabel.
        self._stranded = any(
            self.vertex_alive[v] and comp[v] == -1 for v in range(n)
        )

    # ------------------------------------------------------------------
    def final_wiring(self) -> List[RouteEdge]:
        """The alive edges once deletion has converged (checked)."""
        return [self.edges[e] for e in self.final_wiring_ids()]

    def final_wiring_ids(self) -> List[int]:
        """Ids of :meth:`final_wiring`'s edges, without building edge
        objects (read their fields from :meth:`edge_columns`)."""
        if not self.is_tree:
            raise RoutingGraphError(
                f"net {self.net.name}: routing graph is not a tree yet"
            )
        return [e for e, alive in enumerate(self.alive) if alive]

    def total_alive_length_um(self) -> float:
        """Summed alive-edge length, cached between mutations.

        A fixed-order ledger: the fold always runs over ascending edge
        index, left to right — ``np.add.accumulate`` over the masked
        length array performs the identical sequence of IEEE-754
        additions as the seed's Python ``sum`` over :meth:`alive_edges`
        (strictly sequential; ``np.sum``'s pairwise reassociation would
        drift), so the value is bit-identical no matter which phase
        asks or how the graph reached this alive set.  The cache drops
        only when the alive set changes; the router's phase metric
        re-reads it only for nets whose graph changed since its last
        reading.
        """
        if self._alive_length is None:
            mask = np.fromiter(
                self.alive, dtype=bool, count=len(self.alive)
            )
            lengths = self._lengths[mask]
            if lengths.size == 0:
                self._alive_length = 0
            else:
                self._alive_length = float(
                    np.add.accumulate(lengths)[-1]
                )
        return self._alive_length

    def alive_trunks(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(channel, lo, hi, essential)`` of the alive trunk edges in
        ascending edge id: what this graph contributes to the density
        profiles (see :meth:`~repro.core.density.DensityEngine.add_trunks`).
        """
        batch, _, _, es, ee = self._slice()
        n = self.n_edges
        mask = np.fromiter(self.alive, dtype=bool, count=n) & (
            batch.e_kind[es:ee] == TRUNK_CODE
        )
        essential = np.fromiter(self.essential, dtype=bool, count=n)
        return (
            batch.e_channel[es:ee][mask],
            batch.e_lo[es:ee][mask],
            batch.e_hi[es:ee][mask],
            essential[mask],
        )

    def __repr__(self) -> str:
        alive = sum(self.alive)
        return (
            f"RoutingGraph({self.net.name}: {self.n_vertices} vertices, "
            f"{alive}/{self.n_edges} edges alive)"
        )
