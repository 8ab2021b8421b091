"""Incremental candidate selection for the edge-deletion loop.

The paper's loop (Fig. 2, lines 04–07) repeatedly picks the minimum of a
lexicographic selection key over *all* nets' deletable edges.  The seed
implementation rescans every candidate each iteration — an
``O(deletions × candidates)`` Python loop.  :class:`CandidateEngine`,
the router's only selector, replaces the rescan with an **array-backed
incremental arg-min**: every
candidate owns one row of a dense float64 key matrix whose columns are
the lexicographic key positions, and

* the engine subscribes to :class:`~repro.core.density.DensityEngine`
  version bumps, so a deletion marks dirty exactly the channels whose
  profile changed; dirty channels re-key all their live rows in one
  batched ``edge_params_batch`` reduction instead of per-candidate
  Python;
* when the global timing version bumps, the timing-sensitive rows re-key
  per net through :func:`~repro.core.criteria.evaluate_delay_criteria_batch`
  and the tree engine's batched ``evaluate_many`` — rows dirtied only by
  density keep their delay columns, which are bit-identical at an
  unchanged timing version (the heap-based predecessor recomputed them
  redundantly to the same values);
* ``select()`` takes the lexicographic arg-min over live rows by
  successive column refinement (all column values are exactly
  representable in float64, so the comparison order equals tuple
  comparison), then verifies the pick against graph truth — candidates
  can die without any density event (branch/correspondence edges fire no
  listener) — and retries on a dead row, counting ``router.heap_stale``.

Because every batched column update is elementwise-identical to the
scalar ``selection_key`` path (see ``evaluate_delay_criteria_batch`` for
the float-for-float argument), the matrix arg-min is the rescan's
arg-min and the engine reproduces the seed router's deletion sequence
exactly.  The seed's full rescan is kept as a test oracle in
:mod:`repro.reference`, behind the same two-method ``select``/``close``
interface: ``tests/test_selection_equivalence.py`` asserts the identity
on the standard suite, and ``benchmarks/bench_selection.py`` measures
the difference in selection-key evaluations per deletion and wall time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..routegraph.graph import EdgeKind
from .criteria import evaluate_delay_criteria_batch
from .density import coverage_range
from .selection import SelectionMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .router import GlobalRouter, _NetState

Handle = Tuple[str, int]
"""A candidate's identity: ``(net_name, edge_id)``."""


# Key-matrix column of each named lexicographic condition, per mode.
# Columns 0..8 mirror the ``selection_key`` tuple layouts exactly;
# columns 9 (net rank — the tracked nets' sorted-name ordinal, which
# preserves string comparison among them) and 10 (edge id) are the
# deterministic identity tie-break.
_N_COLS = 11
_COLS = {
    SelectionMode.TIMING: {
        "cd": 0, "gl": 1, "ld": 2, "trunk": 3,
        "fm": 4, "nm": 5, "fM": 6, "nM": 7, "neglen": 8,
    },
    SelectionMode.AREA: {
        "cd": 0, "trunk": 1, "fm": 2, "nm": 3,
        "fM": 4, "nM": 5, "gl": 6, "ld": 7, "neglen": 8,
    },
}


class CandidateEngine:
    """Array-backed incremental arg-min over the tracked states' edges.

    One engine serves one deletion loop: it indexes the loop's candidates
    at construction, listens to density-version bumps for its lifetime,
    and must be :meth:`close`-d when the loop ends (the router does this
    in a ``finally``).  Candidates only ever *leave* the pool mid-loop —
    edges die or become essential, never the reverse — so no insertion
    path beyond the initial build is needed.

    All key state lives in ``_K``, an ``(n_candidates, 11)`` float64
    matrix; every integer that can appear in a selection key (densities,
    counts, ids) is far below 2**53, so the float64 columns order
    exactly like the scalar int/float tuples, and typed tuples equal to
    the scalar ``selection_key`` output are reconstructed on demand
    (tracing, :meth:`current_keys`) rather than kept.
    """

    def __init__(
        self,
        router: "GlobalRouter",
        states: Sequence["_NetState"],
        mode: SelectionMode,
    ):
        self._router = router
        self._mode = mode
        self._density = router.engine
        self._cols = _COLS[mode]
        self._m_pops = router.metrics.counter("router.heap_pops")
        self._m_stale = router.metrics.counter("router.heap_stale")
        self._m_vec_rows = router.metrics.counter("router.vectorized_rows")
        self._m_vec_batches = router.metrics.counter(
            "router.vectorized_batches"
        )

        # Settle the timing version before any key is computed, exactly
        # as the rescan does at the top of its first scan.
        if router.config.timing_driven:
            router._ensure_timings()
        self._timing_seen = router._timing_version

        timing_driven = router.config.timing_driven
        self._states: Dict[str, "_NetState"] = {
            state.net.name: state for state in states
        }
        rank = {name: i for i, name in enumerate(sorted(self._states))}

        row_state: List["_NetState"] = []
        edge_ids: List[int] = []
        channels: List[int] = []
        lo: List[int] = []
        hi: List[int] = []
        trunks: List[int] = []
        neglen: List[float] = []
        ranks: List[int] = []
        sensitive: List[bool] = []
        for state in states:
            graph = state.graph
            deletable = graph.deletable_edges()
            if not deletable:
                continue
            net_rank = rank[state.net.name]
            is_sensitive = timing_driven and state.context.constrained
            kinds, _, _, edge_channel, edge_lo, edge_hi, lengths = (
                graph.edge_columns()
            )
            for edge_id in deletable:
                kind = kinds[edge_id]
                c_lo, c_hi = coverage_range(
                    kind, edge_lo[edge_id], edge_hi[edge_id]
                )
                row_state.append(state)
                edge_ids.append(edge_id)
                channels.append(edge_channel[edge_id])
                lo.append(c_lo)
                hi.append(c_hi)
                trunks.append(0 if kind is EdgeKind.TRUNK else 1)
                neglen.append(-lengths[edge_id])
                ranks.append(net_rank)
                sensitive.append(is_sensitive)

        n = len(edge_ids)
        self._row_state = row_state
        self._edge_ids = np.asarray(edge_ids, dtype=np.int64)
        self._lo = np.asarray(lo, dtype=np.int64)
        self._hi = np.asarray(hi, dtype=np.int64)
        self._live = np.ones(n, dtype=bool)
        self._sensitive = np.asarray(sensitive, dtype=bool)
        cols = self._cols
        K = np.zeros((n, _N_COLS), dtype=np.float64)
        K[:, cols["trunk"]] = trunks
        K[:, cols["neglen"]] = neglen
        K[:, 9] = ranks
        K[:, 10] = self._edge_ids
        self._K = K

        channel_arr = np.asarray(channels, dtype=np.int64)
        self._rows_by_channel: Dict[int, np.ndarray] = {
            int(channel): np.flatnonzero(channel_arr == channel)
            for channel in np.unique(channel_arr)
        }
        by_net: Dict[str, List[int]] = {}
        for r in np.flatnonzero(self._sensitive).tolist():
            by_net.setdefault(row_state[r].net.name, []).append(r)
        self._rows_by_net: Dict[str, np.ndarray] = {
            name: np.asarray(rows, dtype=np.int64)
            for name, rows in by_net.items()
        }

        self._dirty_channels: Set[int] = set()
        self._timing_dirty = False

        # Per-net signature of every input the delay columns depend on
        # (constraint-timing epochs, cl_now, the tree version behind
        # cl_if_deleted): a timing-version bump only re-keys the nets
        # whose signature actually moved — the rest would recompute to
        # bit-identical values.
        self._net_sig: Dict[str, tuple] = {}

        # Initial full build: every row's density and delay columns.
        for channel, rows in self._rows_by_channel.items():
            self._refresh_density_rows(channel, rows)
        for name in sorted(self._rows_by_net):
            state = self._states[name]
            self._refresh_delay_rows(state, self._rows_by_net[name])
            self._net_sig[name] = self._delay_sig(state)
        if n:
            router._m_key_evals.inc(n)
            router._m_key_recomputes.inc(n)
            self._m_vec_rows.inc(n)
            self._m_vec_batches.inc(
                len(self._rows_by_channel) + len(self._rows_by_net)
            )
        self._density.subscribe(self._on_channel_touched)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self) -> Optional[Tuple["_NetState", int]]:
        """The candidate a full rescan would pick, or ``None`` when the
        loop has converged."""
        router = self._router
        self.refresh()
        while True:
            r = self._argmin()
            if r is None:
                return None
            self._m_pops.inc()
            state = self._row_state[r]
            edge_id = int(self._edge_ids[r])
            graph = state.graph
            if not graph.alive[edge_id] or graph.essential[edge_id]:
                # Died without a density event (e.g. a pruned branch) —
                # exactly the stale entries the heap predecessor popped.
                self._m_stale.inc()
                self._live[r] = False
                continue
            if router.tracer.enabled:
                runner_key = self._runner_key(exclude=r)
                router._record_selection(
                    self._tuple_key(r), runner_key, self._mode
                )
            return state, edge_id

    def refresh(self) -> None:
        """Bring the matrix up to date with the world: settle timings,
        mark the sensitive rows dirty if the timing version bumped, and
        re-key every dirty row in batched array operations."""
        router = self._router
        if router.config.timing_driven:
            router._ensure_timings()
            if router._timing_version != self._timing_seen:
                self._timing_dirty = True
                self._timing_seen = router._timing_version
        self._flush()

    def current_keys(self) -> Dict[Handle, tuple]:
        """Typed key tuples of every live candidate, by handle.

        A verification aid (used by the selection property test): after
        :meth:`refresh`, every surviving candidate must appear here and
        its key must equal a freshly computed ``selection_key``.
        """
        self.refresh()
        keys: Dict[Handle, tuple] = {}
        for r in np.flatnonzero(self._live).tolist():
            state = self._row_state[r]
            edge_id = int(self._edge_ids[r])
            graph = state.graph
            if not graph.alive[edge_id] or graph.essential[edge_id]:
                continue
            keys[(state.net.name, edge_id)] = self._tuple_key(r)
        return keys

    def close(self) -> None:
        """Stop listening to density bumps (loop over)."""
        self._density.unsubscribe(self._on_channel_touched)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_channel_touched(self, channel: int) -> None:
        if channel in self._rows_by_channel:
            self._dirty_channels.add(channel)

    def _flush(self) -> None:
        """Re-key every dirty row that is still selectable, in batches."""
        refreshed = 0
        batches = 0
        if self._timing_dirty:
            for name in sorted(self._rows_by_net):
                state = self._states[name]
                sig = self._delay_sig(state)
                if sig == self._net_sig.get(name):
                    continue
                self._net_sig[name] = sig
                rows = self._live_rows(self._rows_by_net[name])
                if rows.size == 0:
                    continue
                self._refresh_delay_rows(state, rows)
                refreshed += int(rows.size)
                batches += 1
            self._timing_dirty = False
        if self._dirty_channels:
            for channel in sorted(self._dirty_channels):
                rows = self._live_rows(self._rows_by_channel[channel])
                if rows.size == 0:
                    continue
                self._refresh_density_rows(channel, rows)
                refreshed += int(rows.size)
                batches += 1
            self._dirty_channels.clear()
        if refreshed:
            self._router._m_key_evals.inc(refreshed)
            self._router._m_key_recomputes.inc(refreshed)
            self._m_vec_rows.inc(refreshed)
            self._m_vec_batches.inc(batches)

    def _live_rows(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` filtered to currently selectable candidates.

        Verifies against graph truth and retires rows found dead, so a
        candidate that died without firing any listener stops being
        re-keyed (the heap predecessor's ``_forget``).
        """
        rows = rows[self._live[rows]]
        if rows.size == 0:
            return rows
        keep: List[int] = []
        live = self._live
        row_state = self._row_state
        edge_ids = self._edge_ids
        for r in rows.tolist():
            graph = row_state[r].graph
            edge_id = int(edge_ids[r])
            if graph.alive[edge_id] and not graph.essential[edge_id]:
                keep.append(r)
            else:
                live[r] = False
        if len(keep) == rows.size:
            return rows
        return np.asarray(keep, dtype=np.int64)

    def _refresh_density_rows(self, channel: int, rows: np.ndarray) -> None:
        """Recompute conditions 4–8 for ``rows`` (one channel) in batch."""
        density = self._density
        stats = density.channel_stats(channel)
        d_max, nd_max, d_min, nd_min = density.edge_params_batch(
            channel, self._lo[rows], self._hi[rows]
        )
        cols = self._cols
        K = self._K
        K[rows, cols["fm"]] = stats.c_min - d_min
        K[rows, cols["nm"]] = stats.nc_min - nd_min
        K[rows, cols["fM"]] = stats.c_max - d_max
        K[rows, cols["nM"]] = stats.nc_max - nd_max

    def _delay_sig(self, state: "_NetState") -> tuple:
        """Everything one net's delay columns are a function of:
        its constraints' re-analysis epochs, the current tree cap, and
        the tree-engine version stamping ``cl_if_deleted``."""
        router = self._router
        epoch = router._cg_epoch
        engine = router._tree_engine(state)
        return (
            state.cl_pf,
            engine.version,
            tuple(
                epoch.get(cg.name, 0) for cg in state.context.constraints
            ),
        )

    def _refresh_delay_rows(
        self, state: "_NetState", rows: np.ndarray
    ) -> None:
        """Recompute ``C_d``/``Gl``/``LD`` for ``rows`` (one net) in batch."""
        router = self._router
        cl_if_deleted = router._cl_if_deleted_many(
            state, self._edge_ids[rows]
        )
        crit, gl, ld = evaluate_delay_criteria_batch(
            state.context, state.cl_pf, cl_if_deleted, router._timings
        )
        cols = self._cols
        K = self._K
        K[rows, cols["cd"]] = crit
        K[rows, cols["gl"]] = gl
        K[rows, cols["ld"]] = ld

    def _argmin(self, exclude: int = -1) -> Optional[int]:
        """Lexicographic arg-min row by successive column refinement.

        Equivalent to tuple comparison because each column holds exactly
        the scalar key's value at that position (ints exactly
        representable; ``-0.0 == 0.0`` compares equal in both worlds)
        and the identity tail makes the minimum unique.
        """
        idx = np.flatnonzero(self._live)
        if exclude >= 0:
            idx = idx[idx != exclude]
        if idx.size == 0:
            return None
        K = self._K
        for column in range(_N_COLS):
            if idx.size == 1:
                break
            values = K[idx, column]
            idx = idx[values == values.min()]
        return int(idx[0])

    def _runner_key(self, exclude: int) -> Optional[tuple]:
        """Key of the live runner-up (tracing only), dead rows retired."""
        while True:
            r = self._argmin(exclude)
            if r is None:
                return None
            state = self._row_state[r]
            edge_id = int(self._edge_ids[r])
            graph = state.graph
            if not graph.alive[edge_id] or graph.essential[edge_id]:
                self._m_pops.inc()
                self._m_stale.inc()
                self._live[r] = False
                continue
            return self._tuple_key(r)

    def _tuple_key(self, r: int) -> tuple:
        """The scalar ``selection_key`` tuple of row ``r``, reconstructed
        with the original int/float/str element types."""
        row = self._K[r]
        name = self._row_state[r].net.name
        edge_id = int(self._edge_ids[r])
        if self._mode is SelectionMode.TIMING:
            return (
                int(row[0]), float(row[1]), float(row[2]),
                int(row[3]), int(row[4]), int(row[5]),
                int(row[6]), int(row[7]),
                float(row[8]), name, edge_id,
            )
        return (
            int(row[0]), int(row[1]), int(row[2]),
            int(row[3]), int(row[4]), int(row[5]),
            float(row[6]), float(row[7]),
            float(row[8]), name, edge_id,
        )
