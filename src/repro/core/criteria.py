"""Delay criteria for edge selection (Section 3.2).

Deleting edge ``e`` from ``G_r(n)`` lengthens net ``n``'s tentative tree
and therefore its wiring capacitance; every constraint ``P`` whose
``G_d(P)`` contains arcs fed by ``n`` is affected.  The paper quantifies
the damage with the **local margin**

    LM(e, P) = M(P) − max_{(v,w)} max(0, lp(v) + d' − lp(w))

over the affected arcs, where ``lp`` are the current longest-path values
and ``d'`` the arc delay after the deletion.  When ``w`` lies on the
current critical path this is exactly the post-deletion margin; otherwise
it is a (safe) pessimistic estimate.  Three criteria derive from it:

* ``C_d(e)`` — the *critical count*: how many constraints end up with
  ``LM ≤ 0`` (deleting ``e`` would violate, or exactly exhaust, them);
* ``Gl(e)`` — the *global delay* penalty increase, via the paper's
  penalty function (linear in the positive-margin region, exponential
  once violated);
* ``LD(e)`` — the *local delay increase*: the summed arc-delay increase,
  a weak predictor of future critical-path growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Mapping, Tuple

import numpy as np

from ..errors import TimingError
from ..netlist.circuit import Net
from ..timing.constraint import ConstraintGraph
from ..timing.sta import ConstraintTiming


def penalty(x_ps: float, limit_ps: float) -> float:
    """The paper's ``pen(x, P)``: ``1 − x/δ_P`` for ``x ≥ 0``, else
    ``exp(−x/δ_P)`` — continuous at 0 and rapidly growing once violated."""
    if limit_ps <= 0.0:
        raise TimingError("penalty needs a positive delay limit")
    if x_ps >= 0.0:
        return 1.0 - x_ps / limit_ps
    return math.exp(-x_ps / limit_ps)


@dataclass(frozen=True)
class DelayCriteria:
    """``(C_d, Gl, LD)`` of one candidate edge — compared in that order."""

    critical_count: int
    global_delay: float
    local_delay: float

    ZERO: ClassVar["DelayCriteria"]

    def as_tuple(self) -> tuple:
        return (self.critical_count, self.global_delay, self.local_delay)


DelayCriteria.ZERO = DelayCriteria(0, 0.0, 0.0)


@dataclass(frozen=True)
class ConstraintArcRows:
    """One net's arcs within one constraint graph, fully resolved.

    Each row is ``(arc, tail_position, head_position)`` — the
    ``arcs_of_net`` indirection and both ``cg.pos`` lookups done once,
    since the mapping is static for the run while the criteria loop
    walks it on every candidate evaluation.  Row order matches
    ``arcs_of_net`` so float accumulations are unchanged.
    """

    cg: ConstraintGraph
    rows: Tuple[tuple, ...]
    _td_floats: object = field(default=None, repr=False, compare=False)

    def td_floats(self) -> list:
        """``td_ps_per_pf`` per row as Python floats, cached — for the
        order-sensitive ``LD`` fold in the vectorized criteria path."""
        if self._td_floats is None:
            object.__setattr__(
                self,
                "_td_floats",
                [arc.td_ps_per_pf for arc, _, _ in self.rows],
            )
        return self._td_floats

    @staticmethod
    def build(cg: ConstraintGraph, net: Net) -> "ConstraintArcRows":
        rows = tuple(
            (arc, cg.pos[arc.tail], cg.pos[arc.head])
            for arc in (
                cg.arcs[position]
                for position in cg.arcs_of_net.get(net.name, ())
            )
        )
        return ConstraintArcRows(cg, rows)


@dataclass
class NetTimingContext:
    """Static per-net timing context: which constraint graphs the net's
    wiring feeds, and how many arcs in total (for ``LD``)."""

    net: Net
    constraints: List[ConstraintGraph] = field(default_factory=list)
    _arc_rows: List[ConstraintArcRows] = field(
        default_factory=list, repr=False
    )

    @property
    def constrained(self) -> bool:
        return bool(self.constraints)

    def arc_rows(self) -> List[ConstraintArcRows]:
        """Pre-resolved arc rows, one entry per constraint graph.

        Rebuilt lazily if ``constraints`` was appended to after
        construction (hand-built contexts in tests do this); contexts
        from :meth:`build_all` get theirs resolved up front.
        """
        if len(self._arc_rows) != len(self.constraints):
            self._arc_rows[:] = [
                ConstraintArcRows.build(cg, self.net)
                for cg in self.constraints
            ]
        return self._arc_rows

    @staticmethod
    def build_all(
        nets: List[Net], constraint_graphs: List[ConstraintGraph]
    ) -> Dict[str, "NetTimingContext"]:
        contexts = {net.name: NetTimingContext(net) for net in nets}
        for cg in constraint_graphs:
            for net in cg.nets():
                context = contexts.get(net.name)
                if context is not None:
                    context.constraints.append(cg)
        for context in contexts.values():
            context.arc_rows()
        return contexts


def _worst_excess(
    rows: Tuple[tuple, ...],
    timing: ConstraintTiming,
    cl_if_deleted_pf: float,
) -> float:
    worst_excess = 0.0
    lp = timing.lp
    for arc, tail_position, head_position in rows:
        lp_tail = lp[tail_position]
        lp_head = lp[head_position]
        if lp_tail == float("-inf") or lp_head == float("-inf"):
            continue
        d_new = arc.const_ps + cl_if_deleted_pf * arc.td_ps_per_pf
        excess = lp_tail + d_new - lp_head
        if excess > worst_excess:
            worst_excess = excess
    return worst_excess


def local_margin(
    cg: ConstraintGraph,
    timing: ConstraintTiming,
    net: Net,
    cl_if_deleted_pf: float,
) -> float:
    """``LM(e, P)`` for an edge of ``net`` whose deletion would leave the
    net with wiring capacitance ``cl_if_deleted_pf``."""
    rows = ConstraintArcRows.build(cg, net).rows
    return timing.margin_ps - _worst_excess(rows, timing, cl_if_deleted_pf)


def evaluate_delay_criteria_batch(
    context: NetTimingContext,
    cl_now_pf: float,
    cl_if_deleted_pf: np.ndarray,
    timings: Mapping[str, ConstraintTiming],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(C_d, Gl, LD)`` of every candidate edge of one net, vectorized.

    ``cl_if_deleted_pf`` holds the post-deletion capacitance of each
    candidate edge of the net; returns parallel ``(C_d, Gl, LD)`` arrays
    (int64, float64, float64) **bit-identical** per element to the
    seed's scalar function, the test oracle
    :func:`repro.reference.evaluate_delay_criteria`.  That identity is
    load-bearing (deletion sequences must not move), so this is a
    careful transposition, not a free rewrite:

    * Constraint graphs and their arcs are walked sequentially in the
      same order; only the candidate dimension is vectorized.  All
      elementwise float64 ops (`+`, `-`, `*`, `/`) round identically to
      their scalar counterparts, and operand association is kept exactly
      as the scalar expressions group.
    * The running ``worst_excess`` maximum is folded arc-by-arc with
      ``np.maximum`` — max never rounds, so fold order only matters for
      NaN, which the ±inf skip below rules out.  (An (arcs ×
      candidates) broadcast was tried and is *slower* here: typical
      shapes are 1–4 arcs × 6–20 candidates, where the temporaries
      cost more than the loop.)
    * Arcs whose longest-path endpoints are ``-inf`` are skipped exactly
      as in :func:`_worst_excess` (``lp`` is candidate-independent, so
      the skip set is too — this also avoids ``inf - inf`` NaNs).
    * ``LD`` stays a per-arc Python fold: float addition is
      order-sensitive, and numpy's axis reductions sum pairwise.
    * ``np.exp`` is **not** used: libm's vector exp may differ from
      ``math.exp`` in the last ulp.  The exponential penalty branch runs
      ``math.exp`` in a Python loop over the (rare) violated candidates.
    """
    n = int(np.asarray(cl_if_deleted_pf).shape[0])
    crit = np.zeros(n, dtype=np.int64)
    gl = np.zeros(n, dtype=np.float64)
    ld = np.zeros(n, dtype=np.float64)
    if not context.constrained or n == 0:
        return crit, gl, ld
    cl = np.asarray(cl_if_deleted_pf, dtype=np.float64)
    delta_cl = cl - cl_now_pf
    neg_inf = float("-inf")
    for arc_rows in context.arc_rows():
        cg = arc_rows.cg
        timing = timings[cg.name]
        limit = cg.limit_ps
        if limit <= 0.0:
            raise TimingError("penalty needs a positive delay limit")
        margin = timing.margin_ps
        lp = timing.lp
        worst = np.zeros(n, dtype=np.float64)
        for arc, tail_position, head_position in arc_rows.rows:
            lp_tail = lp[tail_position]
            lp_head = lp[head_position]
            if lp_tail == neg_inf or lp_head == neg_inf:
                continue
            d_new = arc.const_ps + cl * arc.td_ps_per_pf
            excess = (lp_tail + d_new) - lp_head
            np.maximum(worst, excess, out=worst)
        lm = margin - worst
        crit += lm <= 0.0
        pen = 1.0 - lm / limit
        for i in np.flatnonzero(lm < 0.0):
            pen[i] = math.exp(-float(lm[i]) / limit)
        gl += pen - penalty(margin, limit)
        for td_ps in arc_rows.td_floats():
            ld += delta_cl * td_ps
    return crit, gl, ld
