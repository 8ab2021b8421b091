"""Router configuration.

Every field changes what the router computes or how long it may search.
How it computes is not configurable: candidate selection and tentative
trees each have one production path, and the seed's reference versions
are test oracles in :mod:`repro.reference`, not knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import ConfigError
from ..tech import Technology


@dataclass(frozen=True)
class RouterConfig:
    """Knobs of the global router.

    The defaults reproduce the paper's constrained runs; the *unconstrained*
    baseline of Table 2 is obtained with ``timing_driven=False`` (delay
    criteria all compare equal, the violation-recovery and delay-improvement
    phases are skipped, but area improvement still runs).

    Attributes:
        technology: process geometry and capacitance.
        timing_driven: honour timing constraints and delay criteria.
        run_violation_recovery / run_delay_improvement /
        run_area_improvement: enable the three Section 3.5 phases.
        max_recovery_passes: rip-up sweeps attempted to clear violations.
        max_delay_passes: sweeps of the delay-improvement loop.
        max_area_passes: sweeps of the area-improvement loop.
        area_nets_per_pass: congested nets rerouted per area sweep.
        width_cap_exponent: capacitance scaling of w-pitch wires.
        pad_tf_ps_per_pf / pad_td_ps_per_pf: external pad drive strength.
        ff_setup_ps: flip-flop setup time charged on D arcs.
        revert_worse_reroutes: snapshot nets before rip-up and restore the
            old route when the reroute made the phase metric worse.
        reassign_slots_on_reroute: during rip-up, release the net's
            feedthrough slots and re-search from its centre column, so
            critical nets rerouted early can reclaim better crossings.
        tree_estimator: tentative-tree estimator — ``"spt"`` (the paper's
            union of shortest paths) or ``"steiner"`` (KMB Steiner
            approximation; tighter lengths, ~10-50× slower).
        routing_engine: which routing algorithm produces the result —
            ``"edge-deletion"`` (default; the paper's global greedy
            deletion loop plus the Section 3.5 improvement phases) or
            ``"negotiated"`` (PathFinder-style iterative
            rip-up-and-reroute with present-congestion and history
            costs; legal but not bit-identical to edge-deletion).  See
            :mod:`repro.engines`.
        neg_init_pn: initial present-congestion penalty multiplier of
            the negotiated engine (PathFinder's ``init_pn``).
        neg_pn_factor: multiplicative penalty escalation per negotiation
            iteration (``pn *= pn_factor``); must be > 1 so congestion
            eventually becomes unaffordable.
        neg_history_weight: weight of the accumulated per-column history
            cost (PathFinder's ``hn``) in the negotiated edge cost.
        neg_max_iterations: negotiation iterations before the engine
            relaxes capacity on still-overused channels to guarantee
            termination.
        assignment_order: feedthrough-assignment net order — ``None``
            picks the paper's behaviour (ascending zero-wire slack when
            timing-driven, netlist order otherwise); explicit options are
            ``"slack"``, ``"netlist"``, ``"fanout"`` (descending), and
            ``"hpwl"`` (descending span).  Section 3.1 notes "these
            assignments depend on the net ordering" — the ablation bench
            quantifies by how much.
    """

    technology: Technology = field(default_factory=Technology)
    timing_driven: bool = True
    run_violation_recovery: bool = True
    run_delay_improvement: bool = True
    run_area_improvement: bool = True
    max_recovery_passes: int = 3
    max_delay_passes: int = 1
    max_area_passes: int = 1
    area_nets_per_pass: int = 16
    width_cap_exponent: float = 1.0
    pad_tf_ps_per_pf: float = 40.0
    pad_td_ps_per_pf: float = 100.0
    ff_setup_ps: float = 0.0
    revert_worse_reroutes: bool = True
    reassign_slots_on_reroute: bool = True
    tree_estimator: str = "spt"
    routing_engine: str = "edge-deletion"
    neg_init_pn: float = 0.5
    neg_pn_factor: float = 1.6
    neg_history_weight: float = 0.4
    neg_max_iterations: int = 40
    assignment_order: Optional[str] = None

    def __post_init__(self) -> None:
        for name in (
            "max_recovery_passes",
            "max_delay_passes",
            "max_area_passes",
            "area_nets_per_pass",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"RouterConfig.{name} must be >= 0")
        if self.width_cap_exponent <= 0.0:
            raise ConfigError("width_cap_exponent must be positive")
        if self.tree_estimator not in ("spt", "steiner"):
            raise ConfigError(
                f"unknown tree_estimator {self.tree_estimator!r}"
            )
        if self.routing_engine not in ("edge-deletion", "negotiated"):
            raise ConfigError(
                f"unknown routing_engine {self.routing_engine!r}"
            )
        if self.neg_init_pn < 0.0:
            raise ConfigError("neg_init_pn must be >= 0")
        if self.neg_pn_factor <= 1.0:
            raise ConfigError("neg_pn_factor must be > 1")
        if self.neg_history_weight < 0.0:
            raise ConfigError("neg_history_weight must be >= 0")
        if self.neg_max_iterations < 1:
            raise ConfigError("neg_max_iterations must be >= 1")
        if self.assignment_order not in (
            None, "slack", "netlist", "fanout", "hpwl",
        ):
            raise ConfigError(
                f"unknown assignment_order {self.assignment_order!r}"
            )

    def unconstrained(self) -> "RouterConfig":
        """The Table 2 baseline variant of this configuration."""
        return replace(
            self,
            timing_driven=False,
            run_violation_recovery=False,
            run_delay_improvement=False,
        )
