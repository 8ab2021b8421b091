"""Per-deletion decision records (Section 3.4 explainability).

The trace's ``edge_deleted`` events say *what* was deleted; a
``deletion_decision`` event says *why*: the winning candidate's full
lexicographic selection key decoded into named conditions, the runner-up
candidate's key, and which condition broke the tie.  Decision records are
sampled — emitting one per deletion roughly doubles the trace volume, so
the default keeps every Nth record and a run being debugged switches to
``all``:

* ``all`` — one record per deletion;
* ``nth:N`` — every Nth deletion (0-based index divisible by N);
* ``off`` — no records.

:class:`DecisionPolicy` parses and applies the sampling spec;
:func:`decision_payload` builds the event payload from the selection
outcome the router's candidate selector records on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: obs must stay importable without
    # pulling the core package (which itself imports repro.obs).
    from ..core.selection import SelectionMode

DECISION_SAMPLING_DEFAULT = "nth:25"
"""Default sampling spec: one decision record every 25 deletions."""


class SelectionOutcome(NamedTuple):
    """What one ``select()`` call saw: winner, runner-up, tie-breaker.

    :class:`~repro.core.candidates.CandidateEngine` (and the rescan
    oracle in :mod:`repro.reference`) stores one of these on the router (via
    ``GlobalRouter._record_selection``) whenever tracing is enabled, so
    the deletion that follows can be explained.
    """

    best_key: tuple
    runner_key: Optional[tuple]
    criterion: str
    depth: int
    mode: "SelectionMode"


@dataclass(frozen=True)
class DecisionPolicy:
    """Sampling policy for decision records."""

    mode: str        # "all" | "nth" | "off"
    every: int = 1

    @staticmethod
    def parse(
        spec: Union[str, "DecisionPolicy", None]
    ) -> "DecisionPolicy":
        """Parse ``all`` / ``off`` / ``nth:N`` (``None`` -> the default).

        Raises :class:`ValueError` on malformed specs.
        """
        if isinstance(spec, DecisionPolicy):
            return spec
        if spec is None:
            spec = DECISION_SAMPLING_DEFAULT
        text = str(spec).strip().lower()
        if text == "all":
            return DecisionPolicy("all")
        if text in ("off", "none"):
            return DecisionPolicy("off")
        if text.startswith("nth:"):
            try:
                every = int(text[4:])
            except ValueError:
                raise ValueError(
                    f"bad decision sampling spec {spec!r}: "
                    f"{text[4:]!r} is not an integer"
                ) from None
            if every < 1:
                raise ValueError(
                    f"bad decision sampling spec {spec!r}: N must be >= 1"
                )
            return DecisionPolicy("nth", every)
        raise ValueError(
            f"bad decision sampling spec {spec!r} "
            "(expected 'all', 'off', or 'nth:N')"
        )

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def wants(self, deletion_index: int) -> bool:
        """Should the deletion with this 0-based index get a record?"""
        if self.mode == "all":
            return True
        if self.mode == "off":
            return False
        return deletion_index % self.every == 0

    def spec(self) -> str:
        """The canonical textual form ``parse`` accepts back."""
        if self.mode == "nth":
            return f"nth:{self.every}"
        return self.mode


def _json_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    """Round float conditions for compact, stable JSONL output."""
    return {
        name: (round(value, 9) if isinstance(value, float) else value)
        for name, value in fields.items()
    }


def decision_payload(outcome: SelectionOutcome) -> Dict[str, Any]:
    """Build the ``deletion_decision`` event payload (minus identity
    fields like ``net``/``edge``/``phase``, which the emitter adds)."""
    from ..core.selection import key_fields

    payload: Dict[str, Any] = {
        "mode": outcome.mode.value,
        "criterion": outcome.criterion,
        "criterion_depth": outcome.depth,
        "winner_key": _json_fields(
            key_fields(outcome.best_key, outcome.mode)
        ),
    }
    if outcome.runner_key is not None:
        payload["runner_up"] = _json_fields(
            key_fields(outcome.runner_key, outcome.mode)
        )
    else:
        payload["runner_up"] = None
    return payload
