"""VCG-aware left-edge channel routing.

Given the global router's per-channel horizontal spans and attachment
points, this module assigns every span to a track using the classic
left-edge algorithm extended with vertical constraints:

* at any column where net ``A`` enters from the channel's top and net
  ``B`` from its bottom, ``A``'s track must lie above ``B``'s;
* tracks are filled top to bottom, each track greedily packed left to
  right with spans whose vertical-constraint ancestors are already placed;
* a vertical-constraint *cycle* (requiring a dogleg in a full router) is
  broken by relaxing the constraints of one involved span — the break is
  counted and reported;
* a ``w``-pitch span occupies ``w`` tracks: it is expanded into ``w``
  chained unit spans that land on distinct tracks.

From the track assignment the router derives (a) each channel's final
track count — hence the chip height and area of Table 2 — and (b) each
net's in-channel vertical wire length, which is added to the global
estimate to produce the paper's "after channel routing" delays.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.result import AttachSide, GlobalRoutingResult, NetRoute
from ..errors import ChannelRoutingError
from ..geometry import Interval
from ..layout.floorplan import Floorplan
from ..layout.placement import Placement
from ..tech import Technology


@dataclass
class ChannelSegment:
    """One horizontal span to place on a track."""

    net_name: str
    interval: Interval
    part: int = 0           # multipitch part index (0 = topmost)
    parts: int = 1          # total parts of the span's net width
    attach_top: List[int] = field(default_factory=list)
    attach_bottom: List[int] = field(default_factory=list)
    track: Optional[int] = None

    @property
    def key(self) -> Tuple[str, int, int, int]:
        return (self.net_name, self.interval.lo, self.interval.hi, self.part)


@dataclass
class ChannelResult:
    """Track assignment of one channel."""

    channel: int
    tracks: int
    segments: List[ChannelSegment]
    through_columns: Dict[str, int]
    """net -> number of pure vertical feedthrough crossings."""
    constraint_breaks: int = 0
    pin_conflicts: int = 0
    dogleg_splits: int = 0


@dataclass
class ChannelRoutingResult:
    """Track assignment of the whole chip plus derived lengths."""

    channels: Dict[int, ChannelResult]
    net_vertical_um: Dict[str, float]
    constraint_breaks: int
    pin_conflicts: int

    def tracks_per_channel(self) -> Dict[int, int]:
        return {c: r.tracks for c, r in self.channels.items()}

    def floorplan(
        self, placement: Placement, technology: Technology
    ) -> Floorplan:
        return Floorplan.from_placement(
            placement, self.tracks_per_channel(), technology
        )


# ----------------------------------------------------------------------
# Single channel
# ----------------------------------------------------------------------
def route_channel(
    channel: int,
    segments: Sequence[ChannelSegment],
    throughs: Mapping[str, List[int]],
    allow_doglegs: bool = True,
) -> ChannelResult:
    """Assign tracks in one channel.

    Args:
        channel: channel index (for reporting).
        segments: unit-width spans (already expanded for multipitch).
        throughs: per net, columns crossed purely vertically.
        allow_doglegs: break vertical-constraint cycles by splitting the
            stuck span at an internal pin column (the classic dogleg)
            before resorting to constraint relaxation.  The dogleg's own
            short vertical jog is not charged to the net length.
    """
    unplaced = sorted(
        segments, key=lambda s: (s.interval.lo, s.interval.hi)
    )
    predecessors, pin_conflicts = _vertical_constraints(unplaced)

    placed: List[ChannelSegment] = []
    placed_keys: Set[Tuple] = set()
    ready = _Readiness(unplaced, predecessors, placed_keys)
    track = 0
    breaks = 0
    doglegs = 0
    while ready.remaining:
        if not ready.eligible:
            # Vertical-constraint cycle.  Preferred fix: dogleg — split
            # the leftmost stuck span at an internal pin column, which
            # breaks the cycle without ignoring any constraint.  When no
            # split point exists, fall back to relaxing the constraints
            # of that span.  Either way the counters are rebuilt.
            unplaced = ready.unplaced()
            victim = unplaced[0]
            if allow_doglegs and _split_segment(victim, unplaced):
                doglegs += 1
                unplaced.sort(key=lambda s: (s.interval.lo, s.interval.hi))
                predecessors, _ = _vertical_constraints(
                    placed + unplaced
                )
            else:
                predecessors[victim.key] = set()
                breaks += 1
            ready = _Readiness(unplaced, predecessors, placed_keys)
            continue
        track += 1
        for segment in ready.take_track():
            segment.track = track
            placed.append(segment)

    through_counts = {
        net: len(columns) for net, columns in throughs.items() if columns
    }
    return ChannelResult(
        channel=channel,
        tracks=track,
        segments=list(placed),
        through_columns=through_counts,
        constraint_breaks=breaks,
        pin_conflicts=pin_conflicts,
        dogleg_splits=doglegs,
    )


class _Readiness:
    """Which unplaced segments may go on the next track.

    A segment is *eligible* once every key among its vertical-constraint
    predecessors has been placed.  Instead of re-testing every unplaced
    segment per track, each key keeps a count of predecessors not yet
    placed; placing a key decrements its successors' counts, and a key
    whose count reaches zero releases its waiting segments.  Eligible
    segments are kept sorted by ``(lo, hi, order)``, ``order`` being the
    left-edge order of the unplaced list, so packing a track is one
    bisect per chosen segment.
    """

    def __init__(
        self,
        unplaced: Sequence[ChannelSegment],
        predecessors: Mapping[Tuple, Set[Tuple]],
        placed_keys: Set[Tuple],
    ):
        self._placed_keys = placed_keys
        self._segments = list(unplaced)
        self._is_placed = [False] * len(self._segments)
        self.remaining = len(self._segments)
        self._missing: Dict[Tuple, int] = {}
        self._successors: Dict[Tuple, List[Tuple]] = {}
        for key, preds in predecessors.items():
            open_preds = [p for p in preds if p not in placed_keys]
            self._missing[key] = len(open_preds)
            for pred in open_preds:
                self._successors.setdefault(pred, []).append(key)
        self._waiting: Dict[Tuple, List[int]] = {}
        self.eligible: List[Tuple[int, int, int]] = []
        for rank, segment in enumerate(self._segments):
            if self._missing.get(segment.key, 0):
                self._waiting.setdefault(segment.key, []).append(rank)
            else:
                self.eligible.append(self._entry(rank))

    def _entry(self, rank: int) -> Tuple[int, int, int]:
        interval = self._segments[rank].interval
        return (interval.lo, interval.hi, rank)

    def unplaced(self) -> List[ChannelSegment]:
        """The unplaced segments in left-edge order."""
        return [
            segment
            for segment, done in zip(self._segments, self._is_placed)
            if not done
        ]

    def take_track(self) -> List[ChannelSegment]:
        """Pack one track greedily left to right from the eligible
        segments — each next one starts right of the last one's end —
        and place them; segments they release wait for the next track."""
        eligible = self.eligible
        ranks = []
        index = 0
        while index < len(eligible):
            _, hi, rank = eligible[index]
            ranks.append(rank)
            index = bisect_right(eligible, (hi, _AFTER_ALL))
        chosen = set(ranks)
        self.eligible = [entry for entry in eligible if entry[2] not in chosen]
        released = False
        for rank in ranks:
            self._is_placed[rank] = True
            key = self._segments[rank].key
            self._placed_keys.add(key)
            # Popped: a second segment of the same key releases nothing.
            for successor in self._successors.pop(key, ()):
                self._missing[successor] -= 1
                if not self._missing[successor]:
                    for waiting in self._waiting.pop(successor, ()):
                        self.eligible.append(self._entry(waiting))
                        released = True
        if released:
            self.eligible.sort()
        self.remaining -= len(ranks)
        return [self._segments[rank] for rank in ranks]


_AFTER_ALL = float("inf")


def _split_segment(
    victim: ChannelSegment, unplaced: List[ChannelSegment]
) -> bool:
    """Dogleg ``victim`` at an internal attachment column, in place.

    The two halves share the split column (the dogleg's vertical jog
    connects them there) and divide the remaining attachments by side of
    the split.  Returns ``False`` when the span has no internal pin to
    split at.
    """
    internal = sorted(
        column
        for column in set(victim.attach_top) | set(victim.attach_bottom)
        if victim.interval.lo < column < victim.interval.hi
    )
    if not internal:
        return False
    split = internal[len(internal) // 2]
    left = ChannelSegment(
        net_name=victim.net_name,
        interval=Interval(victim.interval.lo, split),
        part=victim.part,
        parts=victim.parts,
        attach_top=[c for c in victim.attach_top if c <= split],
        attach_bottom=[c for c in victim.attach_bottom if c <= split],
    )
    right = ChannelSegment(
        net_name=victim.net_name,
        interval=Interval(split, victim.interval.hi),
        part=victim.part,
        parts=victim.parts,
        attach_top=[c for c in victim.attach_top if c > split],
        attach_bottom=[c for c in victim.attach_bottom if c > split],
    )
    index = unplaced.index(victim)
    unplaced[index : index + 1] = [left, right]
    return True


def _vertical_constraints(
    segments: Sequence[ChannelSegment],
) -> Tuple[Dict[Tuple, Set[Tuple]], int]:
    """Build the VCG: ``predecessors[s]`` must be placed above ``s``.

    Also counts pin conflicts (two different nets entering from the same
    side at the same column — a full router would need a jog there).
    """
    top_at: Dict[int, List[ChannelSegment]] = {}
    bottom_at: Dict[int, List[ChannelSegment]] = {}
    for segment in segments:
        for column in segment.attach_top:
            top_at.setdefault(column, []).append(segment)
        for column in segment.attach_bottom:
            bottom_at.setdefault(column, []).append(segment)

    predecessors: Dict[Tuple, Set[Tuple]] = {}
    conflicts = 0
    for columns_map in (top_at, bottom_at):
        for column, members in columns_map.items():
            nets = {m.net_name for m in members}
            if len(nets) > 1:
                conflicts += 1
    for column, tops in top_at.items():
        for bottom_segment in bottom_at.get(column, ()):  # noqa: B007
            for top_segment in tops:
                if top_segment.net_name == bottom_segment.net_name:
                    continue
                predecessors.setdefault(
                    bottom_segment.key, set()
                ).add(top_segment.key)
    return predecessors, conflicts


# ----------------------------------------------------------------------
# Whole chip
# ----------------------------------------------------------------------
def route_channels(
    result: GlobalRoutingResult,
    placement: Placement,
    technology: Technology = Technology(),
    optimize_tracks: bool = True,
    *,
    metrics=None,
    tracer=None,
) -> ChannelRoutingResult:
    """Channel-route every channel of a global routing result.

    ``optimize_tracks`` runs the track-order post-pass
    (:mod:`repro.channelrouter.trackorder`) on each channel before the
    vertical stub lengths are measured.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) and
    ``tracer`` (a :class:`~repro.obs.events.Tracer`) are optional
    observability hooks: per-channel ``channel_routed`` events and
    chip-wide track/break counters.
    """
    per_channel_segments: Dict[int, List[ChannelSegment]] = {}
    per_channel_throughs: Dict[int, Dict[str, List[int]]] = {}

    for net_name in sorted(result.routes):
        route = result.routes[net_name]
        _collect_net(
            route, per_channel_segments, per_channel_throughs
        )

    channels: Dict[int, ChannelResult] = {}
    for channel in range(placement.n_channels):
        segments = per_channel_segments.get(channel, [])
        throughs = per_channel_throughs.get(channel, {})
        channels[channel] = route_channel(channel, segments, throughs)

    if optimize_tracks:
        from .trackorder import optimize_all_channels

        optimize_all_channels(channels)

    if metrics is not None:
        metrics.counter("channel.tracks_total").inc(
            sum(r.tracks for r in channels.values())
        )
        metrics.counter("channel.constraint_breaks").inc(
            sum(r.constraint_breaks for r in channels.values())
        )
        metrics.counter("channel.pin_conflicts").inc(
            sum(r.pin_conflicts for r in channels.values())
        )
        metrics.counter("channel.dogleg_splits").inc(
            sum(r.dogleg_splits for r in channels.values())
        )
    if tracer is not None and tracer.enabled:
        for channel in sorted(channels):
            channel_result = channels[channel]
            tracer.emit(
                "channel_routed",
                channel=channel,
                tracks=channel_result.tracks,
                constraint_breaks=channel_result.constraint_breaks,
                dogleg_splits=channel_result.dogleg_splits,
            )

    net_vertical = _vertical_lengths(channels, technology)
    return ChannelRoutingResult(
        channels=channels,
        net_vertical_um=net_vertical,
        constraint_breaks=sum(
            r.constraint_breaks for r in channels.values()
        ),
        pin_conflicts=sum(r.pin_conflicts for r in channels.values()),
    )


def _collect_net(
    route: NetRoute,
    segments_out: Dict[int, List[ChannelSegment]],
    throughs_out: Dict[int, Dict[str, List[int]]],
) -> None:
    """Split one net into per-channel spans / throughs with attachments."""
    spans = route.trunk_intervals()
    attach_by_channel: Dict[int, List] = {}
    for attachment in route.attachments:
        attach_by_channel.setdefault(attachment.channel, []).append(
            attachment
        )

    touched = set(spans) | set(attach_by_channel)
    for channel in touched:
        channel_spans = spans.get(channel, [])
        # Merged spans are sorted and disjoint: one bisect finds the
        # only span an attachment can fall in, and a pass in attachment
        # order keeps each span's pins in that order.
        los = [interval.lo for interval in channel_spans]
        tops: List[List[int]] = [[] for _ in channel_spans]
        bottoms: List[List[int]] = [[] for _ in channel_spans]
        leftover = set()
        for attachment in attach_by_channel.get(channel, ()):
            column = attachment.column
            index = bisect_right(los, column) - 1
            if index < 0 or column > channel_spans[index].hi:
                leftover.add(column)
            elif attachment.side is AttachSide.TOP:
                tops[index].append(column)
            else:
                bottoms[index].append(column)
        for interval, top, bottom in zip(channel_spans, tops, bottoms):
            for part in range(route.width_pitches):
                segments_out.setdefault(channel, []).append(
                    ChannelSegment(
                        net_name=route.net_name,
                        interval=interval,
                        part=part,
                        parts=route.width_pitches,
                        attach_top=list(top),
                        attach_bottom=list(bottom),
                    )
                )
        # Attachments with no horizontal span: pure vertical crossings.
        if leftover:
            throughs_out.setdefault(channel, {}).setdefault(
                route.net_name, []
            ).extend(sorted(leftover))


def _vertical_lengths(
    channels: Dict[int, ChannelResult], technology: Technology
) -> Dict[str, float]:
    """Per-net vertical wire added inside the channels."""
    lengths: Dict[str, float] = {}
    pitch = technology.track_pitch_um
    for channel_result in channels.values():
        tracks = channel_result.tracks
        height = technology.channel_height_um(tracks)
        # Group multipitch parts: attachments connect to the outermost
        # part on their side.
        groups: Dict[Tuple[str, int, int], List[ChannelSegment]] = {}
        for segment in channel_result.segments:
            group_key = (
                segment.net_name,
                segment.interval.lo,
                segment.interval.hi,
            )
            groups.setdefault(group_key, []).append(segment)
        for (net_name, _, _), members in groups.items():
            member_tracks = sorted(
                s.track for s in members if s.track is not None
            )
            if not member_tracks:
                raise ChannelRoutingError(
                    f"unplaced segment for net {net_name}"
                )
            top_track = member_tracks[0]
            bottom_track = member_tracks[-1]
            total = 0.0
            for column in members[0].attach_top:
                total += top_track * pitch
            for column in members[0].attach_bottom:
                total += (tracks - bottom_track + 1) * pitch
            lengths[net_name] = lengths.get(net_name, 0.0) + total
        for net_name, count in channel_result.through_columns.items():
            lengths[net_name] = (
                lengths.get(net_name, 0.0) + count * height
            )
    return lengths
