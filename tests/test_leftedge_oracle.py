"""Lockstep: the counter-driven left-edge router against the seed's
per-track rescan (:func:`repro.reference.scan_route_channel`).

Random channel segment sets — a few nets, short columns, top and bottom
attachments on shared columns, so vertical-constraint cycles that force
dogleg splits and constraint relaxations are common — must get the same
tracks, in the same result order, with the same breaks, splits and pin
conflicts, with and without doglegs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.channelrouter.leftedge import ChannelSegment, route_channel
from repro.geometry import Interval
from repro.reference import scan_route_channel

NET_NAMES = "abcdef"


@st.composite
def segment_specs(draw):
    n = draw(st.integers(0, 14))
    specs = []
    for _ in range(n):
        net = draw(st.sampled_from(NET_NAMES))
        lo = draw(st.integers(0, 12))
        hi = draw(st.integers(lo, lo + 8))
        part = draw(st.integers(0, 1))
        columns = st.lists(st.integers(lo, hi), max_size=3)
        specs.append((net, lo, hi, part, draw(columns), draw(columns)))
    return specs


def _segments(specs):
    """Fresh segments (routing mutates and splits them)."""
    return [
        ChannelSegment(
            net_name=net,
            interval=Interval(lo, hi),
            part=part,
            parts=2,
            attach_top=list(top),
            attach_bottom=list(bottom),
        )
        for net, lo, hi, part, top, bottom in specs
    ]


def _outcome(result):
    return (
        result.tracks,
        result.constraint_breaks,
        result.dogleg_splits,
        result.pin_conflicts,
        result.through_columns,
        [
            (
                s.net_name,
                s.interval.lo,
                s.interval.hi,
                s.part,
                s.track,
                s.attach_top,
                s.attach_bottom,
            )
            for s in result.segments
        ],
    )


def _lockstep(specs, allow_doglegs):
    throughs = {"a": [3], "b": []}
    got = route_channel(7, _segments(specs), throughs, allow_doglegs)
    want = scan_route_channel(7, _segments(specs), throughs, allow_doglegs)
    assert _outcome(got) == _outcome(want)
    return got


@given(segment_specs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_route_channel_matches_the_rescan(specs, allow_doglegs):
    _lockstep(specs, allow_doglegs)


def test_random_channels_cover_doglegs_and_relaxations():
    """Seeded sweep: the same lockstep, and proof that the inputs reach
    both cycle fixes and duplicate segment keys."""
    rng = random.Random(1994)
    breaks = splits = duplicates = 0
    for _ in range(400):
        specs = []
        for _ in range(rng.randint(2, 12)):
            lo = rng.randint(0, 10)
            hi = rng.randint(lo, lo + 6)
            specs.append(
                (
                    rng.choice("abcd"),
                    lo,
                    hi,
                    rng.randint(0, 1),
                    [rng.randint(lo, hi) for _ in range(rng.randint(0, 3))],
                    [rng.randint(lo, hi) for _ in range(rng.randint(0, 3))],
                )
            )
        keys = [spec[:4] for spec in specs]
        duplicates += len(keys) != len(set(keys))
        for allow_doglegs in (True, False):
            result = _lockstep(specs, allow_doglegs)
            breaks += result.constraint_breaks
            splits += result.dogleg_splits
    assert breaks > 0 and splits > 0 and duplicates > 0


def test_duplicate_keys_release_a_successor_once():
    """Two copies of one segment key land on different tracks; the
    second placement must not count as placing another predecessor.
    ``b`` waits below ``c`` (column 30) and both ``a`` copies (column
    31); ``c`` waits below ``e``, which waits below ``f``."""
    specs = [
        ("b", 10, 12, 0, [], [30, 31]),
        ("c", 20, 22, 0, [30], [40]),
        ("a", 13, 14, 0, [31], []),
        ("a", 13, 14, 0, [31], []),
        ("e", 23, 25, 0, [40], [41]),
        ("f", 26, 27, 0, [41], []),
    ]
    result = _lockstep(specs, allow_doglegs=True)
    tracks = {s.net_name: s.track for s in result.segments}
    assert tracks["c"] == 3 and tracks["b"] == 4
