"""Lockstep: the free-slot index and the once-per-net requests against
the seed's scanning search in :mod:`repro.reference`.

* Random slot rows under random occupy / release / flag / add-column /
  release-all sequences: after every step, :meth:`RowSlots.find_group`
  answers every probed target and width exactly as
  :func:`~repro.reference.scan_find_group`, which scans the row's
  dictionaries instead of the index.
* Whole two-pass assignments (with feed-cell insertion) on standard-suite
  designs: routing every pass through
  :func:`~repro.reference.scan_assign_all` (fresh requests per net, a full
  row scan per request) grants the same slots, inserts the same cells and
  leaves the same rows.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.circuits import make_dataset, standard_suite
from repro.errors import FeedthroughError
from repro.layout.feedcell import FeedCellInserter
from repro.layout.feedthrough import FeedthroughPlanner, RowSlots
from repro.layout.floorplan import assign_external_pins
from repro.layout.placement import Placement
from repro.netlist.circuit import Net
from repro.reference import scan_assign_all, scan_find_group

NETS = [Net(f"n{i}") for i in range(6)]
SPAN = 40

op_strategy = st.one_of(
    st.tuples(
        st.just("take"),
        st.integers(-5, SPAN + 5),
        st.integers(1, 3),
        st.booleans(),
        st.sampled_from(NETS),
    ),
    st.tuples(st.just("release"), st.sampled_from(NETS)),
    st.tuples(st.just("flag"), st.integers(0, SPAN), st.integers(1, 3)),
    st.tuples(st.just("add"), st.integers(0, SPAN)),
    st.tuples(st.just("release_all")),
)


def _probe(slots: RowSlots) -> None:
    for width in (1, 2, 3):
        for strict in (False, True):
            for target in range(-3, SPAN + 4, 3):
                assert slots.find_group(target, width, strict) == (
                    scan_find_group(slots, target, width, strict)
                ), (target, width, strict)


def _run(columns, ops):
    """Apply ``ops`` to a fresh row, probing after every step; returns
    how many releases freed a slot of a flagged group."""
    slots = RowSlots(0, sorted(columns))
    _probe(slots)
    flagged_releases = 0
    for op in ops:
        kind = op[0]
        if kind == "take":
            _, target, width, strict, net = op
            start = slots.find_group(target, width, strict)
            assert start == scan_find_group(slots, target, width, strict)
            if start is not None:
                slots.occupy(start, width, net)
        elif kind == "release":
            name = op[1].name
            flagged_releases += any(
                slots.flag[c] is not None
                for c, owner in slots.occupant.items()
                if owner == name
            )
            slots.release(name)
        elif kind == "flag":
            try:
                slots.flag_group(op[1], op[2])
            except FeedthroughError:
                pass  # missing or already flagged: a partial flag stands
        elif kind == "add":
            try:
                slots.add_column(op[1])
            except FeedthroughError:
                pass  # already a slot
        else:
            slots.release_all()
        _probe(slots)
    return flagged_releases


@given(
    st.sets(st.integers(0, SPAN), max_size=30),
    st.lists(op_strategy, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_find_group_matches_the_scan(columns, ops):
    _run(columns, ops)


def test_seeded_rows_release_flagged_groups():
    """Seeded sweep over dense rows: the same lockstep, and proof that
    the inputs take and release flagged multi-pitch groups."""
    rng = random.Random(1994)
    flagged_releases = 0
    for _ in range(40):
        columns = {c for c in range(SPAN) if rng.random() < 0.8}
        ops = []
        for _ in range(30):
            roll = rng.random()
            net = rng.choice(NETS)
            if roll < 0.45:
                target = rng.randint(0, SPAN)
                strict = rng.random() < 0.5
                ops.append(("take", target, rng.randint(1, 3), strict, net))
            elif roll < 0.7:
                ops.append(("release", net))
            elif roll < 0.9:
                ops.append(("flag", rng.randint(0, SPAN), rng.randint(2, 3)))
            elif roll < 0.97:
                ops.append(("add", rng.randint(0, SPAN + 5)))
            else:
                ops.append(("release_all",))
        flagged_releases += _run(columns, ops)
    assert flagged_releases > 0


_SPECS = {spec.name: spec for spec in standard_suite()}


def _two_pass(design, monkeypatch=None):
    dataset = make_dataset(_SPECS[design])
    assign_external_pins(dataset.circuit, dataset.placement)
    if monkeypatch is not None:
        monkeypatch.setattr(FeedthroughPlanner, "assign_all", scan_assign_all)
    nets = sorted(dataset.circuit.routable_nets, key=lambda net: net.name)
    inserter = FeedCellInserter(dataset.circuit, dataset.placement)
    planner, assignment, report = inserter.ensure_assignment(nets)
    slots = sorted(
        (name, row, slot.x, slot.width)
        for name, by_row in assignment.slots.items()
        for row, slot in by_row.items()
    )
    rows = [
        (list(r.columns), dict(r.flag), dict(r.occupant))
        for r in planner.rows
    ]
    cells = [[cell.name for cell in row] for row in dataset.placement.rows]
    return slots, rows, cells, report


@pytest.mark.parametrize("design", ["C1P1", "C2P2", "C3P1"])
def test_two_pass_assignment_matches_the_scan(design, monkeypatch):
    production = _two_pass(design)
    assert production[3].insertion_ran  # both passes are exercised
    assert _two_pass(design, monkeypatch) == production


def test_requests_are_computed_once_per_net(monkeypatch):
    """Both passes share one request table (feed-cell insertion moves
    cells only within their rows): each net's rows are read once."""
    calls = []
    original = Placement.net_feedthrough_rows

    def counting(self, net):
        calls.append(net.name)
        return original(self, net)

    monkeypatch.setattr(Placement, "net_feedthrough_rows", counting)
    _, _, _, report = _two_pass("C1P1")
    assert report.insertion_ran
    assert len(calls) == len(set(calls))


def _seed_nearest_index(ideal, row_len, corridors):
    """The seed's outward search, one candidate index at a time."""
    ideal = max(0, min(row_len, ideal))
    for delta in range(row_len + 1):
        for candidate in (ideal - delta, ideal + delta):
            if 0 <= candidate <= row_len and all(
                not (lo < candidate <= hi) for lo, hi in corridors
            ):
                return candidate
    raise AssertionError("index 0 is always allowed")


@given(
    st.integers(0, 30).flatmap(
        lambda row_len: st.tuples(
            st.just(row_len),
            st.lists(
                st.tuples(
                    st.integers(0, max(0, row_len - 1)),
                    st.integers(0, 4),
                ).map(lambda t: (t[0], min(row_len - 1, t[0] + t[1]))),
                max_size=6,
            ),
            st.integers(-2, row_len + 2),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_insertion_index_matches_the_outward_search(case):
    """Insertion indices avoid preserved corridors exactly as the seed's
    one-index-at-a-time search did, ties going to the lower index."""
    row_len, corridors, ideal = case
    corridors = [(lo, hi) for lo, hi in corridors if lo <= hi]
    blocked = FeedCellInserter._blocked_ranges(corridors)
    firsts = [first for first, _ in blocked]
    assert FeedCellInserter._nearest_allowed_index(
        ideal, row_len, blocked, firsts
    ) == _seed_nearest_index(ideal, row_len, corridors)

