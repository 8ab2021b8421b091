"""Golden channel routes: the standard suite's track assignments, pinned.

The left-edge channel router turns each global route into Table 2's
area and the "after channel routing" net lengths.  This file pins its
output for C1P1..C3P1, constrained and unconstrained, against
``tests/golden/standard_suite_channels.json``:

* the track count of every channel;
* per channel, the SHA-256 of its segments ``(net, lo, hi, part,
  track)`` in result order;
* the constraint breaks and dogleg splits of every channel;
* the SHA-256 of every net's in-channel vertical length;
* the chip area.

Regenerate the file (only for an intended change of channel routes)
with::

    PYTHONPATH=src python -m tests.test_golden_channels --write

Like the golden routes, the file maps Python ``major.minor`` to that
version's record, and the test skips on a version without one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.bench.circuits import make_dataset
from repro.channelrouter.leftedge import route_channels
from repro.core import GlobalRouter, RouterConfig
from repro.layout.floorplan import Floorplan

from .test_golden_routes import DESIGNS, MODES, _SPECS, _python_key, _sha

GOLDEN = Path(__file__).parent / "golden" / "standard_suite_channels.json"


def channel_record(design: str, mode: str) -> Dict[str, object]:
    """Route and channel-route one design; digest everything pinned."""
    dataset = make_dataset(_SPECS[design])
    config = RouterConfig()
    if mode == "unconstrained":
        config = config.unconstrained()
    router = GlobalRouter(
        dataset.circuit, dataset.placement, dataset.constraints, config
    )
    result = router.route()
    channels = route_channels(result, dataset.placement, config.technology)
    ordered = [channels.channels[c] for c in sorted(channels.channels)]
    floorplan = Floorplan.from_placement(
        dataset.placement, channels.tracks_per_channel(), config.technology
    )
    return {
        "tracks": [c.tracks for c in ordered],
        "segments_sha256": [
            _sha(
                [
                    [s.net_name, s.interval.lo, s.interval.hi, s.part, s.track]
                    for s in c.segments
                ]
            )
            for c in ordered
        ],
        "constraint_breaks": [c.constraint_breaks for c in ordered],
        "dogleg_splits": [c.dogleg_splits for c in ordered],
        "net_vertical_sha256": _sha(
            sorted(
                [name, repr(length)]
                for name, length in channels.net_vertical_um.items()
            )
        ),
        "area_mm2": repr(floorplan.area_mm2),
    }


def _expected() -> Dict[str, Dict[str, object]]:
    records = json.loads(GOLDEN.read_text()).get(_python_key())
    if records is None:
        pytest.skip(f"no golden channel record for python {_python_key()}")
    return records


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("design", DESIGNS)
def test_channels_match_golden(design, mode):
    expected = _expected()[f"{design}/{mode}"]
    got = channel_record(design, mode)
    assert got["tracks"] == expected["tracks"]
    changed = [
        channel
        for channel, (a, b) in enumerate(
            zip(got["segments_sha256"], expected["segments_sha256"])
        )
        if a != b
    ]
    assert not changed, f"{design}/{mode}: segments changed in {changed}"
    assert got["constraint_breaks"] == expected["constraint_breaks"]
    assert got["dogleg_splits"] == expected["dogleg_splits"]
    assert got["net_vertical_sha256"] == expected["net_vertical_sha256"]
    assert got["area_mm2"] == expected["area_mm2"]


def _write() -> None:
    records = {
        f"{design}/{mode}": channel_record(design, mode)
        for design in DESIGNS
        for mode in MODES
    }
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data[_python_key()] = records
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote python {_python_key()} record to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_channels --write")
    _write()
