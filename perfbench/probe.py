"""Machine-speed probe: a fixed piece of work that uses no code of the
repository, timed next to every routed design.

The benchmark shares a host whose speed drifts by 30% and more over
seconds to minutes (other tenants on the same cores and caches), and a
routed circuit's wall time drifts with it; thread CPU time drifts just
as much.  Timing the probe right before and right after each design and
rescaling the design's times by ``(NOMINAL_S / probe time) ** EXPONENT``
takes most of that drift out: routing one fixed circuit for 300 s gave
30-flow window means whose quartile spread was 10% in wall time and
3-4% rescaled.

The probe is single-source shortest paths on a fixed random graph in
pure Python (heap, dict and list traffic like the router's deletion
loop), so it slows down with the router when the host is busy.  It does
not change with the program under test, so a slower program still reads
slower.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import List, Tuple

#: The probe's wall time on an idle 2-core host.  Rescaled times are in
#: seconds at that speed; only their ratio between commits matters.
NOMINAL_S = 0.075
#: How the router's time follows the probe's.  Regressing log wall time
#: on log probe time gave slopes of 0.76-0.83 over runs on a host whose
#: load changed between them, and up to 1.0 over windows of one run; at
#: 0.9, a host 2.3 times slower than nominal moves a rescaled time by
#: under 9% either way, where 1.0 would move it by up to 18%.
EXPONENT = 0.9

_VERTICES = 3000
_SOURCES = 8


def _graph() -> List[List[Tuple[int, float]]]:
    rng = random.Random(7)
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(_VERTICES)]
    for _ in range(4 * _VERTICES):
        a, b, w = rng.randrange(_VERTICES), rng.randrange(_VERTICES), rng.random()
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


_ADJ = _graph()
#: Total of all shortest distances, to check that the probe did its work.
_EXPECTED: List[float] = []


def _work() -> float:
    total = 0.0
    for source in range(_SOURCES):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


def factor(probe_s: float) -> float:
    """The factor that rescales a time taken where the probe took
    ``probe_s`` to the nominal machine speed."""
    return (NOMINAL_S / probe_s) ** EXPONENT


def scale(before: float, after: float) -> float:
    """The factor that rescales a time taken between two probes."""
    return factor((before + after) / 2)


def probe() -> float:
    """Wall seconds of one run of the fixed work."""
    t0 = time.perf_counter()
    total = _work()
    elapsed = time.perf_counter() - t0
    if not _EXPECTED:
        _EXPECTED.append(total)
    elif total != _EXPECTED[0]:
        raise RuntimeError("machine-speed probe computed a different result")
    return elapsed
