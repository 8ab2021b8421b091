"""Service workload: an in-process ``RoutingService`` (fresh result
cache, default two workers, ephemeral port) driven closed-loop by two
client connections from this process.

Each client takes the next operation from one seeded sequence, waits
for it to finish, then takes the next, until the sequence is used up.
``--seconds`` sets the sequence's length, not how long the clients
drive, so two versions of the code always submit the same jobs.  The
sequence runs in chunks of ``CHUNK_OPS`` operations; between chunks,
with the service idle, this process times the machine-speed probe, and
each chunk's times are rescaled by the probes on either side of it.
Operations come in shuffled
blocks of ten: four cold jobs (a seed never routed before, so a pool
execution and a cache write), four warm resubmissions of a reference
job (cache reads), and two in-flight duplicates (a cold job submitted
twice back to back, so the second submission coalesces onto the
first).  Submit-to-done time is taken from the job's event stream,
which the server closes the moment the job is terminal.

The 4/4/2 mix and the even rotation of cold jobs over the designs are
an assumption, not recorded traffic: no service traffic has been
recorded for this project.  Equal cold and warm shares put a cache
write beside every cache read.  ``jobs_per_s``, the cold latencies and
the cache-hit ratio all depend on this split, so revisit it once real
traffic is known.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench import circuits
from repro.exec.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.server import RoutingService, ServiceConfig, ServiceThread

import flows
import probe
import spans as tracing
from stats import Ledger, median, ratio, tail

DESIGNS = ("S1P1", "S2P1", "C1P1")
BLOCK = ("cold",) * 4 + ("warm",) * 4 + ("dup",) * 2
CLIENTS = 2
#: Planned operations per second of ``--seconds`` (a 2-core machine
#: completes ~6).  It fixes the length of the operation sequence.
OPS_PER_S = 6.0
#: Operations between two machine-speed probes (a few seconds).
CHUNK_OPS = 24
#: Service threads that must be gone once ``ServiceThread.stop`` returns.
THREAD_PREFIX = "repro-service"
#: Record fields a cache hit must reproduce exactly.
RECORD_FIELDS = ("dataset", "constrained", "delay_ps", "area_mm2", "length_mm",
                 "violations", "deletions", "reroutes", "feed_cells_inserted")


@dataclass(frozen=True)
class Op:
    kind: str  # cold | warm | dup
    dataset: str
    seed: Optional[int]

    def payload(self) -> Dict:
        return {"kind": "route", "dataset": self.dataset, "seed": self.seed}


class OpSequence:
    """The seeded sequence of ``count`` operations the clients share."""

    def __init__(self, seed: Optional[int], count: int):
        self.base_seed = seed
        self.left = count
        #: Operations the current chunk may still take; see ``release``.
        self.released = count
        self._rng = random.Random(0 if seed is None else seed)
        self._block: List[str] = []
        self._cold = 0
        self._lock = threading.Lock()

    def release(self, count: int) -> None:
        """Let the next ``count`` operations be taken (a chunk)."""
        with self._lock:
            self.released = min(count, self.left)

    def next(self) -> Optional[Op]:
        """The next operation, or ``None`` once all operations, or all
        the current chunk released, have been taken."""
        with self._lock:
            if self.left <= 0 or self.released <= 0:
                return None
            self.left -= 1
            self.released -= 1
            if not self._block:
                self._block = list(BLOCK)
                self._rng.shuffle(self._block)
            kind = self._block.pop()
            if kind == "warm":
                return Op(kind, self._rng.choice(DESIGNS), self.base_seed)
            dataset = DESIGNS[self._cold % len(DESIGNS)]
            self._cold += 1
            # Far above any suite or benchmark seed, so never a cache hit.
            return Op(kind, dataset, self._rng.randrange(10**9, 2 * 10**9))


@dataclass
class Sample:
    kind: str  # cold | warm | coalesced
    dataset: str
    latency_s: float
    status: Dict
    record: Dict
    #: ``probe.scale`` of the probes around this sample's chunk.
    scale: float = 1.0


def record_key(record: Dict) -> tuple:
    return tuple(record.get(name) for name in RECORD_FIELDS)


def run_op(client: ServiceClient, op: Op, base: Dict[str, Dict]) -> tuple:
    """Execute one operation; returns ``(samples, problems)``.  A
    refused submission (such as a 429), a failed job or a broken
    connection is a problem, not an exception."""
    try:
        return _run_op(client, op, base)
    except Exception as exc:  # noqa: BLE001 - a failed op, keep driving
        return [], [f"{type(exc).__name__}: {exc}"]


def _run_op(client: ServiceClient, op: Op, base: Dict[str, Dict]) -> tuple:
    payload = op.payload()
    problems: List[str] = []
    t0 = time.perf_counter()
    first = client.submit(payload)
    if op.kind == "dup":
        t1 = time.perf_counter()
        if client.submit(payload)["id"] != first["id"]:
            problems.append("duplicate submission got a different job")
    if first["status"] not in ("done", "failed"):
        for _ in client.events(first["id"]):
            pass
    done = time.perf_counter()
    final = client.result(first["id"])
    record = final["result"]["record"]
    if record.get("dataset") != op.dataset:
        problems.append(f"result is for {record.get('dataset')}, not {op.dataset}")
    if op.kind == "warm":
        if not first["cached"]:
            problems.append("warm resubmission was not served from the cache")
        if record_key(record) != record_key(base[op.dataset]):
            problems.append("cache hit differs from the cold result")
    samples = [Sample("warm" if first["cached"] else "cold", op.dataset, done - t0, final, record)]
    if op.kind == "dup":
        samples.append(Sample("coalesced", op.dataset, done - t1, final, record))
    return samples, problems


@dataclass
class Session:
    """One service lifetime: start, reference jobs, timed window, drain."""

    samples: List[Sample] = field(default_factory=list)
    base: Dict[str, Dict] = field(default_factory=dict)
    references: List[flows.FlowResult] = field(default_factory=list)
    window_s: float = 0.0
    #: The window's wall time with each chunk rescaled like its samples.
    scaled_window_s: float = 0.0
    probes: List[float] = field(default_factory=list)
    start_s: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    spans: List[tracing.Span] = field(default_factory=list)


def start_service(cache_dir: Path) -> tuple:
    t0 = time.perf_counter()
    service = RoutingService(ServiceConfig(port=0), cache=ResultCache(cache_dir))
    thread = ServiceThread(service).start()
    return service, thread, time.perf_counter() - t0


def stop_service(thread: ServiceThread, ledger: Ledger) -> None:
    """Drain the service; any of its threads still alive is a failure."""
    thread.stop()
    alive = [t.name for t in threading.enumerate()
             if t.name.startswith(THREAD_PREFIX) and t.is_alive()]
    ledger.record("service drain", [f"threads alive after stop: {alive}"] if alive else [])


def run_session(
    seed: Optional[int],
    seconds: float,
    work_dir: Path,
    ledger: Ledger,
    recorder: Optional[tracing.SpanRecorder] = None,
) -> Session:
    session = Session()
    lock = threading.Lock()
    # Set-up is timed three times, each rescaled by the probes on either
    # side of it; the last service is the one measured.
    for attempt in range(3):
        before = probe.probe()
        service, thread, start_s = start_service(work_dir / f"cache-{attempt}")
        session.start_s.append(start_s * probe.scale(before, probe.probe()))
        if attempt < 2:
            stop_service(thread, ledger)
    first_span = len(recorder.spans) if recorder else 0
    client = ServiceClient(thread.base_url, timeout_s=120.0)
    try:
        for dataset in DESIGNS:
            samples, problems = run_op(client, Op("cold", dataset, seed), session.base)
            ledger.record(f"reference {dataset}", problems)
            if samples:
                session.base[dataset] = samples[0].record
        if len(session.base) == len(DESIGNS):
            sequence = OpSequence(seed, round(OPS_PER_S * seconds))
            # Three times the planned window is the cap; no client takes a
            # further operation after it.
            cap = time.perf_counter() + 3 * seconds

            def drive(chunk: List[Sample]) -> None:
                mine = ServiceClient(thread.base_url, timeout_s=120.0)
                while time.perf_counter() < cap:
                    op = sequence.next()
                    if op is None:
                        return
                    samples, problems = run_op(mine, op, session.base)
                    with lock:
                        chunk.extend(samples)
                        ledger.record(f"{op.kind} {op.dataset}", problems)

            session.probes.append(probe.probe())
            while sequence.left and time.perf_counter() < cap:
                sequence.release(CHUNK_OPS)
                chunk: List[Sample] = []
                t0 = time.perf_counter()
                clients = [threading.Thread(target=drive, args=(chunk,)) for _ in range(CLIENTS)]
                for worker in clients:
                    worker.start()
                for worker in clients:
                    worker.join()
                wall = time.perf_counter() - t0
                session.probes.append(probe.probe())
                scale = probe.scale(*session.probes[-2:])
                for sample in chunk:
                    sample.scale = scale
                session.samples.extend(chunk)
                session.window_s += wall
                session.scaled_window_s += wall * scale
            if sequence.left:
                ledger.record("operations", [f"{sequence.left} left after the {3 * seconds:.0f} s cap"])
    finally:
        session.counters = service.metrics.flat()
        stop_service(thread, ledger)
        if recorder:
            session.spans = recorder.spans[first_span:]
    return session


def check_references(session: Session, seed: Optional[int], ledger: Ledger) -> None:
    """Route each reference job in this process and verify it: the
    service's record must match a result it did not produce."""
    suite = {spec.name: spec for spec in circuits.small_suite() + circuits.standard_suite()}
    for dataset, record in session.base.items():
        flow = flows.run_flow(flows.Design(suite[dataset]), seed)
        problems = [flow.error.strip().splitlines()[-1]] if flow.error else []
        problems += [f"verify: {finding}" for finding in flow.findings]
        local = (flow.delay_ps, flow.area_mm2, flow.length_mm, flow.deletions)
        remote = (record["delay_ps"], record["area_mm2"], record["length_mm"], record["deletions"])
        if not flow.error and local != remote:
            problems.append(f"service record {remote} != in-process {local}")
        if ledger.record(f"check {dataset}", problems):
            session.references.append(flow)


def cold_samples(session: Session) -> List[Sample]:
    return [s for s in session.samples if s.kind == "cold"]


def end_to_end(session: Session, setup_s: float, rss_mb: float) -> Dict[str, float]:
    """Times and throughput rescaled to the probe's nominal machine
    speed (see :mod:`probe`); the wall-clock forms are report-only."""
    cold = cold_samples(session)
    per_design = [[s for s in cold if s.dataset == d] for d in DESIGNS]
    latencies = [s.latency_s * s.scale for s in cold]

    def per_design_total(value) -> float:
        return sum(median([value(s) for s in group]) for group in per_design)

    # Quality comes from the reference jobs, whose service records were
    # checked against this process's own verified routes.
    return {
        "setup_s": setup_s + median(session.start_s),
        "route_s": per_design_total(lambda s: s.record["cpu_s"] * s.scale),
        "flow_s": per_design_total(lambda s: s.latency_s * s.scale),
        "peak_rss_mb": rss_mb,
        **flows.quality(session.references),
        "cold_latency_s": median(latencies),
        "cold_latency_tail_s": tail(latencies)[0],
        "jobs_per_s": ratio(len(session.samples), session.scaled_window_s),
        "warm_latency_s": median([s.latency_s * s.scale for s in session.samples if s.kind == "warm"]),
        "route_wall_s": per_design_total(lambda s: s.record["cpu_s"]),
        "flow_wall_s": per_design_total(lambda s: s.latency_s),
        "probe_s": median(session.probes),
    }


def layers(session: Session) -> Dict[str, float]:
    cold = cold_samples(session)
    c = session.counters
    return {
        "exec.cache_get_s": median(tracing.span_durations(session.spans, "exec.cache_get")),
        "exec.cache_put_s": median(tracing.span_durations(session.spans, "exec.cache_put")),
        "exec.job_s": median([s.status["finished_t"] - s.status["started_t"] for s in cold]),
        "service.queue_wait_s": median([s.status["started_t"] - s.status["created_t"] for s in cold]),
        "service.cache_hit_ratio": ratio(c.get("service.cache_hits", 0), c.get("service.jobs_submitted", 0)),
        "service.coalesced": c.get("service.jobs_coalesced", 0),
        "service.drain_s": tracing.layer_seconds(session.spans, "service.drain"),
        "service.warm_latency_s": median([s.latency_s for s in session.samples if s.kind == "warm"]),
    }


def report_rows(session: Session) -> List[str]:
    """Report-only lines: per design, its cold and warm jobs."""
    lines = [f"{'design':<8} {'cold':>5} {'cold_s':>8} {'route_s':>8} {'warm':>5} {'warm_ms':>8}"]
    for dataset in DESIGNS:
        mine = [s for s in session.samples if s.dataset == dataset]
        cold = [s for s in mine if s.kind == "cold"]
        warm = [s.latency_s for s in mine if s.kind == "warm"]
        lines.append(
            f"{dataset:<8} {len(cold):5d} {median([s.latency_s for s in cold]):8.3f} "
            f"{median([s.record['cpu_s'] for s in cold]):8.3f} {len(warm):5d} "
            f"{1000 * median(warm):8.2f}"
        )
    return lines

