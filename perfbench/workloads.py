"""The benchmark's workloads and one simulated sub-run of each.

Every workload is open loop: a single spawner process walks a schedule
drawn from the seed and starts each request at its due time, whether or
not earlier requests have been answered. Latency is timed from the due
time. All workloads use the calibrated shared-medium LAN (0.2 ms base
latency, 100 Mb/s) with jitter turned off, so a seed fixes the whole run.

A sub-run builds the cluster, boots it, offers the workload, waits for
every request to resolve, drains, and checks the outputs. Its simulated
results are a pure function of the sub-run seed; its host costs are not.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.bench.experiments.throughput import BATCHED_GROUP_CONFIG
from repro.bench.workloads import OpenLoopWorkload
from repro.cluster.cluster import Cluster
from repro.faults.invariants import InvariantSuite
from repro.joshua.deploy import build_joshua_stack
from repro.net.link import FAST_ETHERNET
from repro.pbs.job import JobSpec
from repro.pvfs import PVFSClient, build_replicated_mds
from repro.util.errors import ReproError

__all__ = ["WORKLOADS", "Workload", "SubRun", "BenchmarkError", "run_subrun", "setup_only"]

#: The calibrated LAN with jitter off: every delay is a function of size.
LAN = FAST_ETHERNET.with_jitter(0.0)
#: Latency limit for every op kind, simulated seconds (see README.md).
SLO_S = 1.0
CLIENTS = 64
CLIENT_TIMEOUT_S = 5.0
#: Long enough that every accepted job stays in the job table.
WALLTIME_S = 10_000.0
#: Simulated time the JOSHUA stack boots before the workload starts.
JOSHUA_BOOT_S = 1.5
PVFS_BOOT_S = 0.5
PVFS_DIRS = 8
#: Simulated seconds per slice of the run phase.
SLICE_S = 0.5
#: Simulated settle time after the last answer, before outputs are checked.
DRAIN_S = 3.0
#: ``(burst_period, burst_factor)`` of OpenLoopWorkload's bursty default.
BURST_SHAPE = (
    OpenLoopWorkload.__dataclass_fields__["burst_period"].default,
    OpenLoopWorkload.__dataclass_fields__["burst_factor"].default,
)
#: PVFS metadata op mix (cumulative shares of the op count). An assumed
#: mix, not taken from a trace: see README.md.
PVFS_MIX = (("create", 0.4), ("getattr", 0.8), ("readdir", 1.0))


class BenchmarkError(Exception):
    """An output check failed: the run produces no numbers."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    service: str  # "joshua" or "pvfs"
    heads: int
    #: Simulated seconds over which requests are offered.
    duration: float
    write_rate: float = 0.0
    read_rate: float = 0.0
    arrival: str = "poisson"
    #: Crash the sequencer / restart it, seconds after the workload starts.
    crash_at: float | None = None
    restart_at: float | None = None
    #: Independent sub-runs (derived seeds) pooled into one result.
    subruns: int = 2
    #: Op kinds the headline latency percentiles cover.
    primary: tuple[str, ...] = ("jsub",)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady_writes",
            "3 heads, Poisson jsub at 8/s: the job table grows with no "
            "queueing, so the O(table) host paths dominate",
            "joshua", heads=3, duration=20.0, write_rate=8.0,
        ),
        Workload(
            "bursty_writes",
            "steady_writes' heads, mean rate and job count in 8x peaks: "
            "batching, executor backlog and rpc failover do the work",
            "joshua", heads=3, duration=20.0, write_rate=8.0, arrival="bursty",
            subruns=6,
        ),
        Workload(
            "read_mix",
            "4 heads, ~200 jstat/s + ~2 jsub/s read-your-writes: the local "
            "read path and gateway, on a small job table",
            "joshua", heads=4, duration=20.0, write_rate=2.0, read_rate=200.0,
            primary=("jstat",),
        ),
        Workload(
            "sequencer_crash",
            "steady_writes load; the sequencer head crashes and restarts: "
            "view change, flush, state transfer and failover from a dead head",
            "joshua", heads=3, duration=20.0, write_rate=8.0,
            crash_at=5.0, restart_at=11.0,
        ),
        Workload(
            "pvfs_metadata",
            "3 replicated PVFS MDS heads, Poisson create/getattr/readdir at "
            "40/s: the repro.aa replication core and repro.pvfs backend",
            "pvfs", heads=3, duration=15.0, write_rate=40.0,
            primary=("create", "getattr", "readdir"),
        ),
    )
}


@dataclass
class Op:
    kind: str
    client: int
    due: float
    done: float | None = None
    ok: bool = False
    #: jstat without a job id (the client had not submitted yet).
    idless: bool = False


@dataclass
class SubRun:
    """Results of one sub-run. ``sim`` holds everything that must repeat
    bit-for-bit at one seed; the rest is host cost or bookkeeping."""

    workload: Workload
    seed: int
    setup_cpu_s: float
    run_cpu_s: float
    ops: list[Op]
    #: Host CPU (relative to workload start) at each successful answer.
    answer_cpu_s: list[float]
    sim: dict
    props: dict
    stats: dict = field(default_factory=dict)


# -- schedules -----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    #: Seconds after the workload starts.
    time: float
    client: int
    kind: str
    spec: JobSpec | None = None
    #: PVFS only: the directory an op works in, the name a create makes,
    #: and a uniform draw that picks which created file a getattr reads.
    directory: int = 0
    name: str = ""
    pick: float = 0.0


def _arrival_times(w: Workload, count: int, rng: np.random.Generator) -> list[float]:
    """*count* arrival times of *w*'s arrival process over its duration.

    A Poisson process conditioned on its count places the arrivals
    independently and uniformly over the time the process is on: all of
    the duration for ``poisson``, and for ``bursty`` the first
    ``burst_period / burst_factor`` seconds of each ``burst_period`` (the
    default shape of :class:`OpenLoopWorkload`). Fixing the count keeps
    every seed's job table the same size, so host cost per op compares
    across seeds."""
    if w.arrival == "poisson":
        return sorted(float(t) for t in rng.uniform(0.0, w.duration, count))
    period, factor = BURST_SHAPE
    on = period / factor
    periods = max(1, int(w.duration // period))
    windows = rng.integers(periods, size=count)
    offsets = rng.uniform(0.0, on, count)
    return sorted(float(k * period + x) for k, x in zip(windows, offsets))


def schedule(w: Workload, seed: int) -> list[Request]:
    """The open-loop schedule of one sub-run: exact op counts per kind,
    arrival times from :func:`_arrival_times`, and requests dealt to the
    clients in shuffled rounds. Dealing gives every client the same share
    of the requests (to within one), so how the gateway's placement spreads
    load over the heads does not change from seed to seed."""
    rng = np.random.default_rng(seed)
    if w.service == "joshua":
        counts = {
            "jsub": round(w.write_rate * w.duration),
            "jstat": round(w.read_rate * w.duration),
        }
    else:
        total = round(w.write_rate * w.duration)
        counts = {}
        low = 0.0
        for kind, edge in PVFS_MIX:
            counts[kind] = round(total * edge) - round(total * low)
            low = edge
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    times = _arrival_times(w, len(kinds), rng)
    cycles = -(-len(kinds) // CLIENTS)
    clients = np.concatenate([rng.permutation(CLIENTS) for _ in range(cycles)])
    requests = []
    for index, (at, kind) in enumerate(zip(times, kinds)):
        client = int(clients[index])
        if kind == "jsub":
            spec = JobSpec(name=f"job{index:05d}", walltime=WALLTIME_S)
            requests.append(Request(at, client, kind, spec))
        elif kind == "jstat":
            requests.append(Request(at, client, kind))
        else:
            requests.append(Request(
                at, client, kind, directory=int(rng.integers(PVFS_DIRS)),
                name=f"f{index}", pick=float(rng.random()),
            ))
    return requests


# -- set-up --------------------------------------------------------------------


def _setup_joshua(w: Workload, seed: int):
    cluster = Cluster(head_count=w.heads, compute_count=1, login_node=True, seed=seed, lan=LAN)
    stack = build_joshua_stack(cluster, group_config=BATCHED_GROUP_CONFIG)
    gateway = stack.gateway(timeout=CLIENT_TIMEOUT_S, consistency="ryw")
    cluster.run(until=JOSHUA_BOOT_S)
    return cluster, stack, gateway


def _setup_pvfs(w: Workload, seed: int):
    cluster = Cluster(head_count=w.heads, compute_count=0, login_node=True, seed=seed, lan=LAN)
    mds = build_replicated_mds(cluster)
    cluster.run(until=PVFS_BOOT_S)
    addresses = mds.addresses()
    clients = [
        PVFSClient(
            cluster.network, "login", addresses,
            prefer=addresses[zlib.crc32(f"client{i}".encode()) % len(addresses)],
        )
        for i in range(CLIENTS)
    ]

    def make_dirs():
        for index in range(PVFS_DIRS):
            yield from clients[0].mkdir(f"/d{index}")

    cluster.run(until=cluster.kernel.spawn(make_dirs(), name="bench-mkdir"))
    return cluster, mds, clients


def _setup(w: Workload, seed: int):
    """Build and boot *w*'s cluster: ``(cluster, stack or mds, gateway or
    PVFS clients)``."""
    return (_setup_joshua if w.service == "joshua" else _setup_pvfs)(w, seed)


def setup_only(w: Workload, seed: int) -> float:
    """Host CPU seconds to build and boot *w*'s cluster (no workload)."""
    start = time.process_time()
    _setup(w, seed)
    return time.process_time() - start


# -- the sub-run ---------------------------------------------------------------


def _peak_rate(dues: list[float], window: float = 1.0) -> float:
    """Most requests due in any *window*-second interval, per second."""
    best = 0
    lo = 0
    for hi, due in enumerate(dues):
        while due - dues[lo] >= window:
            lo += 1
        best = max(best, hi - lo + 1)
    return best / window


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_subrun(w: Workload, seed: int, *, invariants: bool = False, between=None) -> SubRun:
    """Build, boot and drive one sub-run of *w*; check its outputs.

    *between*, if given, is called between the run phase's slices of
    simulated time; its host CPU is not counted in the sub-run's."""
    requests = schedule(w, seed)
    start = time.process_time()
    cluster, service, front = _setup(w, seed)
    setup_cpu = time.process_time() - start
    if w.service == "joshua":
        stack, gateway = service, front
    else:
        mds, clients = service, front
    kernel = cluster.kernel
    suite = InvariantSuite(stack).attach() if invariants and w.service == "joshua" else None

    ops: list[Op] = []
    answer_cpu: list[float] = []
    lateness: list[float] = []
    table_rows: list[int] = []
    acked: list[str] = []
    launches: dict[str, int] = {}
    events: dict[str, float] = {}
    t0 = kernel.now

    if w.service == "joshua":
        sessions: dict[int, object] = {}
        last_job: dict[int, str] = {}
        for compute in cluster.computes:
            mom = stack.mom(compute.name)
            inner = mom.on_job_start

            def on_start(req, inner=inner):
                launches[req.job_id] = launches.get(req.job_id, 0) + 1
                if inner is not None:
                    inner(req)

            mom.on_job_start = on_start

        def sample_rows():
            live = stack.live_heads()
            if live:
                table_rows.append(len(stack.pbs(live[0]).jobs))

        def issue(op: Op, request):
            lateness.append(kernel.now - op.due)
            sample_rows()
            session = sessions.get(op.client)
            if session is None:
                session = sessions[op.client] = gateway.session("login", f"client{op.client}")
            try:
                if request.kind == "jsub":
                    job_id = yield from session.jsub(request.spec)
                    acked.append(job_id)
                    last_job[op.client] = job_id
                else:
                    target = last_job.get(op.client)
                    op.idless = target is None
                    yield from session.jstat(target)
                op.ok = True
                answer_cpu.append(time.process_time() - run_start - excluded[0])
            except ReproError:
                op.ok = False
            op.done = kernel.now
            sample_rows()

    else:
        created: list[str] = []

        def issue(op: Op, request):
            lateness.append(kernel.now - op.due)
            kind = request.kind
            client = clients[op.client]
            if kind == "getattr" and not created:
                op.kind = kind = "readdir"
            try:
                if kind == "create":
                    path = f"/d{request.directory}/{request.name}"
                    yield from client.create(path)
                    created.append(path)
                elif kind == "getattr":
                    yield from client.getattr(created[int(request.pick * len(created))])
                else:
                    yield from client.readdir(f"/d{request.directory}")
                op.ok = True
                answer_cpu.append(time.process_time() - run_start - excluded[0])
            except ReproError:
                op.ok = False
            op.done = kernel.now

    def spawner():
        for index, request in enumerate(requests):
            op = Op(request.kind, request.client, t0 + request.time)
            if op.due > kernel.now:
                yield kernel.timeout(op.due - kernel.now)
            ops.append(op)
            kernel.spawn(issue(op, request), name=f"bench-op{index}")

    def faults():
        yield kernel.timeout(w.crash_at)
        member = next(
            stack.joshua(h).group for h in stack.live_heads()
            if stack.joshua(h).group.view is not None
        )
        victim = member.engine.sequencer_of(member.view).node
        cluster.node(victim).crash()
        events["crash"] = kernel.now
        events["victim"] = victim
        yield kernel.timeout(w.restart_at - w.crash_at)
        cluster.node(victim).restart()
        events["restart"] = kernel.now

    run_start = time.process_time()
    excluded = [0.0]  # host CPU spent in *between*
    kernel.spawn(spawner(), name="bench-spawner")
    if w.crash_at is not None:
        kernel.spawn(faults(), name="bench-faults")
    # Run in fixed slices of simulated time, which changes nothing in the
    # simulation, so that *between* can interleave with the measured work.
    run_cpu = 0.0
    while len(ops) < len(requests) or any(op.done is None for op in ops):
        before = time.process_time()
        cluster.run(until=kernel.now + SLICE_S)
        run_cpu += time.process_time() - before
        if between is not None:
            before = time.process_time()
            between()
            excluded[0] += time.process_time() - before
    end = max(op.done for op in ops)
    settle = max(end, t0 + (w.restart_at or 0.0)) + DRAIN_S
    cluster.run(until=settle)

    if w.service == "joshua":
        heads = _check_joshua(stack, acked, launches, w)
        if suite is not None:
            violations = suite.final_check()
            if violations:
                raise BenchmarkError(f"invariant violations: {violations[:3]}")
        table = [_replicated_row(j) for j in stack.pbs(heads[0]).jobs]
        stats = {
            "failovers": gateway.stats["failovers"],
            "reassignments": gateway.stats["reassignments"],
            "reads_local": gateway.stats["reads_local"],
            "reads_fallback": gateway.stats["reads_fallback"],
        }
    else:
        heads = _check_pvfs(mds)
        table = mds.backend(heads[0]).store.snapshot()
        stats = {"failovers": sum(c.stats["failovers"] for c in clients)}
    stats.update(events)

    network = cluster.network
    sim = {
        "events": kernel.processed_events,
        "offered_bytes_by_type": tuple(sorted(network.offered_bytes_by_type.items())),
        "bytes_wire": network.stats["bytes_wire"],
        "ops": tuple((op.kind, op.due, op.done, op.ok) for op in ops),
        "failovers": stats["failovers"],
        "end": end,
        "state": _digest(table),
    }
    dues = [op.due for op in ops]
    jstats = [op for op in ops if op.kind == "jstat"]
    props = {
        "offered_mean_per_s": len(ops) / w.duration,
        "offered_peak_per_s": _peak_rate(dues),
        "table_rows_mean": sum(table_rows) / len(table_rows) if table_rows else 0.0,
        "table_rows_max": max(table_rows, default=0),
        "idless_jstat_frac": (
            sum(1 for op in jstats if op.idless) / len(jstats) if jstats else 0.0
        ),
        "lateness_max_s": max(lateness, default=0.0),
    }
    return SubRun(w, seed, setup_cpu, run_cpu, ops, answer_cpu, sim, props, stats)


def _replicated_row(job) -> dict:
    """A job's qstat row without ``comment``, which records whether *this*
    head's launch attempt ran the job or only emulated it."""
    row = job.stat_row()
    del row["comment"]
    return row


def _check_joshua(stack, acked: list[str], launches: dict[str, int], w: Workload) -> list[str]:
    """Every live head holds the identical job table, every acked job id
    is in it exactly once, and no job was launched twice."""
    heads = [h for h in stack.live_heads() if stack.joshua(h).active]
    if len(heads) != w.heads:
        raise BenchmarkError(
            f"only {heads} of {w.heads} heads are live and active "
            f"{DRAIN_S:g} s after the last answer"
        )
    tables = {h: [_replicated_row(j) for j in stack.pbs(h).jobs] for h in heads}
    reference = tables[heads[0]]
    for head in heads[1:]:
        if tables[head] != reference:
            raise BenchmarkError(f"job table of {head} differs from {heads[0]}")
    if len(set(acked)) != len(acked):
        raise BenchmarkError("a job id was acknowledged twice")
    ids = [row["job_id"] for row in reference]
    counts: dict[str, int] = {}
    for job_id in ids:
        counts[job_id] = counts.get(job_id, 0) + 1
    missing = [j for j in acked if counts.get(j) != 1]
    if missing:
        raise BenchmarkError(f"acked jobs not present exactly once: {missing[:5]}")
    twice = sorted(j for j, n in launches.items() if n > 1)
    if twice:
        raise BenchmarkError(f"jobs launched more than once: {twice[:5]}")
    return heads


def _check_pvfs(mds) -> list[str]:
    """Every live metadata replica holds the identical namespace."""
    heads = mds.live_heads()
    if not heads:
        raise BenchmarkError("no live metadata replica")
    snapshots = {h: mds.backend(h).store.snapshot() for h in heads}
    for head in heads[1:]:
        if snapshots[head] != snapshots[heads[0]]:
            raise BenchmarkError(f"metadata of {head} differs from {heads[0]}")
    return heads
