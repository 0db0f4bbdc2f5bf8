"""Measurement, checks and reporting behind ``run.py``.

An end-to-end run first times the set-ups, then executes the workload's
sub-runs once for the simulated results, and again while the time budget
lasts. Every repeat must reproduce the simulated results bit-for-bit.
Host costs are scaled to the reference speed by a
:class:`~yardstick.Gauge` run between the slices of each execution or
around each set-up. The host cost per op is the median of each sub-seed's
executions, averaged over the sub-seeds.

A traced run executes sub-run 0 three times at one seed: untraced,
traced, and untraced with ``InvariantSuite`` attached. The three runs'
simulated results must be identical.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import layertrace
import workloads
import yardstick

__all__ = ["run"]

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
#: Set-ups timed per end-to-end run, after one warm-up.
SETUP_SAMPLES = 21
#: Wall seconds of the time budget kept for the report and the process
#: exit, which frees every sub-run's objects.
REPORT_S = 2.0


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail_ok(n: int, q: float) -> bool:
    """At least ten samples lie beyond the *q* percentile."""
    return n - max(1, math.ceil(q * n)) >= 10


def _latencies(ops, kinds) -> list[float]:
    return sorted(op.done - op.due for op in ops if op.ok and op.kind in kinds)


def _longest_gap(ops) -> float:
    """Longest simulated interval with at least one op outstanding and no
    op answered successfully."""
    events = []
    for op in ops:
        events.append((op.due, 1, False))
        events.append((op.done, -1, op.ok))
    # At equal times, answers close a gap before new arrivals open one.
    events.sort(key=lambda e: (e[0], e[1]))
    outstanding = 0
    since = None
    longest = 0.0
    for at, delta, ok in events:
        if delta > 0:
            outstanding += 1
            if since is None:
                since = at
            continue
        outstanding -= 1
        if ok or outstanding == 0:
            longest = max(longest, at - since)
            since = at if outstanding else None
    return longest


def subseeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + index for index in range(count)]


# -- end-to-end run ----------------------------------------------------------


def _setups(w, seeds: list[int]) -> tuple[list[float], list[float]]:
    """Time :data:`SETUP_SAMPLES` set-ups; returns (raw, scaled) CPU seconds."""
    raw: list[float] = []
    scaled: list[float] = []
    for index in range(SETUP_SAMPLES):
        gc.collect()
        gauge = yardstick.Gauge()
        gauge()
        raw.append(workloads.setup_only(w, seeds[index % len(seeds)]))
        gauge()
        scaled.append(raw[-1] * gauge.scale())
    return raw, scaled


def _per_seed_mean(values: dict[int, list[float]]) -> float:
    """Mean over sub-seeds of each sub-seed's median, so every sub-seed
    weighs the same however often it ran."""
    return statistics.fmean(statistics.median(v) for v in values.values())


def measure(w, seed: int, seconds: float, started: float) -> tuple[dict, dict, list]:
    """Time the set-ups, then run *w*'s sub-runs until *seconds* after
    *started* (monotonic) are nearly used up; returns (metrics, report
    values, first executions)."""
    seeds = subseeds(seed, w.subruns)
    workloads.setup_only(w, seeds[0])  # warm-up: lazy imports, caches
    raw_setups, scaled_setups = _setups(w, seeds)
    first: dict[int, object] = {}
    raw_per_op: dict[int, list[float]] = {s: [] for s in seeds}
    scaled_per_op: dict[int, list[float]] = {s: [] for s in seeds}
    executions = 0
    longest = 0.0  # wall seconds of the longest execution so far
    while True:
        s = seeds[executions % len(seeds)]
        began = time.monotonic()
        gc.collect()
        gauge = yardstick.Gauge()
        sub = workloads.run_subrun(w, s, between=gauge)
        executions += 1
        if s in first:
            if sub.sim != first[s].sim:
                raise workloads.BenchmarkError(
                    f"seed {s}: simulated results differ between repeats"
                )
        else:
            first[s] = sub
        per_op = sub.run_cpu_s / len(sub.ops)
        raw_per_op[s].append(per_op)
        scaled_per_op[s].append(per_op * gauge.scale())
        now = time.monotonic()
        longest = max(longest, now - began)
        # Every sub-seed runs at least once. After that, stop before an
        # execution that could end past the time budget (less a margin
        # for the report).
        if executions >= len(seeds) and now - started + longest > seconds - REPORT_S:
            break

    subs = [first[s] for s in seeds]
    ops = [op for sub in subs for op in sub.ops]
    attempted = len(ops)
    answered = sum(1 for op in ops if op.ok)
    primary = _latencies(ops, w.primary)
    if not _tail_ok(len(primary), 0.95):
        raise workloads.BenchmarkError(
            f"{len(primary)} samples: too few for a p95 with ten beyond it"
        )
    span = sum(
        max(op.done for op in sub.ops) - min(op.due for op in sub.ops) for sub in subs
    )
    within = sum(1 for op in ops if op.ok and op.done - op.due <= workloads.SLO_S)
    failovers = sum(sub.stats["failovers"] for sub in subs)
    metrics = {
        "p50_ms": (1e3 * _percentile(primary, 0.50), "ms"),
        "p95_ms": (1e3 * _percentile(primary, 0.95), "ms"),
        "goodput_ops_per_s": (answered / span, "1/s"),
        "slo_met_frac": (within / attempted, "frac"),
        "answered_frac": (answered / attempted, "frac"),
        "attempts_per_op": (1.0 + failovers / attempted, "count"),
        "host_us_per_op": (1e6 * _per_seed_mean(scaled_per_op), "us"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "executions": executions,
        "subseeds": seeds,
        "attempted": attempted,
        "failed": attempted - answered,
        "failovers": failovers,
        "service_gap_s": statistics.fmean(_longest_gap(sub.ops) for sub in subs),
        "host_us_per_op_raw": 1e6 * _per_seed_mean(raw_per_op),
        "setup_s_raw": statistics.median(raw_setups),
    }
    return metrics, info, subs


def kind_metrics(ops) -> dict:
    """The per-op-kind figures by their long names, where they apply."""
    out = {}
    groups = {"jsub": ("jsub",), "jstat": ("jstat",), "mds": ("create", "getattr", "readdir")}
    tails = {"jsub": 0.95, "jstat": 0.99, "mds": 0.99}
    for label, kinds in groups.items():
        values = _latencies(ops, kinds)
        if not values:
            continue
        out[f"{label}_p50_ms"] = 1e3 * _percentile(values, 0.50)
        q = tails[label]
        if _tail_ok(len(values), q):
            out[f"{label}_p{round(q * 100)}_ms"] = 1e3 * _percentile(values, q)
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    late = sum(1 for op in ops if op.ok and op.done - op.due > workloads.SLO_S)
    out["slo_miss_frac"] = (failed + late) / attempted
    out["failed_frac"] = failed / attempted
    return out


# -- traced run --------------------------------------------------------------


def _same_simulation(sub, base, what: str) -> None:
    if sub.sim != base.sim:
        differing = sorted(k for k in sub.sim if sub.sim[k] != base.sim[k])
        raise workloads.BenchmarkError(f"{what} changed the simulation: {differing} differ")


def traced(w, seed: int):
    """Sub-run 0 untraced, traced, and untraced with ``InvariantSuite``
    attached, so that neither the invariant checks nor the tracing count
    in the other's host time; returns (metrics, tracer, traced sub-run)."""
    s = subseeds(seed, w.subruns)[0]
    workloads.setup_only(w, s)  # warm-up, as in the end-to-end run
    gc.collect()
    cpu0 = time.process_time()
    base = workloads.run_subrun(w, s)
    base_cpu = time.process_time() - cpu0
    tracer = layertrace.Tracer()
    gc.collect()
    tracer.install()
    try:
        cpu0 = time.process_time()
        sub = workloads.run_subrun(w, s)
        traced_cpu = time.process_time() - cpu0
    finally:
        tracer.uninstall()
    _same_simulation(sub, base, "tracing")
    _same_simulation(workloads.run_subrun(w, s, invariants=True), base, "InvariantSuite")
    return layer_metrics(w, tracer, sub, base, traced_cpu - base_cpu), tracer, sub


def layer_metrics(w, tracer, sub, base, overhead: float) -> dict:
    counts = tracer.counts
    attempted = len(sub.ops)
    stats = sub.stats
    sim = sub.sim
    selfs = tracer.self_time

    def ratio(a, b):
        return a / b if b else 0.0

    answers = base.answer_cpu_s
    quarter = len(answers) // 4
    metrics = {
        "sim.events": (sim["events"], "count"),
        "sim.events_per_op": (ratio(sim["events"], attempted), "events/op"),
        "sim.step.self_s": (selfs("sim.step"), "s"),
        "net.encode.calls": (counts["net.encode.calls"], "count"),
        "net.encode.bytes": (counts["net.encode.bytes"], "bytes"),
        "net.encode.bytes_per_op": (ratio(counts["net.encode.bytes"], attempted), "bytes/op"),
        "net.encode.self_s": (selfs("net.encode"), "s"),
        "net.decode.calls": (counts["net.decode.calls"], "count"),
        "net.decode.self_s": (selfs("net.decode"), "s"),
    }
    for frame in layertrace.TABLE_FRAMES:
        metrics[f"net.encode.bytes.{frame}"] = (tracer.encoded_by_type[frame], "bytes")
    metrics.update({
        "net.send.calls": (counts["net.send.calls"], "count"),
        "net.send.self_s": (selfs("net.send"), "s"),
        "net.wire_bytes_per_op": (ratio(sim["bytes_wire"], attempted), "bytes/op"),
        "rpc.call.calls": (counts["rpc.call.calls"], "count"),
        "rpc.call.timeouts": (counts["rpc.call.timeouts"], "count"),
        "rpc.failover.retries": (counts["rpc.failover.retries"], "count"),
        "rpc.failover.skipped_down": (counts["rpc.failover.skipped_down"], "count"),
        "rpc.dispatch.self_s": (selfs("rpc.dispatch"), "s"),
        "gcs.multicast.calls": (counts["gcs.multicast.calls"], "count"),
        "gcs.ops_per_batch": (ratio(counts["gcs.batched_ops"], counts["gcs.batches"]), "ops/batch"),
        "gcs.view_changes": (counts["gcs.install_view.calls"], "count"),
        "gcs.multicast.self_s": (selfs("gcs.multicast"), "s"),
        "gcs.delivery.self_s": (selfs("gcs.delivery"), "s"),
        "gcs.install_view.self_s": (selfs("gcs.install_view"), "s"),
        "cluster.disk.write.calls": (counts["cluster.disk.write.calls"], "count"),
        "pbs.sched.polls": (counts["pbs.sched_poll.calls"], "count"),
        "pbs.table_rows.mean": (
            ratio(counts["pbs.table_rows.sum"], counts["pbs.sched_poll.calls"]), "rows"),
        "pbs.table_rows.max": (counts["pbs.table_rows.max"], "rows"),
        "joshua.execute.calls": (counts["joshua.execute.calls"], "count"),
    })
    jstats = [op for op in sub.ops if op.kind == "jstat"]
    reads = stats.get("reads_local", 0) + stats.get("reads_fallback", 0)
    metrics.update({
        "joshua.read.local_frac": (ratio(stats.get("reads_local", 0), reads), "frac"),
        "joshua.read.fallbacks": (stats.get("reads_fallback", 0), "count"),
        "joshua.read.full_table_frac": (
            ratio(sum(1 for op in jstats if op.idless), len(jstats)), "frac"),
        "joshua.gateway.reassignments": (stats.get("reassignments", 0), "count"),
        "aa.execute.calls": (counts["aa.execute.calls"], "count"),
        "bench.host_us_per_op.first_quarter": (
            1e6 * ratio(answers[quarter - 1], quarter) if quarter else 0.0, "us"),
        "bench.host_us_per_op.last_quarter": (
            1e6 * ratio(answers[-1] - answers[-quarter - 1], quarter) if quarter else 0.0, "us"),
        "bench.trace_overhead_s": (overhead, "s"),
    })
    return metrics


def service_layer_figures(tracer, sub) -> dict:
    """Layer figures that exist only on some workloads. They are printed
    and kept in the summary file, but not put on the result line, where a
    structurally-zero time would read the same on every run."""
    out = {}
    for name, span in (
        ("cluster.disk.write.self_s", "cluster.disk.write"),
        ("pbs.fifo_decide.self_s", "pbs.fifo_decide"),
        ("joshua.execute.self_s", "joshua.execute"),
        ("aa.execute.self_s", "aa.execute"),
    ):
        if tracer.counts[f"{span}.calls"]:
            out[name] = tracer.self_time(span)
    waits = sorted(tracer.executor_waits)
    if waits:
        out["joshua.executor.wait_p95_ms"] = 1e3 * _percentile(waits, 0.95)
    restart = sub.stats.get("restart")
    if restart is not None:
        victim = sub.stats["victim"]
        rejoined = [t for head, t in tracer.became_active if head == victim and t >= restart]
        if rejoined:
            out["joshua.rejoin_s"] = rejoined[0] - restart
    return out


# -- reporting ---------------------------------------------------------------


CLOCKS = {
    "p50_ms": "sim", "p95_ms": "sim", "goodput_ops_per_s": "sim",
    "slo_met_frac": "sim", "answered_frac": "sim", "attempts_per_op": "sim",
    "host_us_per_op": "host-cpu, scaled", "setup_s": "host-cpu, scaled",
    "peak_rss_mb": "host",
}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_props(subs) -> None:
    props = [sub.props for sub in subs]
    mean = statistics.fmean
    rows = "n/a (no job table)"
    if subs[0].workload.service == "joshua":
        rows = (f"{mean(p['table_rows_mean'] for p in props):.1f} mean, "
                f"{max(p['table_rows_max'] for p in props)} max")
    print("  properties: "
          f"offered {mean(p['offered_mean_per_s'] for p in props):.1f}/s mean, "
          f"{max(p['offered_peak_per_s'] for p in props):.0f}/s peak (1 s window); "
          f"job-table rows {rows}; "
          f"id-less jstat share {mean(p['idless_jstat_frac'] for p in props):.3f}; "
          f"generator lateness {max(p['lateness_max_s'] for p in props):.3g} s")


def _print_shares(tracer) -> None:
    total = sum(tracer.self_s)
    if not total:
        return
    print(f"  host self time by span ({total:.3f} s traced):")
    for name, value in sorted(zip(tracer.names, tracer.self_s), key=lambda kv: -kv[1]):
        print(f"    {name:<24} {value:9.4f} s  {100 * value / total:5.1f}%")


def _end_to_end(w, seed: int, seconds: float, started: float):
    metrics, info, subs = measure(w, seed, seconds, started)
    ops = [op for sub in subs for op in sub.ops]
    print(f"sub-run seeds {info['subseeds']}; {info['executions']} executions, "
          f"{SETUP_SAMPLES} set-ups; simulated results repeated exactly")
    _print_props(subs)
    lines = dict(kind_metrics(ops))
    lines["failovers_per_op"] = info["failovers"] / info["attempted"]
    lines["service_gap_s"] = info["service_gap_s"]
    for name, value in lines.items():
        print(f"  {name:<34} {_fmt(value)}  [sim]")
    print(f"  {'host_us_per_op_raw':<34} {_fmt(info['host_us_per_op_raw'])} us  [host-cpu]")
    print(f"  {'setup_s_raw':<34} {_fmt(info['setup_s_raw'])} s  [host-cpu]")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {_fmt(value)} {unit}  [{CLOCKS[name]}]")
    return metrics, info["attempted"], info["failed"]


def _layers(w, seed: int):
    metrics, tracer, sub = traced(w, seed)
    print(f"traced sub-run seed {sub.seed}: {tracer.span_count()} spans; "
          "simulated results identical to the untraced run and to the run "
          "with InvariantSuite attached; invariants clean")
    _print_props([sub])
    extra = service_layer_figures(tracer, sub)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {_fmt(value)} {unit}")
    for name, value in extra.items():
        print(f"  {name:<38} {_fmt(value)}")
    _print_shares(tracer)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{w.name}-seed{seed}")
    tracer.write(stem + "-spans.npz")
    with open(stem + "-layers.json", "w") as fh:
        json.dump({
            "metrics": {k: v for k, (v, _unit) in metrics.items()},
            "service_layers": extra,
            "self_s": dict(zip(tracer.names, tracer.self_s)),
        }, fh, indent=1, sort_keys=True)
    return metrics, len(sub.ops), sum(1 for op in sub.ops if not op.ok)


def run(workload: str, seed: int, seconds: float, trace: int, started: float) -> int:
    """One benchmark run; prints the report and the result line."""
    w = workloads.WORKLOADS.get(workload)
    if w is None:
        print(f"perfbench: unknown workload {workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {w.name}: {w.why}")
    try:
        if trace:
            metrics, attempted, failed = _layers(w, seed)
        else:
            metrics, attempted, failed = _end_to_end(w, seed, seconds, started)
    except workloads.BenchmarkError as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
