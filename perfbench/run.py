"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query-cold --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded.
``--trace 1`` reports the per-layer metrics instead: the timed phase
runs once untraced and once with the span recorder patched in, on the
same inputs, and the difference in wall time is the tracing overhead.
Either way every result is checked against the workload's reference
path and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark imports the library from ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.
All scratch files live under ``.bench_tmp/`` and span dumps under
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import layers
from spans import END, PID, START, TID, SpanRecorder
from workloads import WORKLOADS, LabelMeter

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3

# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_qps": "1/s",
    "artifact_s": "s",
    "labels_per_query": "count",
    "target_met_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "sampling.draw_ms": "ms",
    "sampling.draws": "count",
    "oracle.query_ms": "ms",
    "oracle.labels": "count",
    "oracle.retries": "count",
    "store.fetch_ms": "ms",
    "store.misses": "count",
    "materialize.self_ms": "ms",
    "materialize.records_out": "count",
    "scan.select_ms": "ms",
    "zonemap.strata_touched": "count",
    "zonemap.records_skipped": "count",
    "zonemap.dense_fallbacks": "count",
    "backend.bytes_paged": "bytes",
    "backend.build_ms": "ms",
    "backend.sorts_performed": "count",
    "backend.weight_passes": "count",
    "estimate.tau_ms": "ms",
    "bounds.batch_ms": "ms",
    "bounds.calls": "count",
    "store.hits": "count",
    "store.disk_hits": "count",
    "store.hit_rate": "ratio",
    "store.labels_drawn": "count",
    "store.labels_saved": "count",
    "service.queries_folded": "count",
    "service.queries_per_window": "count",
    "service.queue_wait_ms": "ms",
    "service.window_ms": "ms",
    "service.rejected": "count",
    "service.generator_lag_ms": "ms",
    "fanout.wall_ms": "ms",
    "fanout.recovered": "count",
    "shm.bytes_shipped": "bytes",
    "shm.bytes_shm": "bytes",
    "runner.trials": "count",
    "parser.self_ms": "ms",
    "engine.self_ms": "ms",
    "planning.plan_ms": "ms",
    "planning.prewarm_ms": "ms",
}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end_metrics(phase, setups: list[float], rss_mb: float) -> dict[str, float]:
    ops = phase.ops
    latencies = phase.latencies_s if phase.latencies_s is not None else [op.latency_s for op in ops]
    completed = sum(1 for op in ops if op.error is None)
    artifact_s = phase.artifact_s if phase.artifact_s is not None else phase.busy_s
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "throughput_qps": completed / (phase.outputs * artifact_s),
        "artifact_s": artifact_s,
        "labels_per_query": phase.labels_paid / len(ops),
        "target_met_rate": sum(1 for op in ops if op.met and op.error is None) / len(ops),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }


def per_layer_metrics(recorder, phase, state) -> dict[str, float]:
    """Per-layer figures of the traced phase.

    Times are self time per operation in ms; counts are per operation,
    except the ``backend.*`` set-up figures (per set-up),
    ``fanout.wall_ms`` (per fork fan-out call, from the traced check),
    ``runner.trials`` (per regeneration), ``service.rejected`` (per
    phase) and the service's window figures (medians, or p99 for the
    generator lag).
    """
    ops = len(phase.ops)
    counters = phase.counters

    def ms(*layers: str) -> float:
        return recorder.self_seconds(layers) * 1e3 / ops

    def per_op(key: str) -> float:
        return counters.get(key, 0) / ops

    hits = counters.get("hits", 0) + counters.get("disk_hits", 0)
    lookups = hits + counters.get("misses", 0)
    setup_backend = state.get("backend_counters", {})
    windows = phase.extra.get("windows", ())
    window_s = {w["index"]: w["window_seconds"] for w in windows}
    waits = [
        op.latency_s - window_s[w]
        for op, w in zip(phase.ops, phase.extra.get("op_windows", ()))
        if w in window_s
    ]
    lags = phase.extra.get("lags_s", ())
    served = sum(w["queries"] for w in windows)
    # The fork fan-out runs in the (traced) check pass.
    fanout = [
        span[END] - span[START]
        for span in recorder.select("verify", ["fanout"])
        if span[PID] == os.getpid()
    ]
    return {
        "sampling.draw_ms": ms("sampling"),
        "sampling.draws": recorder.count(["sampling"]) / ops,
        "oracle.query_ms": ms("oracle"),
        "oracle.labels": recorder.value_sum(["oracle"]) / ops,
        "oracle.retries": per_op("oracle_retries"),
        "store.fetch_ms": ms("store"),
        "store.misses": per_op("misses"),
        "materialize.self_ms": ms("materialize"),
        "materialize.records_out": recorder.value_sum(["materialize"]) / ops,
        "scan.select_ms": ms("scan"),
        "zonemap.strata_touched": per_op("strata_touched"),
        "zonemap.records_skipped": per_op("records_skipped"),
        "zonemap.dense_fallbacks": per_op("zonemap_dense_fallbacks"),
        "backend.bytes_paged": per_op("bytes_paged"),
        "backend.build_ms": recorder.self_seconds(["backend"], phase="setup") * 1e3 / SETUP_REPEATS,
        "backend.sorts_performed": setup_backend.get("sorts_performed", 0),
        "backend.weight_passes": setup_backend.get("weight_passes", 0),
        "estimate.tau_ms": ms("estimate"),
        "bounds.batch_ms": ms("bounds"),
        "bounds.calls": recorder.count(["bounds"]) / ops,
        "store.hits": per_op("hits"),
        "store.disk_hits": per_op("disk_hits"),
        "store.hit_rate": hits / lookups if lookups else 0.0,
        "store.labels_drawn": per_op("labels_drawn"),
        "store.labels_saved": per_op("labels_saved"),
        "service.queries_folded": per_op("queries_folded"),
        "service.queries_per_window": served / len(windows) if windows else 0.0,
        "service.queue_wait_ms": percentile(waits, 50) * 1e3 if waits else 0.0,
        "service.window_ms": percentile(list(window_s.values()), 50) * 1e3 if windows else 0.0,
        "service.rejected": counters.get("rejected", 0),
        "service.generator_lag_ms": percentile(lags, 99) * 1e3 if lags else 0.0,
        "fanout.wall_ms": statistics.mean(fanout) * 1e3 if fanout else 0.0,
        "fanout.recovered": counters.get("recovered_groups", 0),
        "shm.bytes_shipped": counters.get("bytes_shipped", 0),
        "shm.bytes_shm": counters.get("bytes_shm", 0),
        "runner.trials": counters.get("trials", 0),
        "parser.self_ms": ms("parser"),
        "engine.self_ms": ms("engine"),
        "planning.plan_ms": ms("planning.plan"),
        "planning.prewarm_ms": ms("planning.prewarm"),
    }


def busy_seconds(phase) -> float:
    """Time the queries kept their executing thread busy."""
    return phase.op_thread_s if phase.op_thread_s is not None else phase.busy_s


def trace_accounting(recorder, phase, untraced) -> list[str]:
    """Lines showing that span self times account for the traced wall
    time, per process and thread, plus the tracing overhead."""
    traced_s, untraced_s = busy_seconds(phase), busy_seconds(untraced)
    lines = [
        f"trace.overhead_pct {100.0 * (traced_s / untraced_s - 1.0):.2f} %"
        f"  (traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s busy, same inputs)"
    ]
    threads = sorted({(s[PID], s[TID]) for s in recorder.select("timed")})
    children = sorted({(s[PID], s[TID]) for s in recorder.select("verify") if s[PID] != os.getpid()})
    for phase_name, group in (("timed", threads), ("verify", children)):
        for pid, tid in group:
            self_sum, root_sum = recorder.thread_accounting(pid, tid, phase_name)
            lines.append(
                f"trace.thread {phase_name} pid={pid} tid={tid}: self {self_sum:.3f} s = "
                f"outermost spans {root_sum:.3f} s"
            )
    # The thread that executes the queries: the main thread, or the
    # service's scheduler thread, whose busy time is its windows' time.
    pid = os.getpid()
    tid = max(
        (t for p, t in threads if p == pid),
        key=lambda t: recorder.thread_accounting(pid, t)[1],
    )
    covered = recorder.thread_accounting(pid, tid)[1]
    wall = busy_seconds(phase)
    lines.append(
        f"trace.query_thread_coverage {100.0 * covered / wall:.1f} %  (unwrapped remainder "
        f"{max(0.0, wall - covered) * 1e3 / len(phase.ops):.3f} ms per operation of "
        f"{wall * 1e3 / len(phase.ops):.3f} ms)"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    parser.add_argument(
        "--corrupt", action="store_true",
        help="drop one index from the first result before it is checked (self-tests)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.tiny, args.corrupt, bool(args.trace))
    recorder = SpanRecorder(scratch) if args.trace else None
    meter = LabelMeter()
    state = None
    try:
        if recorder is not None:
            layers.install(recorder)
        setups = []
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                workload.close(state)
        if recorder is not None:
            recorder.unpatch()
        phases = [workload.phase(state, workload.fresh(state), meter)]
        if recorder is not None:
            engine = workload.fresh(state)
            layers.install(recorder)
            recorder.phase = "timed"
            phases.append(workload.phase(state, engine, meter))
            # The check stays traced: on artifact-fig8 it is the fork fan-out.
            recorder.phase = "verify"
        rss_mb = peak_rss_mb()
        workload.verify(state, phases)
        if recorder is not None:
            recorder.unpatch()
            recorder.merge_children()

        attempted = sum(len(phase.ops) for phase in phases)
        failed = sum(1 for phase in phases for op in phase.ops if op.error is not None)
        for phase in phases:
            for op in phase.ops:
                if op.error is not None:
                    print(f"failed {workload.name} op {op.key}: {op.error}")
                    break
        print(f"workload {workload.name} seed {args.seed}: {len(phases[0].ops)} operations, "
              f"setup x{SETUP_REPEATS} {['%.3f' % s for s in setups]} s")
        print(f"error_rate {failed / attempted:.6f} ratio  ({failed} of {attempted})")
        if recorder is None:
            values = end_to_end_metrics(phases[0], setups, rss_mb)
            units = END_TO_END
        else:
            values = per_layer_metrics(recorder, phases[1], state)
            units = PER_LAYER
            for line in trace_accounting(recorder, phases[1], phases[0]):
                print(line)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            recorder.write(out / f"spans-{workload.name}-{args.seed}.json")
        for name, unit in units.items():
            print(f"{name} {values[name]:.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        if recorder is not None:
            recorder.unpatch()
        meter.remove()
        if state is not None:
            workload.close(state)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
