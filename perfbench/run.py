"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs timing
wrappers around each layer's entry points for every other block of batches
and prints the per-layer split, naming the dominant layer. The line before the result
is a ``{"meta": ...}`` record: seed, machine (nproc, Python, NumPy,
commit), the sample count behind each percentile, and ``model_error`` for
``model-refresh``. Spans of traced runs are written to
``.perfbench_work/traces/``. The program is imported from ``src/`` of the
checkout; without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(result) -> dict:
    p50, p95 = np.percentile(result.latencies, [50, 95]) * 1e3
    return {
        "setup_s": _metric(float(np.median(result.setup_seconds)), "s"),
        "ingest_items_per_s": _metric(result.items / sum(result.latencies), "items/s"),
        "batch_p50_ms": _metric(p50, "ms"),
        "batch_p95_ms": _metric(p95, "ms"),
        "peak_rss_mb": _metric(result.peak_rss_mb, "MiB"),
    }


def per_layer(result) -> tuple[dict, dict]:
    """The per-layer metrics and each layer's share of the traced batch time.

    Layers are the span-name prefixes of ``spans.py``; ``root`` is the
    batch time no layer span covers.
    """
    tracer = result.tracer
    batches = len(result.traced_latencies)
    totals = tracer.totals()
    self_times = tracer.self_times()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def per_batch_ms(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] / batches * 1e3

    def self_ms(name: str) -> float:
        return self_times.get(name, 0.0) / batches * 1e3

    def per_call_ms(name: str) -> float:
        count, seconds = totals.get(name, (0, 0.0))
        return seconds / count * 1e3 if count else 0.0

    def mean(name: str) -> float:
        values = tracer.values.get(name)
        return float(np.mean(values)) if values else 0.0

    # Rare heavy batches (checkpoints, log shipping) fall unevenly into the
    # alternating blocks, so the overhead compares the blocks' median
    # batches: with a fixed batch size, the ratio of their throughputs.
    overhead = np.median(result.traced_latencies) / np.median(result.latencies) - 1.0
    metrics = {
        "routing.hash_ms": _metric(per_batch_ms("routing.hash"), "ms"),
        "routing.split_ms": _metric(per_batch_ms("routing.split"), "ms"),
        "routing.max_shard_share": _metric(mean("routing.max_shard_share"), "fraction"),
        "core.ingest_ms": _metric(per_batch_ms("core.ingest"), "ms"),
        "core.calls_per_batch": _metric(calls("core.ingest") / batches, "count"),
        "engine.apply_ms": _metric(per_batch_ms("engine.apply"), "ms"),
        "engine.drain_ms": _metric(per_batch_ms("engine.drain"), "ms"),
        "engine.cut_ms": _metric(per_batch_ms("engine.cut"), "ms"),
        "wal.append_ms": _metric(per_batch_ms("wal.append"), "ms"),
        "wal.bytes_per_batch": _metric(sum(tracer.values.get("wal.bytes", [])) / batches, "B"),
        "wal.truncate_ms": _metric(per_call_ms("wal.truncate"), "ms"),
        "wal.recover_ms": _metric(result.extra.get("wal.recover_ms", 0.0), "ms"),
        "checkpoint.ms": _metric(per_call_ms("checkpoint"), "ms"),
        "checkpoint.save_ms": _metric(per_call_ms("checkpoint.save"), "ms"),
        "checkpoint.bytes": _metric(result.extra.get("checkpoint.bytes", 0.0), "B"),
        "replication.catch_up_ms": _metric(per_batch_ms("replication.catch_up"), "ms"),
        "replication.ship_ms": _metric(per_batch_ms("replication.ship"), "ms"),
        "replication.lag_batches": _metric(mean("replication.lag_batches"), "count"),
        "service.ingest_self_ms": _metric(self_ms("service.ingest"), "ms"),
        "service.snapshot_ms": _metric(per_batch_ms("service.snapshot"), "ms"),
        "service.snapshots_per_batch": _metric(calls("service.snapshot") / batches, "count"),
        "service.sample_items_ms": _metric(per_batch_ms("service.sample_items"), "ms"),
        "ml.predict_ms": _metric(per_batch_ms("ml.predict"), "ms"),
        "ml.fit_ms": _metric(per_batch_ms("ml.fit"), "ms"),
        "ml.step_self_ms": _metric(self_ms("ml.step"), "ms"),
        "streams.features_ms": _metric(per_batch_ms("streams.features"), "ms"),
        "root.self_ms": _metric(self_ms("root.batch"), "ms"),
        "trace.overhead_pct": _metric(overhead * 100.0, "%"),
    }
    batch_seconds = sum(result.traced_latencies)
    shares = {
        layer: seconds / batch_seconds
        for layer, seconds in sorted(tracer.layer_self_times().items())
    }
    return metrics, shares


def stop_child_processes() -> None:
    """End every process the run started and wait for each.

    The transport's workers are joined by ``SamplerService.close``. Creating
    a shared-memory ring also starts multiprocessing's resource tracker,
    which would otherwise outlive this process and be left unreaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {source / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        # setup_s is an end-to-end metric, so traced runs set up only once.
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            setup_reps=1 if args.trace else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "machine": platform.machine(),
        "setup_repetitions": len(result.setup_seconds),
        "digest": result.digest,
        "failures": result.ops.reasons,
    }
    if args.trace:
        metrics, shares = per_layer(result)
        dominant = max(set(shares) - {"root"}, key=shares.__getitem__)
        meta["percentile_samples"] = len(result.traced_latencies)
        meta["layer_self_share"] = shares
        meta["dominant_layer"] = dominant
        trace_dir = WORKDIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        result.tracer.write(str(trace_dir / f"{args.workload}-seed{args.seed}.json"))
        print(f"dominant layer: {dominant} ({shares[dominant]:.1%} of traced batch time; "
              f"unattributed {shares.get('root', 0.0):.1%})")
    else:
        metrics = end_to_end(result)
        meta["percentile_samples"] = len(result.latencies)
        if result.model_error is not None:
            meta["model_error"] = _metric(result.model_error, "fraction")
    print(json.dumps({"meta": meta}))
    correct = result.ops.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_child_processes()
    sys.exit(status)
