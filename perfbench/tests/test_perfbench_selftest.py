"""Self-test of the benchmark: tracing must not perturb what it measures.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from spans import Tracer, entry_points  # noqa: E402
from workloads import TRACE_BLOCK, WORKLOADS, run_workload  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def _printed(metrics: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in metrics.items()}


def _attributes() -> list:
    return [vars(owner)[attribute] for owner, attribute, _, _ in entry_points()]


@pytest.mark.parametrize("workload", ["ingest-zipf", "model-refresh", "durable-replicated"])
def test_traced_run_ends_in_the_untraced_sample(workload, tmp_path):
    originals = _attributes()
    affinity = os.sched_getaffinity(0)
    batches = 3 * TRACE_BLOCK
    plain = run_workload(workload, 7, 0.0, False, str(tmp_path), setup_reps=1, batches=batches)
    traced = run_workload(workload, 7, 0.0, True, str(tmp_path), setup_reps=1, batches=batches)
    assert plain.ops.failed == 0, plain.ops.reasons
    assert traced.ops.failed == 0, traced.ops.reasons
    assert len(traced.traced_latencies) == TRACE_BLOCK
    assert "service.ingest" in traced.tracer.names
    assert traced.digest == plain.digest
    assert all(now is before for now, before in zip(_attributes(), originals))
    assert os.sched_getaffinity(0) == affinity
    assert _printed(bench_run.end_to_end(plain)) == _declared("end_to_end")
    assert _printed(bench_run.per_layer(traced)[0]) == _declared("per_layer")


def _children() -> list[int]:
    """Pids of this process's children, zombies included."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            children.append(int(stat.parent.name))
    return children


def test_durable_run_leaves_no_process_behind(tmp_path):
    run_workload("durable-replicated", 7, 0.0, False, str(tmp_path), setup_reps=1, batches=3)
    bench_run.stop_child_processes()
    assert _children() == []


def test_declared_workloads_match_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }


def test_wrappers_are_fully_uninstalled():
    originals = _attributes()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.installed
        assert all(now is not before for now, before in zip(_attributes(), originals))
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert all(now is before for now, before in zip(_attributes(), originals))
