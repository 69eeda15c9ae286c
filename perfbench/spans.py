"""In-memory span tracer installed around the layers' public entry points.

The benchmark never edits the program: a traced run wraps each layer's
public entry points in timing shims (:meth:`Tracer.install`), records one
span per call (name, start, end, parent), and restores every original
attribute afterwards (:meth:`Tracer.uninstall`). Spans stay in memory and
are written out once the run ends.

Wrapped calls are recorded only inside an explicit root :meth:`Tracer.span`
(one per batch), so the benchmark's own checks between batches never show
up in the split. A layer's self time is its spans' durations minus the
part covered by their child spans, so nested layers (a checkpoint that
takes a cut and ships the log) are never counted twice.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Observer called after a wrapped call returns: ``(tracer, args, result)``.
Observer = Callable[["Tracer", tuple, Any], None]


def _record_max_share(tracer: "Tracer", args: tuple, result: Any) -> None:
    # split_order(shard_ids, num_shards) -> (order, counts, offsets)
    counts = result[1]
    total = int(counts.sum())
    if total:
        tracer.values["routing.max_shard_share"].append(int(counts.max()) / total)


def _record_split_share(tracer: "Tracer", args: tuple, result: Any) -> None:
    # split_by_shard(shard_ids, batch) -> [(shard_id, sub_batch), ...]
    sizes = [len(sub_batch) for _, sub_batch in result]
    if sizes:
        tracer.values["routing.max_shard_share"].append(max(sizes) / sum(sizes))


def _record_wal_bytes(tracer: "Tracer", args: tuple, result: Any) -> None:
    # WriteAheadLog.append_batch(self, seq, time, routed, explicit_keys)
    routed = args[3]
    tracer.values["wal.bytes"].append(
        sum(getattr(sub_batch, "nbytes", 0) for _, sub_batch in routed)
    )


def _record_lag(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.values["replication.lag_batches"].append(int(result))


def entry_points() -> list[tuple[Any, str, str, Observer | None]]:
    """``(owner, attribute, span name, observer)`` for every wrapped entry point.

    Routing and shard ingest are wrapped where ``repro.service.service``
    binds them, which is where the service calls them from.
    """
    import repro.service.checkpoint as checkpoint_module
    import repro.service.service as service_module
    from repro.engine.transport import ShardWorkerPool
    from repro.ml.knn import KNNClassifier
    from repro.ml.retraining import ModelManager
    from repro.service.replication import ShardReplicaSet
    from repro.service.service import SamplerService, ServiceSnapshot
    from repro.service.wal import LogShipper, WriteAheadLog
    from repro.streams.items import Batch

    return [
        (service_module, "shard_ids_for_keys", "routing.hash", None),
        (service_module, "split_order", "routing.split", _record_max_share),
        (service_module, "split_by_shard", "routing.split", _record_split_share),
        (service_module, "ingest_shard_inplace", "core.ingest", None),
        (ShardWorkerPool, "apply", "engine.apply", None),
        (ShardWorkerPool, "drain", "engine.drain", None),
        (ShardWorkerPool, "snapshot_async", "engine.cut", None),
        (ShardWorkerPool, "collect", "engine.cut", None),
        (WriteAheadLog, "append_batch", "wal.append", _record_wal_bytes),
        (WriteAheadLog, "flush", "wal.append", None),
        (WriteAheadLog, "truncate", "wal.truncate", None),
        (SamplerService, "checkpoint", "checkpoint", None),
        (checkpoint_module, "save_service_delta", "checkpoint.save", None),
        (ShardReplicaSet, "catch_up", "replication.catch_up", None),
        (LogShipper, "poll", "replication.ship", None),
        (ShardReplicaSet, "lag", "replication.lag", _record_lag),
        (SamplerService, "ingest_batch", "service.ingest", None),
        (SamplerService, "ingest", "service.ingest", None),
        (SamplerService, "snapshot", "service.snapshot", None),
        (ServiceSnapshot, "sample_items", "service.sample_items", None),
        (KNNClassifier, "predict", "ml.predict", None),
        (KNNClassifier, "fit", "ml.fit", None),
        (ModelManager, "step", "ml.step", None),
        (Batch, "feature_matrix", "streams.features", None),
        (Batch, "label_array", "streams.features", None),
    ]


class Tracer:
    """Records spans from wrapped entry points and explicit :meth:`span` blocks."""

    def __init__(self) -> None:
        # One entry per span, in start order, kept as parallel columns of
        # atoms: unlike a list per span, they give the cyclic garbage
        # collector nothing to track while the traced program runs.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: Index of the enclosing span, or -1 for a root.
        self.parents: list[int] = []
        #: Numbers observed at layer boundaries (shares, byte counts, lags).
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _timed(self, func: Callable[..., Any], name: str, observe: Observer | None):
        tracer = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            if not tracer._stack:
                # Only calls made on behalf of a traced root span are recorded.
                return func(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                observe(tracer, args, result)
            return result

        timed.__wrapped__ = func  # type: ignore[attr-defined]
        return timed

    # ------------------------------------------------------------------
    # installing / uninstalling the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; raises if they are already wrapped."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        for owner, attribute, name, observe in entry_points():
            original = vars(owner)[attribute]
            if isinstance(original, staticmethod):
                wrapper: Any = staticmethod(self._timed(original.__func__, name, observe))
            else:
                wrapper = self._timed(original, name, observe)
            setattr(owner, attribute, wrapper)
            self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to the exact original object."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (span minus its children)."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for parent, duration in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        totals: dict[str, float] = defaultdict(float)
        for name, duration, children in zip(self.names, durations, child_time):
            totals[name] += duration - children
        return dict(totals)

    def totals(self) -> dict[str, tuple[int, float]]:
        """``(calls, seconds)`` per span name, children included."""
        calls: dict[str, int] = defaultdict(int)
        seconds: dict[str, float] = defaultdict(float)
        for name, start, end in zip(self.names, self.starts, self.ends):
            calls[name] += 1
            seconds[name] += end - start
        return {name: (calls[name], seconds[name]) for name in calls}

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer (the span name up to its first dot)."""
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(layers)

    def write(self, path: str) -> None:
        """Write every span and observed value as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": {
                        "name": self.names,
                        "start_s": self.starts,
                        "end_s": self.ends,
                        "parent": self.parents,
                    },
                    "values": self.values,
                },
                handle,
            )
