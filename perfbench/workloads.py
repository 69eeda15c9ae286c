"""The four closed-loop workloads and the loop that measures them.

Each workload has one producer that generates a batch from the workload
seed (outside every timed span), ingests it, and waits until the batch is
visible in a ``snapshot()`` cut before generating the next. Inputs are
made one batch at a time and never kept, so peak RSS measures the service
and not the generator.

Every batch, cut and checkpoint counts as one attempted operation, and so
does each end-of-run correctness gate:

* every shard's realized size in the final cut is ``floor`` or ``ceil`` of
  ``min(n, W_t)`` and never above ``n`` (Theorems 4.2-4.4), checked on
  every per-batch cut as well;
* the merged sample is a subset of the ingested items;
* ``model-refresh``: the misclassification rate stays far below chance;
* ``durable-replicated``: ``recover_service`` on the run's WAL directory
  rebuilds a ``state_dict()`` equal to the live service's.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable, Iterable

import numpy as np

from repro.core import RTBS
from repro.ml.knn import KNNClassifier
from repro.ml.metrics import misclassification_rate
from repro.ml.retraining import ModelManager
from repro.service import ReplicationConfig, SamplerService, recover_service
from repro.service.checkpoint import load_service_delta
from repro.streams.gaussian_mixture import GaussianMixtureStream
from repro.streams.patterns import PeriodicPattern
from repro.streams.stream import BatchStream

from spans import Tracer

NUM_SHARDS = 8
LAMBDA = 0.07
BATCH_ITEMS = 100_000
ZIPF_EXPONENT = 1.3
#: Distinct routing keys of the truncated Zipf law (exact inverse-CDF draws).
ZIPF_KEYS = 1 << 16
CHECKPOINT_EVERY = 50
MODEL_CLASSES = 100
#: ``model-refresh`` scores this many timed batches for ``model_error``
#: (the loop runs at least this long), so the rate is exact per seed.
MODEL_ERROR_BATCHES = 300
#: A misclassification rate above this fails the gate (chance is 0.99).
MODEL_ERROR_LIMIT = 0.5
#: Traced runs alternate untraced and traced blocks of this many batches; odd,
#: so neither kind always holds the checkpoint or log-shipping batches.
TRACE_BLOCK = 7


def _rtbs(capacity: int, rng: np.random.Generator) -> RTBS:
    return RTBS(n=capacity, lambda_=LAMBDA, rng=rng)


def _label(item: Any) -> int:
    return item.label


def _seeds(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (input, service) generators derived from the workload seed."""
    inputs, service = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(inputs), np.random.default_rng(service)


class ZipfInputs:
    """Batches of unique int64 item ids routed by Zipf(1.3) keys.

    The ids make the subset gate exact without keeping the stream: every
    id below :attr:`next_id` was ingested exactly once.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        cdf = np.cumsum(np.arange(1, ZIPF_KEYS + 1, dtype=float) ** -ZIPF_EXPONENT)
        self._cdf = cdf / cdf[-1]
        self.next_id = 0

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        items = np.arange(self.next_id, self.next_id + BATCH_ITEMS, dtype=np.int64)
        self.next_id += BATCH_ITEMS
        keys = np.searchsorted(self._cdf, self._rng.random(BATCH_ITEMS), side="right")
        return items, keys.astype(np.int64) + 1


def model_inputs(rng: np.random.Generator):
    """The paper's Section 6 stream: 100-class Gaussian mixture under P(20, 10)."""
    generator = GaussianMixtureStream(num_classes=MODEL_CLASSES, rng=rng)
    return iter(
        BatchStream(
            generator,
            pattern=PeriodicPattern(20, 10),
            warmup_batches=100,
            num_batches=10**12,
            rng=rng,
        )
    )


@dataclass
class Ops:
    """Operations attempted and failed, with the first failure's reason."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)


def _size_within_bound(view: Any) -> bool:
    """Theorems 4.2-4.4: size is floor/ceil of min(n, W_t), never above n."""
    target = min(view.capacity, view.total_weight)
    slack = 1e-9 * max(1.0, target)
    return (
        math.floor(target - slack) <= view.sample_size <= math.ceil(target + slack)
        and view.sample_size <= view.capacity
    )


def _cut_holds_batch(service: SamplerService, cut: Any, reached: Iterable[int]) -> bool:
    """Every shard in ``reached`` shows the batch's arrival time in the cut,
    and every view's size is within the bound of :func:`_size_within_bound`."""
    views = cut.views
    return all(
        shard_id in views and views[shard_id].time == service.time for shard_id in reached
    ) and all(_size_within_bound(view) for view in views.values())


def _cut_digest(service: SamplerService, cut: Any) -> str:
    """A digest of the final sample, its per-shard weights and the clock."""
    digest = hashlib.sha256(repr((service.batches_seen, service.time)).encode())
    for shard_id in cut.active_shards:
        view = cut.views[shard_id]
        digest.update(repr((shard_id, view.sample_size, view.total_weight)).encode())
        items = view.items
        if isinstance(items, np.ndarray) and items.dtype != object:
            digest.update(np.ascontiguousarray(items).tobytes())
        else:
            digest.update(repr(list(items)).encode())
    return digest.hexdigest()


def _same_state(left: Any, right: Any) -> bool:
    """Structural equality of two ``state_dict()`` trees.

    The repository's test helper ``tests/faults.assert_states_equal`` does
    the same with ``assert`` statements, which ``python -O`` strips; the
    benchmark's gate must neither vanish under ``-O`` nor change when the
    test suite does, so it keeps its own comparison.
    """
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(_same_state(left[key], right[key]) for key in left)
        )
    if isinstance(left, (list, tuple)):
        return (
            isinstance(right, (list, tuple))
            and len(left) == len(right)
            and all(_same_state(a, b) for a, b in zip(left, right))
        )
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        left, right = np.asarray(left), np.asarray(right)
        return (
            left.dtype == right.dtype
            and left.shape == right.shape
            and bool(np.array_equal(left, right, equal_nan=left.dtype.kind in "fc"))
        )
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return bool(left == right)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process (this one by default), in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Session:
    """One workload instance: its inputs, its service and its checks."""

    #: Warm-up batches ingested inside ``setup_s``.
    warmup_batches: int

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.input_rng, self.service_rng = _seeds(seed)
        self.service: SamplerService | None = None
        self.extra: dict[str, float] = {}

    def next_input(self) -> Any:
        raise NotImplementedError

    def build(self) -> None:
        """Construct the service (timed as part of ``setup_s``)."""
        raise NotImplementedError

    def step(self, batch: Any) -> Any:
        """The timed part of one batch: ingest until visible in a cut."""
        raise NotImplementedError

    def check(self, batch: Any, outcome: Any, ops: Ops) -> None:
        """Untimed per-batch checks, one per operation the batch performed."""
        raise NotImplementedError

    def items_in(self, batch: Any) -> int:
        raise NotImplementedError

    def warm(self, batch: Any) -> Any:
        """The timed part of one warm-up batch."""
        return self.step(batch)

    def setup(self, ops: Ops) -> float:
        """Build and warm up; return seconds spent, input generation excluded."""
        begin = perf_counter()
        self.build()
        seconds = perf_counter() - begin
        for _ in range(self.warmup_batches):
            batch = self.next_input()
            begin = perf_counter()
            outcome = self.warm(batch)
            seconds += perf_counter() - begin
            self.check(batch, outcome, ops)
        return seconds

    def verify(self, ops: Ops) -> str:
        """Run the end-of-run gates; return the final sample digest."""
        cut = self.service.snapshot()
        for shard_id in cut.active_shards:
            ops.check(_size_within_bound(cut.views[shard_id]), f"size bound, shard {shard_id}")
        ops.check(self.sample_is_subset(cut), "merged sample is not a subset of the input")
        return _cut_digest(self.service, cut)

    def sample_is_subset(self, cut: Any) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


class ZipfSession(Session):
    """``ingest-zipf``, ``large-sample`` and ``durable-replicated``.

    The durable session runs on the process transport (``process:1``). Its
    producer and its worker are pinned to one CPU for the session's life:
    the closed loop never runs them at once (the producer waits for the
    worker's acknowledgement and cut marker every batch), and on a small VM
    a wake-up across vCPUs costs a varying share of each batch. Pinned, the
    loop's IQR/median over seeds fell from about 0.3 to under 0.07, and the
    other CPU stays free for the kernel's write-back of the WAL.
    """

    def __init__(
        self, seed: int, workdir: str, capacity: int, warmup_batches: int, durable: bool
    ) -> None:
        super().__init__(seed, workdir)
        self.capacity = capacity
        self.warmup_batches = warmup_batches
        self.durable = durable
        self.affinity: set[int] | None = None
        self.inputs = ZipfInputs(self.input_rng)
        self.factory = partial(_rtbs, capacity)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workdir) if durable else None

    def next_input(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs.next()

    def items_in(self, batch: Any) -> int:
        return len(batch[0])

    def build(self) -> None:
        durability: dict[str, Any] = {}
        if self.durable:
            durability = dict(
                executor="process:1",
                wal_dir=self.wal_dir,
                wal_fsync="os",
                replication=ReplicationConfig(),
            )
            # The worker forked by the service inherits this affinity.
            self.affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self.affinity)})
        self.service = SamplerService(
            self.factory, num_shards=NUM_SHARDS, rng=self.service_rng, **durability
        )

    def step(self, batch: tuple[np.ndarray, np.ndarray]) -> Any:
        items, keys = batch
        service = self.service
        counts = service.ingest_batch(items, keys=keys)
        cut = service.snapshot(include_items=False)
        checkpointed = self.durable and service.batches_seen % CHECKPOINT_EVERY == 0
        if checkpointed:
            service.checkpoint()
        return counts, cut, checkpointed

    def check(self, batch: Any, outcome: Any, ops: Ops) -> None:
        counts, cut, checkpointed = outcome
        ops.check(sum(counts.values()) == len(batch[0]), "ingest lost items")
        reached = [shard_id for shard_id, count in counts.items() if count]
        ops.check(_cut_holds_batch(self.service, cut, reached), "batch not visible in cut")
        if checkpointed:
            _, watermark = load_service_delta(os.path.join(self.wal_dir, "checkpoint"))
            ops.check(watermark == cut.watermark, "checkpoint watermark behind the batch")

    def sample_is_subset(self, cut: Any) -> bool:
        ids = [np.asarray(cut.views[shard].items) for shard in cut.active_shards]
        ids = np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
        return bool(
            ids.dtype.kind == "i"
            and (ids.size == 0 or (ids.min() >= 0 and ids.max() < self.inputs.next_id))
            and np.unique(ids).size == ids.size
        )

    def verify(self, ops: Ops) -> str:
        digest = super().verify(ops)
        if self.durable:
            live = self.service.state_dict()
            self.service.close()
            begin = perf_counter()
            recovered = recover_service(self.wal_dir, self.factory)
            self.extra["wal.recover_ms"] = (perf_counter() - begin) * 1e3
            try:
                ops.check(_same_state(recovered.state_dict(), live), "recovered state differs")
            finally:
                recovered.close()
            self.extra["checkpoint.bytes"] = float(
                sum(
                    os.path.getsize(os.path.join(root, name))
                    for root, _, names in os.walk(os.path.join(self.wal_dir, "checkpoint"))
                    for name in names
                )
            )
        return digest

    def close(self) -> None:
        super().close()
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)
            self.affinity = None


class ModelSession(Session):
    """``model-refresh``: the paper's Section 6 test-then-train loop."""

    warmup_batches = 100

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.inputs = model_inputs(self.input_rng)
        self.consumed = 0
        self.losses: list[float] = []
        self.manager: ModelManager | None = None

    def next_input(self) -> Any:
        self.consumed += 1
        return next(self.inputs)

    def items_in(self, batch: Any) -> int:
        return len(batch)

    def build(self) -> None:
        self.service = SamplerService(
            partial(_rtbs, 125), num_shards=NUM_SHARDS, key_fn=_label, rng=self.service_rng
        )
        self.manager = ModelManager(
            self.service,
            model_factory=partial(KNNClassifier, k=7),
            loss=misclassification_rate,
        )

    def warm(self, batch: Any) -> None:
        # Warm-up batches update the sample and the model but are not scored.
        self.manager.warmup([batch])

    def step(self, batch: Any) -> float:
        return self.manager.step(batch)

    def check(self, batch: Any, outcome: Any, ops: Ops) -> None:
        if outcome is not None:
            ops.check(0.0 <= outcome <= 100.0, "loss outside [0, 100]")
            self.losses.append(outcome / 100.0)
        ops.check(self.service.batches_seen == self.consumed, "batch not ingested")
        # The last cut the step took (the retraining sample) is the cached one:
        # the shards the batch reached carry its arrival time there.
        views = self.service.snapshot(max_staleness_batches=1 << 62).views.values()
        ops.check(
            any(view.time == self.service.time for view in views)
            and all(_size_within_bound(view) for view in views),
            "model trained on a cut without the batch",
        )

    def sample_is_subset(self, cut: Any) -> bool:
        remaining = Counter(cut.sample_items())
        inputs = model_inputs(_seeds(self.seed)[0])
        for _ in range(self.consumed):
            for item in next(inputs):
                if remaining.get(item):
                    remaining[item] -= 1
        return not +remaining

    def model_error(self) -> float:
        return float(np.mean(self.losses[:MODEL_ERROR_BATCHES]))

    def verify(self, ops: Ops) -> str:
        digest = super().verify(ops)
        ops.check(self.model_error() < MODEL_ERROR_LIMIT, "model_error near chance")
        return digest


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, str], Session]
    min_timed_batches: int = 0
    #: ``setup_s`` is the median of this many set-ups from scratch.
    setup_reps: int = 5


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "ingest-zipf",
            "high-rate bulk path: routing does most of the work; no WAL, transport or model",
            lambda seed, workdir: ZipfSession(seed, workdir, 1250, 100, durable=False),
            setup_reps=9,
        ),
        Workload(
            "large-sample",
            "a ~1M-item retained sample: R-TBS acceptance, downsampling and eviction dominate",
            lambda seed, workdir: ZipfSession(seed, workdir, 125_000, 40, durable=False),
            setup_reps=3,
        ),
        Workload(
            "model-refresh",
            "the paper's Section 6 loop: small batches, two cuts and a kNN retrain per batch",
            ModelSession,
            min_timed_batches=MODEL_ERROR_BATCHES,
            setup_reps=9,
        ),
        Workload(
            "durable-replicated",
            "write-heavy: process transport, WAL append, log shipping to a warm standby, "
            "delta checkpoints",
            lambda seed, workdir: ZipfSession(seed, workdir, 1250, 60, durable=True),
            setup_reps=7,
        ),
    )
}


@dataclass
class RunResult:
    ops: Ops
    setup_seconds: list[float]
    latencies: list[float]
    items: int
    peak_rss_mb: float
    digest: str
    extra: dict[str, float]
    model_error: float | None = None
    tracer: Tracer | None = None
    traced_latencies: list[float] = field(default_factory=list)


def _one_batch(session: Session, ops: Ops, tracer: Tracer | None) -> tuple[float, int]:
    """Generate one batch (untimed), time its step, then check it (untimed)."""
    batch = session.next_input()
    start = perf_counter()
    if tracer is None:
        outcome = session.step(batch)
    else:
        with tracer.span("root.batch"):
            outcome = session.step(batch)
    latency = perf_counter() - start
    session.check(batch, outcome, ops)
    return latency, session.items_in(batch)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    setup_reps: int | None = None,
    batches: int | None = None,
) -> RunResult:
    """Set up ``setup_reps`` times (the workload's count by default), then
    measure the last instance.

    The timed loop runs for ``seconds`` (or exactly ``batches`` batches).
    Traced runs alternate blocks of :data:`TRACE_BLOCK` untraced and traced
    batches on the same instance, with the wrappers installed only for the
    traced blocks, so the two throughputs compare like with like and their
    ratio is the tracing overhead.
    """
    workload = WORKLOADS[name]
    ops = Ops()
    setups: list[float] = []
    session: Session | None = None
    try:
        for _ in range(setup_reps or workload.setup_reps):
            if session is not None:
                session.close()
                session = None
                gc.collect()
            session = workload.make(seed, workdir)
            setups.append(session.setup(ops))
        begin = perf_counter()
        tracer = Tracer() if trace else None
        plain: list[float] = []
        traced: list[float] = []
        plain_items = 0
        done = 0
        try:
            while (
                done < batches
                if batches is not None
                else done < workload.min_timed_batches or perf_counter() - begin < seconds
            ):
                tracing = tracer is not None and (done // TRACE_BLOCK) % 2 == 1
                if tracer is not None and tracing != tracer.installed:
                    # Swapped per block, not per batch, so traced and
                    # untraced batches alike rarely follow a class change.
                    if tracing:
                        tracer.install()
                    else:
                        tracer.uninstall()
                latency, items = _one_batch(session, ops, tracer if tracing else None)
                if tracing:
                    traced.append(latency)
                else:
                    plain.append(latency)
                    plain_items += items
                done += 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        # The producer plus, on the process transport, its workers.
        executor = session.service.executor
        workers = executor.transport.worker_pids() if executor.provides_transport else []
        peak_rss = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in workers)
        digest = session.verify(ops)
        return RunResult(
            ops=ops,
            setup_seconds=setups,
            latencies=plain,
            items=plain_items,
            peak_rss_mb=peak_rss,
            digest=digest,
            extra=session.extra,
            model_error=session.model_error() if isinstance(session, ModelSession) else None,
            tracer=tracer,
            traced_latencies=traced,
        )
    finally:
        if session is not None:
            session.close()
