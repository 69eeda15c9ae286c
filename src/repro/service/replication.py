"""Warm-standby shard replicas: WAL log shipping plus supervised failover.

A WAL-enabled :class:`~repro.service.service.SamplerService` already
recovers bit-identically after a crash — but *offline*: a
:class:`~repro.engine.errors.WorkerCrashError` stops ingestion until
someone restarts the process and calls
:func:`~repro.service.wal.recover_service`. This module keeps the service
*serving through* the crash. Three pieces:

* :class:`ShardReplicaSet` — a warm standby: one driver-side replica
  sampler per shard, fed committed WAL frames by a
  :class:`~repro.service.wal.LogShipper` and applied through the ordinary
  ``process_stream`` replay path, so the standby is bit-identical to the
  primary at every committed watermark (the same argument that makes
  offline recovery exact).
* :class:`FailureDetector` — declares the worker pool failed from two
  passive signals: process liveness (the driver-side mirror of the
  workers' orphan watchdog) and acknowledgement staleness (the pool's ack
  watermark stopped moving while commands stayed pending). Staleness needs
  a notion of elapsed time; the clock is **injected** via
  :class:`ReplicationConfig` — this module never reads the wall clock
  itself, keeping the failover path inside the determinism contract.
* :class:`ReplicationConfig` / :class:`ReplicationRuntime` — the
  deployment knobs (``SamplerService(replication=...)``) and the live
  state the service carries alongside them.

Why promotion is safe (the watermark argument)
----------------------------------------------

``append_batch`` completes — shard records, then the commit record —
*before* a batch is dispatched to any worker. So every batch the driver
has ever observed as ingested is durably committed in the log, no matter
how far the pipelined workers got with it. Failover therefore never
salvages worker state: the pool is discarded wholesale, the standby
replays exactly the committed-but-unapplied tail ``(applied, committed]``,
and the promoted samplers are bit-identical to an uninterrupted run
through the last committed batch — independent of *when* the failure was
detected, with no batch dropped and none double-applied.

RNG reconciliation rule
-----------------------

The standby must draw the same random numbers the primary would have. Two
cases: a shard **active at capture time** clones the primary's sampler via
``state_dict()`` (which embeds the RNG state) and mirrors the primary's
reserved-stream aliasing; a shard **not yet active** keeps only the
pristine reserved-stream state, and on its first shipped frame the standby
hands a clone of that state to the factory — the exact moment, and the
exact generator state, at which the lazily-creating serial path would have
invoked it. Promotion then re-aliases the service's reserved streams to
the standby's generators, so post-failover draws continue the same
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.base import Sampler
from repro.core.random_utils import generator_from_state, generator_state
from repro.engine.errors import FailoverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.transport import ShardWorkerPool
    from repro.service.service import SamplerService
    from repro.service.wal import WriteAheadLog

__all__ = [
    "ReplicationConfig",
    "ReplicationRuntime",
    "ShardReplicaSet",
    "FailureDetector",
    "FailureVerdict",
]


@dataclass(frozen=True)
class ReplicationConfig:
    """Deployment knobs for warm-standby replication.

    Parameters
    ----------
    ship_interval:
        Ship committed frames to the standby once its lag reaches this many
        batches. ``1`` keeps the standby hot at the cost of applying every
        batch twice; larger values amortize shipping but lengthen the
        replay burst a failover performs. Shipping also always happens at
        every checkpoint (truncation must never outrun the standby) and at
        promotion itself.
    clock:
        Injectable monotonic clock (e.g. ``time.monotonic`` passed in by
        the deployment) enabling acknowledgement-staleness detection. With
        the default ``None`` the failure detector is liveness-only — the
        deterministic default, since this module never reads ambient time.
    ack_timeout:
        Seconds (of ``clock`` time) the pool's ack watermark may sit still
        with commands pending before the detector declares it wedged.
    max_failovers:
        Optional budget; once spent, further failures raise
        :class:`~repro.engine.errors.FailoverError` instead of promoting —
        a circuit breaker against crash loops (a poisoned batch that kills
        every worker it meets would otherwise respawn-and-crash forever).
    """

    ship_interval: int = 8
    clock: Callable[[], float] | None = None
    ack_timeout: float = 30.0
    max_failovers: int | None = None

    def __post_init__(self) -> None:
        if self.ship_interval < 1:
            raise ValueError(
                f"ship_interval must be at least 1, got {self.ship_interval}"
            )
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be positive, got {self.ack_timeout}")
        if self.max_failovers is not None and self.max_failovers < 1:
            raise ValueError(
                f"max_failovers must be at least 1 (or None), got {self.max_failovers}"
            )


class ShardReplicaSet:
    """The warm standby: one replica sampler per shard, fed from the WAL.

    Replicas live driver-side (the driver survives worker crashes — the
    failure domain replication defends against is the worker pool) and are
    advanced only by :meth:`catch_up`, which ships committed frames and
    applies them through ``process_stream`` — the identical replay path
    offline recovery uses, so replica trajectories are bit-identical to
    the primary's at every applied watermark.
    """

    def __init__(
        self,
        factory: Callable[[np.random.Generator], Sampler],
        num_shards: int,
        wal: "WriteAheadLog",
        applied_seq: int = -1,
    ) -> None:
        self._factory = factory
        self.num_shards = int(num_shards)
        self._shipper = wal.open_shipper()
        #: Global sequence number of the last batch applied to the standby.
        self.applied_seq = int(applied_seq)
        #: Replica samplers for shards active on the standby, by shard id.
        self.samplers: dict[int, Sampler] = {}
        #: Each active replica shard's reserved RNG stream — the generator
        #: handed to (or reconciled with) its sampler; adopted into the
        #: service's ``_shard_rngs`` on promotion.
        self.rngs: dict[int, np.random.Generator] = {}
        #: Pristine reserved-stream states for shards with no data yet;
        #: consumed by the lazy factory call on the first shipped frame.
        self._pristine: dict[int, dict[str, Any]] = {}

    @classmethod
    def capture(
        cls, service: "SamplerService", wal: "WriteAheadLog", applied_seq: int
    ) -> "ShardReplicaSet":
        """Build a standby mirroring ``service``'s current state.

        The service's driver-side samplers must be authoritative: on the
        transport backend the caller first adopts a state-bearing cut
        (``_refresh_driver_cut()``) or has detached the pool. Active shards
        are cloned through the ``state_dict()`` round trip; shards with no
        data yet contribute only their pristine reserved-stream state (see
        the RNG reconciliation rule in the module docstring).
        """
        replica = cls(
            service._factory, service.num_shards, wal, applied_seq=applied_seq
        )
        for shard_id in range(service.num_shards):
            source = service._shards.get(shard_id)
            if source is not None:
                clone = Sampler.from_state_dict(source.state_dict())
                replica.samplers[shard_id] = clone
                source_rng = getattr(source, "_rng", None)
                clone_rng = getattr(clone, "_rng", None)
                if (
                    source_rng is service._shard_rngs[shard_id]
                    and clone_rng is not None
                ):
                    # The primary's sampler and reserved stream are one
                    # object (the usual factory pattern); mirror the
                    # aliasing so the replica's reserved stream advances as
                    # its sampler draws, exactly like the primary's.
                    replica.rngs[shard_id] = clone_rng
                else:
                    replica.rngs[shard_id] = generator_from_state(
                        generator_state(service._shard_rngs[shard_id])
                    )
            else:
                replica._pristine[shard_id] = generator_state(
                    service._shard_rngs[shard_id]
                )
        return replica

    def lag(self, committed_seq: int) -> int:
        """How many committed batches the standby has not applied yet."""
        return int(committed_seq) - self.applied_seq

    def _get_or_create(self, shard_id: int) -> Sampler:
        sampler = self.samplers.get(shard_id)
        if sampler is None:
            clone = generator_from_state(self._pristine.pop(shard_id))
            sampler = self._factory(clone)
            if not isinstance(sampler, Sampler):
                raise TypeError(
                    "sampler_factory must return a repro.core.base.Sampler, "
                    f"got {type(sampler).__name__}"
                )
            self.samplers[shard_id] = sampler
            self.rngs[shard_id] = clone
        return sampler

    def catch_up(self, through_seq: int) -> set[int]:
        """Apply every committed batch up to ``through_seq``; return touched shards.

        Ships the frames in ``(applied_seq, through_seq]`` and verifies the
        shipment is gap-free against the commit records before applying
        anything: a missing commit means frames the standby never saw were
        truncated away (or the log is damaged), and promoting such a
        standby would silently lose batches — that is a
        :class:`~repro.engine.errors.FailoverError`, never a quiet gap.
        """
        through_seq = int(through_seq)
        if through_seq <= self.applied_seq:
            return set()
        shipped = self._shipper.poll(self.applied_seq, through_seq)
        shipped_seqs = [record.seq for record in shipped.commits]
        expected = list(range(self.applied_seq + 1, through_seq + 1))
        if shipped_seqs != expected:
            raise FailoverError(
                f"the standby needs committed batches {expected[0]}.."
                f"{expected[-1]} but the commit log ships "
                f"{shipped_seqs or 'nothing'}; committed frames left the log "
                "before the standby applied them (truncation must catch the "
                "standby up first) or the log is damaged — restore offline "
                "from the last checkpoint"
            )
        for shard_id in sorted(shipped.per_shard):
            batches, times = shipped.per_shard[shard_id]
            self._get_or_create(shard_id).process_stream(batches, times=times)
        self.applied_seq = through_seq
        return set(shipped.per_shard)

    def promote(self) -> tuple[dict[int, Sampler], dict[int, np.random.Generator]]:
        """Hand over the standby's samplers and reserved streams.

        The caller (the service's failover) adopts them as the new
        primaries; the replica set is consumed — a fresh standby is
        captured from the promoted state afterwards.
        """
        samplers, rngs = self.samplers, self.rngs
        self.samplers, self.rngs, self._pristine = {}, {}, {}
        return samplers, rngs


@dataclass(frozen=True)
class FailureVerdict:
    """One failure-detector probe's outcome."""

    #: Worker indices whose processes are dead (liveness probe).
    dead_workers: tuple[int, ...] = ()
    #: The ack watermark sat still past the timeout with commands pending.
    stalled: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.dead_workers) or self.stalled


class FailureDetector:
    """Declares a worker pool failed from liveness and ack-staleness probes.

    Liveness needs no clock: a probe asks the OS whether each worker
    process still exists. Ack staleness — a *wedged* worker whose process
    lives but whose acknowledgements stopped — requires measuring elapsed
    time, so it activates only when an injectable monotonic ``clock`` is
    supplied (:class:`ReplicationConfig.clock`); the detector itself never
    reads ambient time. Probes are passive and non-blocking, cheap enough
    to run between every dispatched batch.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        ack_timeout: float = 30.0,
    ) -> None:
        self._clock = clock
        self._ack_timeout = float(ack_timeout)
        self._last_watermark: int | None = None
        self._progress_at: float | None = None

    def reset(self) -> None:
        """Forget staleness history (after a failover installed a new pool)."""
        self._last_watermark = None
        self._progress_at = None

    def check(self, pool: "ShardWorkerPool") -> FailureVerdict:
        """Probe ``pool`` once; never blocks, never touches the pipes."""
        dead = tuple(pool.dead_workers())
        if dead:
            return FailureVerdict(dead_workers=dead)
        if self._clock is None:
            return FailureVerdict()
        now = float(self._clock())
        watermark = pool.acked_through()
        if pool.pending_commands() == 0 or watermark != self._last_watermark:
            self._last_watermark = watermark
            self._progress_at = now
            return FailureVerdict()
        if self._progress_at is None:
            self._progress_at = now
            return FailureVerdict()
        return FailureVerdict(stalled=(now - self._progress_at) > self._ack_timeout)


@dataclass
class ReplicationRuntime:
    """Live replication state a service carries alongside its config."""

    config: ReplicationConfig
    replica: ShardReplicaSet
    detector: FailureDetector
    #: Completed promotions over this service's lifetime.
    failovers: int = 0
    #: One short human-readable line per promotion, oldest first.
    events: list[str] = field(default_factory=list)
