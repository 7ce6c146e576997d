"""Progress introspection.

"Managing MPI progress can feel almost magical when it works, but
extremely frustrating when it fails" (section 2.5) — largely because
implementations expose nothing about what progress is doing.  This
module is the observability the paper's explicit-progress design makes
possible: a structured snapshot of every progress-related counter in a
process context, plus a human-readable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mpi import Proc

__all__ = ["StreamStats", "ProgressSnapshot", "snapshot"]


@dataclass(frozen=True)
class StreamStats:
    """Per-stream progress statistics."""

    stream_id: int
    vci: int
    is_default: bool
    progress_calls: int
    subsystem_polls: int
    skipped_polls: int
    pending_async_tasks: int
    inbox_tasks: int
    lock_acquires: int
    lock_wait_s: float

    @property
    def mean_lock_wait_us(self) -> float:
        if not self.lock_acquires:
            return 0.0
        return self.lock_wait_s / self.lock_acquires * 1e6


@dataclass(frozen=True)
class ProgressSnapshot:
    """Point-in-time view of one rank's progress machinery."""

    rank: int
    engine_passes: int
    subsystem_polls: int
    skipped_polls: int
    pending_async_tasks: int
    datatype_active_tasks: int
    collective_active_scheds: int
    streams: list[StreamStats] = field(default_factory=list)
    endpoints: list[dict[str, Any]] = field(default_factory=list)
    #: progress-pool counters (see ``ProgressPool.stats``); None when
    #: no pool was passed to :func:`snapshot`
    pool: dict[str, Any] | None = None
    #: ack/retransmit counters (zero everywhere on a lossless run)
    reliability: dict[str, int] = field(default_factory=dict)
    #: fault-injector counters; None on a perfect fabric
    faults: dict[str, int] | None = None
    #: buffer-pool + copy-path counters (pool hits/misses/outstanding,
    #: per-rank staging copy bytes, shmem transport copy bytes, cells
    #: pushed and descriptors posted)
    mem_pool: dict[str, Any] | None = None
    #: compiled-schedule plan cache counters (entries, hits, misses,
    #: builds, evictions, invalidations); None only if the proc
    #: predates the cache
    schedule_cache: dict[str, Any] | None = None
    #: heartbeat failure-detector state (per-peer alive/suspect/dead,
    #: ping/death counters); None when the detector is not armed
    failure_detector: dict[str, Any] | None = None

    def format_report(self) -> str:
        """Aligned multi-line report for humans."""
        lines = [
            f"progress report — rank {self.rank}",
            f"  engine passes       : {self.engine_passes}",
            f"  subsystem polls     : {self.subsystem_polls}",
            f"  skipped polls       : {self.skipped_polls}",
            f"  pending async tasks : {self.pending_async_tasks}",
            f"  datatype tasks      : {self.datatype_active_tasks}",
            f"  active schedules    : {self.collective_active_scheds}",
            "  streams:",
        ]
        for s in self.streams:
            name = "STREAM_NULL" if s.is_default else f"stream#{s.stream_id}"
            lines.append(
                f"    {name:>12} vci={s.vci} calls={s.progress_calls} "
                f"polls={s.subsystem_polls} skipped={s.skipped_polls} "
                f"tasks={s.pending_async_tasks} "
                f"lock_wait={s.mean_lock_wait_us:.3f}us/acq"
            )
        if self.endpoints:
            lines.append("  endpoints:")
            for ep in self.endpoints:
                lines.append(
                    f"    vci={ep['vci']} posted={ep['posted']} "
                    f"bytes={ep['bytes']} polls={ep['polls']} "
                    f"empty={ep['empty_polls']} "
                    f"batches={ep['batch_harvests']} pending={ep['pending']}"
                )
        if self.pool is not None:
            p = self.pool
            lines.append(
                "  progress pool       : "
                f"workers={p['workers']} slots={p['slots']} "
                f"steals={p['stat_steals']} returns={p['stat_returns']} "
                f"batch_harvests={p['stat_batch_harvests']} "
                f"passes={p['worker_passes']}"
            )
        if any(self.reliability.values()):
            r = self.reliability
            lines.append(
                "  reliability         : "
                f"retransmits={r['retransmits']} acks_tx={r['acks_tx']} "
                f"acks_rx={r['acks_rx']} dedup={r['dedup_hits']} "
                f"ooo={r['ooo_buffered']} failures={r['failures']}"
            )
        if self.faults is not None:
            f = self.faults
            lines.append(
                "  fault injection     : "
                f"packets={f['packets']} dropped={f['dropped']} "
                f"duplicated={f['duplicated']} reordered={f['reordered']} "
                f"delayed={f['delayed']} plan_hits={f['plan_hits']}"
            )
        if self.mem_pool is not None:
            m = self.mem_pool
            lines.append(
                "  buffer pool         : "
                f"enabled={m['enabled']} hits={m['hits']} misses={m['misses']} "
                f"outstanding={m['outstanding']} high_water={m['high_water']} "
                f"recycled={m['bytes_recycled']}B free={m['free_bytes']}B "
                f"copies={m['copy_bytes_total']}B "
                f"shmem: copies={m['shmem_copy_bytes']}B "
                f"cells={m['shmem_cells_pushed']} "
                f"descriptors={m['shmem_descriptors']}"
            )
        if self.failure_detector is not None:
            d = self.failure_detector
            dead = [r for r, s in d["peers"].items() if s == "dead"]
            suspect = [r for r, s in d["peers"].items() if s == "suspect"]
            lines.append(
                "  failure detector    : "
                f"peers={len(d['peers'])} dead={dead} suspect={suspect} "
                f"pings_tx={d['pings_tx']} pongs_rx={d['pongs_rx']} "
                f"deaths={d['deaths']}"
            )
        if self.schedule_cache is not None:
            c = self.schedule_cache
            lines.append(
                "  plan cache          : "
                f"enabled={c['enabled']} "
                f"entries={c['entries']}/{c['max_plans']} "
                f"hits={c['stat_plan_hits']} misses={c['stat_plan_misses']} "
                f"builds={c['stat_plan_builds']} "
                f"evicted={c['stat_plan_evictions']} "
                f"invalidated={c['stat_plan_invalidations']}"
            )
        return "\n".join(lines)


def snapshot(proc: "Proc", pool: Any | None = None) -> ProgressSnapshot:
    """Collect a :class:`ProgressSnapshot` for ``proc``.

    Reads are lock-free counter loads; values are a consistent-enough
    point-in-time view for diagnostics (not a serialization point).
    Pass the rank's :class:`~repro.exts.progress_pool.ProgressPool` as
    ``pool`` to include steal/batch counters in the snapshot.
    """
    streams = []
    endpoints = []
    for stream in proc.streams:
        streams.append(
            StreamStats(
                stream_id=stream.stream_id,
                vci=stream.vci,
                is_default=stream is proc.default_stream,
                progress_calls=stream.stat_progress_calls,
                subsystem_polls=stream.stat_subsystem_polls,
                skipped_polls=stream.stat_skipped_polls,
                pending_async_tasks=len(stream.async_tasks),
                inbox_tasks=len(stream._inbox),
                lock_acquires=stream.stat_lock_acquires,
                lock_wait_s=stream.stat_lock_wait_s,
            )
        )
        ep = proc.world.fabric.endpoint(proc.rank, stream.vci)
        endpoints.append(
            {
                "vci": stream.vci,
                "posted": ep.stat_posted,
                "bytes": ep.stat_bytes,
                "polls": ep.stat_polls,
                "empty_polls": ep.stat_empty_polls,
                "batch_harvests": ep.stat_batch_harvests,
                "pending": ep.pending,
                "copy_bytes": proc.p2p.copy_bytes(stream.vci),
            }
        )
    mem_pool = dict(proc.p2p.pool.stats())
    mem_pool["copy_bytes_total"] = sum(proc.p2p.stat_copy_bytes.values())
    shmem = proc.p2p.shmem
    # World-wide shmem transport counters (exact): staging copies, cells
    # pushed into rings, and how many of those were descriptors.
    for key in ("copy_bytes", "cells_pushed", "descriptors"):
        mem_pool[f"shmem_{key}"] = (
            getattr(shmem, f"stat_{key}") if shmem is not None else 0
        )
    return ProgressSnapshot(
        rank=proc.rank,
        # Engine counters are per-thread sharded (ShardedCounter);
        # int() aggregates the shards into the exact total.
        engine_passes=int(proc.progress_engine.stat_passes),
        subsystem_polls=int(proc.progress_engine.stat_subsystem_polls),
        skipped_polls=int(proc.progress_engine.stat_skipped_polls),
        pending_async_tasks=proc.pending_async_tasks,
        datatype_active_tasks=proc.datatype_engine.active_tasks,
        collective_active_scheds=proc.coll_engine.active_count,
        streams=streams,
        endpoints=endpoints,
        pool=pool.stats() if pool is not None else None,
        reliability=proc.p2p.reliability_stats(),
        faults=proc.world.fabric.fault_stats(),
        mem_pool=mem_pool,
        schedule_cache=proc.plan_cache.stats(),
        failure_detector=(
            proc.detector.stats() if proc.detector is not None else None
        ),
    )
