"""Measurement entry points, one per figure of the paper's evaluation."""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

import repro
from repro.bench.workloads import DummyTaskBatch
from repro.config import RuntimeConfig
from repro.core.async_ext import ASYNC_DONE, ASYNC_NOPROGRESS, ASYNC_PENDING
from repro.core.mpi import Proc
from repro.core.stream import STREAM_NULL
from repro.exts.progress_thread import ProgressThread
from repro.exts.taskclass import TaskClassQueue
from repro.runtime import run_world
from repro.runtime.world import World
from repro.util.clock import VirtualClock
from repro.util.lockfree import is_free_threaded
from repro.util.stats import LatencyRecorder, Series

__all__ = [
    "runtime_info",
    "measure_idle_pass_fastpath",
    "measure_pool_scaling",
    "measure_pool_idle_latency",
    "measure_match_latency",
    "measure_pending_tasks_latency",
    "measure_poll_overhead_latency",
    "measure_thread_contention_latency",
    "measure_stream_scaling_latency",
    "measure_lock_isolation",
    "measure_task_class_latency",
    "measure_request_query_overhead",
    "measure_allreduce_latency",
    "measure_message_modes",
    "measure_overlap_remedies",
    "measure_zero_copy_bandwidth",
    "measure_small_message_rate",
    "measure_zero_copy_idle_pass",
    "measure_plan_acquisition",
    "measure_user_coll_cache",
    "measure_user_native_small",
    "check_second_call_cache_hit",
]


def runtime_info() -> dict:
    """Interpreter build facts for the gil-on vs free-threaded bench
    column: the same bench JSON is produced by the 3.11 (GIL) and 3.13t
    (``PYTHON_GIL=0``) CI legs, and this dict is what tells them apart."""
    import sys

    check = getattr(sys, "_is_gil_enabled", None)
    return {
        "python": sys.version.split()[0],
        "free_threaded_build": bool(sysconfig_gil_disabled()),
        "gil_enabled": True if check is None else bool(check()),
        "free_threaded": is_free_threaded(),
    }


def sysconfig_gil_disabled() -> bool:
    import sysconfig

    return bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


# ----------------------------------------------------------------------
# Fast-path ablation — pending-work registry and bucketed matching.
# ----------------------------------------------------------------------

def _fastpath_proc(registry: bool, busy_collective: bool) -> Proc:
    """Rank 0 of a virtual world prepared for idle-pass timing.

    With ``busy_collective`` a one-step collective plan blocked on a
    receive that never arrives is submitted, so the collective subsystem reports
    work forever while datatype, shmem and netmod stay idle — a pass
    with 3 of 4 subsystems idle that never makes progress.  Without it
    every subsystem is idle (the common steady-state pass).
    """
    cfg = RuntimeConfig(use_shmem=False, progress_registry_skip=registry)
    world = World(2, clock=VirtualClock(), config=cfg)
    p0 = world.proc(0)
    if busy_collective:
        from repro.coll.plan import Plan, PlanRound, RecvStep

        blocked = Plan("blocked", [PlanRound(comms=(RecvStep(1),))])
        p0.comm_world.start_plan(blocked, np.zeros(1, dtype="i4"), 1, repro.INT)
    return p0


def measure_idle_pass_fastpath(
    *, passes: int = 20_000, repeats: int = 5
) -> dict[str, dict[str, float]]:
    """Per-pass cost of ``run_locked`` on passes that find no progress.

    Two scenarios, registry on vs off: ``all_idle`` (every subsystem
    idle — the pass the registry collapses to a few integer reads) and
    ``three_idle_one_busy`` (a blocked collective schedule keeps one
    subsystem busy; the registry still skips the other three).  Times
    the engine pass itself (no stream lock or wrapper bookkeeping),
    best-of-``repeats``; each scenario reports microseconds per pass
    for both modes plus the seed/registry speedup.
    """
    results: dict[str, dict[str, float]] = {}
    for scenario, busy_collective in (
        ("all_idle", False),
        ("three_idle_one_busy", True),
    ):
        out: dict[str, float] = {}
        for label, registry in (("registry_us", True), ("seed_us", False)):
            p0 = _fastpath_proc(registry, busy_collective)
            run = p0.progress_engine.run_locked
            stream = p0.default_stream
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(passes):
                    run(stream)
                best = min(best, time.perf_counter() - t0)
            out[label] = best / passes * 1e6
        out["speedup"] = out["seed_us"] / out["registry_us"]
        results[scenario] = out
    return results


# ----------------------------------------------------------------------
# Parallel progress — ProgressPool scaling and single-stream latency.
# ----------------------------------------------------------------------

def measure_pool_scaling(
    worker_counts: list[int],
    *,
    num_streams: int = 8,
    poll_cost: float = 200e-6,
    duration: float = 0.6,
) -> list[dict]:
    """Aggregate harvested-completions/sec vs pool worker count.

    ``num_streams`` busy streams each carry a perpetual hook whose poll
    sleeps ``poll_cost`` (releasing the GIL while holding the stream
    lock — modelling a NIC poll / completion-harvest cost) and then
    reports one harvested completion.  One worker serializes all
    ``num_streams`` sleeps per round; N workers overlap them across
    their shards, so throughput scales with the worker count even under
    the GIL.  Returns one row per worker count with the measured
    completions/sec and the pool's steal/pass counters.
    """
    from repro.exts.progress_pool import ProgressPool

    rows: list[dict] = []
    for workers in worker_counts:
        proc = repro.init()
        streams = [proc.stream_create() for _ in range(num_streams)]
        counts = [0] * num_streams
        live = {"on": True}

        def make_poll(i: int):
            def poll(thing):
                if not live["on"]:
                    return ASYNC_DONE
                time.sleep(poll_cost)
                counts[i] += 1
                return ASYNC_PENDING

            return poll

        for i, s in enumerate(streams):
            proc.async_start(make_poll(i), None, s)
        pool = ProgressPool(
            [(proc, s) for s in streams], workers=workers, mode="busy"
        )
        pool.start()
        try:
            # Warm up: every stream polled at least once before timing.
            t_fail = time.time() + 10.0
            while min(counts) == 0 and time.time() < t_fail:
                time.sleep(poll_cost)
            c0 = sum(counts)
            t0 = time.perf_counter()
            time.sleep(duration)
            c1 = sum(counts)
            dt = time.perf_counter() - t0
            live["on"] = False
        finally:
            pool.stop()
        stats = pool.stats()
        rows.append(
            {
                "workers": workers,
                "completions_per_s": (c1 - c0) / dt,
                "steals": stats["stat_steals"],
                "passes": sum(stats["worker_passes"]),
            }
        )
        proc.finalize()
    return rows


def measure_pool_idle_latency(
    *, passes: int = 20_000, repeats: int = 5
) -> dict[str, float]:
    """Single-stream idle-pass latency with and without pool machinery.

    Both measurements run in the same process/interpreter state so the
    comparison is machine-independent: ``fastpath_us`` is the PR-1
    registry idle pass (the ``BENCH_progress_fastpath.json`` reference),
    ``pool_registered_us`` is the identical pass on a stream that has
    been registered in a 4-worker pool (busy check bound through
    ``bind_stream``, slot table populated).  ``ratio`` is their
    quotient — the pool must not tax the unsharded common case.
    """
    from repro.exts.progress_pool import ProgressPool

    out: dict[str, float] = {}
    for label, with_pool in (("fastpath_us", False), ("pool_registered_us", True)):
        p0 = _fastpath_proc(True, False)
        if with_pool:
            ProgressPool([(p0, p0.default_stream)], workers=4)
        run = p0.progress_engine.run_locked
        stream = p0.default_stream
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(passes):
                run(stream)
            best = min(best, time.perf_counter() - t0)
        out[label] = best / passes * 1e6
    out["ratio"] = out["pool_registered_us"] / out["fastpath_us"]
    return out


def measure_match_latency(
    depths: list[int], *, iters: int = 2_000, repeats: int = 5
) -> list[dict]:
    """Posted-queue match latency vs queue depth, bucketed vs list scan.

    The queue is filled with ``depth`` receives on distinct concrete
    ``(ctx, src, tag)`` signatures; the timed operation matches (and
    re-posts) the LAST posted signature — the linear scan's worst case
    and the bucketed queue's ordinary one-dict-lookup case.  Returns one
    row per depth with best-of-``repeats`` per-match microseconds.
    """
    from repro.p2p.matching import ListPostedQueue, PostedQueue

    rows: list[dict] = []
    for depth in depths:
        row: dict = {"depth": depth}
        for label, cls in (("bucketed_us", PostedQueue), ("list_us", ListPostedQueue)):
            queue = cls()
            for i in range(depth):
                queue.post(0, i, 0, object())
            last = depth - 1
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(iters):
                    entry = queue.match(0, last, 0)
                    queue.post(0, last, 0, entry)
                best = min(best, time.perf_counter() - t0)
            row[label] = best / iters * 1e6
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fig. 7 — latency vs number of pending independent async tasks.
# ----------------------------------------------------------------------

def measure_pending_tasks_latency(
    task_counts: list[int], *, repeats: int = 5
) -> Series:
    """The Fig. 7 sweep: mean progress latency per pending-task count."""
    series = Series("independent tasks", xlabel="pending tasks")
    for n in task_counts:
        rec = series.point(n)
        for rep in range(repeats):
            proc = repro.init()
            DummyTaskBatch(
                proc, n, recorder=rec, seed=rep, window=300e-6
            ).start().drive()
            proc.finalize()
    return series


# ----------------------------------------------------------------------
# Fig. 8 — latency vs injected poll-function overhead.
# ----------------------------------------------------------------------

def measure_poll_overhead_latency(
    delays_us: list[float], *, num_tasks: int = 10, repeats: int = 5
) -> Series:
    """The Fig. 8 sweep: 10 pending tasks, busy-poll delay injected into
    each still-pending poll_fn."""
    series = Series("poll_fn delay", xlabel="delay (us)")
    for delay_us in delays_us:
        rec = series.point(delay_us)
        for rep in range(repeats):
            proc = repro.init()
            DummyTaskBatch(
                proc,
                num_tasks,
                poll_delay=delay_us * 1e-6,
                recorder=rec,
                seed=rep,
            ).start().drive()
            proc.finalize()
    return series


# ----------------------------------------------------------------------
# Fig. 9 / Fig. 11 — progress threads: shared stream vs per-thread streams.
# ----------------------------------------------------------------------

def _threaded_dummy_run(
    thread_counts: list[int],
    *,
    tasks_per_thread: int,
    repeats: int,
    shared_stream: bool,
    name: str,
    poll_delay: float = 10e-6,
) -> tuple[Series, Series]:
    # CPython's default GIL switch interval (5 ms) would bury the lock
    # and queue-scan effects this experiment isolates under scheduler
    # noise; tighten it for the duration of the measurement.  (The
    # paper's pthreads run truly concurrently; this is the substitution
    # that keeps the *contention* phenomenon observable under the GIL.)
    import sys

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(20e-6)
    try:
        series = Series(name, xlabel="progress threads")
        lock_series = Series(f"{name} lock wait", xlabel="progress threads")
        for nthreads in thread_counts:
            rec = series.point(nthreads)
            lock_rec = lock_series.point(nthreads)
            for rep in range(repeats):
                # Lock-wait accounting is off on the hot path by
                # default; this experiment REPORTS it, so turn it on.
                proc = repro.init(
                    config=RuntimeConfig(progress_lock_stats=True)
                )
                streams = (
                    [STREAM_NULL] * nthreads
                    if shared_stream
                    else [proc.stream_create() for _ in range(nthreads)]
                )
                batches = [
                    DummyTaskBatch(
                        proc,
                        tasks_per_thread,
                        stream=streams[i],
                        recorder=rec,
                        seed=rep * 1000 + i,
                        # A realistic (non-zero) poll cost: a progress
                        # pass holds the stream lock for the duration of
                        # its hook scan, which is what threads sharing a
                        # stream actually contend on.
                        poll_delay=poll_delay,
                    )
                    for i in range(nthreads)
                ]
                barrier = threading.Barrier(nthreads)

                def worker(i: int) -> None:
                    barrier.wait()
                    batches[i].start()
                    batches[i].drive()

                threads = [
                    threading.Thread(target=worker, args=(i,), daemon=True)
                    for i in range(nthreads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                # Per-acquisition lock wait: the Fig. 9 causal mechanism.
                real = (
                    [proc.default_stream]
                    if shared_stream
                    else [proc.resolve_stream(s) for s in streams]
                )
                for s in real:
                    if s.stat_lock_acquires:
                        lock_rec.add(s.stat_lock_wait_s / s.stat_lock_acquires)
                if not shared_stream:
                    for s in streams:
                        proc.stream_free(s)
                proc.finalize()
        return series, lock_series
    finally:
        sys.setswitchinterval(old_interval)


def measure_thread_contention_latency(
    thread_counts: list[int], *, tasks_per_thread: int = 10, repeats: int = 5
) -> tuple[Series, Series]:
    """Fig. 9: every progress thread hammers the SAME default stream,
    contending on its lock.

    Returns ``(task_latency, lock_wait)`` series.  Under the GIL the
    wall-clock task latency is dominated by interpreter time-slicing,
    so the per-acquisition lock wait — the paper's causal mechanism —
    is reported alongside it.
    """
    return _threaded_dummy_run(
        thread_counts,
        tasks_per_thread=tasks_per_thread,
        repeats=repeats,
        shared_stream=True,
        name="shared stream",
    )


def measure_stream_scaling_latency(
    thread_counts: list[int], *, tasks_per_thread: int = 10, repeats: int = 5
) -> tuple[Series, Series]:
    """Fig. 11: one MPIX stream per thread — no lock sharing.

    Returns ``(task_latency, lock_wait)`` series; the lock wait stays
    near zero however many threads run, which is exactly the paper's
    point."""
    return _threaded_dummy_run(
        thread_counts,
        tasks_per_thread=tasks_per_thread,
        repeats=repeats,
        shared_stream=False,
        name="per-thread streams",
    )


def measure_lock_isolation(
    *, hold_seconds: float = 2e-3, repeats: int = 10
) -> dict[str, LatencyRecorder]:
    """Direct measurement of the Fig. 9 / Fig. 11 mechanism.

    A holder thread runs a progress pass on the DEFAULT stream whose
    hook busy-holds the stream lock for ``hold_seconds``.  Meanwhile the
    measuring thread calls ``stream_progress`` (a) on the same default
    stream — it blocks for the remaining hold (Fig. 9's contention) —
    and (b) on its own stream — it returns immediately (Fig. 11's
    isolation).  Returns recorders keyed 'same_stream' / 'other_stream'.
    """
    results = {
        "same_stream": LatencyRecorder(),
        "other_stream": LatencyRecorder(),
    }
    for which in ("same_stream", "other_stream"):
        for _ in range(repeats):
            proc = repro.init()
            other = proc.stream_create()
            holding = threading.Event()

            def hold_hook(thing):
                holding.set()
                # Sleep (not spin): releases the GIL while KEEPING the
                # stream lock, so the measurement isolates lock blocking
                # from interpreter scheduling.
                time.sleep(hold_seconds)
                return ASYNC_DONE

            proc.async_start(hold_hook, None, STREAM_NULL)
            holder = threading.Thread(
                target=lambda: proc.stream_progress(STREAM_NULL), daemon=True
            )
            holder.start()
            holding.wait(5.0)
            t0 = time.perf_counter()
            proc.stream_progress(
                STREAM_NULL if which == "same_stream" else other
            )
            results[which].add(time.perf_counter() - t0)
            holder.join(10.0)
            proc.stream_free(other)
            proc.finalize()
    return results


# ----------------------------------------------------------------------
# Fig. 10 — task-class queue: one hook polls only the queue head.
# ----------------------------------------------------------------------

def measure_task_class_latency(
    task_counts: list[int], *, repeats: int = 5
) -> Series:
    """The Fig. 10 sweep: tasks complete in order, a single class_poll
    checks only the head."""
    series = Series("task class", xlabel="pending tasks")
    for n in task_counts:
        rec = series.point(n)
        for rep in range(repeats):
            proc = repro.init()
            spacing = 5e-6
            base = proc.wtime() + 200e-6
            tasks = [{"finish": base + i * spacing} for i in range(n)]
            queue = TaskClassQueue(
                proc,
                is_done=lambda t: proc.wtime() >= t["finish"],
                on_complete=lambda t: rec.add(proc.wtime() - t["finish"]),
            )
            for t in tasks:
                queue.add(t)
            while not queue.empty:
                proc.stream_progress()
            proc.finalize()
    return series


# ----------------------------------------------------------------------
# Fig. 12 — overhead of the explicit request-completion query loop.
# ----------------------------------------------------------------------

def measure_request_query_overhead(
    request_counts: list[int], *, num_tasks: int = 10, repeats: int = 5
) -> Series:
    """The Fig. 12 sweep: a Listing-1.6 query hook scans N pending MPI
    requests inside progress while dummy tasks measure the added
    progress latency."""
    series = Series("request query loop", xlabel="pending requests")
    for n in request_counts:
        rec = series.point(n)
        for rep in range(repeats):
            proc = repro.init()
            requests = [proc.grequest_start() for _ in range(n)]
            live = {"on": True}

            def query_poll(thing):
                done = 0
                for req in requests:
                    if req.is_complete():  # MPIX_Request_is_complete
                        done += 1
                if not live["on"]:
                    return ASYNC_DONE
                return ASYNC_NOPROGRESS

            proc.async_start(query_poll, None)
            DummyTaskBatch(proc, num_tasks, recorder=rec, seed=rep).start().drive()
            live["on"] = False
            for req in requests:
                proc.grequest_complete(req)
            proc.finalize()
    return series


# ----------------------------------------------------------------------
# Fig. 13 — user-level vs native allreduce latency.
# ----------------------------------------------------------------------

def measure_allreduce_latency(
    proc_counts: list[int],
    *,
    iters: int = 30,
    warmup: int = 5,
    config: RuntimeConfig | None = None,
) -> tuple[Series, Series]:
    """The Fig. 13 comparison: single-int allreduce latency, native
    schedule-based ``Iallreduce`` vs the user-level recursive-doubling
    implementation built on the MPIX extension APIs.  Both run the same
    algorithm over the same substrate; rank 0's per-call wall time is
    recorded."""
    from repro.usercoll import user_allreduce

    native = Series("native Iallreduce", xlabel="processes")
    user = Series("user-level allreduce", xlabel="processes")
    for p in proc_counts:
        native_rec = native.point(p)
        user_rec = user.point(p)

        def main(proc: Proc) -> None:
            comm = proc.comm_world
            for i in range(warmup + iters):
                out = np.zeros(1, dtype="i4")
                comm.barrier()
                t0 = time.perf_counter()
                req = comm.iallreduce(
                    np.array([comm.rank], dtype="i4"), out, 1, repro.INT
                )
                proc.wait(req)
                dt = time.perf_counter() - t0
                if comm.rank == 0 and i >= warmup:
                    native_rec.add(dt)

                buf = np.array([comm.rank], dtype="i4")
                comm.barrier()
                t0 = time.perf_counter()
                req = user_allreduce(comm, buf, 1, repro.INT, repro.SUM)
                proc.wait(req)
                dt = time.perf_counter() - t0
                if comm.rank == 0 and i >= warmup:
                    user_rec.add(dt)
                assert out[0] == buf[0] == p * (p - 1) // 2

        run_world(p, main, config=config, timeout=600)
    return native, user


# ----------------------------------------------------------------------
# Fig. 1 — message-mode anatomy (wait blocks + modelled latency).
# ----------------------------------------------------------------------

def measure_message_modes(
    sizes: list[int], *, config: RuntimeConfig | None = None
) -> list[dict]:
    """Measured anatomy of every message mode on the virtual clock.

    Returns one row per size: mode, sender/receiver wait blocks, and
    the exact modelled one-way completion time.
    """
    rows = []
    for nbytes in sizes:
        cfg = config if config is not None else RuntimeConfig(use_shmem=False)
        world = World(2, clock=VirtualClock(), config=cfg)
        p0, p1 = world.proc(0), world.proc(1)
        data = np.zeros(max(nbytes, 1), dtype="u1")
        out = np.zeros(max(nbytes, 1), dtype="u1")
        t_start = world.clock.now()
        rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
        sreq = p0.comm_world.isend(data, nbytes, repro.BYTE, 1, 0)
        mode = p0.p2p._select_mode(nbytes).value
        while not (sreq.is_complete() and rreq.is_complete()):
            made = p0.stream_progress() | p1.stream_progress()
            if not made:
                world.clock.idle_advance()
        rows.append(
            {
                "nbytes": nbytes,
                "mode": mode,
                "send_wait_blocks": sreq.wait_blocks,
                "recv_wait_blocks": rreq.wait_blocks,
                "one_way_us": (world.clock.now() - t_start) * 1e6,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 4/5 — overlap remedies.
# ----------------------------------------------------------------------

def measure_overlap_remedies(
    *,
    nbytes: int = 100_000,
    compute_seconds: float = 0.05,
    intersperse_slices: int = 20,
    config: RuntimeConfig | None = None,
) -> dict[str, dict[str, float]]:
    """Compare the section 2.4 remedies on a rendezvous transfer:

    * ``none``        — initiate, compute, wait (Fig. 4c: no progress).
    * ``intersperse`` — split the compute and call MPI_Test between
      slices (Fig. 5a).
    * ``thread``      — dedicated progress thread (Fig. 5b).

    Returns per-strategy total time, post-compute wait time, and the
    overlap efficiency ``1 - wait / transfer_alone``.
    """
    cfg = config if config is not None else RuntimeConfig(
        use_shmem=False, nic_alpha=2e-3, nic_wire_delay=2e-3
    )

    def transfer(proc: Proc, compute: Callable[[Proc, repro.Request], None]):
        comm = proc.comm_world
        if comm.rank == 0:
            req = comm.isend(
                np.zeros(nbytes, dtype="u1"), nbytes, repro.BYTE, 1, 0
            )
        else:
            req = comm.irecv(np.zeros(nbytes, dtype="u1"), nbytes, repro.BYTE, 0, 0)
        t0 = time.perf_counter()
        compute(proc, req)
        w0 = time.perf_counter()
        proc.wait(req)
        t1 = time.perf_counter()
        comm.barrier()
        return {"total": t1 - t0, "wait": t1 - w0}

    def compute_plain(proc: Proc, req) -> None:
        end = time.perf_counter() + compute_seconds
        while time.perf_counter() < end:
            pass

    def compute_interspersed(proc: Proc, req) -> None:
        slice_s = compute_seconds / intersperse_slices
        for _ in range(intersperse_slices):
            end = time.perf_counter() + slice_s
            while time.perf_counter() < end:
                pass
            proc.test(req)  # MPI_Test drives progress (Fig. 5a)

    results: dict[str, dict[str, float]] = {}

    def run(strategy: str, compute, use_thread: bool) -> None:
        def main(proc: Proc):
            pt = ProgressThread(proc).start() if use_thread else None
            try:
                return transfer(proc, compute)
            finally:
                if pt is not None:
                    pt.stop()

        per_rank = run_world(2, main, config=cfg, timeout=120)
        worst = max(per_rank, key=lambda r: r["wait"])
        results[strategy] = worst

    run("none", compute_plain, False)
    run("intersperse", compute_interspersed, False)
    run("thread", compute_plain, True)

    # Overlap efficiency relative to the unoverlapped wait.
    base_wait = results["none"]["wait"]
    for row in results.values():
        row["overlap_efficiency"] = (
            1.0 - row["wait"] / base_wait if base_wait > 0 else 1.0
        )
    return results


# ----------------------------------------------------------------------
# Zero-copy payload paths — leased buffer pool ablation.
# ----------------------------------------------------------------------

def _pingpong_world(*, pool_on: bool, use_shmem: bool) -> World:
    cfg = RuntimeConfig(
        use_shmem=use_shmem,
        ranks_per_node=2 if use_shmem else 1,
        buffer_pool_enabled=pool_on,
    )
    return World(2, clock=VirtualClock(), config=cfg)


def _one_way(world: World, nbytes: int) -> tuple[float, int]:
    """One rank-0 -> rank-1 transfer: (virtual seconds, library copy bytes)."""
    p0, p1 = world.proc(0), world.proc(1)
    data = np.zeros(nbytes, dtype="u1")
    out = np.zeros(nbytes, dtype="u1")
    t0 = world.clock.now()
    copies0 = p0.p2p.copy_bytes(0) + p1.p2p.copy_bytes(0)
    shmem0 = world.shmem.stat_copy_bytes if world.shmem is not None else 0
    rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
    sreq = p0.comm_world.isend(data, nbytes, repro.BYTE, 1, 0)
    while not (sreq.is_complete() and rreq.is_complete()):
        if not (p0.stream_progress() | p1.stream_progress()):
            world.clock.idle_advance()
    elapsed = world.clock.now() - t0
    copies = p0.p2p.copy_bytes(0) + p1.p2p.copy_bytes(0) - copies0
    if world.shmem is not None:
        copies += world.shmem.stat_copy_bytes - shmem0
    return elapsed, copies


def measure_zero_copy_bandwidth(
    sizes: list[int], *, use_shmem: bool = False
) -> list[dict]:
    """Effective one-way bandwidth, buffer pool on vs off, per size.

    The virtual clock models the wire (``nic_alpha``/``nic_beta``) and
    the shmem cells, but library staging copies are Python-side and
    free on it.  To compare the paths fairly, each copied byte is
    charged a modelled memcpy cost of ``2 * nic_beta`` — a copy reads
    and writes memory once each at the same 10 GB/s the wire moves
    bytes at.  ``effective = nbytes / (elapsed + copied * memcpy_beta)``.
    """
    rows = []
    for nbytes in sizes:
        per_mode = {}
        for label, pool_on in (("on", True), ("off", False)):
            world = _pingpong_world(pool_on=pool_on, use_shmem=use_shmem)
            memcpy_beta = 2.0 * world.config.nic_beta
            elapsed, copied = _one_way(world, nbytes)
            world.finalize()
            per_mode[label] = nbytes / (elapsed + copied * memcpy_beta)
            per_mode[f"copies_{label}"] = copied / nbytes
        rows.append(
            {
                "nbytes": nbytes,
                "transport": "shmem" if use_shmem else "netmod",
                "copies_per_msg_on": per_mode["copies_on"],
                "copies_per_msg_off": per_mode["copies_off"],
                "bw_on_MBps": per_mode["on"] / 1e6,
                "bw_off_MBps": per_mode["off"] / 1e6,
                "speedup": per_mode["on"] / per_mode["off"],
            }
        )
    return rows


def measure_small_message_rate(
    *, nbytes: int = 512, msgs: int = 2000, repeats: int = 5
) -> dict:
    """Wall-clock eager messages/sec, pool on vs off (regression guard).

    The pooled eager path swaps a ``bytes()`` snapshot for a lease
    acquire + slab copy + harvest-time release; this measures that the
    swap costs nothing at the message rate.  Best-of-``repeats`` per
    mode after a shared warmup round.
    """

    def rate(pool_on: bool, n_msgs: int) -> float:
        world = _pingpong_world(pool_on=pool_on, use_shmem=False)
        p0, p1 = world.proc(0), world.proc(1)
        data = np.zeros(nbytes, dtype="u1")
        out = np.zeros(nbytes, dtype="u1")
        t0 = time.perf_counter()
        for _ in range(n_msgs):
            rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
            sreq = p0.comm_world.isend(data, nbytes, repro.BYTE, 1, 0)
            while not (sreq.is_complete() and rreq.is_complete()):
                if not (p0.stream_progress() | p1.stream_progress()):
                    world.clock.idle_advance()
        elapsed = time.perf_counter() - t0
        world.finalize()
        return n_msgs / elapsed

    rate(True, msgs // 4)  # warmup
    rate(False, msgs // 4)
    best = {"on": 0.0, "off": 0.0}
    for _ in range(repeats):
        best["on"] = max(best["on"], rate(True, msgs))
        best["off"] = max(best["off"], rate(False, msgs))
    return {
        "nbytes": nbytes,
        "msgs_per_s_pool_on": best["on"],
        "msgs_per_s_pool_off": best["off"],
        "ratio": best["on"] / best["off"],
    }


# ----------------------------------------------------------------------
# Compiled-schedule plan cache — cold planning vs cached replay.
# ----------------------------------------------------------------------

def measure_plan_acquisition(
    *, size: int = 8, iters: int = 2000, repeats: int = 5
) -> dict:
    """Per-call plan-acquisition cost: cold planner build vs cache hit.

    The cold path runs the recursive-doubling planner end to end on
    every call (what a disabled cache — or the pre-IR per-call state
    machine construction — pays); the hit path is one locked
    ``OrderedDict`` probe.  Best-of-``repeats`` microseconds per call
    and the speedup — the planning overhead the cache amortizes away.
    """
    from repro.coll.algorithms import (
        plan_allreduce_recursive_doubling as plan_allreduce,
    )
    from repro.coll.plan import PlanCache, count_bucket

    rank = size - 1
    op = repro.SUM
    out: dict = {"size": size}
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            plan_allreduce(rank, size, op)
        best = min(best, time.perf_counter() - t0)
    out["cold_build_us"] = best / iters * 1e6

    cache = PlanCache()
    key = ((0, 0), plan_allreduce, (op,), count_bucket(4))
    builder = lambda: plan_allreduce(rank, size, op)  # noqa: E731
    cache.get_or_build(key, builder)  # warm
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            cache.get_or_build(key, builder)
        best = min(best, time.perf_counter() - t0)
    out["cache_hit_us"] = best / iters * 1e6
    out["speedup"] = out["cold_build_us"] / out["cache_hit_us"]
    return out


def _drive_vworld(world: World, reqs) -> None:
    """Single-threaded completion loop on a virtual-clock world."""
    procs = [world.proc(r) for r in range(world.nranks)]
    while not all(r.is_complete() for r in reqs):
        made = False
        for p in procs:
            made |= p.stream_progress()
        if not made:
            world.clock.idle_advance()


def measure_user_coll_cache(
    *,
    nranks: int = 8,
    count: int = 16,
    calls: int = 30,
    repeats: int = 3,
) -> dict:
    """Repeated small-message ``user_allreduce``: cached vs cold planning.

    Two virtual-clock worlds differing only in
    ``schedule_cache_enabled``; each runs ``calls`` identical
    collectives driven single-threaded, so wall time is pure Python
    overhead (the wire is free on the virtual clock).  The first cached
    call builds the plan; every later one replays it.  Returns per-call
    microseconds for both modes, the speedup, and rank 0's cache
    counters from the cached run.
    """
    from repro.usercoll import user_allreduce

    def per_call_us(enabled: bool) -> tuple[float, dict]:
        best = float("inf")
        stats: dict = {}
        for _ in range(repeats):
            cfg = RuntimeConfig(use_shmem=False, schedule_cache_enabled=enabled)
            world = World(nranks, clock=VirtualClock(), config=cfg)
            procs = [world.proc(r) for r in range(nranks)]
            bufs = [np.zeros(count, dtype="i4") for _ in range(nranks)]
            t0 = time.perf_counter()
            for _ in range(calls):
                reqs = [
                    user_allreduce(p.comm_world, b, count, repro.INT, repro.SUM)
                    for p, b in zip(procs, bufs)
                ]
                _drive_vworld(world, reqs)
            elapsed = time.perf_counter() - t0
            stats = dict(procs[0].plan_cache.stats())
            world.finalize()
            best = min(best, elapsed / calls * 1e6)
        return best, stats

    cached_us, cached_stats = per_call_us(True)
    cold_us, _ = per_call_us(False)
    return {
        "nranks": nranks,
        "count": count,
        "calls": calls,
        "cached_us_per_call": cached_us,
        "cold_us_per_call": cold_us,
        "speedup": cold_us / cached_us,
        "cache_stats": cached_stats,
    }


def measure_user_native_small(
    sizes_bytes: list[int],
    *,
    nranks: int = 8,
    iters: int = 20,
    warmup: int = 4,
    config: RuntimeConfig | None = None,
) -> list[dict]:
    """Fig. 13 at small message sizes: user/native latency ratio.

    For each size <= 512 B, measures the native ``Iallreduce`` and the
    cached user-level path on the same threaded world (the user path's
    first call builds the plan inside the warmup).  Returns one row per
    size with median microseconds and the user/native ratio — the gap
    the plan cache narrows.
    """
    from repro.usercoll import user_allreduce

    cfg = config if config is not None else RuntimeConfig(use_shmem=False)
    rows: list[dict] = []
    for nbytes in sizes_bytes:
        count = max(nbytes // 4, 1)
        native_s: list[float] = []
        user_s: list[float] = []

        def main(proc: Proc) -> None:
            comm = proc.comm_world
            for i in range(warmup + iters):
                out = np.zeros(count, dtype="i4")
                comm.barrier()
                t0 = time.perf_counter()
                req = comm.iallreduce(
                    np.full(count, comm.rank, dtype="i4"), out, count, repro.INT
                )
                proc.wait(req)
                dt = time.perf_counter() - t0
                if comm.rank == 0 and i >= warmup:
                    native_s.append(dt)

                buf = np.full(count, comm.rank, dtype="i4")
                comm.barrier()
                t0 = time.perf_counter()
                req = user_allreduce(comm, buf, count, repro.INT, repro.SUM)
                proc.wait(req)
                dt = time.perf_counter() - t0
                if comm.rank == 0 and i >= warmup:
                    user_s.append(dt)

        run_world(nranks, main, config=cfg, timeout=600)
        native_us = sorted(native_s)[len(native_s) // 2] * 1e6
        user_us = sorted(user_s)[len(user_s) // 2] * 1e6
        rows.append(
            {
                "nbytes": nbytes,
                "nranks": nranks,
                "native_us": native_us,
                "user_us": user_us,
                "user_native_ratio": user_us / native_us,
            }
        )
    return rows


def check_second_call_cache_hit(*, nranks: int = 4, native: bool = False) -> dict:
    """Smoke assertion: a second identical collective is a cache hit,
    and the cache changes no bytes.

    Runs two identical allreduces — ``comm.iallreduce`` when ``native``,
    else ``user_allreduce`` — on a fresh virtual world and asserts
    hits > 0 and exactly one build for the repeated shape; then the
    same on a ``schedule_cache_enabled=False`` world, asserting every
    rank ends with the same bytes.  Returns rank 0's cached-run stats.
    """
    from repro.usercoll import user_allreduce

    def run(cache_enabled: bool) -> tuple[dict, list[bytes]]:
        cfg = RuntimeConfig(use_shmem=False, schedule_cache_enabled=cache_enabled)
        world = World(nranks, clock=VirtualClock(), config=cfg)
        procs = [world.proc(r) for r in range(nranks)]
        for _ in range(2):
            bufs = [np.array([p.rank, 7], dtype="i4") for p in procs]
            if native:
                reqs = [
                    p.comm_world.iallreduce(repro.IN_PLACE, b, 2, repro.INT)
                    for p, b in zip(procs, bufs)
                ]
            else:
                reqs = [
                    user_allreduce(p.comm_world, b, 2, repro.INT, repro.SUM)
                    for p, b in zip(procs, bufs)
                ]
            _drive_vworld(world, reqs)
        stats = dict(procs[0].plan_cache.stats())
        world.finalize()
        return stats, [b.tobytes() for b in bufs]

    stats, cached = run(True)
    cold_stats, cold = run(False)
    assert stats["stat_plan_hits"] > 0, stats
    assert stats["stat_plan_builds"] == 1, stats
    assert cold_stats["stat_plan_hits"] == 0, cold_stats
    assert cached == cold, "schedule_cache_enabled changed the result bytes"
    return stats


def measure_zero_copy_idle_pass(
    *, passes: int = 20_000, repeats: int = 5
) -> dict:
    """Idle progress-pass latency, pool on vs off (regression guard).

    The pool lives entirely on the payload path; an idle pass must not
    pay for it.  Best-of-``repeats`` microseconds per pass.
    """

    def idle_us(pool_on: bool) -> float:
        cfg = RuntimeConfig(use_shmem=False, buffer_pool_enabled=pool_on)
        world = World(1, clock=VirtualClock(), config=cfg)
        p0 = world.proc(0)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(passes):
                p0.stream_progress()
            best = min(best, time.perf_counter() - t0)
        world.finalize()
        return best / passes * 1e6

    on, off = idle_us(True), idle_us(False)
    return {"idle_us_pool_on": on, "idle_us_pool_off": off, "ratio": on / off}
