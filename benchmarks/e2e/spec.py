"""Names the benchmark fixes: workloads, end-to-end metrics, layer metrics.

Every later performance or simplicity change is judged with these
names, so they are declared once, here, as data.  ``BENCHMARK.json`` at
the repository root repeats the name / unit / direction / bound columns
in the form the driver reads (it allows no further keys);
``selfcheck.py`` checks that the two agree, and that every layer metric
names an end-to-end metric and workload it should move.

Each workload measures its operation at three *scale points* — small,
mid, large — because every layer's cost depends on one size-like input
(payload bytes, queue depth, pending tasks, ranks).  The end-to-end
metrics are therefore the same five for every workload; what "small"
means on a workload is in ``WORKLOADS[name]["scale"]``.
"""

from __future__ import annotations

PHASES = ("small", "mid", "large")

#: name -> why (one line, goes to BENCHMARK.json), the operation that is
#: timed, the three scale points, and the modules doing the work.
WORKLOADS = {
    "p2p_netmod": {
        "why": "2 rank threads ping-pong over netmod: core+p2p+netmod work, coll/procmod/sim idle",
        "op": "half round trip (irecv+isend+wait, timed on rank 0, halved)",
        "scale": ("64 B buffered", "4 KiB eager", "1 MiB pipeline"),
        "layers": ("core", "p2p", "netmod", "mem"),
    },
    "p2p_shmem": {
        "why": "same ping-pong with ranks_per_node=2: the in-process shmem cell rings carry it, netmod idle",
        "op": "half round trip",
        "scale": ("64 B", "4 KiB", "1 MiB"),
        "layers": ("core", "p2p", "shmem", "mem"),
    },
    "p2p_procshm": {
        "why": "same ping-pong with backend=shm: 2 rank processes over procmod segment rings",
        "op": "half round trip",
        "scale": ("64 B", "4 KiB", "1 MiB"),
        "layers": ("core", "p2p", "procmod", "runtime"),
    },
    "burst_netmod": {
        "why": "bursts of 8 B isends against permuted, 1-in-4 ANY_SOURCE irecvs: deep matching queues and batched harvest",
        "op": "one message of a burst (burst time / depth)",
        "scale": ("16 outstanding", "64 outstanding", "256 outstanding"),
        "layers": ("p2p", "netmod", "core"),
    },
    "coll_native": {
        "why": "8 ranks driven by one thread on a VirtualClock, native iallreduce: coll per-call DAG, no scheduler noise",
        "op": "one allreduce, post on all 8 ranks to last completion",
        "scale": ("4 B", "4 KiB", "64 KiB"),
        "layers": ("coll", "core", "p2p", "netmod", "datatype"),
    },
    "coll_user": {
        "why": "same world, usercoll.user_allreduce: cached plan replayed from an async hook (Fig. 13 user side)",
        "op": "one allreduce, post on all 8 ranks to last completion",
        "scale": ("4 B", "4 KiB", "64 KiB"),
        "layers": ("exts", "usercoll", "core", "p2p", "netmod", "mem"),
    },
    "progress_latency": {
        "why": "one rank, dummy tasks beside a query hook scanning 64 requests: only the core engine pass works (Figs. 7, 12)",
        "op": "one task: finish instant to the poll that observes it",
        "scale": ("8 pending tasks", "32 pending tasks", "128 pending tasks"),
        "layers": ("core",),
    },
    "sim_allreduce": {
        "why": "SimWorld generator ranks doing back-to-back allreduces: sim.engine dominates, no threads, locks or backoff",
        "op": "one simulated allreduce (wall time between all-ranks-done instants)",
        "scale": ("16 ranks", "64 ranks", "256 ranks"),
        "layers": ("sim", "coll", "p2p", "netmod"),
    },
}

#: End-to-end metrics: every workload emits every one.  ``bound`` is the
#: share of the parent's median by which it may worsen.
END_TO_END = [
    {"name": "small_us_p50", "unit": "us", "better": "lower", "bound": 0.20},
    {"name": "mid_us_p50", "unit": "us", "better": "lower", "bound": 0.20},
    {"name": "large_us_p50", "unit": "us", "better": "lower", "bound": 0.20},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

_ALL = tuple(WORKLOADS)
_P2P = ("p2p_netmod", "p2p_shmem", "p2p_procshm", "burst_netmod")
_THREADS = ("p2p_netmod", "p2p_shmem", "burst_netmod")
_COOP = ("coll_native", "coll_user")


def _m(name, unit, better, how, moves):
    """One layer metric.  ``moves`` is a list of (end-to-end metric,
    workloads) it should move; empty for pure diagnostics."""
    return {"name": name, "unit": unit, "better": better, "how": how, "moves": moves}


def _per_phase(prefix, unit, better, how, workloads):
    return [
        _m(f"{prefix}_{ph}", unit, better, how, [(f"{ph}_us_p50", workloads)])
        for ph in PHASES
    ]


PER_LAYER = (
    # -- traced self-time budget: rows of one op, they sum to the op --
    _per_phase(
        "span.post_us", "us", "lower",
        "traced: time inside the posting calls of one op (isend+irecv / "
        "iallreduce / user_allreduce / async_start)", _ALL,
    )
    + _per_phase(
        "span.wait_us", "us", "lower",
        "traced: time inside wait / waitall / the stream_progress spin",
        tuple(w for w in _ALL if w not in _COOP + ("sim_allreduce",)),
    )
    + _per_phase(
        "span.progress_coll_us", "us", "lower",
        "traced: stream_progress passes whose ProgressState.progressed has "
        "'collective'", ("coll_native",),
    )
    + _per_phase(
        "span.progress_async_us", "us", "lower",
        "traced: passes that progressed 'async' hooks but not 'collective'",
        ("coll_user",),
    )
    + _per_phase(
        "span.progress_netmod_us", "us", "lower",
        "traced: passes that progressed only 'netmod'", _COOP,
    )
    + _per_phase(
        "span.progress_idle_us", "us", "lower",
        "traced: passes that progressed nothing", _COOP,
    )
    + _per_phase(
        "span.idle_advance_us", "us", "lower",
        "traced: clock.idle_advance() calls", _COOP,
    )
    + _per_phase(
        "span.other_us", "us", "lower",
        "traced: self time of the op's root span: the driver loop, and on "
        "sim_allreduce the event engine itself (SimWorld.run minus posting)", _ALL,
    )
    # -- tails and trace cost: diagnostics, never gated --
    + [
        _m(f"tail.{ph}_us_{p}", "us", "lower",
           f"{p} of the untraced samples of the {ph} phase", [])
        for ph in PHASES for p in ("p90", "p99")
    ]
    + [
        _m("trace.overhead_ratio", "ratio", "lower",
           "traced p50 / untraced p50 of the small phase", []),
    ]
    # -- exact counts: progress_snapshot deltas over a fixed block of ops --
    + _per_phase(
        "core.passes_per_op", "count", "lower",
        "engine_passes delta / ops, all ranks", _ALL,
    )
    + _per_phase(
        "netmod.posted_per_op", "count", "lower",
        "endpoint posted delta / ops (wire packets per op)",
        ("p2p_netmod", "burst_netmod", "coll_native", "coll_user", "sim_allreduce"),
    )
    + _per_phase(
        "netmod.packets_per_harvest", "count", "higher",
        "endpoint posted delta / batch_harvests delta: wire packets per "
        "non-empty poll_batch (a packet is harvested twice: send completion, arrival)",
        ("burst_netmod", "coll_native", "coll_user"),
    )
    + _per_phase(
        "p2p.copy_bytes_per_op", "B", "lower",
        "copy_bytes delta / ops (staging copies the p2p layer made)", _P2P + _COOP,
    )
    + [
        _m("shmem.copy_bytes_per_op_large", "B", "lower",
           "shmem_copy_bytes delta / ops, large phase",
           [("large_us_p50", ("p2p_shmem",))]),
        _m("core.skipped_poll_share", "share", "higher",
           "skipped_polls / (skipped_polls + subsystem_polls), all phases",
           [("small_us_p50", _ALL)]),
        _m("netmod.empty_poll_share", "share", "lower",
           "endpoint empty_polls / polls, all phases",
           [("small_us_p50", ("p2p_netmod", "burst_netmod"))]),
        _m("mem.pool_hit_share", "share", "higher",
           "BufferPool hits / (hits + misses), all phases",
           [("mid_us_p50", _P2P), ("large_us_p50", ("coll_user",))]),
        _m("exts.plan_hit_share", "share", "higher",
           "plan cache hits / (hits + misses), all phases",
           [("small_us_p50", ("coll_user",))]),
        _m("p2p.retransmits", "count", "lower",
           "reliability retransmits, all phases (expected 0)",
           [("small_us_p50", _ALL)]),
        _m("sim.sweeps", "count", "lower",
           "SimWorld.stats()['sweeps'] (expected 0; non-zero fails the run)",
           [("large_us_p50", ("sim_allreduce",))]),
    ]
    + _per_phase(
        "sim.events_per_op", "count", "lower",
        "heap events per simulated allreduce", ("sim_allreduce",),
    )
    + _per_phase(
        "sim.us_per_event", "us", "lower",
        "wall time / heap events over the timed window", ("sim_allreduce",),
    )
    # -- probes: direct calls into one layer, the same in every run --
    + [
        _m("core.idle_pass_us", "us", "lower",
           "proc.stream_progress() on an idle rank",
           [("small_us_p50", ("progress_latency",) + _P2P)]),
        _m("core.pass_us_per_hook", "us", "lower",
           "(pass with 33 pending hooks - pass with 1) / 32",
           [("large_us_p50", ("progress_latency",))]),
        _m("core.is_complete_ns", "ns", "lower",
           "Request.is_complete() on a pending request",
           [("small_us_p50", ("progress_latency", "coll_user"))]),
        _m("p2p.match_us_d1", "us", "lower",
           "PostedQueue.post + match with 1 entry pending",
           [("small_us_p50", ("burst_netmod",))]),
        _m("p2p.match_us_d1024", "us", "lower",
           "PostedQueue.post + match with 1024 entries pending",
           [("large_us_p50", ("burst_netmod",))]),
        _m("netmod.post_send_us", "us", "lower",
           "Endpoint.post_send of 64 B on a 2-endpoint Fabric, VirtualClock",
           [("small_us_p50", ("p2p_netmod", "burst_netmod"))]),
        _m("netmod.poll_batch_us", "us", "lower",
           "Endpoint.poll_batch(64) harvesting 64 arrivals, per packet",
           [("large_us_p50", ("burst_netmod",))]),
        _m("shmem.cell_xfer_us", "us", "lower",
           "RingChannel.try_send_cell + pop_ready, 16 KiB cell",
           [("large_us_p50", ("p2p_shmem",))]),
        _m("procmod.encode_us_64", "us", "lower", "wire.encode_frame, 64 B",
           [("small_us_p50", ("p2p_procshm",))]),
        _m("procmod.encode_us_64k", "us", "lower", "wire.encode_frame, 64 KiB",
           [("large_us_p50", ("p2p_procshm",))]),
        _m("procmod.decode_us_64", "us", "lower", "wire.decode_frame, 64 B",
           [("small_us_p50", ("p2p_procshm",))]),
        _m("procmod.decode_us_64k", "us", "lower", "wire.decode_frame, 64 KiB",
           [("large_us_p50", ("p2p_procshm",))]),
        _m("procmod.link_xfer_us_64", "us", "lower",
           "ShmLink.try_send + try_recv in one process, 64 B (inline cell)",
           [("small_us_p50", ("p2p_procshm",))]),
        _m("procmod.link_xfer_us_64k", "us", "lower",
           "ShmLink.try_send + try_recv in one process, 64 KiB (arena)",
           [("large_us_p50", ("p2p_procshm",))]),
        _m("datatype.reduce_us_64k", "us", "lower",
           "repro.SUM(inbuf, inoutbuf, 16384, repro.INT)",
           [("large_us_p50", _COOP)]),
        _m("mem.acquire_release_us", "us", "lower",
           "BufferPool.acquire(4096) + release",
           [("mid_us_p50", _P2P), ("large_us_p50", ("coll_user",))]),
        _m("usercoll.user_native_ratio_small", "ratio", "lower",
           "user p50 / native p50, 4 B, alternating in one 8-rank coop world "
           "(the paper's Fig. 13 claim: about 1)", []),
        _m("usercoll.user_native_ratio_long", "ratio", "lower",
           "the same at 64 KiB", []),
        _m("sim.construct_s", "s", "lower", "SimWorld(256) construction",
           [("setup_s", ("sim_allreduce",))]),
        _m("sim.us_per_event_p1024", "us", "lower",
           "wall / heap events of the second allreduce at P = 1024 "
           "(is per-event cost flat in P?)",
           [("large_us_p50", ("sim_allreduce",))]),
        _m("sim.events_per_op_p1024", "count", "lower",
           "heap events of that allreduce", [("large_us_p50", ("sim_allreduce",))]),
        _m("runtime.import_s", "s", "lower", "import repro in the worker",
           [("setup_s", _ALL)]),
        _m("runtime.world_build_s", "s", "lower",
           "World(8, clock=VirtualClock()) construction", [("setup_s", _THREADS + _COOP)]),
        _m("runtime.proc_spawn_s", "s", "lower",
           "run_world(2, noop, backend='shm'): spawn, rendezvous, finalize, reap",
           [("setup_s", ("p2p_procshm",))]),
        _m("runtime.finalize_s", "s", "lower", "World(8).finalize()",
           [("setup_s", _THREADS + _COOP)]),
    ]
)

#: Counts that must repeat exactly between two runs of the same code.
EXACT = tuple(
    [f"netmod.posted_per_op_{ph}" for ph in PHASES]
    + [f"sim.events_per_op_{ph}" for ph in PHASES]
    + ["exts.plan_hit_share", "p2p.retransmits", "sim.sweeps", "sim.events_per_op_p1024"]
)


def benchmark_json(command, paths, run_seconds):
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"]}
            for m in PER_LAYER
        ],
    }
