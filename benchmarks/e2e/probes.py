"""Layer probes: direct, fixed-count calls into one layer's entry point.

Each probe times a loop of ``ITERS`` calls five times and reports the
median per-call time, so its number does not depend on the workload that
happens to run beside it.  A probe whose target is missing (a later
change renamed or deleted the class) reports ``None`` with the reason
instead of failing the run; the runner prints the reason and emits the
metric as ``null``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import repro

import workloads

pc = time.perf_counter
ITERS = 20_000
REPEATS = 5


def _median_us(fn, iters=ITERS, repeats=REPEATS) -> float:
    """Median over ``repeats`` of the mean microseconds per ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = pc()
        for _ in range(iters):
            fn()
        times.append((pc() - t0) / iters * 1e6)
    return statistics.median(times)


# -- core ---------------------------------------------------------------
def core_passes():
    proc = repro.init()
    try:
        idle = _median_us(proc.stream_progress)
        stop = [False]

        def hook(thing):
            return repro.ASYNC_DONE if stop[0] else repro.ASYNC_NOPROGRESS

        proc.async_start(hook)
        one = _median_us(proc.stream_progress)
        for _ in range(32):
            proc.async_start(hook)
        many = _median_us(proc.stream_progress, iters=ITERS // 4)
        stop[0] = True
        proc.stream_progress()
        req = proc.grequest_start()
        query = _median_us(req.is_complete, iters=ITERS * 5)
        proc.grequest_complete(req)
    finally:
        proc.finalize()
    return {
        "core.idle_pass_us": idle,
        "core.pass_us_per_hook": (many - one) / 32,
        "core.is_complete_ns": query * 1e3,
    }


# -- p2p ----------------------------------------------------------------
def p2p_matching():
    from repro.p2p.matching import PostedQueue

    out = {}
    for depth in (1, 1024):
        q = PostedQueue()
        for tag in range(depth):
            q.post(0, 0, tag, object())
        entry = object()

        def post_match():
            q.post(0, 1, 5, entry)
            q.match(0, 1, 5)

        out[f"p2p.match_us_d{depth}"] = _median_us(post_match)
    return out


# -- netmod -------------------------------------------------------------
def netmod_endpoint():
    from repro.netmod.fabric import Fabric

    clock = repro.VirtualClock()
    fabric = Fabric(2, clock=clock, config=repro.RuntimeConfig(use_shmem=False))
    tx, rx = fabric.endpoint(0, 0), fabric.endpoint(1, 0)
    payload = bytes(64)
    header = {"kind": "probe"}
    batch = 64
    rounds = ITERS // batch
    posts = []
    polls = []
    for _ in range(REPEATS):
        post_s = poll_s = 0.0
        for _ in range(rounds):
            t0 = pc()
            for _ in range(batch):
                tx.post_send((1, 0), header, payload)
            t1 = pc()
            clock.advance(1.0)
            t2 = pc()
            _ops, packets = rx.poll_batch(batch)
            t3 = pc()
            tx.poll_batch(batch)  # retire the send completions
            if len(packets) != batch:
                raise RuntimeError(f"harvested {len(packets)} of {batch} packets")
            post_s += t1 - t0
            poll_s += t3 - t2
        posts.append(post_s / (rounds * batch) * 1e6)
        polls.append(poll_s / (rounds * batch) * 1e6)
    return {
        "netmod.post_send_us": statistics.median(posts),
        "netmod.poll_batch_us": statistics.median(polls),
    }


# -- shmem --------------------------------------------------------------
def shmem_channel():
    from repro.shmem.channel import Cell, RingChannel

    clock = repro.VirtualClock()
    chan = RingChannel((0, 0), (1, 0), 8, clock)
    payload = bytes(16384)
    header = {"kind": "probe"}

    def xfer():
        chan.try_send_cell(Cell(0, 0, True, header, payload, 0.0))
        chan.pop_ready()

    return {"shmem.cell_xfer_us": _median_us(xfer)}


# -- procmod ------------------------------------------------------------
def procmod_wire():
    from repro.netmod.packet import Packet
    from repro.procmod import wire

    out = {}
    for label, nbytes in (("64", 64), ("64k", 65536)):
        packet = Packet((0, 0), (1, 0), {"kind": "eager", "tag": 7}, bytes(nbytes), seq=1)
        frame = b"".join(bytes(part) for part in wire.encode_frame(packet))
        out[f"procmod.encode_us_{label}"] = _median_us(
            lambda: wire.encode_frame(packet), iters=ITERS // 2
        )
        out[f"procmod.decode_us_{label}"] = _median_us(
            lambda: wire.decode_frame(frame), iters=ITERS // 2
        )
    return out


def procmod_link():
    from repro.netmod.packet import Packet
    from repro.procmod import wire
    from repro.procmod.shmseg import ShmLink

    out = {}
    link = ShmLink(create=True)
    try:
        for label, nbytes in (("64", 64), ("64k", 65536)):
            packet = Packet((0, 0), (1, 0), {"kind": "eager", "tag": 7}, bytes(nbytes), seq=1)
            meta, header, view = wire.encode_frame(packet)

            def xfer():
                if not link.try_send(meta, header, view) or link.try_recv() is None:
                    raise RuntimeError("ShmLink refused a frame on an empty ring")

            out[f"procmod.link_xfer_us_{label}"] = _median_us(xfer, iters=ITERS // 4)
    finally:
        link.close()
        link.unlink()
    return out


# -- datatype, mem ------------------------------------------------------
def datatype_reduce():
    a = np.arange(16384, dtype="i4")
    b = np.zeros(16384, dtype="i4")
    return {
        "datatype.reduce_us_64k": _median_us(
            lambda: repro.SUM(a, b, 16384, repro.INT), iters=ITERS // 10
        )
    }


def mem_pool():
    from repro.mem.pool import BufferPool

    pool = BufferPool()

    def cycle():
        pool.acquire(4096).release()

    return {"mem.acquire_release_us": _median_us(cycle)}


# -- usercoll vs native, side by side -----------------------------------
def user_native_ratio():
    world = workloads.make_coop_world()
    comms = [p.comm_world for p in world.procs]
    out = {}
    try:
        for label, count in (("small", 1), ("long", 16384)):
            ins = [np.full(count, r + 1, dtype="i4") for r in range(len(comms))]
            outs = [np.zeros(count, dtype="i4") for _ in comms]

            def native(r):
                return comms[r].iallreduce(ins[r], outs[r], count, repro.INT, repro.SUM)

            def user(r):
                return workloads.user_allreduce(
                    comms[r], outs[r], count, repro.INT, repro.SUM
                )

            nat, usr = [], []
            for i in range(45):
                n = workloads.coop_op(world, native)
                u = workloads.coop_op(world, user)
                if i >= 5:  # both caches warm
                    nat.append(n)
                    usr.append(u)
            out[f"usercoll.user_native_ratio_{label}"] = statistics.median(
                usr
            ) / statistics.median(nat)
    finally:
        world.finalize()
    return out


# -- sim ----------------------------------------------------------------
def sim_scale():
    t0 = pc()
    sim = workloads.SimWorld(256)
    construct = pc() - t0
    sim.finalize()
    _s, _a, failed, extra = workloads.sim_window(1024, 0, ops=1)
    if failed:
        raise RuntimeError("P=1024 allreduce returned a wrong sum")
    return {
        "sim.construct_s": construct,
        "sim.us_per_event_p1024": extra["wall"] / extra["events"] * 1e6,
        "sim.events_per_op_p1024": extra["events"],
    }


# -- runtime ------------------------------------------------------------
def _noop(proc):
    return None


def runtime_lifecycle():
    builds, finals = [], []
    for _ in range(REPEATS):
        t0 = pc()
        world = workloads.make_coop_world()
        t1 = pc()
        world.finalize()
        builds.append(t1 - t0)
        finals.append(pc() - t1)
    spawns = []
    for _ in range(3):
        t0 = pc()
        repro.run_world(2, _noop, backend="shm", timeout=30.0)
        spawns.append(pc() - t0)
    return {
        "runtime.world_build_s": statistics.median(builds),
        "runtime.finalize_s": statistics.median(finals),
        "runtime.proc_spawn_s": statistics.median(spawns),
    }


PROBES = {
    core_passes: ("core.idle_pass_us", "core.pass_us_per_hook", "core.is_complete_ns"),
    p2p_matching: ("p2p.match_us_d1", "p2p.match_us_d1024"),
    netmod_endpoint: ("netmod.post_send_us", "netmod.poll_batch_us"),
    shmem_channel: ("shmem.cell_xfer_us",),
    procmod_wire: (
        "procmod.encode_us_64", "procmod.encode_us_64k",
        "procmod.decode_us_64", "procmod.decode_us_64k",
    ),
    procmod_link: ("procmod.link_xfer_us_64", "procmod.link_xfer_us_64k"),
    datatype_reduce: ("datatype.reduce_us_64k",),
    mem_pool: ("mem.acquire_release_us",),
    user_native_ratio: (
        "usercoll.user_native_ratio_small", "usercoll.user_native_ratio_long",
    ),
    sim_scale: ("sim.construct_s", "sim.us_per_event_p1024", "sim.events_per_op_p1024"),
    runtime_lifecycle: (
        "runtime.world_build_s", "runtime.finalize_s", "runtime.proc_spawn_s",
    ),
}


def run_all() -> tuple[dict, dict]:
    """Run every probe; returns ``(values, reasons)``: a value (or None)
    per metric name, and why for each None."""
    values: dict = {}
    reasons: dict = {}
    for probe, names in PROBES.items():
        try:
            got = probe()
        except Exception as exc:  # a missing or changed layer symbol
            got = {}
            why = f"{probe.__name__}: {type(exc).__name__}: {exc}"
        else:
            why = f"{probe.__name__} did not report it"
        for name in names:
            values[name] = got.get(name)
            if values[name] is None:
                reasons[name] = why
    return values, reasons
