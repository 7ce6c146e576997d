"""Zero-copy / buffer-pool scenarios swept across the CI seed matrix.

Lease retain/release runs under the pool's sync-facade lock, so every
pool transition is a dsched yield point; the fabric message-conservation
invariant is checked at every one of them and the shmem cell balance at
quiescence.  On top of that, every scenario asserts the pool itself
drained: zero outstanding leases once traffic quiesces, i.e. every wire
packet, retransmit buffer, shmem cell and protocol entry gave its
reference back.

The descriptor scenarios at the end race the on-node large-message path
(RTS carrying the payload view, receiver-side copy, rdone) against the
fault paths that can strand it: a revoke, the source declared dead
while its descriptor is parked, and the destination declared dead while
the sender waits for rdone.  In each, every request ends exactly once
(success or the one expected error, never a hang), the parked
descriptor's lease reference is given back exactly once, and the pools
are empty after finalize; cell balance is the quiescence invariant.
"""

import numpy as np

import repro
from repro.config import RuntimeConfig
from repro.dsched import explore_seeds
from repro.errors import ProcessFailedError, RevokedError
from repro.runtime.world import World

_CFG = dict(
    buffered_threshold=64,
    eager_threshold=8192,
    rendezvous_threshold=16384,
    pipeline_chunk_size=8192,
    pipeline_max_inflight=2,
)


def _payloads():
    # one per mode, all >= POOL_STAGE_MIN: eager (pooled snapshot),
    # rendezvous (zero-copy + rdone), pipeline (zero-copy chunk views
    # + rdone)
    return [b"\x11" * 4096, b"\x22" * 12288, b"\x33" * 24576]


def _run_modes(sched, *, use_shmem):
    def driver():
        cfg = RuntimeConfig(
            **_CFG, use_shmem=use_shmem, ranks_per_node=2 if use_shmem else 1
        )
        world = World(2, clock=sched.clock, config=cfg)
        p0, p1 = world.proc(0), world.proc(1)
        payloads = _payloads()
        outs = [bytearray(len(p)) for p in payloads]
        rreqs = [
            p1.comm_world.irecv(out, len(out), repro.BYTE, 0, tag)
            for tag, out in enumerate(outs)
        ]
        sreqs = [
            p0.comm_world.isend(p, len(p), repro.BYTE, 1, tag)
            for tag, p in enumerate(payloads)
        ]
        reqs = rreqs + sreqs

        def pump(proc):
            def run():
                while not all(r.is_complete() for r in reqs):
                    if not proc.stream_progress():
                        proc.idle_wait()

            return run

        t0 = sched.spawn(pump(p0), name="pump0")
        t1 = sched.spawn(pump(p1), name="pump1")
        t0.join()
        t1.join()
        for out, p in zip(outs, payloads):
            assert bytes(out) == p
        for proc in (p0, p1):
            assert proc.p2p.pool.outstanding == 0, "leaked lease at quiescence"
        world.finalize()

    sched.spawn(driver, name="driver")


def _pooled_modes_netmod(sched):
    """All three payload modes over the NIC fabric with the pool on."""
    _run_modes(sched, use_shmem=False)


def _pooled_modes_shmem(sched):
    """Same modes over shmem cells: zero-copy cell views must keep the
    per-destination cell balance exact."""
    _run_modes(sched, use_shmem=True)


def _unexpected_pooled_eager(sched):
    """An unexpected pooled eager message parks its lease on the
    unexpected queue; the late receive must release it."""

    def driver():
        cfg = RuntimeConfig(**_CFG, use_shmem=False)
        world = World(2, clock=sched.clock, config=cfg)
        p0, p1 = world.proc(0), world.proc(1)
        sreq = p0.comm_world.isend(b"\x44" * 4096, 4096, repro.BYTE, 1, 7)

        def pump0():
            while not sreq.is_complete():
                if not p0.stream_progress():
                    p0.idle_wait()

        t0 = sched.spawn(pump0, name="pump0")
        t0.join()
        # message is now (or soon) unexpected at rank 1
        out = bytearray(4096)
        rreq = p1.comm_world.irecv(out, 4096, repro.BYTE, 0, 7)
        while not rreq.is_complete():
            if not p1.stream_progress():
                p1.idle_wait()
        assert bytes(out) == b"\x44" * 4096
        for proc in (p0, p1):
            assert proc.p2p.pool.outstanding == 0, "unexpected-queue lease leaked"
        world.finalize()

    sched.spawn(driver, name="driver")


#: 3072 elements x 4 data bytes = 12288 payload bytes (above eager):
#: strided, so the descriptor is a leased pack slab, not a user view
_STRIDED = repro.vector(4, 1, 2, repro.BYTE).commit()
_COUNT = 3072


class _Descriptor:
    """An on-node world with one strided descriptor send ready to post,
    and the bookkeeping the three fault scenarios share."""

    def __init__(self, sched):
        self.sched = sched
        cfg = RuntimeConfig(**_CFG, ranks_per_node=2)
        self.world = World(2, clock=sched.clock, config=cfg)
        self.p0, self.p1 = self.world.proc(0), self.world.proc(1)
        self.errors = []  # one entry per errhandler invocation
        for proc in (self.p0, self.p1):
            proc.comm_world.set_errhandler(self.errors.append)
        self.src = np.arange(_COUNT * _STRIDED.extent, dtype="u1")
        self.out = np.zeros_like(self.src)
        self.completions = []

    def watch(self, req):
        req.on_complete(self.completions.append)
        return req

    def isend(self):
        return self.watch(
            self.p0.comm_world.isend(self.src, _COUNT, _STRIDED, 1, 3)
        )

    def irecv(self):
        return self.watch(
            self.p1.comm_world.irecv(self.out, _COUNT, _STRIDED, 0, 3)
        )

    def pump(self, done, *procs):
        spins = 0
        while not done():
            if not any([p.stream_progress() for p in procs or (self.p0, self.p1)]):
                self.sched.clock.advance(1e-6)
            spins += 1
            assert spins < 500_000, "descriptor scenario hung"

    def park(self):
        """Post the send and run until its descriptor is parked on rank
        1's unexpected queue with the transport op retired: the slab
        then has exactly two references, the SendEntry's and the parked
        message's."""
        sreq = self.isend()
        unexpected = self.p1.p2p.vci_state(0).unexpected
        self.pump(
            lambda: len(unexpected) == 1 and not self.world.shmem.has_work((0, 0))
        )
        (msg,) = list(unexpected)
        assert msg.lease.refs == 2
        return sreq, msg.lease

    def finish(self, reqs):
        """Every request ended exactly once; after finalize no lease is
        out and no cell is queued."""
        for proc in (self.p0, self.p1):
            for req in reqs:
                proc.test(req)  # delivers a failure to the errhandler...
                proc.test(req)  # ...at most once
        assert sorted(map(id, self.completions)) == sorted(map(id, reqs))
        failed = [r for r in reqs if r.exception is not None]
        assert len(self.errors) == len(failed)
        self.world.finalize()
        for proc in (self.p0, self.p1):
            assert proc.p2p.pool.outstanding == 0, "descriptor lease leaked"
        assert self.world.shmem.cells_in_rings((1, 0)) == 0
        return failed


def _descriptor_vs_revoke(sched):
    """Rank 1 revokes while rank 0's descriptor is on its way to rank
    1's receive: whichever wins, both requests end once."""

    def driver():
        d = _Descriptor(sched)
        c0, c1 = d.p0.comm_world, d.p1.comm_world
        reqs, posts = [], []

        def post(fn):
            def run():
                try:
                    reqs.append(fn())
                except RevokedError:
                    pass  # revoke won the race before the post: legal
                posts.append(fn)

            return run

        def done():
            return (
                len(posts) == 2
                and all(r.is_complete() for r in reqs)
                and c0.revoked
                and c1.revoked
            )

        def revoke():
            for _ in range(3):  # give delivery a chance to win the race
                d.p1.stream_progress()
            c1.revoke()

        ts = [
            sched.spawn(post(d.isend), name="send"),
            sched.spawn(post(d.irecv), name="recv"),
            sched.spawn(revoke, name="revoke"),
            sched.spawn(lambda: d.pump(done, d.p0), name="pump0"),
            sched.spawn(lambda: d.pump(done, d.p1), name="pump1"),
        ]
        for t in ts:
            t.join()
        failed = d.finish(reqs)
        assert all(isinstance(r.exception, RevokedError) for r in failed)
        for r in reqs:
            if r.kind == "recv" and r.exception is None:
                assert np.array_equal(
                    _STRIDED.pack(d.out, _COUNT), _STRIDED.pack(d.src, _COUNT)
                )

    sched.spawn(driver, name="driver")


def _descriptor_parked_source_dies(sched):
    """Rank 0 is declared dead at rank 1 while its descriptor sits on
    rank 1's unexpected queue, racing a receive that names rank 0."""

    def driver():
        d = _Descriptor(sched)
        sreq, lease = d.park()
        rreqs = []
        ts = [
            sched.spawn(lambda: d.p1.p2p.note_peer_dead(0), name="detector"),
            sched.spawn(lambda: rreqs.append(d.irecv()), name="recv"),
        ]
        for t in ts:
            t.join()
        (rreq,) = rreqs
        unexpected = d.p1.p2p.vci_state(0).unexpected
        d.pump(lambda: rreq.is_complete() and len(unexpected) == 0, d.p1)
        # Matched before the sweep, or swept: either way the parked
        # reference went back once and only the SendEntry's is left.
        assert lease.refs == 1
        if rreq.exception is None:
            d.pump(sreq.is_complete)  # the rdone reaches the live sender
        else:
            assert isinstance(rreq.exception, ProcessFailedError)
            d.p0.p2p.note_peer_dead(1)  # the partition is mutual
            d.pump(sreq.is_complete, d.p0)
            assert isinstance(sreq.exception, ProcessFailedError)
        assert lease.refs == 0
        failed = d.finish([sreq, rreq])
        assert len(failed) in (0, 2)

    sched.spawn(driver, name="driver")


def _sender_parked_on_rdone_peer_dies(sched):
    """Rank 1 stops progressing for good; rank 0, blocked in wait on
    the rdone, learns of the death from its detector."""

    def driver():
        d = _Descriptor(sched)
        sreq = d.isend()
        waited = []

        def wait():
            d.p0.wait(sreq)  # callable errhandler: returns, never raises
            waited.append(sreq.exception)

        ts = [
            sched.spawn(wait, name="wait"),
            sched.spawn(lambda: d.p0.p2p.note_peer_dead(1), name="detector"),
        ]
        for t in ts:
            t.join()
        assert len(waited) == 1 and isinstance(waited[0], ProcessFailedError)
        assert d.errors == waited
        # The corpse never pops its ring: the descriptor cell (and the
        # slab reference it holds) stays queued — balanced, not leaked.
        assert d.world.shmem.cells_in_rings((1, 0)) == 1
        assert d.p0.p2p.pool.outstanding == 1
        assert d.completions == [sreq]

    sched.spawn(driver, name="driver")


class TestZeroCopyScenarios:
    def test_pooled_modes_netmod(self, seed_range):
        res = explore_seeds(_pooled_modes_netmod, seed_range, timeout=120.0)
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_pooled_modes_shmem(self, seed_range):
        res = explore_seeds(_pooled_modes_shmem, seed_range, timeout=120.0)
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_unexpected_pooled_eager(self, seed_range):
        res = explore_seeds(_unexpected_pooled_eager, seed_range, timeout=120.0)
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_descriptor_vs_revoke(self, seed_range):
        res = explore_seeds(_descriptor_vs_revoke, seed_range, timeout=120.0)
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_descriptor_parked_source_dies(self, seed_range):
        res = explore_seeds(_descriptor_parked_source_dies, seed_range, timeout=120.0)
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_sender_parked_on_rdone_peer_dies(self, seed_range):
        res = explore_seeds(
            _sender_parked_on_rdone_peer_dies, seed_range, timeout=120.0
        )
        assert res.ok, res.report()
        assert res.decisions > 0
