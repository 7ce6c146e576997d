"""Lock-free hot paths swept across the CI seed matrix.

These worlds run on the default config: every interleaving dsched
explores exercises the SPSC inbox publish/drain paths and the sharded
matching structures — with the full invariant suite (message
conservation at every yield point, lock-order tracking, deadlock
detection) watching.  The steal/return scenario is the
critical one: a steal migrates the SPSC *consumer* role between pool
workers, and conservation must hold exactly across the handoff.
"""

import repro
from repro.dsched import explore_seeds
from repro.exts.progress_pool import ProgressPool
from repro.runtime.world import World


def _lockfree_p2p_roundtrip(sched):
    """Send/recv through the SPSC arrival inboxes: the app thread
    publishes (posts under the stream lock), a lone pool worker is the
    consumer draining the inboxes — exact conservation at every yield
    point in between."""

    def driver():
        world = World(1, clock=sched.clock)
        proc = world.proc(0)
        comm = proc.comm_world
        pool = ProgressPool(
            [(proc, proc.default_stream)],
            workers=1,
            mode="adaptive",
            idle_threshold=2,
            idle_sleep=1e-5,
        )
        pool.start()
        buf = bytearray(4)
        rreq = comm.irecv(buf, 4, repro.BYTE, 0, 7)
        sreq = comm.isend(b"spsc", 4, repro.BYTE, 0, 7)
        sched.wait_for(
            lambda: rreq.is_complete() and sreq.is_complete(), dt=1e-6
        )
        pool.stop()
        assert bytes(buf) == b"spsc"
        c = world.fabric.conservation_counts()
        assert c["delivered"] == c["harvested"] + c["in_flight"]
        world.finalize()

    sched.spawn(driver, name="driver")


def _lockfree_pool_publish_drain(sched):
    """Pool workers drain SPSC rings while the app thread publishes
    (posts sends) concurrently — the ring publish/drain race."""

    def driver():
        world = World(1, clock=sched.clock)
        proc = world.proc(0)
        comm = proc.comm_world
        pool = ProgressPool(
            [(proc, proc.default_stream)],
            workers=2,
            mode="adaptive",
            idle_threshold=2,
            idle_sleep=1e-5,
        )
        pool.start()
        bufs = [bytearray(2) for _ in range(3)]
        reqs = []
        for i, buf in enumerate(bufs):
            reqs.append(comm.irecv(buf, 2, repro.BYTE, 0, i))
            reqs.append(comm.isend(b"%02d" % i, 2, repro.BYTE, 0, i))
        sched.wait_for(lambda: all(r.is_complete() for r in reqs), dt=1e-6)
        pool.stop()
        for i, buf in enumerate(bufs):
            assert bytes(buf) == b"%02d" % i
        c = world.fabric.conservation_counts()
        assert c["delivered"] == c["harvested"] + c["in_flight"]
        world.finalize()

    sched.spawn(driver, name="driver")


def _lockfree_steal_return_consumer_migration(sched):
    """A steal moves the SPSC consumer role to another worker and the
    quiesce returns it home; conservation and ownership must hold
    across both transitions."""

    def driver():
        world = World(1, clock=sched.clock)
        proc = world.proc(0)
        streams = [proc.default_stream, proc.stream_create(), proc.stream_create()]
        comm = proc.comm_world
        buf = bytearray(4)
        rreq = comm.irecv(buf, 4, repro.BYTE, 0, 5)
        sreq = comm.isend(b"mgrt", 4, repro.BYTE, 0, 5)
        pool = ProgressPool(
            [(proc, s) for s in streams],
            workers=2,
            mode="adaptive",
            idle_threshold=2,
            idle_sleep=1e-5,
        )
        # Homes: 0, 1, 0 — worker 0 overloaded, worker 1 steals.  The
        # default stream's real p2p traffic rides the stolen slots.
        for slot in pool.slots():
            if slot.home == 0 and slot.stream is not proc.default_stream:
                slot.stream.busy_check = lambda: ["netmod"]
        pool.start()
        sched.wait_for(
            lambda: pool.stat_steals >= 1
            and rreq.is_complete()
            and sreq.is_complete(),
            dt=1e-6,
        )
        pool.stop()
        assert bytes(buf) == b"mgrt"
        for slot in pool.slots():
            assert not slot.polling
        c = world.fabric.conservation_counts()
        assert c["delivered"] == c["harvested"] + c["in_flight"]
        world.finalize()

    sched.spawn(driver, name="driver")


def _lockfree_matching_shard_race(sched):
    """Concurrent irecv-vs-arrival on one VCI: the shard's
    match-or-post / match-or-add critical sections must never lose or
    double-deliver a message, under every interleaving."""

    def driver():
        world = World(1, clock=sched.clock)
        proc = world.proc(0)
        comm = proc.comm_world
        pool = ProgressPool(
            [(proc, proc.default_stream)],
            workers=1,
            mode="adaptive",
            idle_threshold=2,
            idle_sleep=1e-5,
        )
        pool.start()
        # The pool worker dispatches arrivals while this thread posts
        # the receives — the posted/unexpected decision races.
        sreqs = [comm.isend(b"x", 1, repro.BYTE, 0, t) for t in range(4)]
        bufs = [bytearray(1) for _ in range(4)]
        rreqs = [comm.irecv(bufs[t], 1, repro.BYTE, 0, t) for t in range(4)]
        sched.wait_for(
            lambda: all(r.is_complete() for r in sreqs + rreqs), dt=1e-6
        )
        pool.stop()
        assert all(bytes(b) == b"x" for b in bufs)
        world.finalize()

    sched.spawn(driver, name="driver")


class TestLockfreeScenarios:
    def test_p2p_roundtrip(self, seed_range):
        res = explore_seeds(_lockfree_p2p_roundtrip, seed_range, timeout=60.0)
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_pool_publish_drain(self, seed_range):
        res = explore_seeds(_lockfree_pool_publish_drain, seed_range, timeout=60.0)
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_steal_return_consumer_migration(self, seed_range):
        res = explore_seeds(
            _lockfree_steal_return_consumer_migration, seed_range, timeout=60.0
        )
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_matching_shard_race(self, seed_range):
        res = explore_seeds(_lockfree_matching_shard_race, seed_range, timeout=60.0)
        assert res.ok, res.report()
        assert res.decisions > 0
