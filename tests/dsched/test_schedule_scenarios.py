"""Schedule scenarios swept across the CI seed matrix.

Two schedules committed on one stream from two logical threads share a
single chain hook; under every interleaving the chain must preserve
FIFO order between the schedules, never lose a commit (the submit/done
race), and drain the pending-async accounting to zero.

A compiled collective plan — replayed by the native driver or from the
async hook — races a revoke: whichever wins, every request ends once,
the staging lease goes back exactly once (the lease-balance quiescence
invariant), and the ``stream.lock -> plan.cache`` / ``-> mem.pool``
nesting never inverts (strict lock-order monitor).
"""

import numpy as np
import pytest

import repro
from repro.dsched import InvariantMonitor, explore_seeds
from repro.errors import RevokedError
from repro.exts.schedule_ext import Schedule
from repro.runtime.world import World
from repro.usercoll import user_allreduce


def _two_schedules_one_stream(sched):
    """Two threads each commit a schedule of real MPI traffic on the
    same (default) stream while a third pumps progress."""

    def driver():
        world = World(2, clock=sched.clock)
        p0, p1 = world.proc(0), world.proc(1)
        out = np.zeros(2, dtype="i4")
        reqs = []

        def commit_sender(tag):
            s = Schedule(p0)
            s.add_operation(
                lambda: p0.comm_world.isend(
                    np.array([tag + 1], "i4"), 1, repro.INT, 1, tag
                )
            )
            reqs.append(s.commit())

        def commit_receivers():
            s = Schedule(p1)
            s.add_operation(lambda: p1.comm_world.irecv(out[:1], 1, repro.INT, 0, 0))
            s.create_round()
            s.add_operation(lambda: p1.comm_world.irecv(out[1:], 1, repro.INT, 0, 1))
            reqs.append(s.commit())

        t1 = sched.spawn(lambda: commit_sender(0), name="send0")
        t2 = sched.spawn(lambda: commit_sender(1), name="send1")
        t3 = sched.spawn(commit_receivers, name="recv")
        t1.join()
        t2.join()
        t3.join()

        def pump():
            while not all(r.is_complete() for r in reqs):
                made0 = p0.stream_progress()
                made1 = p1.stream_progress()
                if not (made0 or made1):
                    sched.clock.advance(1e-6)

        pump()
        assert list(out) == [1, 2]
        assert p0.pending_async_tasks == 0
        assert p1.pending_async_tasks == 0
        world.finalize()

    sched.spawn(driver, name="driver")


def _commit_races_chain_retirement(sched):
    """A second schedule is committed concurrently with the chain hook
    retiring the first: the commit must either fuse onto the live hook
    or start a fresh one — never be dropped."""

    def driver():
        world = World(1, clock=sched.clock)
        proc = world.proc(0)
        done = []

        def make_sched(tag):
            s = Schedule(proc)

            def thunk():
                from repro.core.request import Request

                done.append(tag)
                req = Request()
                req.complete()
                return req

            s.add_operation(thunk)
            return s.commit()

        r1 = make_sched("a")

        committed = []

        def late_commit():
            committed.append(make_sched("b"))

        def pump():
            while not r1.is_complete() or not committed or not committed[0].is_complete():
                if not proc.stream_progress():
                    proc.idle_wait()

        t1 = sched.spawn(late_commit, name="committer")
        t2 = sched.spawn(pump, name="pump")
        t1.join()
        t2.join()
        assert sorted(done) == ["a", "b"]
        assert proc.pending_async_tasks == 0
        world.finalize()

    sched.spawn(driver, name="driver")


def _collective_vs_revoke(driver_kind):
    """Both ranks start an allreduce (one staging lease each) while
    rank 1 revokes the communicator."""
    count = 64  # 256 B: staged through a pool slab

    def scenario(sched):
        def driver():
            world = World(2, clock=sched.clock)
            procs = [world.proc(0), world.proc(1)]
            comms = [p.comm_world for p in procs]
            bufs = [np.full(count, r + 1, dtype="i4") for r in range(2)]
            reqs, posted = [], []

            def post(r):
                comm = comms[r]
                comm.set_errhandler(repro.ERRORS_RETURN)
                try:
                    if driver_kind == "native":
                        req = comm.iallreduce(repro.IN_PLACE, bufs[r], count, repro.INT)
                    else:
                        req = user_allreduce(comm, bufs[r], count, repro.INT)
                    reqs.append((r, req))
                except RevokedError:
                    pass  # revoke won the race before the post: legal
                posted.append(r)

            def revoke():
                for _ in range(2):  # give the exchange a chance to win
                    procs[1].stream_progress()
                comms[1].revoke()

            def done():
                return (
                    len(posted) == 2
                    and all(q.is_complete() for _, q in reqs)
                    and all(c.revoked for c in comms)
                )

            def pump(proc):
                spins = 0
                while not done():
                    if not proc.stream_progress():
                        sched.clock.advance(1e-6)
                    spins += 1
                    assert spins < 500_000, "collective-vs-revoke hung"

            ts = [
                sched.spawn(lambda: post(0), name="post0"),
                sched.spawn(lambda: post(1), name="post1"),
                sched.spawn(revoke, name="revoke"),
                sched.spawn(lambda: pump(procs[0]), name="pump0"),
                sched.spawn(lambda: pump(procs[1]), name="pump1"),
            ]
            for t in ts:
                t.join()
            for r, req in reqs:
                if req.exception is None:
                    assert np.all(bufs[r] == 3)
                else:
                    assert isinstance(req.exception, RevokedError)
            for p in procs:
                p.stream_progress()  # retires an executor the revoke aborted
                assert p.coll_engine.active_count == 0
                assert p.pending_async_tasks == 0
            world.finalize()
            for p in procs:
                assert p.p2p.pool.outstanding == 0, "staging lease leaked"

        sched.spawn(driver, name="driver")

    return scenario


class TestPlanAbortScenarios:
    @pytest.mark.parametrize("driver_kind", ["native", "user"])
    def test_collective_vs_revoke(self, seed_range, driver_kind):
        scenario = _collective_vs_revoke(driver_kind)
        decisions = 0
        for seed in seed_range:  # a monitor belongs to one schedule
            res = explore_seeds(
                scenario,
                [seed],
                timeout=120.0,
                monitor=InvariantMonitor(strict_lock_order=True),
            )
            assert res.ok, res.report()
            decisions += res.decisions
        assert decisions > 0


class TestScheduleChainScenarios:
    def test_two_schedules_one_stream(self, seed_range):
        res = explore_seeds(_two_schedules_one_stream, seed_range, timeout=60.0)
        assert res.ok, res.report()
        assert res.decisions > 0

    def test_commit_races_chain_retirement(self, seed_range):
        res = explore_seeds(_commit_races_chain_retirement, seed_range, timeout=60.0)
        assert res.ok, res.report()
        assert res.decisions > 0
