"""The always-on concurrency invariant checkers."""

import pytest

from repro.core.request import Request
from repro.dsched import (
    ConservationError,
    DeadlockError,
    DetScheduler,
    InvariantMonitor,
    LockOrderError,
    MonotonicityError,
    explore_seeds,
)
from repro.runtime.world import World


def abba(sched):
    a = sched.create_lock("A")
    b = sched.create_lock("B")

    def t1():
        with a:
            with b:
                pass

    def t2():
        with b:
            with a:
                pass

    sched.spawn(t1, name="t1")
    sched.spawn(t2, name="t2")


class TestDeadlock:
    def test_abba_deadlock_found_with_cycle_report(self, seed_range):
        res = explore_seeds(abba, seed_range, timeout=30.0)
        deadlocks = [f for f in res.failures if isinstance(f.error, DeadlockError)]
        assert deadlocks, "no seed produced the AB-BA deadlock"
        text = str(deadlocks[0].error)
        assert "wait-for graph" in text
        assert "cycle:" in text
        assert "D 0 step=" in text  # decision trace attached

    def test_failing_seed_set_is_deterministic(self):
        seeds = range(60)
        a = sorted(f.seed for f in explore_seeds(abba, seeds, timeout=30.0).failures)
        b = sorted(f.seed for f in explore_seeds(abba, seeds, timeout=30.0).failures)
        assert a == b and a

    def test_deadlock_report_lists_pending_requests(self):
        keep = []  # hold the requests so the monitor's weakrefs survive

        def scenario(sched):
            keep.append(Request("recv"))  # watched automatically, never completed
            abba(sched)

        res = explore_seeds(scenario, range(60), timeout=30.0)
        deadlocks = [f for f in res.failures if isinstance(f.error, DeadlockError)]
        assert deadlocks
        assert "pending requests" in str(deadlocks[0].error)


class TestLockOrder:
    def test_inversion_recorded_without_deadlock(self):
        """A -> B then B -> A in one thread can never deadlock, but it
        is the textbook latent inversion and must be reported."""
        sched = DetScheduler(0)
        with sched:
            a = sched.create_lock("A")
            b = sched.create_lock("B")

            def worker():
                with a:
                    with b:
                        pass
                with b:
                    with a:
                        pass

            sched.spawn(worker, name="w")
            sched.run(30.0)
        assert sched.monitor.lock_inversions
        assert "A" in sched.monitor.lock_inversions[0]

    def test_strict_mode_raises(self):
        sched = DetScheduler(0, monitor=InvariantMonitor(strict_lock_order=True))
        with sched:
            a = sched.create_lock("A")
            b = sched.create_lock("B")

            def worker():
                with a:
                    with b:
                        pass
                with b:
                    with a:
                        pass

            sched.spawn(worker, name="w")
            with pytest.raises(LockOrderError, match="inversion"):
                sched.run(30.0)

    def test_consistent_order_is_clean(self):
        sched = DetScheduler(0)
        with sched:
            a = sched.create_lock("A")
            b = sched.create_lock("B")

            def worker():
                for _ in range(3):
                    with a:
                        with b:
                            pass

            sched.spawn(worker, name="w1")
            sched.spawn(worker, name="w2")
            sched.run(30.0)
        assert sched.monitor.lock_inversions == []


class TestMonotonicity:
    def test_request_reverting_to_pending_is_caught(self):
        sched = DetScheduler(0)
        with sched:
            def worker():
                req = Request("recv")  # watched via the sync hook
                req.complete()
                sched.sleep(0)  # a yield point observes complete=True
                req._complete = False  # the injected violation
                sched.sleep(0)  # the next check must catch it

            sched.spawn(worker, name="w")
            with pytest.raises(MonotonicityError, match="reverted"):
                sched.run(30.0)

    def test_normal_completion_is_clean(self):
        sched = DetScheduler(0)
        with sched:
            def worker():
                req = Request("send")
                sched.sleep(0)
                req.complete(count_bytes=8)
                sched.sleep(0)
                assert req.is_complete()

            sched.spawn(worker, name="w")
            sched.run(30.0)


class TestConservation:
    def test_tampered_delivery_counter_is_caught(self):
        sched = DetScheduler(0)
        with sched:
            def worker():
                world = World(2, clock=sched.clock)
                ep = world.fabric.endpoint(1, 0)
                # Fake a phantom packet copy through the inbox counter
                # that backs the delivered count.
                ep._arrival_inbox((0, 0)).pushed += 1
                sched.sleep(0)  # checked at the next yield point

            sched.spawn(worker, name="w")
            with pytest.raises(ConservationError, match="enqueued"):
                sched.run(30.0)

    def test_negative_shmem_cells_at_quiescence_is_caught(self):
        sched = DetScheduler(0)
        with sched:
            def worker():
                world = World(1, clock=sched.clock)
                assert world.shmem is not None
                world.shmem._cells_pending[(0, 0)] = -1

            sched.spawn(worker, name="w")
            with pytest.raises(ConservationError, match="cells_pending"):
                sched.run(30.0)

    @pytest.mark.parametrize("leak", [False, True])
    def test_lease_balance_at_quiescence(self, leak):
        """A parked unexpected descriptor legitimately holds one lease
        reference (until matched, swept or finalized); any other
        outstanding lease in a drained world is a leak."""
        import numpy as np

        import repro
        from repro.config import RuntimeConfig

        strided = repro.vector(4, 1, 2, repro.BYTE).commit()
        sched = DetScheduler(0)
        with sched:
            def worker():
                cfg = RuntimeConfig(ranks_per_node=2, eager_threshold=64)
                world = World(2, clock=sched.clock, config=cfg)
                p0, p1 = world.proc(0), world.proc(1)
                src = np.arange(64 * strided.extent, dtype="u1")
                p0.comm_world.isend(src, 64, strided, 1, 0)  # parks at rank 1
                while world.shmem.has_work((0, 0)) or world.shmem.has_work((1, 0)):
                    if not (p0.stream_progress() | p1.stream_progress()):
                        sched.clock.advance(1e-6)
                assert len(p1.p2p.vci_state(0).unexpected) == 1
                # sender state retired by hand: only the parked slab is out
                entry = p0.p2p.vci_state(0).sends.popitem()[1]
                entry.lease.release()
                assert p0.p2p.pool.outstanding == 1
                if leak:
                    p1.p2p.pool.acquire(512)

            sched.spawn(worker, name="w")
            if leak:
                with pytest.raises(ConservationError, match="lease"):
                    sched.run(30.0)
            else:
                sched.run(30.0)

    def test_real_traffic_balances(self):
        """A world doing actual sends passes every conservation check."""
        import repro
        from repro.runtime import run_world

        def scenario(sched):
            def driver():
                def rank_fn(proc):
                    comm = proc.comm_world
                    other = 1 - proc.rank
                    buf = bytearray(4)
                    if proc.rank == 0:
                        comm.send(b"ping", 4, repro.BYTE, other, 1)
                        comm.recv(buf, 4, repro.BYTE, other, 2)
                    else:
                        comm.recv(buf, 4, repro.BYTE, other, 1)
                        comm.send(b"pong", 4, repro.BYTE, other, 2)
                    return bytes(buf)

                return run_world(2, rank_fn, clock=sched.clock, timeout=30)

            sched.spawn(driver, name="driver")

        res = explore_seeds(scenario, range(5), timeout=60.0)
        assert res.ok, res.report()
        assert res.decisions > 0
