"""Schedule IR, planners, plan cache, and replay executor."""

import numpy as np

import repro
from repro.core.introspect import snapshot
from repro.coll.algorithms import (
    plan_allgather_ring as plan_allgather,
    plan_allreduce_recursive_doubling as plan_allreduce,
    plan_barrier_dissemination as plan_barrier,
    plan_bcast_binomial as plan_bcast,
)
from repro.coll.plan import BUF_USER, K_RECV, K_SEND, PlanCache, count_bucket
from repro.usercoll import user_allreduce

from tests.conftest import drive, make_vworld


class TestPlanners:
    def test_allreduce_pof2_shape(self):
        plan = plan_allreduce(0, 8, repro.SUM)
        # log2(8) = 3 doubling rounds, no fold.
        assert len(plan.rounds) == 3
        assert plan.stage_blocks == 1  # commutative: no scratch block
        for rnd in plan.rounds:
            kinds = sorted(s.kind for s in rnd.comms)
            assert kinds == [K_SEND, K_RECV]
            assert len(rnd.locals) == 1

    def test_allreduce_remainder_fold(self):
        # size 6 -> pof2 4, rem 2: ranks 0..3 fold pairwise.
        even = plan_allreduce(0, 6, repro.SUM)
        assert [len(r.comms) for r in even.rounds] == [1, 1]  # send, recv
        assert even.stage_blocks == 0
        odd = plan_allreduce(1, 6, repro.SUM)
        # fold-recv + 2 doubling rounds + unfold-send
        assert len(odd.rounds) == 4
        assert odd.rounds[0].comms[0].kind == K_RECV
        assert odd.rounds[-1].comms[0].kind == K_SEND
        outside = plan_allreduce(5, 6, repro.SUM)
        assert len(outside.rounds) == 2  # doubling only

    def test_allreduce_non_commutative_uses_scratch(self):
        op = repro.user_op(lambda s, d: d, name="NC", commutative=False)
        plan = plan_allreduce(0, 4, op)
        assert plan.stage_blocks == 2
        # rank 0 reduces against higher peers: 3-step ordered reduce.
        assert any(len(r.locals) == 3 for r in plan.rounds)

    def test_bcast_shape(self):
        root_plan = plan_bcast(0, 8, 0)
        assert len(root_plan.rounds) == 1  # sends only
        assert {s.peer for s in root_plan.rounds[0].comms} == {4, 2, 1}
        leaf = plan_bcast(7, 8, 0)
        assert leaf.rounds[0].comms[0].kind == K_RECV

    def test_allgather_shape(self):
        plan = plan_allgather(2, 5)
        assert len(plan.rounds) == 4
        assert plan.result_blocks == 5
        for rnd in plan.rounds:
            assert all(s.buf == BUF_USER for s in rnd.comms)

    def test_barrier_zero_byte_rounds(self):
        plan = plan_barrier(1, 7)
        assert len(plan.rounds) == 3  # ceil(log2(7))
        assert all(s.nblocks == 0 for r in plan.rounds for s in r.comms)
        assert plan.result_blocks == 0

    def test_count_bucket_monotone(self):
        assert count_bucket(0) == 0
        assert count_bucket(4) < count_bucket(64) < count_bucket(4096)


class TestPlanCache:
    def test_hit_after_miss(self):
        cache = PlanCache()
        built = []

        def build():
            built.append(1)
            return plan_barrier(0, 4)

        key = ((0, 0), "barrier", "dissem", None, None, 0)
        p1 = cache.get_or_build(key, build)
        p2 = cache.get_or_build(key, build)
        assert p1 is p2
        assert built == [1]
        assert cache.stat_hits == 1
        assert cache.stat_misses == 1
        assert cache.stat_builds == 1

    def test_lru_eviction(self):
        cache = PlanCache(max_plans=2)
        keys = [((0, 0), "barrier", "dissem", None, None, i) for i in range(3)]
        for k in keys:
            cache.get_or_build(k, lambda: plan_barrier(0, 2))
        assert cache.entries == 2
        assert cache.stat_evictions == 1
        # keys[0] was evicted; keys[1] and keys[2] survive.
        cache.get_or_build(keys[2], lambda: plan_barrier(0, 2))
        assert cache.stat_hits == 1

    def test_invalidate_comm_scoped(self):
        cache = PlanCache()
        ka = ((0, 1), "barrier", "dissem", None, None, 0)
        kb = ((0, 2), "barrier", "dissem", None, None, 0)
        cache.get_or_build(ka, lambda: plan_barrier(0, 2))
        cache.get_or_build(kb, lambda: plan_barrier(0, 2))
        assert cache.invalidate_comm((0, 1)) == 1
        assert cache.entries == 1
        assert cache.stat_invalidations == 1

    def test_disabled_cache_always_builds(self):
        cache = PlanCache(enabled=False)
        key = ((0, 0), "barrier", "dissem", None, None, 0)
        cache.get_or_build(key, lambda: plan_barrier(0, 2))
        cache.get_or_build(key, lambda: plan_barrier(0, 2))
        assert cache.entries == 0
        assert cache.stat_hits == 0
        assert cache.stat_builds == 2


class TestCachedCollectives:
    def test_repeat_allreduce_hits_cache(self):
        world = make_vworld(4, use_shmem=False)
        procs = [world.proc(r) for r in range(4)]
        bufs = [np.array([r + 1, 10], dtype="i4") for r in range(4)]
        reqs = [
            user_allreduce(p.comm_world, b, 2, repro.INT, repro.SUM)
            for p, b in zip(procs, bufs)
        ]
        drive(world, reqs)
        misses = procs[0].plan_cache.stat_misses
        assert misses == 1
        bufs2 = [np.array([r + 1, 10], dtype="i4") for r in range(4)]
        reqs = [
            user_allreduce(p.comm_world, b, 2, repro.INT, repro.SUM)
            for p, b in zip(procs, bufs2)
        ]
        drive(world, reqs)
        assert procs[0].plan_cache.stat_hits == 1
        assert procs[0].plan_cache.stat_misses == misses
        for b in bufs2:
            assert list(b) == [10, 40]

    def test_distinct_ops_distinct_plans(self):
        world = make_vworld(2, use_shmem=False)
        procs = [world.proc(r) for r in range(2)]
        for op in (repro.SUM, repro.MAX):
            bufs = [np.array([float(r)], dtype="f8") for r in range(2)]
            reqs = [
                user_allreduce(p.comm_world, b, 1, repro.DOUBLE, op)
                for p, b in zip(procs, bufs)
            ]
            drive(world, reqs)
        assert procs[0].plan_cache.stat_misses == 2
        assert procs[0].plan_cache.entries == 2

    def test_comm_free_invalidates_plans(self):
        world = make_vworld(2, use_shmem=False)
        procs = [world.proc(r) for r in range(2)]
        reqs = [
            __import__("repro.usercoll", fromlist=["user_ibarrier"]).user_ibarrier(
                p.comm_world
            )
            for p in procs
        ]
        drive(world, reqs)
        assert procs[0].plan_cache.entries == 1
        procs[0].comm_world.free()
        assert procs[0].plan_cache.entries == 0
        assert procs[0].plan_cache.stat_invalidations == 1

    def test_executor_leases_return_to_pool(self):
        """The allreduce staging slab is leased and released: after the
        collective completes, no leases are outstanding."""
        world = make_vworld(2, use_shmem=False)
        procs = [world.proc(r) for r in range(2)]
        bufs = [np.arange(64, dtype="i4") + r for r in range(2)]
        reqs = [
            user_allreduce(p.comm_world, b, 64, repro.INT, repro.SUM)
            for p, b in zip(procs, bufs)
        ]
        drive(world, reqs)
        for p in procs:
            stats = p.p2p.pool.stats()
            assert stats["outstanding"] == 0

    def test_introspect_surfaces_cache_stats(self):
        world = make_vworld(2, use_shmem=False)
        procs = [world.proc(r) for r in range(2)]
        bufs = [np.array([r], dtype="i4") for r in range(2)]
        for _ in range(2):
            reqs = [
                user_allreduce(p.comm_world, b, 1, repro.INT, repro.SUM)
                for p, b in zip(procs, bufs)
            ]
            drive(world, reqs)
        snap = snapshot(procs[0])
        assert snap.schedule_cache is not None
        assert snap.schedule_cache["stat_plan_hits"] > 0
        assert snap.schedule_cache["stat_plan_builds"] >= 1
        assert "plan cache" in snap.format_report()

    def test_cache_disabled_via_config(self):
        world = make_vworld(2, use_shmem=False, schedule_cache_enabled=False)
        procs = [world.proc(r) for r in range(2)]
        for _ in range(2):
            bufs = [np.array([r], dtype="i4") for r in range(2)]
            reqs = [
                user_allreduce(p.comm_world, b, 1, repro.INT, repro.SUM)
                for p, b in zip(procs, bufs)
            ]
            drive(world, reqs)
        assert procs[0].plan_cache.stat_hits == 0
        assert procs[0].plan_cache.stat_builds == 2


class TestTagAllocation:
    def test_tags_unique_under_threads(self, proc):
        """The per-comm tag sequence is atomic: concurrent allocation
        never hands out duplicates."""
        import threading

        from repro.usercoll.allreduce import _user_coll_tag

        tags: list[int] = []
        lock = threading.Lock()

        def grab():
            got = [_user_coll_tag(proc.comm_world) for _ in range(200)]
            with lock:
                tags.extend(got)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(tags)) == len(tags)

    def test_tags_stay_below_tag_ub(self, proc):
        from repro.usercoll.allreduce import _user_coll_tag

        ub = proc.config.tag_ub
        for _ in range(100):
            tag = _user_coll_tag(proc.comm_world)
            assert 0 < tag <= ub


class TestUserCollEndToEnd:
    """Sanity: cached-plan path produces the same results on a virtual
    world driven by hand (the threaded suites cover run_world)."""

    def test_bcast_then_barrier_share_no_plans(self):
        world = make_vworld(3, use_shmem=False)
        procs = [world.proc(r) for r in range(3)]
        bufs = [np.zeros(4, dtype="f8") for _ in range(3)]
        bufs[0][:] = [1.5, 2.5, 3.5, 4.5]
        from repro.usercoll import user_ibcast

        reqs = [
            user_ibcast(p.comm_world, b, 4, repro.DOUBLE, 0)
            for p, b in zip(procs, bufs)
        ]
        drive(world, reqs)
        for b in bufs:
            assert list(b) == [1.5, 2.5, 3.5, 4.5]
        # bcast and barrier use disjoint cache keys
        from repro.usercoll import user_ibarrier

        reqs = [user_ibarrier(p.comm_world) for p in procs]
        drive(world, reqs)
        assert procs[0].plan_cache.entries == 2
