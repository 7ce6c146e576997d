"""Collective algorithms: correctness across communicator sizes.

Runs every collective on deterministic virtual-clock worlds, driven
single-threaded — sizes cover 1, 2, powers of two, and awkward odd
sizes (remainder-folding paths in allreduce).
"""

import numpy as np
import pytest

import repro
from tests.conftest import drive, make_vworld

SIZES = [1, 2, 3, 4, 5, 7, 8]


def run_collective(nranks, start_fn, **config):
    """Start `start_fn(proc) -> request` on every rank, drive to done."""
    config.setdefault("use_shmem", False)
    world = make_vworld(nranks, **config)
    reqs = [start_fn(world.proc(r)) for r in range(nranks)]
    drive(world, reqs)
    return world


class TestAllreduce:
    @pytest.mark.parametrize("size", SIZES)
    def test_sum(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(3, dtype="i4")
            outs[r] = out
            return proc.comm_world.iallreduce(
                np.array([r, 2 * r, 1], dtype="i4"), out, 3, repro.INT
            )

        run_collective(size, start)
        total = sum(range(size))
        for r in range(size):
            assert list(outs[r]) == [total, 2 * total, size]

    @pytest.mark.parametrize("size", [2, 5, 8])
    def test_min_max(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(2, dtype="f8")
            outs[r] = out
            return proc.comm_world.iallreduce(
                np.array([r, -r], dtype="f8"), out, 2, repro.DOUBLE, repro.MAX
            )

        run_collective(size, start)
        for r in range(size):
            assert list(outs[r]) == [size - 1, 0]

    @pytest.mark.parametrize("size", [3, 4, 6])
    def test_in_place(self, size):
        bufs = {}

        def start(proc):
            r = proc.comm_world.rank
            buf = np.array([r + 1], dtype="i4")
            bufs[r] = buf
            return proc.comm_world.iallreduce(repro.IN_PLACE, buf, 1, repro.INT)

        run_collective(size, start)
        for r in range(size):
            assert bufs[r][0] == size * (size + 1) // 2

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_non_commutative_op_rank_ordered(self, size):
        """2x2 matrix multiplication: associative, NOT commutative.
        The allreduce must produce M_0 @ M_1 @ ... @ M_{p-1}."""

        def matmul_kernel(s, d):
            a = s.reshape(2, 2).astype("i8")
            b = d.reshape(2, 2).astype("i8")
            d.reshape(2, 2)[:] = a @ b
            return d

        op = repro.user_op(matmul_kernel, name="MATMUL", commutative=False)
        mats = {
            r: np.array([[1, r + 1], [0, 1]], dtype="i8") for r in range(size)
        }
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(4, dtype="i8")
            outs[r] = out
            return proc.comm_world.iallreduce(
                mats[r].reshape(4), out, 4, repro.INT64, op
            )

        run_collective(size, start)
        expect = np.eye(2, dtype="i8")
        for r in range(size):
            expect = expect @ mats[r]
        for r in range(size):
            assert np.array_equal(outs[r].reshape(2, 2), expect), r


class TestBcast:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("root", [0, "last"])
    def test_bcast(self, size, root):
        root = size - 1 if root == "last" else 0
        bufs = {}

        def start(proc):
            r = proc.comm_world.rank
            buf = (
                np.arange(5, dtype="f8") + 1
                if r == root
                else np.zeros(5, dtype="f8")
            )
            bufs[r] = buf
            return proc.comm_world.ibcast(buf, 5, repro.DOUBLE, root)

        run_collective(size, start)
        for r in range(size):
            assert np.array_equal(bufs[r], np.arange(5, dtype="f8") + 1)


class TestBarrier:
    @pytest.mark.parametrize("size", SIZES)
    def test_barrier_completes(self, size):
        def start(proc):
            return proc.comm_world.ibarrier()

        run_collective(size, start)

    def test_barrier_is_a_synchronization(self):
        """No rank may exit the barrier before every rank entered:
        stagger entry and verify no early completion."""
        world = make_vworld(3, use_shmem=False)
        r0 = world.proc(0).comm_world.ibarrier()
        r1 = world.proc(1).comm_world.ibarrier()
        # rank 2 has not entered yet; drive the others
        for _ in range(2000):
            world.proc(0).stream_progress()
            world.proc(1).stream_progress()
            world.proc(2).stream_progress()
            if not world.clock.idle_advance():
                break
        assert not r0.is_complete() and not r1.is_complete()
        r2 = world.proc(2).comm_world.ibarrier()
        drive(world, [r0, r1, r2])


class TestReduce:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("root", [0, "mid"])
    def test_sum_to_root(self, size, root):
        root = (size - 1) // 2 if root == "mid" else 0
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(2, dtype="i4")
            outs[r] = out
            return proc.comm_world.ireduce(
                np.array([r, 1], dtype="i4"), out, 2, repro.INT, repro.SUM, root
            )

        run_collective(size, start)
        assert list(outs[root]) == [sum(range(size)), size]

    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_non_commutative_reduce(self, size):
        def matmul_kernel(s, d):
            a = s.reshape(2, 2).astype("i8")
            b = d.reshape(2, 2).astype("i8")
            d.reshape(2, 2)[:] = a @ b
            return d

        op = repro.user_op(matmul_kernel, name="MATMUL", commutative=False)
        mats = {r: np.array([[1, 2 * r + 1], [0, 1]], dtype="i8") for r in range(size)}
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(4, dtype="i8")
            outs[r] = out
            return proc.comm_world.ireduce(
                mats[r].reshape(4), out, 4, repro.INT64, op, 0
            )

        run_collective(size, start)
        expect = np.eye(2, dtype="i8")
        for r in range(size):
            expect = expect @ mats[r]
        assert np.array_equal(outs[0].reshape(2, 2), expect)


class TestAllgather:
    @pytest.mark.parametrize("size", SIZES)
    def test_ring(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(2 * size, dtype="i4")
            outs[r] = out
            return proc.comm_world.iallgather(
                np.array([r, r * r], dtype="i4"), out, 2, repro.INT
            )

        run_collective(size, start)
        expect = np.array([[r, r * r] for r in range(size)], dtype="i4").reshape(-1)
        for r in range(size):
            assert np.array_equal(outs[r], expect)

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_recursive_doubling_matches_ring(self, size):
        from repro.coll.algorithms import plan_allgather_recursive_doubling

        world = make_vworld(size, use_shmem=False)
        outs = {}
        reqs = []
        for r in range(size):
            out = np.zeros(size, dtype="i4")
            out[r] = r + 10
            outs[r] = out
            plan = plan_allgather_recursive_doubling(r, size)
            reqs.append(world.proc(r).comm_world.start_plan(plan, out, 1, repro.INT))
        drive(world, reqs)
        expect = np.arange(size, dtype="i4") + 10
        for r in range(size):
            assert np.array_equal(outs[r], expect)

    def test_recursive_doubling_rejects_non_pof2(self):
        from repro.coll.algorithms import plan_allgather_recursive_doubling

        with pytest.raises(ValueError):
            plan_allgather_recursive_doubling(0, 3)


class TestAlltoall:
    @pytest.mark.parametrize("size", SIZES)
    def test_alltoall(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            send = np.array([100 * r + c for c in range(size)], dtype="i4")
            out = np.zeros(size, dtype="i4")
            outs[r] = out
            return proc.comm_world.ialltoall(send, out, 1, repro.INT)

        run_collective(size, start)
        for r in range(size):
            assert np.array_equal(
                outs[r], np.array([100 * c + r for c in range(size)], dtype="i4")
            )


class TestGatherScatter:
    @pytest.mark.parametrize("size", SIZES)
    def test_gather(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(size, dtype="i4") if r == 0 else np.zeros(size, dtype="i4")
            outs[r] = out
            return proc.comm_world.igather(
                np.array([r * 3], dtype="i4"), out, 1, repro.INT, 0
            )

        run_collective(size, start)
        assert np.array_equal(outs[0], np.arange(size, dtype="i4") * 3)

    @pytest.mark.parametrize("size", SIZES)
    def test_scatter(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            send = np.arange(size, dtype="i4") * 7
            out = np.zeros(1, dtype="i4")
            outs[r] = out
            return proc.comm_world.iscatter(send, out, 1, repro.INT, 0)

        run_collective(size, start)
        for r in range(size):
            assert outs[r][0] == 7 * r

    def test_gather_scatter_roundtrip(self):
        size = 4
        world = make_vworld(size, use_shmem=False)
        gathered = np.zeros(size, dtype="i4")
        reqs = []
        for r in range(size):
            proc = world.proc(r)
            reqs.append(
                proc.comm_world.igather(
                    np.array([r + 1], dtype="i4"),
                    gathered if r == 0 else np.zeros(size, "i4"),
                    1,
                    repro.INT,
                    0,
                )
            )
        drive(world, reqs)
        outs = [np.zeros(1, dtype="i4") for _ in range(size)]
        reqs = [
            world.proc(r).comm_world.iscatter(gathered, outs[r], 1, repro.INT, 0)
            for r in range(size)
        ]
        drive(world, reqs)
        assert [int(o[0]) for o in outs] == [1, 2, 3, 4]


class TestLargePayloadCollectives:
    def test_allreduce_rendezvous_sized(self):
        """Collective payloads large enough to use rendezvous p2p."""
        size, count = 4, 5000  # 20 KB > eager threshold
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(count, dtype="i4")
            outs[r] = out
            return proc.comm_world.iallreduce(
                np.full(count, r + 1, dtype="i4"), out, count, repro.INT
            )

        run_collective(size, start)
        for r in range(size):
            assert np.all(outs[r] == 10)
