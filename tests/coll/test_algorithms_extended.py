"""Extended collectives: Rabenseifner allreduce, van de Geijn bcast,
reduce_scatter_block, scan/exscan, and the v-collectives."""

import numpy as np
import pytest

import repro
from tests.conftest import drive, make_vworld

SIZES = [1, 2, 3, 4, 5, 7, 8]


def run_collective(nranks, start_fn, **config):
    config.setdefault("use_shmem", False)
    world = make_vworld(nranks, **config)
    reqs = [start_fn(world.proc(r)) for r in range(nranks)]
    drive(world, reqs)
    return world


class TestRabenseifnerAllreduce:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("count", [1, 7, 64, 1000])
    def test_matches_sum(self, size, count):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(count, dtype="i8")
            outs[r] = out
            return proc.comm_world.iallreduce(
                np.arange(count, dtype="i8") + r,
                out,
                count,
                repro.INT64,
                repro.SUM,
            )

        run_collective(size, start, allreduce_algorithm="rabenseifner")
        expect = np.arange(count, dtype="i8") * size + sum(range(size))
        for r in range(size):
            assert np.array_equal(outs[r], expect), (r, size, count)

    def test_matches_recursive_doubling_bitwise(self):
        """Same inputs through both algorithms give identical bytes."""
        size, count = 6, 333
        results = {}
        for algo in ("recursive_doubling", "rabenseifner"):
            outs = {}

            def start(proc):
                r = proc.comm_world.rank
                rng = np.random.default_rng(r)
                out = np.zeros(count, dtype="i8")
                outs[r] = out
                return proc.comm_world.iallreduce(
                    rng.integers(-(2**30), 2**30, count).astype("i8"),
                    out,
                    count,
                    repro.INT64,
                    repro.SUM,
                )

            run_collective(size, start, allreduce_algorithm=algo)
            results[algo] = outs
        for r in range(size):
            assert np.array_equal(
                results["recursive_doubling"][r], results["rabenseifner"][r]
            )

    def test_auto_selection_by_size(self):
        """'auto' uses Rabenseifner only past the long-message threshold."""
        world = make_vworld(2, use_shmem=False, allreduce_long_threshold=1024)
        # Just exercises both paths end to end.
        for count in (8, 1024):
            outs = []
            reqs = []
            for r in range(2):
                out = np.zeros(count, dtype="i4")
                outs.append(out)
                reqs.append(
                    world.proc(r).comm_world.iallreduce(
                        np.full(count, r + 1, dtype="i4"), out, count, repro.INT
                    )
                )
            drive(world, reqs)
            assert all(np.all(o == 3) for o in outs)

    def test_rejects_non_commutative(self):
        from repro.coll.algorithms import plan_allreduce_rabenseifner

        op = repro.user_op(lambda s, d: d, commutative=False)
        with pytest.raises(ValueError):
            plan_allreduce_rabenseifner(0, 2, op, 4)

    def test_count_smaller_than_ranks(self):
        """Degenerate blocks (count < pof2) still reduce correctly."""
        size, count = 8, 3
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(count, dtype="i4")
            outs[r] = out
            return proc.comm_world.iallreduce(
                np.full(count, r, dtype="i4"), out, count, repro.INT
            )

        run_collective(size, start, allreduce_algorithm="rabenseifner")
        for r in range(size):
            assert np.all(outs[r] == sum(range(size)))


class TestVanDeGeijnBcast:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("count", [1, 10, 1000])
    def test_bcast(self, size, count):
        bufs = {}

        def start(proc):
            r = proc.comm_world.rank
            buf = (
                np.arange(count, dtype="f8")
                if r == 0
                else np.zeros(count, dtype="f8")
            )
            bufs[r] = buf
            return proc.comm_world.ibcast(buf, count, repro.DOUBLE, 0)

        run_collective(size, start, bcast_algorithm="scatter_allgather")
        for r in range(size):
            assert np.array_equal(bufs[r], np.arange(count, dtype="f8")), (r, size)

    def test_nonzero_root(self):
        size = 5
        bufs = {}

        def start(proc):
            r = proc.comm_world.rank
            buf = np.full(32, 7.5) if r == 3 else np.zeros(32)
            bufs[r] = buf
            return proc.comm_world.ibcast(buf, 32, repro.DOUBLE, 3)

        run_collective(size, start, bcast_algorithm="scatter_allgather")
        for r in range(size):
            assert np.all(bufs[r] == 7.5)

    def test_auto_switches_by_size(self):
        world = make_vworld(4, use_shmem=False, bcast_long_threshold=256)
        for count in (8, 512):
            bufs, reqs = [], []
            for r in range(4):
                buf = np.full(count, 3, dtype="i4") if r == 0 else np.zeros(count, "i4")
                bufs.append(buf)
                reqs.append(world.proc(r).comm_world.ibcast(buf, count, repro.INT, 0))
            drive(world, reqs)
            assert all(np.all(b == 3) for b in bufs)


class TestReduceScatterBlock:
    @pytest.mark.parametrize("size", SIZES)
    def test_sum(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            send = np.arange(size * 2, dtype="i4") + 100 * r
            out = np.zeros(2, dtype="i4")
            outs[r] = out
            return proc.comm_world.ireduce_scatter_block(
                send, out, 2, repro.INT, repro.SUM
            )

        run_collective(size, start)
        base = 100 * sum(range(size))
        for r in range(size):
            expect = [base + size * (2 * r), base + size * (2 * r + 1)]
            assert list(outs[r]) == expect, (r, outs[r], expect)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_non_commutative_falls_back(self, size):
        def matmul_kernel(s, d):
            # element-wise over 2x2 matrices: works for any multiple of 4
            a = s.reshape(-1, 2, 2).astype("i8")
            b = d.reshape(-1, 2, 2).astype("i8")
            d.reshape(-1, 2, 2)[:] = a @ b
            return d

        op = repro.user_op(matmul_kernel, name="MM", commutative=False)
        # one 2x2 matrix per destination block
        mats = {
            r: np.stack(
                [np.array([[1, r + dst + 1], [0, 1]], dtype="i8") for dst in range(size)]
            )
            for r in range(size)
        }
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(4, dtype="i8")
            outs[r] = out
            return proc.comm_world.ireduce_scatter_block(
                mats[r].reshape(-1), out, 4, repro.INT64, op
            )

        run_collective(size, start)
        for dst in range(size):
            expect = np.eye(2, dtype="i8")
            for r in range(size):
                expect = expect @ mats[r][dst]
            assert np.array_equal(outs[dst].reshape(2, 2), expect), dst


class TestScanExscan:
    @pytest.mark.parametrize("size", SIZES)
    def test_inclusive_scan(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(2, dtype="i4")
            outs[r] = out
            return proc.comm_world.iscan(
                np.array([r + 1, 1], dtype="i4"), out, 2, repro.INT
            )

        run_collective(size, start)
        for r in range(size):
            assert list(outs[r]) == [sum(range(1, r + 2)), r + 1]

    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_exclusive_scan(self, size):
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.full(1, -1, dtype="i4")
            outs[r] = out
            return proc.comm_world.iexscan(
                np.array([r + 1], dtype="i4"), out, 1, repro.INT
            )

        run_collective(size, start)
        assert outs[0][0] == -1  # rank 0 untouched, per MPI
        for r in range(1, size):
            assert outs[r][0] == sum(range(1, r + 1)), r

    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_scan_non_commutative(self, size):
        def matmul_kernel(s, d):
            a = s.reshape(2, 2).astype("i8")
            b = d.reshape(2, 2).astype("i8")
            d.reshape(2, 2)[:] = a @ b
            return d

        op = repro.user_op(matmul_kernel, name="MM", commutative=False)
        mats = {r: np.array([[1, r + 1], [0, 1]], dtype="i8") for r in range(size)}
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(4, dtype="i8")
            outs[r] = out
            return proc.comm_world.iscan(
                mats[r].reshape(4), out, 4, repro.INT64, op
            )

        run_collective(size, start)
        expect = np.eye(2, dtype="i8")
        for r in range(size):
            expect = expect @ mats[r]
            assert np.array_equal(outs[r].reshape(2, 2), expect), r


class TestVectorCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_allgatherv(self, size):
        counts = [r + 1 for r in range(size)]
        displs = [sum(counts[:r]) for r in range(size)]
        total = sum(counts)
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            out = np.zeros(total, dtype="i4")
            outs[r] = out
            mine = np.full(counts[r], r, dtype="i4")
            return proc.comm_world.iallgatherv(
                mine, counts[r], out, counts, displs, repro.INT
            )

        run_collective(size, start)
        expect = np.concatenate(
            [np.full(counts[r], r, dtype="i4") for r in range(size)]
        )
        for r in range(size):
            assert np.array_equal(outs[r], expect), r

    def test_gatherv_scatterv_roundtrip(self):
        size = 4
        counts = [3, 1, 4, 2]
        displs = [0, 3, 4, 8]
        world = make_vworld(size, use_shmem=False)
        gathered = np.zeros(10, dtype="i4")
        reqs = []
        for r in range(size):
            mine = np.full(counts[r], r + 10, dtype="i4")
            reqs.append(
                world.proc(r).comm_world.igatherv(
                    mine, counts[r], gathered if r == 0 else None, counts, displs,
                    repro.INT, 0,
                )
            )
        drive(world, reqs)
        expect = np.concatenate(
            [np.full(counts[r], r + 10, dtype="i4") for r in range(size)]
        )
        assert np.array_equal(gathered, expect)

        outs = [np.zeros(counts[r], dtype="i4") for r in range(size)]
        reqs = [
            world.proc(r).comm_world.iscatterv(
                gathered, counts, displs, outs[r], counts[r], repro.INT, 0
            )
            for r in range(size)
        ]
        drive(world, reqs)
        for r in range(size):
            assert np.all(outs[r] == r + 10)

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_alltoallv(self, size):
        # rank r sends (dst + 1) elements of value 100*r+dst to each dst
        sendcounts = {r: [d + 1 for d in range(size)] for r in range(size)}
        outs = {}

        def start(proc):
            r = proc.comm_world.rank
            scounts = sendcounts[r]
            sdispls = [sum(scounts[:d]) for d in range(size)]
            send = np.concatenate(
                [np.full(scounts[d], 100 * r + d, dtype="i4") for d in range(size)]
            )
            rcounts = [r + 1] * size  # everyone sends me r+1 elements
            rdispls = [sum(rcounts[:s]) for s in range(size)]
            out = np.zeros(sum(rcounts), dtype="i4")
            outs[r] = out
            return proc.comm_world.ialltoallv(
                send, scounts, sdispls, out, rcounts, rdispls, repro.INT
            )

        run_collective(size, start)
        for r in range(size):
            expect = np.concatenate(
                [np.full(r + 1, 100 * src + r, dtype="i4") for src in range(size)]
            )
            assert np.array_equal(outs[r], expect), r

    def test_allgatherv_in_place(self):
        size = 3
        counts = [2, 2, 2]
        displs = [0, 2, 4]
        world = make_vworld(size, use_shmem=False)
        outs, reqs = [], []
        for r in range(size):
            out = np.zeros(6, dtype="i4")
            out[displs[r] : displs[r] + 2] = r + 1
            outs.append(out)
            reqs.append(
                world.proc(r).comm_world.iallgatherv(
                    repro.IN_PLACE, 2, out, counts, displs, repro.INT
                )
            )
        drive(world, reqs)
        expect = np.array([1, 1, 2, 2, 3, 3], dtype="i4")
        for out in outs:
            assert np.array_equal(out, expect)
