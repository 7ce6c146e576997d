"""Thread-per-rank stress: mixed traffic, repeated collectives,
multi-stream concurrency, shmem+netmod topologies."""

import numpy as np
import pytest

import repro
from repro.runtime import run_world


class TestRepeatedCollectives:
    @pytest.mark.parametrize("size", [2, 5])
    def test_back_to_back_allreduce(self, size):
        def main(proc):
            comm = proc.comm_world
            acc = 0
            for i in range(10):
                out = np.zeros(1, dtype="i4")
                comm.allreduce(np.array([comm.rank + i], dtype="i4"), out, 1, repro.INT)
                acc += int(out[0])
            return acc

        base = sum(range(size))
        expect = sum(base + size * i for i in range(10))
        assert run_world(size, main, timeout=120) == [expect] * size

    def test_mixed_collective_kinds(self):
        def main(proc):
            comm = proc.comm_world
            p, r = comm.size, comm.rank
            for _ in range(3):
                comm.barrier()
                buf = np.zeros(4, dtype="i4")
                if r == 0:
                    buf[:] = [1, 2, 3, 4]
                comm.bcast(buf, 4, repro.INT, 0)
                assert list(buf) == [1, 2, 3, 4]
                ag = np.zeros(p, dtype="i4")
                comm.allgather(np.array([r], dtype="i4"), ag, 1, repro.INT)
                assert list(ag) == list(range(p))
            return "ok"

        assert run_world(4, main, timeout=120) == ["ok"] * 4


class TestPointToPointStress:
    def test_all_pairs_exchange(self):
        """Every rank sends a distinct message to every other rank."""

        def main(proc):
            comm = proc.comm_world
            p, r = comm.size, comm.rank
            recv_bufs = {src: np.zeros(2, dtype="i4") for src in range(p) if src != r}
            rreqs = [
                comm.irecv(recv_bufs[src], 2, repro.INT, src, 1) for src in recv_bufs
            ]
            sreqs = [
                comm.isend(np.array([r, dst], dtype="i4"), 2, repro.INT, dst, 1)
                for dst in range(p)
                if dst != r
            ]
            proc.waitall(rreqs + sreqs)
            for src, buf in recv_bufs.items():
                assert buf[0] == src and buf[1] == r
            return "ok"

        assert run_world(5, main, timeout=120) == ["ok"] * 5

    def test_hybrid_topology_all_sizes(self):
        """2 nodes x 2 ranks: shmem on-node, netmod across, every mode."""
        cfg = repro.RuntimeConfig(ranks_per_node=2)

        def main(proc):
            comm = proc.comm_world
            r = comm.rank
            peer = r ^ 1 if r < 2 else r ^ 1  # on-node partner
            far = (r + 2) % 4  # off-node partner
            for n in (16, 2048, 50_000):
                data = (np.arange(n) % 127).astype("u1")
                out1 = np.zeros(n, dtype="u1")
                out2 = np.zeros(n, dtype="u1")
                reqs = [
                    comm.irecv(out1, n, repro.BYTE, peer, 2),
                    comm.irecv(out2, n, repro.BYTE, far, 3),
                    comm.isend(data, n, repro.BYTE, peer, 2),
                    comm.isend(data, n, repro.BYTE, far, 3),
                ]
                proc.waitall(reqs)
                assert np.array_equal(out1, data)
                assert np.array_equal(out2, data)
            return "ok"

        assert run_world(4, main, config=cfg, timeout=120) == ["ok"] * 4


class TestMultiStreamThreads:
    def test_listing_1_5_shape(self):
        """Listing 1.5: per-thread streams, each driving its own tasks."""
        import threading

        proc = repro.init()
        NUM_TASKS, NUM_THREADS = 10, 4
        results = [0] * NUM_THREADS

        def thread_fn(tid, stream):
            counter = [NUM_TASKS]

            def dummy_poll(thing):
                if proc.wtime() >= thing.get_state():
                    counter[0] -= 1
                    return repro.ASYNC_DONE
                return repro.ASYNC_NOPROGRESS

            for _ in range(NUM_TASKS):
                proc.async_start(dummy_poll, proc.wtime() + 0.0005, stream)
            while counter[0] > 0:
                proc.stream_progress(stream)
            results[tid] = NUM_TASKS - counter[0]

        streams = [proc.stream_create() for _ in range(NUM_THREADS)]
        threads = [
            threading.Thread(target=thread_fn, args=(i, streams[i]))
            for i in range(NUM_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert results == [NUM_TASKS] * NUM_THREADS
        for s in streams:
            proc.stream_free(s)
        proc.finalize()

    def test_threads_sharing_one_stream_conserve_every_op(self):
        """More threads than cores post to and poll ONE stream's endpoint
        under a shortened switch interval.  The endpoint takes no lock
        of its own — the stream lock is all that keeps one thread's
        post off another's poll — so a lost heap entry or counter
        update shows up as a hang, a wrong payload or pending != 0."""
        import sys
        import threading

        # use_shmem=False: self-sends ride the netmod endpoint.
        proc = repro.init(config=repro.RuntimeConfig(use_shmem=False))
        NUM_THREADS, ROUNDS = 4, 500
        done = [0] * NUM_THREADS

        def thread_fn(tid):
            comm = proc.comm_world
            for i in range(ROUNDS):
                out = np.zeros(1, dtype="i4")
                rreq = comm.irecv(out, 1, repro.INT, 0, tid)
                sreq = comm.isend(np.array([tid * ROUNDS + i], dtype="i4"), 1, repro.INT, 0, tid)
                proc.wait(rreq)
                proc.wait(sreq)
                if out[0] != tid * ROUNDS + i:
                    return
                done[tid] += 1

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=thread_fn, args=(t,)) for t in range(NUM_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert done == [ROUNDS] * NUM_THREADS
        ep = proc.world.fabric.endpoint(0, 0)
        assert ep.stat_posted == NUM_THREADS * ROUNDS
        assert ep.stat_delivered == ep.stat_harvested == NUM_THREADS * ROUNDS
        assert ep.pending == 0 and ep.arrivals_pending == 0
        proc.finalize()

    def test_concurrent_stream_comm_traffic(self):
        """Two streams per rank carrying independent traffic concurrently."""

        def main(proc):
            comm = proc.comm_world
            s1, s2 = proc.stream_create(), proc.stream_create()
            c1, c2 = comm.stream_comm(s1), comm.stream_comm(s2)
            peer = comm.rank ^ 1
            out1 = np.zeros(1, dtype="i4")
            out2 = np.zeros(1, dtype="i4")
            reqs = [
                c1.irecv(out1, 1, repro.INT, peer, 0),
                c2.irecv(out2, 1, repro.INT, peer, 0),
                c1.isend(np.array([100 + comm.rank], dtype="i4"), 1, repro.INT, peer, 0),
                c2.isend(np.array([200 + comm.rank], dtype="i4"), 1, repro.INT, peer, 0),
            ]
            # drive both streams until everything lands
            while not all(r.is_complete() for r in reqs):
                proc.stream_progress(s1)
                proc.stream_progress(s2)
            assert out1[0] == 100 + peer
            assert out2[0] == 200 + peer
            comm.barrier()
            return "ok"

        assert run_world(2, main, timeout=60) == ["ok", "ok"]
