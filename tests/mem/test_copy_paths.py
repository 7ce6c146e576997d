"""Copy-path accounting: at most one staging copy per message.

``P2PEngine.stat_copy_bytes`` counts every library-side payload copy
(the final unpack into the user's receive buffer excluded).  With the
pool on, the copies-per-message contract is:

=============  =======================  ================
path           pool on                  pool off
=============  =======================  ================
eager netmod   1 (pooled snapshot)      >= 1
eager shmem    1 (pooled snapshot)      >= 1
rendezvous     0 (zero-copy + rdone)    >= 1
pipeline       0 (zero-copy + rdone)    >= 2 (slices)
large shmem    0 (descriptor + rdone)   1 (the snapshot)
=============  =======================  ================
"""

import numpy as np

import repro
from tests.conftest import drive, make_vworld

_THRESHOLDS = dict(
    buffered_threshold=64,
    eager_threshold=1024,
    rendezvous_threshold=8192,
    pipeline_chunk_size=2048,
)


def _run(nbytes, *, pool_on, use_shmem=False, nodes_share=True):
    cfg = dict(_THRESHOLDS, use_shmem=use_shmem, buffer_pool_enabled=pool_on)
    if use_shmem:
        cfg["ranks_per_node"] = 2 if nodes_share else 1
    world = make_vworld(2, **cfg)
    p0, p1 = world.proc(0), world.proc(1)
    data = np.arange(nbytes, dtype="u1")
    out = np.zeros(nbytes, dtype="u1")
    rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
    sreq = p0.comm_world.isend(data, nbytes, repro.BYTE, 1, 0)
    drive(world, [sreq, rreq])
    assert np.array_equal(out, data)
    copied = p0.p2p.copy_bytes(0) + p1.p2p.copy_bytes(0)
    # The pool must be quiescent once the message completed.
    for proc in (p0, p1):
        assert proc.p2p.pool.outstanding == 0
    world.finalize()
    return copied


class TestCopiesPerMessagePoolOn:
    def test_eager_netmod_exactly_one_copy(self):
        assert _run(512, pool_on=True) == 512

    def test_eager_shmem_exactly_one_copy(self):
        copied = _run(512, pool_on=True, use_shmem=True)
        assert copied == 512

    def test_rendezvous_zero_copy(self):
        assert _run(4096, pool_on=True) == 0

    def test_pipeline_zero_copy(self):
        assert _run(3 * 8192, pool_on=True) == 0

    def test_sub_class_eager_still_one_copy(self):
        # Below MIN_CLASS_BYTES the snapshot is plain bytes, still 1x.
        assert _run(128, pool_on=True) == 128


class TestCopiesPerMessagePoolOff:
    def test_eager_copies_at_least_once(self):
        assert _run(512, pool_on=False) >= 512

    def test_rendezvous_copies(self):
        assert _run(4096, pool_on=False) >= 4096

    def test_pipeline_copies_more_than_once(self):
        n = 3 * 8192
        assert _run(n, pool_on=False) >= 2 * n


class TestShmemTransportCopies:
    def test_pool_on_large_shmem_message_avoids_join(self):
        """A large on-node message is a descriptor: the user view
        rides one cell, so there is nothing to slice or join."""
        cfg = dict(
            _THRESHOLDS, use_shmem=True, ranks_per_node=2, buffer_pool_enabled=True
        )
        world = make_vworld(2, **cfg)
        p0, p1 = world.proc(0), world.proc(1)
        n = 4096  # above eager: one descriptor cell + the rdone
        data = np.arange(n, dtype="u1")
        out = np.zeros(n, dtype="u1")
        rreq = p1.comm_world.irecv(out, n, repro.BYTE, 0, 0)
        sreq = p0.comm_world.isend(data, n, repro.BYTE, 1, 0)
        drive(world, [sreq, rreq])
        assert np.array_equal(out, data)
        assert world.shmem.stat_copy_bytes == 0
        assert world.shmem.stat_cells_pushed == 2
        world.finalize()

    def test_large_shmem_copies_per_message(self):
        """Pool on: zero staging copies.  Pool off: exactly the one
        snapshot isend takes — no per-cell slices, no join."""
        for n in (4096, 3 * 8192):
            assert _run(n, pool_on=True, use_shmem=True) == 0
            assert _run(n, pool_on=False, use_shmem=True) == n


class TestIntrospection:
    def test_snapshot_reports_pool_and_copy_bytes(self):
        from repro.core.introspect import snapshot

        world = make_vworld(2, **_THRESHOLDS, use_shmem=False)
        p0, p1 = world.proc(0), world.proc(1)
        data = np.arange(512, dtype="u1")
        out = np.zeros(512, dtype="u1")
        rreq = p1.comm_world.irecv(out, 512, repro.BYTE, 0, 0)
        sreq = p0.comm_world.isend(data, 512, repro.BYTE, 1, 0)
        drive(world, [sreq, rreq])
        snap = snapshot(p0)
        assert snap.mem_pool is not None
        assert snap.mem_pool["enabled"] is True
        assert snap.mem_pool["copy_bytes_total"] == 512
        assert snap.endpoints[0]["copy_bytes"] == 512
        assert "buffer pool" in snap.format_report()
        # no shmem transport in this world: its counters read zero
        assert snap.mem_pool["shmem_cells_pushed"] == 0
        assert snap.mem_pool["shmem_descriptors"] == 0
        world.finalize()

    def test_snapshot_reports_shmem_cells_and_descriptors(self):
        from repro.core.introspect import snapshot

        world = make_vworld(2, **_THRESHOLDS, ranks_per_node=2)
        p0, p1 = world.proc(0), world.proc(1)
        for nbytes, cells, descriptors in ((512, 1, 0), (100_000, 3, 1)):
            out = np.zeros(nbytes, dtype="u1")
            rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
            sreq = p0.comm_world.isend(out.copy(), nbytes, repro.BYTE, 1, 0)
            drive(world, [sreq, rreq])
            mem = snapshot(p0).mem_pool
            assert mem["shmem_cells_pushed"] == cells  # eager 1, then +2
            assert mem["shmem_descriptors"] == descriptors
            assert mem["shmem_copy_bytes"] == 0
        assert "descriptors=1" in snapshot(p1).format_report()
        world.finalize()


class TestEagerPoolFloor:
    """Snapshot staging pools only from ``POOL_STAGE_MIN`` up — below
    that the lease protocol's fixed cost beats a small ``bytes()``."""

    def test_small_eager_skips_the_pool(self):
        cfg = dict(_THRESHOLDS, use_shmem=False, buffer_pool_enabled=True)
        world = make_vworld(2, **cfg)
        p0, p1 = world.proc(0), world.proc(1)
        data = np.arange(512, dtype="u1")
        out = np.zeros(512, dtype="u1")
        rreq = p1.comm_world.irecv(out, 512, repro.BYTE, 0, 0)
        sreq = p0.comm_world.isend(data, 512, repro.BYTE, 1, 0)
        drive(world, [sreq, rreq])
        assert p0.p2p.pool.stats()["misses"] == 0  # never acquired
        world.finalize()

    def test_large_eager_pools_and_recycles(self):
        cfg = dict(
            _THRESHOLDS,
            eager_threshold=8192,
            use_shmem=False,
            buffer_pool_enabled=True,
        )
        world = make_vworld(2, **cfg)
        p0, p1 = world.proc(0), world.proc(1)
        for _ in range(2):
            data = np.arange(4096, dtype="u1")
            out = np.zeros(4096, dtype="u1")
            rreq = p1.comm_world.irecv(out, 4096, repro.BYTE, 0, 0)
            sreq = p0.comm_world.isend(data, 4096, repro.BYTE, 1, 0)
            drive(world, [sreq, rreq])
            assert np.array_equal(out, data)
        stats = p0.p2p.pool.stats()
        assert stats["misses"] == 1  # first send allocated the slab
        assert stats["hits"] == 1  # second send reused it
        assert stats["outstanding"] == 0
        world.finalize()
