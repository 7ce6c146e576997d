"""Property: the on-node route delivers ANY message shape correctly, and
every message above eager costs exactly two cells.

One message = size (straddling the buffered / eager / rendezvous /
pipeline thresholds, which on-node collapse to eager-class vs
descriptor) x layout (contiguous BYTE or a strided vector) x how the
receive meets it (posted, unexpected, wildcard, improbe + mrecv) x how
much it asks for (exact, truncating, zero-count) x Ssend x pool on/off.
Checked per message: delivered bytes (and ONLY those bytes), status,
the sender completing, and the transport's exact cell accounting — an
eager-class message is 1 cell, a descriptor message is 2 (descriptor +
rdone) whatever its size.  Leases balance once traffic quiesces.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.p2p.protocol import ERR_TRUNCATE
from tests.conftest import drive, make_vworld

EAGER = 1024
#: element: 4 data bytes spread over an extent of 7
STRIDED = repro.vector(4, 1, 2, repro.BYTE).commit()
FILL = 0xEE

message = st.tuples(
    st.sampled_from([0, 1, 63, 64, 65, 1023, 1024, 1025, 4096, 8192, 8193, 40_000]),
    st.booleans(),  # strided layout
    st.sampled_from(["posted", "unexpected", "any_source", "mprobe"]),
    st.sampled_from(["exact", "truncating", "zero"]),
    st.booleans(),  # Ssend
)


def _layout(strided, nbytes):
    """(datatype, element count, buffer bytes, data-byte index) for a
    message of about ``nbytes`` payload bytes."""
    if not strided:
        return repro.BYTE, nbytes, nbytes, np.arange(nbytes)
    count = nbytes // STRIDED.size
    idx = (np.arange(count)[:, None] * STRIDED.extent + np.arange(0, 7, 2)).ravel()
    return STRIDED, count, count * STRIDED.extent, idx


@given(st.lists(message, min_size=1, max_size=4), st.booleans())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_onnode_messages_deliver_and_cost_two_cells_when_large(specs, pool_on):
    world = make_vworld(
        2,
        ranks_per_node=2,
        buffered_threshold=64,
        eager_threshold=EAGER,
        rendezvous_threshold=8192,
        pipeline_chunk_size=2048,
        buffer_pool_enabled=pool_on,
    )
    p0, p1 = world.proc(0), world.proc(1)
    c0, c1 = p0.comm_world, p1.comm_world
    shmem = world.shmem

    def settle():
        for _ in range(10):
            world.clock.idle_advance()
            p1.stream_progress()
            p0.stream_progress()

    for tag, (size, strided, how, ask, sync) in enumerate(specs):
        dtype, count, buf_bytes, idx = _layout(strided, size)
        nbytes = count * dtype.size
        rcount = {"exact": count, "truncating": count // 2, "zero": 0}[ask]
        src = np.random.default_rng(tag).integers(0, 250, buf_bytes, dtype=np.uint8)
        out = np.full(buf_bytes, FILL, dtype=np.uint8)
        cells, descs = shmem.stat_cells_pushed, shmem.stat_descriptors

        def send():
            return c0.isend(src, count, dtype, 1, tag, sync=sync)

        if how == "posted":
            rreq = c1.irecv(out, rcount, dtype, 0, tag)
            sreq = send()
        elif how == "any_source":
            rreq = c1.irecv(out, rcount, dtype, repro.ANY_SOURCE, repro.ANY_TAG)
            sreq = send()
        else:
            sreq = send()
            settle()
            if how == "unexpected":
                rreq = c1.irecv(out, rcount, dtype, 0, tag)
            else:
                msg, status = c1.improbe(0, tag)
                assert status.count_bytes == nbytes
                rreq = c1.imrecv(out, rcount, dtype, msg)
        drive(world, [sreq, rreq])
        settle()

        got = min(nbytes, rcount * dtype.size)
        st_ = rreq.status
        assert (st_.source, st_.tag, st_.count_bytes) == (0, tag, got)
        assert st_.error == (ERR_TRUNCATE if nbytes > got else 0)
        expect = np.full(buf_bytes, FILL, dtype=np.uint8)
        expect[idx[:got]] = src[idx[:got]]
        assert np.array_equal(out, expect)
        assert sreq.status.error == 0

        large = sync or nbytes > EAGER
        assert shmem.stat_descriptors - descs == large
        assert shmem.stat_cells_pushed - cells == (2 if large else 1)

    for proc in (p0, p1):
        assert proc.p2p.pool.outstanding == 0
    assert world.fabric.conservation_counts()["posted"] == 0  # all on-node
    world.finalize()
