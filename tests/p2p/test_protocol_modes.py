"""The Fig. 1 anatomy, measured: wait-block counts per message mode.

Thresholds in these tests: buffered <= 64 < eager <= 1024 <
rendezvous <= 8192 < pipeline (chunk 2048).

The first classes pin the NIC route (``use_shmem=False``);
``TestAnatomyByRoute`` runs the same anatomy over both routes, and
``TestOnNodePackets`` pins what may cross shmem at all: on-node,
everything above eager is ONE protocol (a descriptor-carrying RTS and
the receiver's rdone), so the sender has one wait block at any size.
"""

import numpy as np
import pytest

from repro.p2p.protocol import SendMode
from tests.conftest import drive, make_vworld


def small_world(**kw):
    defaults = dict(
        buffered_threshold=64,
        eager_threshold=1024,
        rendezvous_threshold=8192,
        pipeline_chunk_size=2048,
        use_shmem=False,
    )
    defaults.update(kw)
    return make_vworld(2, **defaults)


def routed_world(route, **kw):
    """`small_world` over the NIC ("netmod") or on-node ("shmem") route."""
    if route == "shmem":
        kw.update(use_shmem=True, ranks_per_node=2)
    return small_world(**kw)


def send_recv(world, nbytes, *, post_recv_first=True, sync=False):
    """One message of `nbytes` from rank 0 to rank 1; returns requests."""
    p0, p1 = world.proc(0), world.proc(1)
    data = np.arange(nbytes, dtype="u1")
    out = np.zeros(nbytes, dtype="u1")
    import repro

    if post_recv_first:
        rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
        sreq = p0.comm_world.isend(data, nbytes, repro.BYTE, 1, 0, sync=sync)
    else:
        sreq = p0.comm_world.isend(data, nbytes, repro.BYTE, 1, 0, sync=sync)
        # let the message arrive unexpectedly before posting the recv
        for _ in range(10):
            world.clock.idle_advance()
            p1.stream_progress()
            p0.stream_progress()
        rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
    drive(world, [sreq, rreq])
    assert np.array_equal(out, data)
    return sreq, rreq


class TestModeSelection:
    @pytest.mark.parametrize(
        "nbytes,mode",
        [
            (0, SendMode.BUFFERED),
            (64, SendMode.BUFFERED),
            (65, SendMode.EAGER),
            (1024, SendMode.EAGER),
            (1025, SendMode.RENDEZVOUS),
            (8192, SendMode.RENDEZVOUS),
            (8193, SendMode.PIPELINE),
        ],
    )
    def test_thresholds(self, nbytes, mode):
        world = small_world()
        engine = world.proc(0).p2p
        assert engine._select_mode(nbytes) == mode


class TestWaitBlockAnatomy:
    """Fig. 1: buffered=0, eager=1, rendezvous=2, pipeline>2."""

    def test_buffered_send_zero_wait_blocks(self):
        world = small_world()
        sreq, _ = send_recv(world, 32)
        assert sreq.wait_blocks == 0

    def test_buffered_send_completes_at_post(self):
        world = small_world()
        import repro

        data = np.zeros(16, dtype="u1")
        sreq = world.proc(0).comm_world.isend(data, 16, repro.BYTE, 1, 0)
        assert sreq.is_complete()  # lightweight send: done immediately

    def test_eager_send_one_wait_block(self):
        world = small_world()
        sreq, _ = send_recv(world, 512)
        assert sreq.wait_blocks == 1

    def test_eager_send_not_complete_at_post(self):
        world = small_world()
        import repro

        data = np.zeros(512, dtype="u1")
        sreq = world.proc(0).comm_world.isend(data, 512, repro.BYTE, 1, 0)
        assert not sreq.is_complete()

    def test_rendezvous_send_two_wait_blocks(self):
        world = small_world()
        sreq, _ = send_recv(world, 4096)
        assert sreq.wait_blocks == 2

    def test_pipeline_send_many_wait_blocks(self):
        world = small_world()
        sreq, _ = send_recv(world, 10_000)  # 5 chunks of 2048
        assert sreq.wait_blocks > 2

    def test_recv_one_wait_block_when_posted_first(self):
        world = small_world()
        _, rreq = send_recv(world, 512, post_recv_first=True)
        assert rreq.wait_blocks == 1

    def test_recv_completes_immediately_when_unexpected_eager(self):
        world = small_world()
        _, rreq = send_recv(world, 512, post_recv_first=False)
        assert rreq.wait_blocks == 0  # data already buffered on arrival

    def test_rendezvous_recv_two_wait_blocks_posted_first(self):
        world = small_world()
        _, rreq = send_recv(world, 4096, post_recv_first=True)
        assert rreq.wait_blocks == 2  # arrival (RTS) + data

    def test_rendezvous_recv_one_wait_block_when_rts_unexpected(self):
        world = small_world()
        _, rreq = send_recv(world, 4096, post_recv_first=False)
        assert rreq.wait_blocks == 1  # only the data wait remains


class TestSynchronousSend:
    def test_ssend_forces_rendezvous(self):
        world = small_world()
        sreq, _ = send_recv(world, 32, sync=True)
        assert sreq.wait_blocks == 2  # tiny message, still handshakes

    def test_ssend_does_not_complete_without_receiver(self):
        world = small_world()
        import repro

        p0 = world.proc(0)
        data = np.zeros(8, dtype="u1")
        sreq = p0.comm_world.isend(data, 8, repro.BYTE, 1, 0, sync=True)
        for _ in range(50):
            world.clock.idle_advance()
            p0.stream_progress()
            world.proc(1).stream_progress()
        assert not sreq.is_complete()  # no matching recv => no CTS


class TestPipelineIntegrity:
    @pytest.mark.parametrize("nbytes", [8193, 10_000, 65_536, 100_001])
    def test_payload_integrity_across_chunking(self, nbytes):
        world = small_world()
        send_recv(world, nbytes)  # asserts equality internally

    def test_inflight_window_respected(self):
        """No more than pipeline_max_inflight chunks posted at once."""
        world = small_world(pipeline_max_inflight=2)
        import repro

        p0, p1 = world.proc(0), world.proc(1)
        nbytes = 20_000  # 10 chunks of 2048
        data = np.zeros(nbytes, dtype="u1")
        out = np.zeros(nbytes, dtype="u1")
        rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
        sreq = p0.comm_world.isend(data, nbytes, repro.BYTE, 1, 0)
        max_seen = 0
        state = p0.p2p.vci_state(0)
        while not (sreq.is_complete() and rreq.is_complete()):
            entry = state.sends.get(list(state.sends)[0]) if state.sends else None
            if entry is not None and entry.mode is SendMode.PIPELINE:
                max_seen = max(max_seen, entry.inflight_chunks)
            made = p0.stream_progress() | p1.stream_progress()
            if not made:
                world.clock.idle_advance()
        assert max_seen <= 2


#: sender wait blocks by payload size.  NIC route: Fig. 1 (pipeline
#: sizes are "> 2", checked separately).  On-node: buffered 0, eager
#: 1, and ONE for everything larger — the rdone — whatever the size.
SENDER_WAIT_BLOCKS = {
    "netmod": {32: 0, 512: 1, 4096: 2},
    "shmem": {32: 0, 512: 1, 4096: 1, 10_000: 1, 100_001: 1},
}


@pytest.mark.parametrize("route", ["netmod", "shmem"])
class TestAnatomyByRoute:
    def test_sender_wait_blocks(self, route):
        for nbytes, blocks in SENDER_WAIT_BLOCKS[route].items():
            for first in (True, False):
                sreq, _ = send_recv(
                    routed_world(route), nbytes, post_recv_first=first
                )
                assert sreq.wait_blocks == blocks, (nbytes, first)

    def test_buffered_completes_at_post_eager_and_large_do_not(self, route):
        import repro

        for nbytes, done in ((16, True), (512, False), (4096, False)):
            world = routed_world(route)
            data = np.zeros(nbytes, dtype="u1")
            sreq = world.proc(0).comm_world.isend(data, nbytes, repro.BYTE, 1, 0)
            assert sreq.is_complete() is done, nbytes

    def test_large_recv_wait_blocks(self, route):
        """Posted first: the arrival wait, plus (NIC only) the data
        wait.  Unexpected: the NIC still waits for data after its CTS;
        on-node the parked descriptor IS the data — zero waits."""
        posted, unexpected = {"netmod": (2, 1), "shmem": (1, 0)}[route]
        _, rreq = send_recv(routed_world(route), 4096, post_recv_first=True)
        assert rreq.wait_blocks == posted
        _, rreq = send_recv(routed_world(route), 4096, post_recv_first=False)
        assert rreq.wait_blocks == unexpected

    @pytest.mark.parametrize("nbytes", [0, 8, 512, 4096])
    def test_ssend_completes_only_after_match(self, route, nbytes):
        import repro

        world = routed_world(route)
        p0, p1 = world.proc(0), world.proc(1)
        data = np.arange(nbytes, dtype="u1")
        out = np.zeros(nbytes, dtype="u1")
        sreq = p0.comm_world.isend(data, nbytes, repro.BYTE, 1, 0, sync=True)
        for _ in range(50):
            world.clock.idle_advance()
            p0.stream_progress()
            p1.stream_progress()
        assert not sreq.is_complete()  # arrived, parked, but unmatched
        rreq = p1.comm_world.irecv(out, nbytes, repro.BYTE, 0, 0)
        drive(world, [sreq, rreq])
        assert np.array_equal(out, data)
        assert rreq.status.count_bytes == nbytes

    @pytest.mark.parametrize("nbytes", [1025, 8193, 65_536, 100_001])
    def test_large_payload_integrity(self, route, nbytes):
        send_recv(routed_world(route), nbytes)
        send_recv(routed_world(route), nbytes, post_recv_first=False)


class TestOnNodePackets:
    def test_no_handshake_or_data_packet_crosses_shmem(self):
        """Every packet posted over shmem is eager, a descriptor RTS or
        an rdone: never rts-then-cts, rdata or chunk."""
        world = routed_world("shmem")
        seen = []
        for proc in world.procs:
            real = proc.p2p._post

            def spy(vci, dst, header, payload, *, _real=real, **kw):
                if kw.get("via_shmem"):
                    seen.append((header["kind"], bool(header.get("desc"))))
                return _real(vci, dst, header, payload, **kw)

            proc.p2p._post = spy
        for nbytes in (0, 32, 512, 1025, 4096, 8193, 100_001):
            for first in (True, False):
                for sync in (False, True):
                    send_recv(world, nbytes, post_recv_first=first, sync=sync)
        kinds = {kind for kind, _ in seen}
        assert kinds == {"eager", "rts", "rdone"}
        assert all(desc for kind, desc in seen if kind == "rts")
        # ... and nothing on-node leaked onto the NIC route instead.
        assert world.fabric.conservation_counts()["posted"] == 0
        large = sum(1 for kind, _ in seen if kind == "rts")
        assert world.shmem.stat_descriptors == large
        assert sum(1 for kind, _ in seen if kind == "rdone") == large
