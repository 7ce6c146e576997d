"""Shmem transport: cell chunking, backpressure, reassembly."""

import pytest

from repro.config import RuntimeConfig
from repro.shmem.channel import Cell, RingChannel
from repro.shmem.transport import ShmemTransport
from repro.util.clock import VirtualClock


def make_transport(cell_size=16, num_cells=2):
    cfg = RuntimeConfig(
        shmem_cell_size=cell_size,
        shmem_num_cells=num_cells,
        shmem_alpha=1e-6,
        shmem_beta=0.0,
    )
    clock = VirtualClock()
    return ShmemTransport(clock, cfg), clock


A, B = (0, 0), (1, 0)


def drain(transport, clock, addr, max_iters=1000):
    """Progress both sides until idle; returns (completions, packets)."""
    comps, packets = [], []
    for _ in range(max_iters):
        for side in (A, B):
            c, p, _ = transport.progress(side)
            if side == addr:
                comps.extend(c), packets.extend(p)
            else:
                comps_other, _ = c, p
        if not transport.has_work(A) and not transport.has_work(B):
            break
        clock.idle_advance()
    return comps, packets


class TestRingChannel:
    def test_cell_not_ready_until_deadline(self):
        clock = VirtualClock()
        ch = RingChannel(A, B, 2, clock)
        cell = Cell(1, 0, True, {"k": "v"}, b"data", ready_time=1.0)
        assert ch.try_send_cell(cell)
        assert ch.pop_ready() is None
        clock.advance_to(1.0)
        assert ch.pop_ready() is cell

    def test_backpressure(self):
        clock = VirtualClock()
        ch = RingChannel(A, B, 1, clock)
        assert ch.try_send_cell(Cell(1, 0, True, {}, b"", 0.0))
        assert not ch.try_send_cell(Cell(2, 0, True, {}, b"", 0.0))
        assert ch.free_cells() == 0

    def test_fifo_head_blocks(self):
        clock = VirtualClock()
        ch = RingChannel(A, B, 2, clock)
        ch.try_send_cell(Cell(1, 0, True, {}, b"first", ready_time=2.0))
        ch.try_send_cell(Cell(2, 0, True, {}, b"second", ready_time=1.0))
        clock.advance_to(1.0)
        assert ch.pop_ready() is None  # head not ready => nothing pops


class TestShmemTransport:
    def test_single_cell_message(self):
        transport, clock = make_transport()
        op = transport.post_send(A, B, {"kind": "eager", "tag": 5}, b"hi")
        clock.advance(1.0)
        comps, _, _ = transport.progress(A)
        assert comps == [op] and op.completed
        _, packets, _ = transport.progress(B)
        assert len(packets) == 1
        assert packets[0].payload == b"hi"
        assert packets[0].header["tag"] == 5
        assert packets[0].src == A

    def test_multi_cell_reassembly(self):
        transport, clock = make_transport(cell_size=4, num_cells=8)
        payload = b"0123456789ABCDEF"  # 4 cells
        transport.post_send(A, B, {"kind": "eager"}, payload)
        clock.advance(1.0)
        transport.progress(A)
        _, packets, _ = transport.progress(B)
        assert len(packets) == 1
        assert packets[0].payload == payload

    def test_backpressure_requires_sender_progress(self):
        """A message needing more cells than the ring holds only finishes
        when the sender's progress refills freed cells."""
        transport, clock = make_transport(cell_size=4, num_cells=2)
        payload = bytes(range(24))  # 6 cells through a 2-cell ring
        op = transport.post_send(A, B, {"kind": "eager"}, payload)
        assert not op.all_pushed  # ring filled, tail queued
        got = []
        for _ in range(100):
            clock.idle_advance()
            transport.progress(A)  # sender pushes freed cells
            _, packets, _ = transport.progress(B)
            got.extend(packets)
            if got:
                break
        assert got and got[0].payload == payload
        assert op.all_pushed

    def test_empty_payload(self):
        transport, clock = make_transport()
        transport.post_send(A, B, {"kind": "ctrl"}, b"")
        clock.advance(1.0)
        transport.progress(A)
        _, packets, _ = transport.progress(B)
        assert len(packets) == 1
        assert packets[0].payload == b""

    def test_has_work_idle(self):
        transport, _ = make_transport()
        assert not transport.has_work(A)
        transport.post_send(A, B, {"kind": "x"}, b"1")
        assert transport.has_work(A)  # pending send completion
        assert transport.has_work(B)  # pending inbound cell

    def test_interleaved_messages_same_pair(self):
        transport, clock = make_transport(cell_size=4, num_cells=16)
        transport.post_send(A, B, {"i": 0}, b"longer-than-one-cell")
        transport.post_send(A, B, {"i": 1}, b"x")
        clock.advance(1.0)
        transport.progress(A)
        _, packets, _ = transport.progress(B)
        assert [p.header["i"] for p in packets] == [0, 1]
        assert packets[0].payload == b"longer-than-one-cell"

    def test_bidirectional(self):
        transport, clock = make_transport()
        transport.post_send(A, B, {"d": "ab"}, b"1")
        transport.post_send(B, A, {"d": "ba"}, b"2")
        clock.advance(1.0)
        _, pa, _ = transport.progress(A)
        _, pb, _ = transport.progress(B)
        assert pa[0].header["d"] == "ba"
        assert pb[0].header["d"] == "ab"

    def test_completion_deadline_models_copy_cost(self):
        transport, clock = make_transport()
        op = transport.post_send(A, B, {"kind": "x"}, b"abcd")
        assert op.final_deadline == pytest.approx(1e-6)
        comps, _, _ = transport.progress(A)
        assert comps == []  # copy not done yet
        clock.advance_to(op.final_deadline)
        comps, _, _ = transport.progress(A)
        assert comps == [op]


class _CountingLease:
    """Stands in for a pool lease: counts reference traffic."""

    def __init__(self):
        self.retains = self.releases = 0

    def retain(self):
        self.retains += 1

    def release(self):
        self.releases += 1


class TestDescriptor:
    def test_descriptor_is_one_cell_whatever_its_size(self):
        """A descriptor copies nothing into the cell, so cell size and
        ring depth do not bound it: 1000 bytes cross a 2 x 4-byte ring
        as one cell, one timer, zero copies, the receiver seeing the
        sender's own memory."""
        transport, clock = make_transport(cell_size=4, num_cells=2)
        buf = bytearray(range(256)) * 4
        view = memoryview(buf)[:1000].toreadonly()
        op = transport.post_send(A, B, {"kind": "rts"}, view, descriptor=True)
        assert op.all_pushed
        assert op.final_deadline == pytest.approx(1e-6)
        assert transport.stat_cells_pushed == 1
        assert transport.stat_descriptors == 1
        assert transport.cells_in_rings(B) == 1
        clock.advance(1.0)
        _, packets, _ = transport.progress(B)
        assert len(packets) == 1
        assert packets[0].payload.obj is buf and len(packets[0].payload) == 1000
        assert transport.stat_copy_bytes == 0
        assert transport.cells_in_rings(B) == 0

    def test_descriptor_cost_model_scales_with_bytes(self):
        cfg = RuntimeConfig(shmem_alpha=1e-6, shmem_beta=1e-9)
        transport = ShmemTransport(VirtualClock(), cfg)
        op = transport.post_send(A, B, {}, bytes(1 << 20), descriptor=True)
        assert op.final_deadline == pytest.approx(1e-6 + (1 << 20) * 1e-9)

    def test_empty_descriptor(self):
        transport, clock = make_transport()
        transport.post_send(A, B, {"kind": "rts"}, b"", descriptor=True)
        clock.advance(1.0)
        _, packets, _ = transport.progress(B)
        assert [p.payload for p in packets] == [b""]

    def test_cells_pushed_counts_every_chunk(self):
        transport, clock = make_transport(cell_size=4, num_cells=8)
        transport.post_send(A, B, {}, b"0123456789")  # 3 cells
        transport.post_send(A, B, {}, b"x")
        assert transport.stat_cells_pushed == 4
        assert transport.stat_descriptors == 0


class TestBackpressureIsFree:
    def test_full_ring_retry_touches_no_lease_and_builds_no_cell(self, monkeypatch):
        transport, clock = make_transport(cell_size=4, num_cells=2)
        lease = _CountingLease()
        op = transport.post_send(A, B, {}, bytes(range(24)), lease=lease)
        assert not op.all_pushed and transport.cells_in_rings(B) == 2
        before = (lease.retains, lease.releases, transport.stat_cells_pushed)
        built = []
        monkeypatch.setattr(
            "repro.shmem.transport.Cell", lambda **kw: built.append(kw)
        )
        for _ in range(5):  # receiver never drains: every pass is a retry
            _, _, made = transport.progress(A)
            assert not made
        assert not built
        assert (lease.retains, lease.releases, transport.stat_cells_pushed) == before

    def test_send_list_rewritten_only_when_an_op_retires(self):
        transport, clock = make_transport()
        transport.post_send(A, B, {}, b"abcd")
        sends = transport._sends[A]
        transport.progress(A)  # copy deadline not reached: nothing retires
        assert transport._sends[A] is sends
        clock.advance(1.0)
        comps, _, _ = transport.progress(A)
        assert len(comps) == 1 and transport._sends[A] == []
