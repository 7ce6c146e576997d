"""Shared-memory transport: bounded cell rings plus descriptor cells.

Presents the same interface shape as a netmod endpoint — ``post_send``
returning an op handle, plus per-address progress yielding completions
and whole reassembled packets — so the p2p protocol layer is transport
agnostic.

Two kinds of traffic share each ring.  Buffered/eager snapshots (and
RMA staging) are *copied through* cells: chunked at ``shmem_cell_size``,
flow-controlled by the ring, reassembled at the receiver.  A
*descriptor* (``post_send(..., descriptor=True)``) is a stable view the
receiver will copy from exactly once; it copies no bytes into the cell,
so it rides as one cell regardless of size — chunking a view buys only
flow-control stalls (one sender<->receiver handoff per ring refill).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.config import RuntimeConfig
from repro.netmod.packet import Packet
from repro.shmem.channel import Cell, RingChannel
from repro.sim import timers as _timers
from repro.util import sync as _sync
from repro.util.clock import Clock

__all__ = ["ShmemOp", "ShmemTransport"]


class ShmemOp:
    """Handle for a shmem send.

    ``remaining`` holds the not-yet-pushed tail of a large message; the
    sender's shmem progress drains it as ring space frees up.  The op
    completes once the final chunk's copy deadline matures (the source
    buffer was fully copied into cells by then).
    """

    __slots__ = (
        "op_id",
        "dst",
        "header",
        "payload",
        "offset",
        "chunk_index",
        "context",
        "completed",
        "final_deadline",
        "nbytes",
        "lease",
        "cell_size",
    )

    def __init__(
        self,
        op_id: int,
        dst: tuple[int, int],
        header: dict[str, Any],
        payload: bytes | memoryview,
        context: Any,
        lease: Any,
        cell_size: int,
    ) -> None:
        self.op_id = op_id
        self.dst = dst
        self.header = header
        self.payload = payload
        self.nbytes = len(payload)
        self.offset = 0  # bytes already pushed into cells
        self.chunk_index = 0
        self.context = context
        self.completed = False
        self.final_deadline: float | None = None
        #: buffer-pool lease backing ``payload``; the op holds one
        #: reference until it completes (not-yet-pushed tail bytes are
        #: still read from the slab), each pushed cell holds its own.
        self.lease = lease
        #: bytes per cell: ``shmem_cell_size``, or the whole payload
        #: for a descriptor
        self.cell_size = cell_size

    @property
    def all_pushed(self) -> bool:
        return self.offset >= self.nbytes and self.chunk_index > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShmemOp(#{self.op_id} {self.offset}/{self.nbytes}B)"


class _Reassembly:
    """Receiver-side buffer collecting the chunks of one message.

    ``base`` tracks the sender's whole-message buffer when every cell
    so far carried the same one; the finished message is then that view
    itself — no join copy.
    """

    __slots__ = ("header", "chunks", "src", "base")

    def __init__(self, src: tuple[int, int], header: dict[str, Any]) -> None:
        self.src = src
        self.header = header
        self.chunks: list[bytes | memoryview] = []
        self.base: Any = None


class ShmemTransport:
    """All shmem state for one world.

    Channels and per-address send queues are created lazily.  Progress
    for an address ``(rank, vci)`` does sender work (push queued chunks,
    harvest completions) and receiver work (pop ready cells, reassemble,
    emit packets).
    """

    def __init__(self, clock: Clock, config: RuntimeConfig) -> None:
        self.clock = clock
        self.config = config
        self._lock = _sync.make_lock("shmem.transport")
        self._channels: dict[tuple[tuple[int, int], tuple[int, int]], RingChannel] = {}
        #: inbound channels per destination address
        self._inbound: dict[tuple[int, int], list[RingChannel]] = {}
        #: unfinished sends per source address
        self._sends: dict[tuple[int, int], list[ShmemOp]] = {}
        self._reassembly: dict[tuple[tuple[int, int], int], _Reassembly] = {}
        self._op_counter = itertools.count(1)
        #: bytes this transport materialized into fresh buffers (chunk
        #: slices of bytes payloads, multi-chunk join fallbacks) — the
        #: copies the zero-copy cell path exists to eliminate.
        self.stat_copy_bytes = 0
        #: cells pushed into rings / descriptor sends posted; exact
        #: (updated under the transport lock).
        self.stat_cells_pushed = 0
        self.stat_descriptors = 0
        #: in-flight (pushed, not yet popped) cell counts per destination
        #: address; incremented under the lock as chunks enter a ring and
        #: batch-decremented by the receiver's progress, so ``has_work``
        #: and the registry probe cost two dict reads instead of walking
        #: every inbound channel.
        self._cells_pending: dict[tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def _channel(self, src: tuple[int, int], dst: tuple[int, int]) -> RingChannel:
        key = (src, dst)
        ch = self._channels.get(key)
        if ch is not None:
            return ch
        with self._lock:
            ch = self._channels.get(key)
            if ch is None:
                ch = RingChannel(
                    src, dst, self.config.shmem_num_cells, self.clock
                )
                self._channels[key] = ch
                self._inbound.setdefault(dst, []).append(ch)
            return ch

    def has_work(self, addr: tuple[int, int]) -> bool:
        """Cheap idle check for collated progress: two dict reads."""
        return bool(self._sends.get(addr)) or self._cells_pending.get(addr, 0) > 0

    def idle_probe(self, addr: tuple[int, int]):
        """A bound zero-arg busy check for the pending-work registry.

        The returned closure captures the dict getters directly so each
        evaluation is two lookups and a comparison, with no attribute
        traversal through the transport.
        """
        sends_get = self._sends.get
        cells_get = self._cells_pending.get

        def probe() -> bool:
            return bool(sends_get(addr)) or cells_get(addr, 0) > 0

        return probe

    def cells_in_rings(self, addr: tuple[int, int]) -> int:
        """Cells physically queued toward ``addr`` (walks its inbound
        rings; the quiescence check compares it to ``_cells_pending``)."""
        return sum(ch.pending() for ch in self._inbound.get(addr, ()))

    # ------------------------------------------------------------------
    # Send side.
    # ------------------------------------------------------------------
    def post_send(
        self,
        src: tuple[int, int],
        dst: tuple[int, int],
        header: dict[str, Any],
        payload: bytes | bytearray | memoryview = b"",
        *,
        context: Any = None,
        lease: Any = None,
        descriptor: bool = False,
    ) -> ShmemOp:
        """Start a shmem send from ``src`` to ``dst``: chunked through
        cells, or — ``descriptor=True`` — one cell carrying the whole
        payload view for the receiver to copy from.

        ``bytes``/``memoryview`` payloads are NOT copied — immutability,
        the accompanying ``lease``, or the protocol's receiver-confirmed
        completion guarantees their stability.  Bare ``bytearray``
        payloads are snapshotted (the pre-pool behaviour).
        """
        if not isinstance(payload, (bytes, memoryview)):
            payload = bytes(payload)
            self.stat_copy_bytes += len(payload)
        if lease is not None:
            lease.retain()
        cell_size = len(payload) if descriptor else self.config.shmem_cell_size
        op = ShmemOp(
            next(self._op_counter), dst, dict(header), payload, context, lease, cell_size
        )
        with self._lock:
            self._sends.setdefault(src, []).append(op)
            if descriptor:
                self.stat_descriptors += 1
        self._push_chunks(src, op)
        return op

    def _push_chunks(self, src: tuple[int, int], op: ShmemOp) -> int:
        """Push as many chunks as ring space allows; returns how many.

        ``memoryview`` payloads chunk into zero-copy subviews sharing
        ``op.payload`` as their base; ``bytes`` payloads chunk by
        slicing (a copy per multi-chunk slice, counted).  A full ring
        costs one length read: no cell, clock read or lease traffic.
        """
        ch = self._channel(src, op.dst)
        free = ch.free_cells()  # SPSC: only this producer shrinks it
        if free <= 0:
            return 0  # backpressure: retry from shmem progress
        cfg = self.config
        lease = op.lease
        is_view = isinstance(op.payload, memoryview)
        now = self.clock.now()
        pushed = 0
        while pushed < free:  # callers only pass ops with chunks left
            end = min(op.offset + op.cell_size, op.nbytes)
            chunk = op.payload[op.offset : end]
            if not is_view and (op.offset > 0 or end < op.nbytes):
                self.stat_copy_bytes += len(chunk)
            is_last = end >= op.nbytes
            ready = now + cfg.shmem_alpha + len(chunk) * cfg.shmem_beta
            if lease is not None:
                lease.retain()
            cell = Cell(
                msg_id=op.op_id,
                chunk_index=op.chunk_index,
                is_last=is_last,
                header=op.header if op.chunk_index == 0 else {},
                payload=chunk,
                ready_time=ready,
                base=op.payload if is_view else None,
                lease=lease,
            )
            if not ch.try_send_cell(cell):  # unreachable for an SPSC producer
                if lease is not None:
                    lease.release()
                break
            pushed += 1
            op.offset = end
            op.chunk_index += 1
            if is_last:
                op.final_deadline = ready
                # Attributed to the sender: its shmem progress completes
                # the op when the final cell's copy matures.
                _timers.post(self.clock, ready, src[0], src[1], "shm_tx")
                break
        with self._lock:
            self._cells_pending[op.dst] = self._cells_pending.get(op.dst, 0) + pushed
            self.stat_cells_pushed += pushed
        return pushed

    def _reassemble(self, src: tuple[int, int], cell: Cell):
        """Account one cell of a multi-cell message; returns ``(header,
        payload)`` once the last cell arrived, else None (the cell's
        lease reference is dropped — only the last one travels on)."""
        key = (src, cell.msg_id)
        if cell.chunk_index == 0:
            reasm = self._reassembly[key] = _Reassembly(src, cell.header)
            reasm.base = cell.base
        else:
            reasm = self._reassembly[key]
            if cell.base is not reasm.base:
                reasm.base = None  # mixed bases: join fallback
        reasm.chunks.append(cell.payload)
        if not cell.is_last:
            if cell.lease is not None:
                cell.lease.release()
            return None
        del self._reassembly[key]
        # No copy when the cells were contiguous subviews of one base.
        if reasm.base is not None:
            return reasm.header, reasm.base
        self.stat_copy_bytes += sum(map(len, reasm.chunks))
        return reasm.header, b"".join(reasm.chunks)

    # ------------------------------------------------------------------
    # Progress.
    # ------------------------------------------------------------------
    def progress(
        self, addr: tuple[int, int]
    ) -> tuple[list[ShmemOp], list[Packet], bool]:
        """Advance shmem work for one address (unbounded drain)."""
        return self.progress_batch(addr, None)

    def progress_batch(
        self, addr: tuple[int, int], max_k: int | None
    ) -> tuple[list[ShmemOp], list[Packet], bool]:
        """Advance shmem work for one address, popping at most ``max_k``
        ready cells (``None`` = drain everything ready).

        Returns ``(completions, packets, made_progress)``:
        completed sends posted from ``addr``, packets fully received at
        ``addr``, and whether *any* data moved.  ``made_progress`` can
        be True with both lists empty — pushing a queued chunk into a
        freed ring cell, or consuming a non-final chunk, is real
        progress (it unblocks the peer) even though no operation
        finished; the collated progress engine must see it so wait
        loops do not mistake a mid-transfer state for idleness.
        """
        completions: list[ShmemOp] = []
        packets: list[Packet] = []
        made = False
        now = self.clock.now()

        # Sender side: push queued chunks, harvest completions.
        sends = self._sends.get(addr)
        if sends:
            for op in sends:
                if not op.all_pushed and self._push_chunks(addr, op):
                    made = True
                if (
                    op.all_pushed
                    and op.final_deadline is not None
                    and op.final_deadline <= now
                ):
                    op.completed = True
                    completions.append(op)
                    if op.lease is not None:
                        op.lease.release()  # pushed cells hold their own refs
            if completions:
                made = True
                with self._lock:
                    self._sends[addr] = [op for op in sends if not op.completed]

        # Receiver side: drain ready cells from every inbound channel.
        popped = 0
        budget = max_k if max_k is not None else -1
        for ch in self._inbound.get(addr, ()):
            while budget != 0:
                cell = ch.pop_ready()
                if cell is None:
                    break
                popped += 1
                budget -= 1
                if cell.chunk_index == 0 and cell.is_last:
                    header, payload = cell.header, cell.payload
                else:
                    whole = self._reassemble(ch.src, cell)
                    if whole is None:
                        continue
                    header, payload = whole
                # The last (or only) cell's lease reference transfers
                # to the packet.
                packets.append(
                    Packet(
                        src=ch.src,
                        dst=addr,
                        header=header,
                        payload=payload,
                        seq=cell.msg_id,
                        lease=cell.lease,
                    )
                )
        if popped:
            made = True
            with self._lock:
                self._cells_pending[addr] = self._cells_pending.get(addr, 0) - popped
        return completions, packets, made
