"""Directional bounded-cell channel between two on-node endpoints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim import timers as _timers
from repro.util.clock import Clock
from repro.util.lockfree import SpscRing

__all__ = ["Cell", "RingChannel"]


@dataclass
class Cell:
    """One copy cell in flight.

    ``ready_time`` models the memcpy cost into the shared segment: the
    receiver may only consume the cell once the clock passes it.

    ``payload`` may be a zero-copy ``memoryview`` slice of ``base``
    (the sender's whole-message buffer): when every cell of a message
    carries the same ``base``, the receiver reassembles the message as
    that single view instead of joining per-cell copies.  ``lease`` is
    the buffer-pool lease backing the view — each pushed cell holds one
    reference, released (or transferred to the reassembled packet) when
    the cell is popped.

    A *descriptor* cell is the degenerate case: its ``payload`` is the
    sender's whole stable view, whatever its size — nothing is copied
    into the cell, so ``shmem_cell_size`` does not bound it and the
    receiver copies from the view once, straight into the user buffer.
    """

    msg_id: int
    chunk_index: int
    is_last: bool
    header: dict[str, Any]
    payload: bytes | memoryview
    ready_time: float
    base: Any = None
    lease: Any = None


class RingChannel:
    """SPSC bounded ring of :class:`Cell` objects.

    The sender side uses :meth:`try_send_cell`; the receiver side uses
    :meth:`pop_ready`.  Capacity pressure is surfaced to the transport,
    which queues overflow chunks on the sender and retries them from
    shmem progress.

    The use IS single-producer/single-consumer per direction — pushes
    run under the sending address's stream lock, pops under the
    receiving address's — so the backing ring is the sequence-counter
    :class:`~repro.util.lockfree.SpscRing`: no per-cell lock round-trip.
    """

    __slots__ = ("src", "dst", "_ring", "_clock")

    def __init__(
        self,
        src: tuple[int, int],
        dst: tuple[int, int],
        capacity: int,
        clock: Clock,
    ) -> None:
        self.src = src
        self.dst = dst
        self._ring: SpscRing[Cell] = SpscRing(capacity)
        self._clock = clock

    @property
    def capacity(self) -> int:
        return self._ring.capacity

    def free_cells(self) -> int:
        return self._ring.capacity - len(self._ring)

    def try_send_cell(self, cell: Cell) -> bool:
        """Push a cell; False when the ring is full (backpressure)."""
        ok = self._ring.try_push(cell)
        if ok:
            # Attributed to the receiver: its shmem progress pops the
            # cell once the copy deadline matures.
            _timers.post(
                self._clock, cell.ready_time, self.dst[0], self.dst[1], "shm_rx"
            )
        return ok

    def pop_ready(self) -> Cell | None:
        """Pop the head cell if its copy deadline has matured.

        Cells are strictly FIFO: a not-yet-ready head blocks younger
        cells even if (impossibly) they were ready, preserving in-order
        delivery.
        """
        head = self._ring.peek()
        if head is None or head.ready_time > self._clock.now():
            return None
        return self._ring.try_pop()

    def pending(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingChannel({self.src}->{self.dst}, {self.pending()}/{self.capacity})"
