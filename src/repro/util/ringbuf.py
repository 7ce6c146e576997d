"""Bounded ring buffer: the locked reference implementation.

Models the fixed pool of copy cells a real shm transport allocates per
rank pair: a sender that outruns the receiver observes ``full()`` and
must wait — which is precisely where the extra wait blocks of on-node
pipeline transfers (Fig. 1 discussion) come from.

The shmem transport's per-direction use is single-producer/single-
consumer and rides :class:`repro.util.lockfree.SpscRing`.  This locked
ring is not reachable from the runtime: it stays as the executable
specification the hypothesis differential property in
``tests/util/test_lockfree.py`` checks ``SpscRing`` against on
arbitrary push/pop interleavings.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

__all__ = ["RingBuffer"]

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """Fixed-capacity FIFO with non-blocking try semantics.

    Thread-safe for any number of producers/consumers.
    """

    __slots__ = ("_capacity", "_items", "_head", "_count", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._items: list[T | None] = [None] * capacity
        self._head = 0  # index of the oldest element
        self._count = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._count

    def empty(self) -> bool:
        return self._count == 0

    def full(self) -> bool:
        return self._count == self._capacity

    def try_push(self, item: T) -> bool:
        """Append ``item``; returns False (without blocking) when full."""
        with self._lock:
            if self._count == self._capacity:
                return False
            tail = (self._head + self._count) % self._capacity
            self._items[tail] = item
            self._count += 1
            return True

    def try_pop(self) -> T | None:
        """Remove and return the oldest item, or None when empty.

        Note: None is therefore not a valid element type.
        """
        with self._lock:
            if self._count == 0:
                return None
            item = self._items[self._head]
            self._items[self._head] = None
            self._head = (self._head + 1) % self._capacity
            self._count -= 1
            return item

    def peek(self) -> T | None:
        """Return the oldest item without removing it (None when empty)."""
        with self._lock:
            if self._count == 0:
                return None
            return self._items[self._head]
