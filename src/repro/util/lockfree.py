"""Lock-free single-producer/single-consumer structures and sharded counters.

These are the hot-path building blocks on every build: a bounded SPSC
ring (:class:`SpscRing`), an unbounded SPSC queue (:class:`SpscQueue`),
and a per-thread sharded counter (:class:`ShardedCounter`).  The locked
:class:`repro.util.ringbuf.RingBuffer` is the executable reference
``tests/util/test_lockfree.py`` checks the ring against, nothing more.

Memory model
------------

Earlier revisions of this codebase justified unlocked reads with "the
GIL makes attribute loads/stores atomic".  That claim is too weak on
free-threaded CPython (3.13t+, PEP 703), where bytecode from different
threads genuinely interleaves, and too vague to audit.  The structures
here rely on the following explicit, documented assumptions — which
hold on BOTH the GIL and free-threaded builds of CPython:

A1. **No torn reads or writes.**  Loads and stores of object
    attributes, list elements, and dict values are atomic as a unit: a
    reader sees either the old or the new object reference, never a
    mixture.  (GIL build: the GIL serializes each bytecode.
    Free-threaded build: reference-counted object accesses go through
    per-object locks / atomic operations; this is a documented
    guarantee of PEP 703's container implementations.)

A2. **Single-writer locations need no synchronization.**  If only one
    thread ever writes a location, any other thread's read returns a
    value that was actually written (by A1), possibly stale.  All hot
    counters here are single-writer; totals are sums over single-writer
    shards and are exact once the writers are quiescent.

A3. **Program-order publication.**  A store S2 executed after a store
    S1 in one thread never becomes visible to another thread before S1.
    On the GIL build this follows from bytecode serialization.  On the
    free-threaded build CPython's interpreter does not reorder the
    memory effects of bytecodes, and the per-object locking of A1
    provides the associated fences.  This is what makes the
    "write the slot, then advance the index" publication pattern of
    :class:`SpscRing`/:class:`SpscQueue` safe: a consumer that observes
    the advanced index observes the slot contents too.

A4. **Read-modify-write is NOT atomic.**  ``x += 1`` is a load, an add,
    and a store; two unsynchronized writers lose updates on either
    build (the GIL can switch between the load and the store).  Shared
    counters must therefore either take a lock
    (:class:`repro.util.atomic.AtomicCounter`) or shard per writer
    (:class:`ShardedCounter`).

What SPSC means here: each structure has exactly ONE producer thread
and ONE consumer thread *at a time*.  The roles may migrate (e.g. a
ProgressPool steal moves the consumer role to another worker) provided
the handoff is synchronized externally — the pool's claim/release
protocol and the stream lock provide the required happens-before edge.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Generic, Iterator, TypeVar

__all__ = [
    "is_free_threaded",
    "SpscRing",
    "SpscQueue",
    "ShardedCounter",
]

T = TypeVar("T")


def is_free_threaded() -> bool:
    """True when running on a free-threaded CPython with the GIL off.

    Uses ``sys._is_gil_enabled()`` (3.13+); False on GIL builds and
    when a free-threaded build runs with ``PYTHON_GIL=1``.  Purely
    informational (bench records tag themselves with it): the runtime
    runs the same code on either build.
    """
    check = getattr(sys, "_is_gil_enabled", None)
    if check is None:
        return False
    return not check()


class SpscRing(Generic[T]):
    """Bounded lock-free SPSC ring with per-slot sequence counters.

    The classic sequence-counter design (Vyukov's bounded queue,
    specialized to one producer and one consumer): slot ``i`` carries a
    sequence number ``_seq[i]``.  The producer may fill slot
    ``tail % capacity`` when its sequence equals ``tail``; it writes the
    item FIRST, then publishes by storing ``tail + 1`` into the
    sequence (assumption A3 orders the two stores).  The consumer may
    drain slot ``head % capacity`` when its sequence equals
    ``head + 1``; it clears the item, then releases the slot by storing
    ``head + capacity``.  Head and tail themselves are single-writer
    (A2): ``_tail`` belongs to the producer, ``_head`` to the consumer,
    so neither side ever takes a lock and neither index needs one.

    ``None`` is not a valid element (it marks empty slots), matching
    the locked :class:`~repro.util.ringbuf.RingBuffer` contract.
    """

    __slots__ = ("_capacity", "_mask", "_slots", "_seq", "_head", "_tail")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        # Round up to a power of two so slot indexing is a mask; the
        # advertised capacity stays what the caller asked for.
        size = 1
        while size < capacity:
            size <<= 1
        self._capacity = capacity
        self._mask = size - 1
        self._slots: list[T | None] = [None] * size
        self._seq: list[int] = list(range(size))
        self._head = 0  # consumer-owned
        self._tail = 0  # producer-owned

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        """Occupancy snapshot: exact for either endpoint thread, and
        always within [0, capacity] for bystanders (A2 staleness)."""
        n = self._tail - self._head
        if n < 0:
            return 0
        return n if n <= self._capacity else self._capacity

    def empty(self) -> bool:
        return self._tail - self._head <= 0

    def full(self) -> bool:
        return self._tail - self._head >= self._capacity

    # -- producer side -------------------------------------------------
    def try_push(self, item: T) -> bool:
        """Append ``item``; False (without blocking) when full.

        Producer-only.  The capacity check against the advertised
        (possibly non-power-of-two) capacity keeps backpressure
        semantics identical to the locked ring.
        """
        tail = self._tail
        if tail - self._head >= self._capacity:
            return False
        i = tail & self._mask
        if self._seq[i] != tail:  # slot not yet released by consumer
            return False
        self._slots[i] = item
        self._seq[i] = tail + 1  # publish (A3: after the item store)
        self._tail = tail + 1
        return True

    # -- consumer side -------------------------------------------------
    def try_pop(self) -> T | None:
        """Remove and return the oldest item, or None when empty."""
        head = self._head
        i = head & self._mask
        if self._seq[i] != head + 1:  # nothing published here yet
            return None
        item = self._slots[i]
        self._slots[i] = None
        self._seq[i] = head + len(self._slots)  # release for the producer
        self._head = head + 1
        return item

    def peek(self) -> T | None:
        """Return the oldest item without removing it (consumer-only)."""
        head = self._head
        i = head & self._mask
        if self._seq[i] != head + 1:
            return None
        return self._slots[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpscRing({len(self)}/{self._capacity})"


class _Node:
    __slots__ = ("item", "next")

    def __init__(self, item: Any) -> None:
        self.item = item
        self.next: "_Node | None" = None


class SpscQueue(Generic[T]):
    """Unbounded lock-free SPSC queue (linked nodes, Michael–Scott style).

    The producer appends behind ``_tail``: it links the new node FIRST
    (``tail.next = node`` — the publication store, A3) and only then
    advances its private tail reference.  The consumer follows
    ``_head.next``; a non-None ``next`` means the node's item is fully
    visible.  ``pushed``/``popped`` are single-writer counters (A2):
    ``pushed`` belongs to the producer, ``popped`` to the consumer, so
    ``pushed - popped`` is an exact occupancy for either endpoint and a
    consistent snapshot for bystanders — the property the endpoint
    conservation accounting is built on.

    Used for completion/arrival inboxes where bounded capacity would
    force an overflow path (and overflow would break per-link FIFO).
    """

    __slots__ = ("_head", "_tail", "pushed", "popped")

    def __init__(self) -> None:
        sentinel = _Node(None)
        self._head = sentinel  # consumer-owned
        self._tail = sentinel  # producer-owned
        #: items ever pushed (producer-owned, monotone)
        self.pushed = 0
        #: items ever popped (consumer-owned, monotone)
        self.popped = 0

    def push(self, item: T) -> None:
        """Append ``item`` (producer-only, never blocks, never fails)."""
        node = _Node(item)
        self._tail.next = node  # publish (A3: node.item stored first)
        self._tail = node
        self.pushed += 1

    def try_pop(self) -> T | None:
        """Remove and return the oldest item, or None when empty."""
        head = self._head
        node = head.next
        if node is None:
            return None
        item = node.item
        node.item = None  # free the reference promptly
        self._head = node  # old head becomes garbage
        self.popped += 1
        return item

    def peek(self) -> T | None:
        """Return the oldest item without removing it (consumer-only)."""
        node = self._head.next
        return node.item if node is not None else None

    def __len__(self) -> int:
        n = self.pushed - self.popped
        return n if n > 0 else 0

    def __bool__(self) -> bool:
        return self._head.next is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpscQueue(len~{len(self)})"


class _Shard:
    """One writer's counter cell (single-writer by construction)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class ShardedCounter:
    """Per-thread sharded counter with exact aggregated reads.

    Each thread bumps its OWN shard (plain ``+=`` is safe there: one
    writer, A2/A4), so the hot path takes no lock and shares no cache
    line with other writers.  ``value()`` sums the shards — exact
    whenever the writers are quiescent, and never off by more than the
    bumps concurrently in flight otherwise.  Shard allocation (once per
    thread per counter) happens under a small lock; the shard list is
    published copy-on-write as a tuple so readers never observe a
    half-built list (A1/A3).
    """

    __slots__ = ("_local", "_shards", "_alloc_lock")

    def __init__(self) -> None:
        self._local = threading.local()
        self._shards: tuple[_Shard, ...] = ()
        self._alloc_lock = threading.Lock()

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard()
            with self._alloc_lock:
                self._shards = self._shards + (shard,)
            self._local.shard = shard
        return shard

    def add(self, delta: int = 1) -> None:
        """Add ``delta`` to the calling thread's shard (lock-free)."""
        self._shard().value += delta

    def value(self) -> int:
        """Sum over all shards (exact at quiescence, see class docs)."""
        return sum(shard.value for shard in self._shards)

    def __int__(self) -> int:
        return self.value()

    def __index__(self) -> int:
        return self.value()

    # Comparisons against ints keep counter assertions/formatting
    # working unchanged when a plain-int stat becomes sharded.
    def __eq__(self, other: object) -> bool:
        if isinstance(other, ShardedCounter):
            return self.value() == other.value()
        if isinstance(other, int):
            return self.value() == other
        return NotImplemented

    def __hash__(self) -> int:  # identity: counters are mutable
        return id(self)

    def __lt__(self, other: int) -> bool:
        return self.value() < int(other)

    def __le__(self, other: int) -> bool:
        return self.value() <= int(other)

    def __gt__(self, other: int) -> bool:
        return self.value() > int(other)

    def __ge__(self, other: int) -> bool:
        return self.value() >= int(other)

    def shards(self) -> Iterator[int]:
        """Per-shard values (diagnostics / tests)."""
        return (shard.value for shard in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedCounter({self.value()})"
