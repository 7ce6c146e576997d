"""Message matching: posted-receive and unexpected-message queues.

MPI matching is FIFO per (context_id, source, tag) with wildcard
``ANY_SOURCE``/``ANY_TAG`` on the receive side.  Matching order (not
asymptotics) is the correctness-critical property, but the queues sit
on the critical path of every message, so the default implementations
here are *bucketed*: exact ``(context_id, src, tag)`` signatures hash
into per-signature FIFO deques, and a global monotonic sequence number
totally orders entries so the bucketed structure reproduces exactly the
match order of a single FIFO list.  Wildcard entries (or wildcard
queries) fall back to an ordered scan, so the no-wildcard common case
is O(1) instead of O(#pending).

``ListPostedQueue``/``ListUnexpectedQueue`` keep the original linear
scan implementation as an executable specification: the differential
property tests assert the bucketed queues match them operation for
operation, and the fast-path benchmark measures them as the "before".

Locking: the raw queue classes have no internal locking.  They are
owned per-VCI by a :class:`MatchShard`, whose narrow per-VCI lock
covers exactly the check-then-act pairs MPI matching requires to be
atomic (arrival: match-posted-else-queue-unexpected; receive:
match-unexpected-else-post) — nothing else.  Historically the queues
leaned on the owning stream's lock being held around every access; the
shard makes the matching state self-consistent on its own, which is
what lets the endpoint harvest path go lock-free and keeps matching
correct on free-threaded builds when application threads probe or
cancel concurrently with a progress pass.  See the per-VCI lock table
in DESIGN.md §14.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator

from repro.util import sync as _sync

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MatchShard",
    "PostedQueue",
    "UnexpectedQueue",
    "ListPostedQueue",
    "ListUnexpectedQueue",
]

#: Wildcard source rank (MPI_ANY_SOURCE).
ANY_SOURCE = -1
#: Wildcard tag (MPI_ANY_TAG).
ANY_TAG = -1

#: Compact dead/alive entries this many tombstones above the live count.
_COMPACT_SLACK = 64


def _matches(
    posted_src: int, posted_tag: int, msg_src: int, msg_tag: int
) -> bool:
    """Does a posted (src, tag) pattern match an incoming message?"""
    if posted_src != ANY_SOURCE and posted_src != msg_src:
        return False
    if posted_tag != ANY_TAG and posted_tag != msg_tag:
        return False
    return True


class _Rec:
    """One queued entry: signature, payload, global order, tombstone."""

    __slots__ = ("seq", "ctx", "src", "tag", "entry", "alive")

    def __init__(self, seq: int, ctx: int, src: int, tag: int, entry: Any) -> None:
        self.seq = seq
        self.ctx = ctx
        self.src = src
        self.tag = tag
        self.entry = entry
        self.alive = True


def _live_head(bucket: "deque[_Rec]") -> _Rec | None:
    """Prune dead heads; return the oldest live record (or None)."""
    while bucket and not bucket[0].alive:
        bucket.popleft()
    return bucket[0] if bucket else None


class PostedQueue:
    """Receives posted before their message arrived.

    Entries with a fully concrete ``(context_id, src, tag)`` signature
    live in per-signature FIFO buckets; entries carrying a wildcard live
    in an ordered side list.  An arrival (always concrete) compares the
    oldest exact candidate against the oldest compatible wildcard
    candidate by sequence number, so FIFO-by-post-order is preserved —
    and when no wildcards are pending, matching is one dict lookup.
    """

    __slots__ = ("_seq", "_exact", "_wild", "_wild_alive", "_by_id", "_len")

    def __init__(self) -> None:
        self._seq = 0
        #: concrete (ctx, src, tag) -> FIFO of records
        self._exact: dict[tuple[int, int, int], deque[_Rec]] = {}
        #: post-ordered records whose pattern has a wildcard
        self._wild: list[_Rec] = []
        self._wild_alive = 0
        #: id(entry) -> live records for that object, oldest first
        self._by_id: dict[int, list[_Rec]] = {}
        self._len = 0

    def post(self, context_id: int, src: int, tag: int, entry: Any) -> None:
        rec = _Rec(self._seq, context_id, src, tag, entry)
        self._seq += 1
        if src == ANY_SOURCE or tag == ANY_TAG:
            self._wild.append(rec)
            self._wild_alive += 1
        else:
            bucket = self._exact.get((context_id, src, tag))
            if bucket is None:
                bucket = self._exact[(context_id, src, tag)] = deque()
            bucket.append(rec)
        self._by_id.setdefault(id(entry), []).append(rec)
        self._len += 1

    def match(self, context_id: int, msg_src: int, msg_tag: int) -> Any | None:
        """Pop and return the first posted entry matching an arrival."""
        key = (context_id, msg_src, msg_tag)
        bucket = self._exact.get(key)
        exact = _live_head(bucket) if bucket is not None else None
        wild = None
        if self._wild_alive:
            for rec in self._wild:
                if (
                    rec.alive
                    and rec.ctx == context_id
                    and (rec.src == ANY_SOURCE or rec.src == msg_src)
                    and (rec.tag == ANY_TAG or rec.tag == msg_tag)
                ):
                    wild = rec
                    break
        if exact is None and wild is None:
            if bucket is not None and not bucket:
                del self._exact[key]
            return None
        if wild is None or (exact is not None and exact.seq < wild.seq):
            rec = exact
            bucket.popleft()
            if not bucket:
                del self._exact[key]
        else:
            rec = wild
            rec.alive = False
            self._wild_alive -= 1
            self._maybe_compact_wild()
        self._forget(rec)
        return rec.entry

    def remove(self, entry: Any) -> bool:
        """Withdraw a specific posted entry (receive cancellation)."""
        recs = self._by_id.get(id(entry))
        if not recs:
            return False
        rec = recs.pop(0)
        if not recs:
            del self._by_id[id(entry)]
        rec.alive = False
        if rec.src == ANY_SOURCE or rec.tag == ANY_TAG:
            self._wild_alive -= 1
            self._maybe_compact_wild()
        self._len -= 1
        return True

    def _forget(self, rec: _Rec) -> None:
        """Drop a just-matched record from the identity index."""
        rec.alive = False
        key = id(rec.entry)
        recs = self._by_id[key]
        recs.remove(rec)
        if not recs:
            del self._by_id[key]
        self._len -= 1

    def _maybe_compact_wild(self) -> None:
        if len(self._wild) > self._wild_alive + _COMPACT_SLACK:
            self._wild = [r for r in self._wild if r.alive]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Any]:
        recs = [r for b in self._exact.values() for r in b if r.alive]
        recs.extend(r for r in self._wild if r.alive)
        recs.sort(key=lambda r: r.seq)
        return (r.entry for r in recs)


class UnexpectedQueue:
    """Arrived messages with no matching posted receive yet.

    Arrivals always carry a concrete ``(context_id, src, tag)``, so
    every record lives in an exact bucket; an append-ordered side list
    serves wildcard *queries* (and ordered iteration).  A fully
    concrete query — the no-wildcard common case — is one dict lookup.
    """

    __slots__ = ("_seq", "_exact", "_order", "_dead", "_len")

    def __init__(self) -> None:
        self._seq = 0
        self._exact: dict[tuple[int, int, int], deque[_Rec]] = {}
        #: all records in arrival order (tombstoned lazily)
        self._order: list[_Rec] = []
        self._dead = 0
        self._len = 0

    def add(self, context_id: int, msg_src: int, msg_tag: int, entry: Any) -> None:
        rec = _Rec(self._seq, context_id, msg_src, msg_tag, entry)
        self._seq += 1
        bucket = self._exact.get((context_id, msg_src, msg_tag))
        if bucket is None:
            bucket = self._exact[(context_id, msg_src, msg_tag)] = deque()
        bucket.append(rec)
        self._order.append(rec)
        self._len += 1

    def _find(self, context_id: int, src: int, tag: int) -> _Rec | None:
        if src != ANY_SOURCE and tag != ANY_TAG:
            bucket = self._exact.get((context_id, src, tag))
            return _live_head(bucket) if bucket is not None else None
        for rec in self._order:
            if (
                rec.alive
                and rec.ctx == context_id
                and (src == ANY_SOURCE or rec.src == src)
                and (tag == ANY_TAG or rec.tag == tag)
            ):
                return rec
        return None

    def match(self, context_id: int, src: int, tag: int) -> Any | None:
        """Pop and return the first arrival matching a newly posted recv."""
        rec = self._find(context_id, src, tag)
        if rec is None:
            return None
        self._kill(rec)
        return rec.entry

    def remove(self, entry: Any) -> bool:
        """Withdraw one specific queued arrival (sweeps); False when it
        is no longer queued."""
        for rec in self._order:
            if rec.alive and rec.entry is entry:
                self._kill(rec)
                return True
        return False

    def _kill(self, rec: _Rec) -> None:
        rec.alive = False
        key = (rec.ctx, rec.src, rec.tag)
        bucket = self._exact[key]
        # Prune dead heads; a mid-bucket tombstone (``remove``) goes
        # when the head reaches it.
        _live_head(bucket)
        if not bucket:
            del self._exact[key]
        self._len -= 1
        self._dead += 1
        if self._dead > self._len + _COMPACT_SLACK:
            self._order = [r for r in self._order if r.alive]
            self._dead = 0

    def peek(self, context_id: int, src: int, tag: int) -> Any | None:
        """Like :meth:`match` but leaves the entry queued (MPI_Probe)."""
        rec = self._find(context_id, src, tag)
        return rec.entry if rec is not None else None

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Any]:
        return (r.entry for r in self._order if r.alive)


class MatchShard:
    """Per-VCI matching shard: the posted/unexpected pair plus the one
    narrow lock that makes their combined check-then-act operations
    atomic.

    The shard lock covers *only* queue state — no request completion,
    no payload delivery, no protocol callbacks run under it — so its
    critical sections are a handful of dict/deque operations.  Lock
    ordering: the dispatch path acquires the shard lock while holding
    the owning stream's lock (stream → shard); no shard method ever
    acquires a stream lock, so the inverse edge cannot exist and the
    pair is deadlock-free by construction (audited in DESIGN.md §14).
    """

    __slots__ = ("posted", "unexpected", "_lock")

    def __init__(self, vci: int) -> None:
        self.posted = PostedQueue()
        self.unexpected = UnexpectedQueue()
        self._lock = _sync.make_lock(f"p2p.match.vci{vci}")

    # -- receive side --------------------------------------------------
    def recv_match_or_post(
        self, context_id: int, src: int, tag: int, entry: Any
    ) -> Any | None:
        """Atomically match a new receive against the unexpected queue,
        or post it.  Returns the matched unexpected message, or None
        when ``entry`` was posted (the arrival will find it)."""
        with self._lock:
            msg = self.unexpected.match(context_id, src, tag)
            if msg is None:
                self.posted.post(context_id, src, tag, entry)
            return msg

    def remove_posted(self, entry: Any) -> bool:
        """Withdraw a posted receive (cancellation, dead-peer sweeps)."""
        with self._lock:
            return self.posted.remove(entry)

    # -- arrival side --------------------------------------------------
    def arrival_match_or_add(
        self, context_id: int, msg_src: int, msg_tag: int, msg: Any
    ) -> Any | None:
        """Atomically match an arrival against the posted queue, or
        queue it as unexpected.  Returns the matched posted entry, or
        None when ``msg`` was queued."""
        with self._lock:
            entry = self.posted.match(context_id, msg_src, msg_tag)
            if entry is None:
                self.unexpected.add(context_id, msg_src, msg_tag, msg)
            return entry

    # -- probe / sweep side --------------------------------------------
    def pop_unexpected(self, context_id: int, src: int, tag: int) -> Any | None:
        """Pop a queued unexpected message (mprobe / revoke sweeps)."""
        with self._lock:
            return self.unexpected.match(context_id, src, tag)

    def remove_unexpected(self, msg: Any) -> bool:
        """Withdraw one specific unexpected message (revoke, dead-peer
        and finalize sweeps)."""
        with self._lock:
            return self.unexpected.remove(msg)

    def peek_unexpected(self, context_id: int, src: int, tag: int) -> Any | None:
        """Inspect without consuming (MPI_Iprobe)."""
        with self._lock:
            return self.unexpected.peek(context_id, src, tag)

    def posted_entries(self) -> list[Any]:
        """Ordered snapshot of live posted entries (sweep iteration)."""
        with self._lock:
            return list(self.posted)

    def unexpected_entries(self) -> list[Any]:
        """Ordered snapshot of queued unexpected messages."""
        with self._lock:
            return list(self.unexpected)

    def counts(self) -> tuple[int, int]:
        """(posted, unexpected) lengths, consistently."""
        with self._lock:
            return len(self.posted), len(self.unexpected)


class ListPostedQueue:
    """Reference linear-scan posted queue (the executable spec)."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # (context_id, src_pattern, tag_pattern, entry)
        self._entries: list[tuple[int, int, int, Any]] = []

    def post(self, context_id: int, src: int, tag: int, entry: Any) -> None:
        self._entries.append((context_id, src, tag, entry))

    def match(self, context_id: int, msg_src: int, msg_tag: int) -> Any | None:
        for i, (ctx, src, tag, entry) in enumerate(self._entries):
            if ctx == context_id and _matches(src, tag, msg_src, msg_tag):
                del self._entries[i]
                return entry
        return None

    def remove(self, entry: Any) -> bool:
        for i, (_, _, _, e) in enumerate(self._entries):
            if e is entry:
                del self._entries[i]
                return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return (entry for _, _, _, entry in self._entries)


class ListUnexpectedQueue:
    """Reference linear-scan unexpected queue (the executable spec)."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # (context_id, msg_src, msg_tag, entry)
        self._entries: list[tuple[int, int, int, Any]] = []

    def add(self, context_id: int, msg_src: int, msg_tag: int, entry: Any) -> None:
        self._entries.append((context_id, msg_src, msg_tag, entry))

    def match(self, context_id: int, src: int, tag: int) -> Any | None:
        for i, (ctx, msg_src, msg_tag, entry) in enumerate(self._entries):
            if ctx == context_id and _matches(src, tag, msg_src, msg_tag):
                del self._entries[i]
                return entry
        return None

    def peek(self, context_id: int, src: int, tag: int) -> Any | None:
        for ctx, msg_src, msg_tag, entry in self._entries:
            if ctx == context_id and _matches(src, tag, msg_src, msg_tag):
                return entry
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return (entry for _, _, _, entry in self._entries)
