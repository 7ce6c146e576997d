"""Fabric endpoints: injection, completion queues, receive queues.

Each endpoint is addressed by ``(rank, vci)``.  Streams map to VCIs
(virtual communication interfaces), so progress on one MPIX stream only
polls that stream's endpoint — the isolation that makes Fig. 11 flat.

Cost model (see :mod:`repro.config`): an injection of *n* bytes posted
at local time *t*

* completes locally (buffer reusable / NicOp matured) at
  ``t + nic_alpha + n * nic_beta``;
* arrives at the target (packet visible to its ``poll``) at
  ``t + nic_wire_delay + n * nic_beta``.

Thread model: the hot paths take no endpoint lock.  Every location
has one writer at a time (see :mod:`repro.util.lockfree` for the
memory-model assumptions A1–A4), by one serialization argument:

- *owner side* (``post_send`` and ``poll_batch``): both run under the
  owning stream's lock — every injection path (isend, collectives, RMA,
  acks, retransmit and heartbeat hooks) holds it, ``stream_progress``
  takes it, and ProgressPool's claim/release protocol provides the
  happens-before edge when the polling role migrates between workers.
  So the ``_inflight`` / ``_arrivals`` heaps, ``_last_arrival`` and the
  ``stat_*`` counters are owner-private: a post pushes its op straight
  into the heap a later poll pops.
- *delivery side* (``enqueue_arrival``): the only cross-thread hop.
  One SPSC inbox per SOURCE endpoint; the producer for inbox ``src`` is
  whoever holds *src*'s stream lock (the fabric delivers synchronously
  from the sender's thread), so each inbox has exactly one producer,
  and the owner drains the inboxes into ``_arrivals`` at its next poll.

Conservation accounting is exact *by construction*: a delivered packet
is counted by its inbox's single-writer ``pushed`` counter the moment
it is published, a harvested packet by the owner's ``stat_harvested``,
and every pushed packet is either still in an inbox, staged in the
owner's heap, or harvested — so ``delivered == harvested +
arrivals_pending`` holds at every scheduler yield point, however the
drain is sliced and across steal/return ownership moves.
"""

from __future__ import annotations

import heapq
import threading
from typing import Any

from repro.netmod.packet import Packet
from repro.sim import timers as _timers
from repro.util.clock import Clock
from repro.util.lockfree import SpscQueue

__all__ = ["NicOp", "Endpoint"]


class NicOp:
    """Handle for a posted network operation.

    ``context`` is an opaque cookie the p2p protocol layer uses to find
    its state machine when the completion is polled.
    """

    __slots__ = ("op_id", "nbytes", "deadline", "context", "completed")

    def __init__(self, op_id: int, nbytes: int, deadline: float, context: Any) -> None:
        self.op_id = op_id
        self.nbytes = nbytes
        self.deadline = deadline
        self.context = context
        self.completed = False

    def __lt__(self, other: "NicOp") -> bool:  # heap ordering
        return (self.deadline, self.op_id) < (other.deadline, other.op_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed else f"due@{self.deadline:.6f}"
        return f"NicOp(#{self.op_id}, {self.nbytes}B, {state})"


class Endpoint:
    """One injection/polling port on the fabric.

    Thread-safety: an endpoint is posted to and polled by its owning
    stream (serialized by that stream's lock) while remote ranks
    concurrently deliver packets to it.  Deliveries land in per-source
    SPSC inboxes the owner drains into its private heaps (see the module
    docstring).  Polling when idle costs one attribute read, no lock.
    """

    __slots__ = (
        "address",
        "_fabric",
        "_clock",
        "_lock",
        "_inflight",
        "_arrivals",
        "_last_arrival",
        "_arrival_inboxes",
        "_inbox_list",
        "_doorbell",
        "_ops_harvested",
        "stat_posted",
        "stat_bytes",
        "stat_polls",
        "stat_empty_polls",
        "stat_harvested",
        "stat_batch_harvests",
    )

    def __init__(self, address: tuple[int, int], fabric: "Fabric") -> None:  # noqa: F821
        self.address = address
        self._fabric = fabric
        self._clock: Clock = fabric.clock
        #: cold path only: serializes inbox creation
        self._lock = threading.Lock()
        #: locally posted ops ordered by completion deadline
        #: (owner-private: pushed by ``post_send``, popped by polls)
        self._inflight: list[NicOp] = []
        #: (arrival_time, seq, Packet) heap of packets en route to us,
        #: staged from the inboxes by the owner's polls
        self._arrivals: list[tuple[float, int, Packet]] = []
        #: last scheduled arrival time per destination, enforcing FIFO
        #: (non-overtaking) delivery per (src, dst) endpoint pair even
        #: when a small message would otherwise "pass" a large one.
        self._last_arrival: dict[tuple[int, int], float] = {}
        #: one SPSC inbox per source endpoint address
        self._arrival_inboxes: dict[tuple[int, int], SpscQueue] = {}
        #: copy-on-write snapshot of the inboxes for owner iteration
        #: and counter sums (published under ``_lock`` at creation only)
        self._inbox_list: tuple[SpscQueue, ...] = ()
        #: the one-attribute-read idle signal.  Producers store True
        #: AFTER publishing (A3: the item is visible to anyone who sees
        #: the flag); the owner stores False BEFORE draining and re-arms
        #: if staged-but-immature items remain in its heaps.  A push
        #: racing the clear leaves the flag True (one spurious empty
        #: poll, harmless); a lost wakeup is impossible because every
        #: push is followed by a True store and every clear by a full
        #: drain.
        self._doorbell = False
        #: completions harvested; with ``stat_posted`` (ops posted) and
        #: the inbox counters it makes ``pending`` a pure counter sum
        self._ops_harvested = 0
        self.stat_posted = 0
        self.stat_bytes = 0
        self.stat_polls = 0
        self.stat_empty_polls = 0
        #: packets harvested by poll — with ``stat_delivered`` the two
        #: sides of the dsched message-conservation invariant
        #: (delivered == harvested + arrivals still queued)
        self.stat_harvested = 0
        #: poll_batch calls that returned at least one completion/packet
        self.stat_batch_harvests = 0

    # ------------------------------------------------------------------
    # Injection side.
    # ------------------------------------------------------------------
    def post_send(
        self,
        dst: tuple[int, int],
        header: dict[str, Any],
        payload: bytes | bytearray | memoryview = b"",
        *,
        context: Any = None,
        lease: Any = None,
    ) -> NicOp:
        """Inject a packet towards ``dst``.

        ``bytes`` and ``memoryview`` payloads travel as-is — the p2p
        layer guarantees their stability (immutability, a pool lease,
        or receiver-confirmed completion).  Anything else (a bare
        ``bytearray``) is snapshotted at post time.  When ``lease`` is
        given the packet retains it; the consumer releases after
        dispatch.
        """
        cfg = self._fabric.config
        now = self._clock.now()
        if isinstance(payload, (bytes, memoryview)):
            data = payload
        else:
            data = bytes(payload)
        nbytes = len(data)
        if lease is not None:
            lease.retain()
        op_id = self._fabric.next_op_id()
        deadline = now + cfg.nic_alpha + nbytes * cfg.nic_beta
        arrival = now + cfg.nic_wire_delay + nbytes * cfg.nic_beta
        op = NicOp(op_id, nbytes, deadline, context)
        # Owner-side state (the owning stream's lock serializes every
        # post and poll), so no endpoint lock: the FIFO adjustment, the
        # heap push and the stat bumps are plain single-writer stores.
        prev = self._last_arrival.get(dst)
        if prev is not None and arrival <= prev:
            arrival = prev + 1e-12
        self._last_arrival[dst] = arrival
        heapq.heappush(self._inflight, op)
        self.stat_posted += 1
        self.stat_bytes += nbytes
        self._doorbell = True
        packet = Packet(self.address, dst, dict(header), data, seq=op_id, lease=lease)
        _timers.post(self._clock, deadline, self.address[0], self.address[1], "nic_tx")
        self._fabric.deliver(packet, arrival)
        return op

    # ------------------------------------------------------------------
    # Delivery side (called by the fabric, possibly from another thread).
    # ------------------------------------------------------------------
    def _arrival_inbox(self, src: tuple[int, int]) -> SpscQueue:
        """The SPSC inbox fed by source endpoint ``src`` (created once,
        under the endpoint lock — creation is cold, pushes are not)."""
        inbox = self._arrival_inboxes.get(src)
        if inbox is None:
            with self._lock:
                inbox = self._arrival_inboxes.get(src)
                if inbox is None:
                    inbox = SpscQueue()
                    self._arrival_inboxes[src] = inbox
                    # Publish the snapshot BEFORE any push can land in
                    # the new inbox (A3), so delivered/pending sums
                    # never miss a counted packet.
                    self._inbox_list = self._inbox_list + (inbox,)
        return inbox

    def enqueue_arrival(self, packet: Packet, arrival_time: float) -> None:
        # Single producer per source inbox: the fabric delivers on the
        # sender's thread, under the sender's stream lock.  The inbox's
        # ``pushed`` counter IS the delivered count for this link —
        # bumped by ``push`` after the packet is published, so
        # conservation sums are never early.
        self._arrival_inbox(packet.src).push((arrival_time, packet.seq, packet))
        self._doorbell = True
        # Attributed to the *receiving* endpoint: its poll observes the
        # arrival when virtual time reaches ``arrival_time``.
        _timers.post(
            self._clock, arrival_time, self.address[0], self.address[1], "nic_rx"
        )

    # ------------------------------------------------------------------
    # Polling.
    # ------------------------------------------------------------------
    def poll(self) -> tuple[list[NicOp], list[Packet]]:
        """Harvest matured completions and arrived packets.

        Returns ``(completions, packets)`` in deadline order.  Both are
        empty when nothing matured — the common idle case, which costs
        one flag read.
        """
        return self.poll_batch(None)

    def poll_batch(self, max_k: int | None) -> tuple[list[NicOp], list[Packet]]:
        """Batched drain: up to ``max_k`` matured items per side (``None``
        = everything matured, the :meth:`poll` behaviour).

        First stages the SPSC inboxes into the ``_arrivals`` heap
        (preserving exact (time, seq) order, so fault-injected
        reorderings merge across sources deterministically), then
        harvests matured items with no lock at all.  The owner-written
        counters keep the conservation invariant exact however the
        drain is sliced.
        """
        self.stat_polls += 1
        if not self._doorbell:
            self.stat_empty_polls += 1
            return [], []
        # Clear the doorbell BEFORE draining: anything published before
        # the producer's True store is visible now; a push racing the
        # clear re-rings it (one extra pass at worst, never a lost
        # wakeup).
        self._doorbell = False
        arrivals = self._arrivals
        for inbox in self._inbox_list:
            while True:
                item = inbox.try_pop()
                if item is None:
                    break
                heapq.heappush(arrivals, item)
        inflight = self._inflight
        now = self._clock.now()
        completions: list[NicOp] = []
        packets: list[Packet] = []
        budget = max_k if max_k is not None else -1
        while inflight and inflight[0].deadline <= now:
            if budget == 0:
                break
            op = heapq.heappop(inflight)
            op.completed = True
            completions.append(op)
            budget -= 1
        budget = max_k if max_k is not None else -1
        while arrivals and arrivals[0][0] <= now:
            if budget == 0:
                break
            _, _, packet = heapq.heappop(arrivals)
            packets.append(packet)
            budget -= 1
        # ``stat_harvested`` is bumped only after the packets left the
        # heap, so the conservation sum delivered == harvested + pending
        # never goes negative.
        self._ops_harvested += len(completions)
        self.stat_harvested += len(packets)
        if inflight or arrivals:
            # Staged items not yet matured: keep the idle probe hot so
            # the next pass re-checks maturity.
            self._doorbell = True
        if not completions and not packets:
            self.stat_empty_polls += 1
        else:
            self.stat_batch_harvests += 1
        return completions, packets

    # ------------------------------------------------------------------
    # Accounting views (pure counter sums, readable from any thread).
    # ------------------------------------------------------------------
    @property
    def stat_delivered(self) -> int:
        """Packet copies enqueued at this endpoint (exact)."""
        return sum(inbox.pushed for inbox in self._inbox_list)

    @property
    def pending(self) -> int:
        """Operations/arrivals not yet harvested (no locks taken)."""
        # Harvest counters are read first: a cross-thread reader racing
        # a poll may over- but never under-count.  No nested property,
        # no genexp — busy checks read this and allocation costs show.
        harvested = self._ops_harvested + self.stat_harvested
        n = self.stat_posted - harvested
        for inbox in self._inbox_list:
            n += inbox.pushed
        return n

    def idle_probe(self):
        """A bound zero-arg busy check for the pending-work registry.

        Mirrors :meth:`ShmemTransport.idle_probe`: the idle pass is the
        common case, so the probe costs one attribute read — the
        doorbell flag producers ring after publishing and the owner
        re-arms while immature work is staged.  "False" really means
        idle (A1/A3 staleness at worst delays one pass).
        """
        return lambda: self._doorbell

    @property
    def arrivals_pending(self) -> int:
        """Delivered packets not yet harvested (conservation checking).

        Exact by construction: every pushed packet is in an inbox,
        staged in the private heap, or counted harvested.
        """
        return self.stat_delivered - self.stat_harvested

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Endpoint{self.address}(pending={self.pending})"
