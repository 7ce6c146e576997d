"""Point-to-point protocol state machines.

Implements the four message modes of Fig. 1 over the two transports,
plus the one on-node protocol that replaces the last two over shmem:

=============  ==========================  =====================  ============
mode           selected when (payload n)   sender wait blocks     Fig. 1 panel
=============  ==========================  =====================  ============
BUFFERED       n <= buffered_threshold     0 (copy + inject)      (a)
EAGER          n <= eager_threshold        1 (NIC completion)     (b)
RENDEZVOUS     n <= rendezvous_threshold   2 (CTS, then data)     (c)
PIPELINE       larger                      1 + one per chunk wave pipeline mode
DESCRIPTOR     on-node, n > eager_thresh.  1 (receiver's rdone)   (c) minus CTS
               (or Ssend of any size)
=============  ==========================  =====================  ============

DESCRIPTOR is receiver-driven single copy: the RTS itself carries the
sender's stable payload view (user buffer, pack slab or ``bytes``) as
one shmem cell; the receiver copies/unpacks once, straight into the
user buffer at match time, and confirms with ``rdone``.  No CTS,
``rdata`` or ``chunk`` packet ever crosses shmem — each would be one
more stall on the peer's progress for bytes both ranks can already
address.

Wait blocks are *counted* on each request (``Request.wait_blocks``) so
the anatomy of Fig. 1 is a measurable, testable property rather than a
diagram.

Threading: all state in a :class:`VciState` is protected by the owning
stream's lock, which the core layer holds around every call into this
module.  Nothing here takes locks of its own (matching MPICH's per-VCI
locking discipline that MPIX streams exploit).
"""

from __future__ import annotations

import enum
import itertools
import random
from typing import Any

from repro.config import RuntimeConfig
from repro.core.async_ext import ASYNC_DONE, ASYNC_NOPROGRESS, ASYNC_PENDING
from repro.core.request import Request
from repro.datatype.engine import DatatypeEngine, PackTask
from repro.datatype.types import Datatype, as_readonly_view, as_writable_view
from repro.errors import (
    ERR_PROC_FAILED,
    DeliveryFailedError,
    InvalidCountError,
    InvalidTagError,
    PeerUnreachableError,
    ProcessFailedError,
    error_code_for,
)
from repro.mem.pool import MIN_CLASS_BYTES, BufferPool

#: Snapshot-staging floor: an eager/RMA snapshot below this is a plain
#: ``bytes()`` copy — the lease protocol's fixed cost (lock round
#: trips at acquire, wire retain, harvest release) is ~10x a small
#: memcpy, so pooling only pays once slabs are a few KiB.  Pack
#: destinations and receive staging pool from ``MIN_CLASS_BYTES`` up
#: because there the slab replaces a whole extra copy, not just an
#: allocation.
POOL_STAGE_MIN = 4096
from repro.netmod.fabric import Fabric
from repro.netmod.packet import Packet
from repro.p2p.matching import ANY_SOURCE, ANY_TAG, MatchShard
from repro.p2p.reliability import RelVciState, TxLink, UnackedEntry
from repro.shmem.transport import ShmemTransport
from repro.sim import timers as _timers
from repro.util.trace import Tracer

__all__ = [
    "SendMode",
    "SendEntry",
    "RecvEntry",
    "VciState",
    "P2PEngine",
    "FT_RESERVED_TAG",
]

#: status.error value for truncation, mirroring MPI_ERR_TRUNCATE.
ERR_TRUNCATE = 15

#: Tags at or above this are reserved for internal fault-tolerance
#: protocols (``Comm.agree``): they survive a communicator revoke sweep
#: so agreement can run on a revoked communicator, per ULFM.
FT_RESERVED_TAG = 1 << 29


class SendMode(enum.Enum):
    BUFFERED = "buffered"
    EAGER = "eager"
    RENDEZVOUS = "rendezvous"
    PIPELINE = "pipeline"
    DESCRIPTOR = "descriptor"


_EAGER_CLASS = (SendMode.BUFFERED, SendMode.EAGER)


class SendEntry:
    """Sender-side state machine for one message."""

    __slots__ = (
        "req",
        "msg_id",
        "mode",
        "payload",
        "nbytes",
        "dst_rank",
        "dst_vci",
        "tag",
        "context_id",
        "use_shmem",
        "next_offset",
        "inflight_chunks",
        "chunks_done",
        "total_chunks",
        "lease",
        "zc",
        "rdone_received",
    )

    def __init__(self, req: Request, msg_id: int, mode: SendMode) -> None:
        self.req = req
        self.msg_id = msg_id
        self.mode = mode
        self.payload: bytes | memoryview = b""
        self.nbytes = 0
        self.dst_rank = -1
        self.dst_vci = 0
        self.tag = 0
        self.context_id = 0
        self.use_shmem = False
        # pipeline bookkeeping
        self.next_offset = 0
        self.inflight_chunks = 0
        self.chunks_done = 0
        self.total_chunks = 0
        #: buffer-pool lease backing ``payload`` when the library staged
        #: it (eager snapshot or async pack); the entry holds one
        #: reference, released when the send completes or aborts.
        self.lease: Any = None
        #: True when ``payload`` is a live view of the *user's* buffer
        #: (rendezvous/pipeline zero-copy): completion is then gated on
        #: the receiver's ``rdone`` confirmation, because the user may
        #: overwrite the buffer the moment the request completes.
        self.zc = False
        self.rdone_received = False


class RecvEntry:
    """Receiver-side state for one posted or matched receive."""

    __slots__ = (
        "req",
        "buf",
        "count",
        "datatype",
        "src",
        "tag",
        "context_id",
        "capacity",
        "staging",
        "bytes_received",
        "expected_bytes",
        "contiguous",
        "lease",
        "zc_reply",
    )

    def __init__(
        self,
        req: Request,
        buf,
        count: int,
        datatype: Datatype,
        src: int,
        tag: int,
        context_id: int,
    ) -> None:
        self.req = req
        self.buf = buf
        self.count = count
        self.datatype = datatype
        self.src = src
        self.tag = tag
        self.context_id = context_id
        self.capacity = count * datatype.size
        self.staging: bytearray | memoryview | None = None
        self.bytes_received = 0
        self.expected_bytes = 0
        self.contiguous = datatype.is_contiguous
        #: pool lease backing ``staging``; released on completion
        self.lease: Any = None
        #: True when the matched RTS advertised a zero-copy payload —
        #: the receiver must confirm consumption with an ``rdone``
        self.zc_reply = False


class _UnexpectedMsg:
    """A buffered unexpected arrival (eager payload or RTS descriptor)."""

    __slots__ = ("kind", "src_addr", "header", "payload", "lease")

    def __init__(
        self,
        kind: str,
        src_addr: tuple[int, int],
        header: dict[str, Any],
        payload: bytes | memoryview,
        lease: Any = None,
    ) -> None:
        self.kind = kind  # 'eager' or 'rts'
        self.src_addr = src_addr
        self.header = header
        self.payload = payload
        #: the wire packet's lease reference, transferred here while
        #: the payload waits to be matched; released after delivery
        self.lease = lease

    @property
    def nbytes(self) -> int:
        if self.kind == "eager":
            return len(self.payload)
        return int(self.header["nbytes"])


class VciState:
    """Per-VCI messaging state: queues, active entries, endpoint.

    Matching lives in a :class:`~repro.p2p.matching.MatchShard` — a
    per-VCI structure whose narrow internal lock covers only the
    check-then-act pairs (match-unexpected-else-post and
    match-posted-else-add).  ``posted``/``unexpected`` stay as aliases
    of the shard's queues so length reads and introspection keep
    working; mutation goes through shard methods.
    """

    __slots__ = (
        "vci",
        "match",
        "posted",
        "unexpected",
        "sends",
        "recvs",
        "rel",
        "dead_version",
    )

    def __init__(self, vci: int) -> None:
        self.vci = vci
        self.match = MatchShard(vci)
        self.posted = self.match.posted
        self.unexpected = self.match.unexpected
        #: active sender state machines by msg_id
        self.sends: dict[int, SendEntry] = {}
        #: receives awaiting rendezvous/pipeline data by (src_addr, msg_id)
        self.recvs: dict[tuple[tuple[int, int], int], RecvEntry] = {}
        #: ack/retransmit state; allocated on first reliable packet
        self.rel: RelVciState | None = None
        #: engine dead-set version this VCI last swept against; lagging
        #: the engine's counter means a dead-peer sweep is due
        self.dead_version = 0


class P2PEngine:
    """All point-to-point machinery for one rank.

    The engine is transport-agnostic: per destination it picks the
    shmem transport (same node, enabled) or the netmod endpoint, both
    of which expose post/poll with completion cookies.
    """

    def __init__(
        self,
        rank: int,
        fabric: Fabric,
        shmem: ShmemTransport | None,
        datatype_engine: DatatypeEngine,
        config: RuntimeConfig,
        tracer: Tracer | None = None,
    ) -> None:
        self.rank = rank
        self.fabric = fabric
        self.shmem = shmem
        self.datatype_engine = datatype_engine
        self.config = config
        self.tracer = tracer if tracer is not None else Tracer()
        self._vcis: dict[int, VciState] = {}
        self._endpoints: dict[int, Any] = {}
        self._msg_ids = itertools.count(1)
        #: RMA windows by win id; 'rma_*' packets route here
        self.rma_windows: dict[int, Any] = {}
        #: resolved once: with every fault knob off this is False and
        #: the wire protocol is byte-identical to the seed (no rseq
        #: headers, no acks, no retransmit timers).
        self._rel_on = config.reliability_active()
        #: owning Proc, bound post-construction; provides async_start
        #: for the retransmit-timer hook (None in transport-only tests,
        #: where timers are driven manually via rel_poll()).
        self._hook_host: Any = None
        #: failure detector, bound by the owning Proc when active; None
        #: keeps every hot path at one attribute-load of overhead.
        self.detector: Any = None
        #: world ranks declared dead (by the detector or by retransmit
        #: exhaustion); posts addressed at them fail fast.
        self.known_dead: set[int] = set()
        #: bumped on every death; per-VCI sweeps chase it lazily
        self._dead_version = 0
        #: decorrelated-jitter RNG for the retransmit backoff — seeded
        #: per rank so multi-rank retry schedules decorrelate while the
        #: whole run stays replayable from ``fault_seed``.
        self._jitter_rng = random.Random(((config.fault_seed + 1) << 16) ^ rank)
        #: leased staging pool for payload-bearing paths; with the pool
        #: disabled every staging site falls back to plain ``bytes``
        #: snapshots (the pre-pool behaviour).
        self.pool = BufferPool.from_config(config)
        self._zc = self.pool.enabled
        #: per-VCI bytes the library copied while staging payloads
        #: (eager snapshots, datatype packs, receive staging, RMA
        #: staging).  The final unpack into the user's receive buffer
        #: is excluded, so a message scores 0 on a zero-copy path and
        #: 1x its size on a pooled-copy path.
        self.stat_copy_bytes: dict[int, int] = {}

    # ------------------------------------------------------------------
    def vci_state(self, vci: int) -> VciState:
        state = self._vcis.get(vci)
        if state is None:
            state = VciState(vci)
            self._vcis[vci] = state
        return state

    def endpoint_for(self, vci: int):
        """This rank's netmod endpoint for ``vci`` (cached: endpoints
        are stable objects, so the fabric lookup happens once)."""
        ep = self._endpoints.get(vci)
        if ep is None:
            ep = self.fabric.endpoint(self.rank, vci)
            self._endpoints[vci] = ep
        return ep

    # ------------------------------------------------------------------
    # Pending-work registry checks (cheap, lock-free).
    # ------------------------------------------------------------------
    def netmod_has_work(self, vci: int) -> bool:
        """Unharvested netmod completions/arrivals on this VCI?"""
        return self.endpoint_for(vci).pending > 0

    def shmem_has_work(self, vci: int) -> bool:
        """Queued shmem sends or undelivered cells on this VCI?"""
        return (
            self.shmem is not None
            and self.config.use_shmem
            and self.shmem.has_work((self.rank, vci))
        )

    def _shmem_route(self, dst_rank: int) -> bool:
        return (
            self.shmem is not None
            and self.config.use_shmem
            and self.fabric.same_node(self.rank, dst_rank)
        )

    def _post(
        self,
        vci: int,
        dst: tuple[int, int],
        header: dict[str, Any],
        payload,
        *,
        context: Any = None,
        via_shmem: bool = False,
        req: Request | None = None,
        send_entry: "SendEntry | None" = None,
        recv_key: Any = None,
        lease: Any = None,
        descriptor: bool = False,
    ):
        """Inject one packet via the chosen transport.

        ``req``/``send_entry``/``recv_key`` are failure-attribution
        hints for the reliability layer: which request to fail and which
        protocol state to clean up if this packet exhausts its
        retransmit budget.  Ignored on the lossless fast path and over
        shmem (which is never lossy).  ``lease`` is the pool lease
        backing ``payload``; each transport retains its own references.
        """
        src = (self.rank, vci)
        if via_shmem:
            assert self.shmem is not None
            return self.shmem.post_send(
                src, dst, header, payload,
                context=context, lease=lease, descriptor=descriptor,
            )
        if self._rel_on:
            return self._rel_send(
                vci, dst, header, payload, context, req, send_entry, recv_key, lease
            )
        return self.endpoint_for(vci).post_send(
            dst, header, payload, context=context, lease=lease
        )

    # ------------------------------------------------------------------
    # Reliability: sender side (sequence numbers, retransmit timer).
    # ------------------------------------------------------------------
    def _rel_state(self, state: VciState) -> RelVciState:
        rel = state.rel
        if rel is None:
            rel = state.rel = RelVciState()
        return rel

    def _rel_send(
        self,
        vci: int,
        dst: tuple[int, int],
        header: dict[str, Any],
        payload,
        cookie: Any,
        req: Request | None,
        send_entry: "SendEntry | None",
        recv_key: Any,
        lease: Any = None,
    ):
        """Post one reliable packet: stamp ``rseq``, retain for
        retransmission, and defer the completion cookie to the ack.

        The retransmit copy *shares* the caller's payload (plus a lease
        reference when pooled) instead of snapshotting it — eager and
        pooled payloads are already stable until the ack, and zero-copy
        payloads stay stable until the receiver's ``rdone``, which the
        ack always precedes.
        """
        state = self.vci_state(vci)
        rel = self._rel_state(state)
        link = rel.tx_link(dst)
        if send_entry is None and cookie is not None:
            send_entry = cookie[1]
        if link.failed:
            rel.stat_failures += 1
            exc = PeerUnreachableError(
                f"link ({self.rank}, {vci}) -> {dst} already declared dead"
            )
            self._rel_abort(state, send_entry, recv_key, req, exc)
            return None
        seq = link.next_seq
        link.next_seq += 1
        wire_header = dict(header, rseq=seq)
        data = payload if isinstance(payload, (bytes, memoryview)) else bytes(payload)
        clock = self.fabric.clock
        deadline = clock.now() + self.config.rel_rto
        entry = UnackedEntry(
            seq, dst, wire_header, data, deadline, req, cookie, recv_key, lease
        )
        if lease is not None:
            lease.retain()  # the unacked buffer's reference
        link.unacked[seq] = entry
        # Attributed to *this* rank: its retransmit hook owns the timer.
        _timers.post(clock, deadline, self.rank, vci, "rel_rto")
        self._ensure_rel_hook(vci, state)
        return self.endpoint_for(vci).post_send(
            dst, wire_header, data, context=None, lease=lease
        )

    def _ensure_rel_hook(self, vci: int, state: VciState) -> None:
        """Arm the retransmit timer for this VCI: an internal async hook
        registered through the ordinary ``MPIX_Async_start`` machinery,
        so reliability work rides the same progress passes as user
        hooks — no hidden thread (the paper's thesis, applied to
        ourselves)."""
        rel = state.rel
        if rel.hook_active:
            return
        host = self._hook_host
        if host is None:
            return
        rel.hook_active = True
        host.async_start(
            lambda thing: self.rel_poll(vci),
            extra_state="rel-retransmit-timer",
            stream=host.stream_for_vci(vci),
        )

    def rel_poll(self, vci: int) -> int:
        """One retransmit-timer pass (the async hook's poll function).

        Resends unacked packets whose deadline expired, with exponential
        backoff; a packet out of retries kills its whole link.  Pure
        injection — never invokes progress (section 3.4's rule).
        """
        state = self.vci_state(vci)
        rel = state.rel
        cfg = self.config
        clock = self.fabric.clock
        now = clock.now()
        advanced = False
        endpoint = self.endpoint_for(vci)
        for link in list(rel.tx.values()):
            if not link.unacked:
                continue
            for entry in list(link.unacked.values()):
                if entry.deadline > now:
                    continue
                if entry.retries >= cfg.rel_max_retries:
                    self._rel_fail_link(state, link)
                    advanced = True
                    break
                entry.retries += 1
                rel.stat_retransmits += 1
                delay = cfg.rel_rto * (cfg.rel_backoff**entry.retries)
                if cfg.rel_backoff_jitter:
                    # Decorrelated jitter (blended by the knob): each
                    # retry draws uniform(rto, 3 * previous delay),
                    # capped at the exhaustion horizon, so simultaneous
                    # retries to a slow peer spread out instead of
                    # storming in lockstep.
                    cap = cfg.rel_rto * (cfg.rel_backoff**cfg.rel_max_retries)
                    prev = entry.prev_delay or cfg.rel_rto
                    decorr = min(
                        cap, self._jitter_rng.uniform(cfg.rel_rto, prev * 3.0)
                    )
                    j = cfg.rel_backoff_jitter
                    delay = (1.0 - j) * delay + j * decorr
                entry.prev_delay = delay
                entry.deadline = now + delay
                _timers.post(clock, entry.deadline, self.rank, vci, "rel_rtx")
                self.tracer.record(
                    now,
                    "rel_retransmit",
                    seq=entry.seq,
                    dst=entry.dst[0],
                    pkt=entry.header.get("kind"),
                    retry=entry.retries,
                )
                endpoint.post_send(
                    entry.dst,
                    entry.header,
                    entry.payload,
                    context=None,
                    lease=entry.lease,
                )
                advanced = True
        if not rel.has_unacked():
            rel.hook_active = False
            return ASYNC_DONE
        return ASYNC_PENDING if advanced else ASYNC_NOPROGRESS

    def _rel_fail_link(self, state: VciState, link: TxLink) -> None:
        """Exhausted retries: declare the link dead and fail everything
        queued behind it."""
        rel = state.rel
        link.failed = True
        entries = list(link.unacked.values())
        link.unacked.clear()
        exc = DeliveryFailedError(
            f"delivery from rank {self.rank} to rank {link.dst[0]} "
            f"(vci {link.dst[1]}) failed after {self.config.rel_max_retries} "
            "retransmits"
        )
        now = self.fabric.clock.now()
        for entry in entries:
            rel.stat_failures += 1
            if entry.lease is not None:
                entry.lease.release()  # the unacked buffer's reference
                entry.lease = None
            self.tracer.record(
                now,
                "rel_fail",
                seq=entry.seq,
                dst=entry.dst[0],
                pkt=entry.header.get("kind"),
            )
            send_entry = entry.cookie[1] if entry.cookie is not None else None
            self._rel_abort(state, send_entry, entry.recv_key, entry.req, exc)
        # Retransmit exhaustion is the strongest failure evidence there
        # is — feed it to the detector so the whole dead-peer sweep
        # (posted recvs, rendezvous state, other links) runs too.
        if self.detector is not None:
            self.detector.note_link_failure(link.dst[0])

    def _rel_abort(
        self,
        state: VciState,
        send_entry: "SendEntry | None",
        recv_key: Any,
        req: Request | None,
        exc: Exception,
    ) -> None:
        """Detach failed protocol state so finalize can drain, then
        complete the owning request with the error captured."""
        if send_entry is not None:
            state.sends.pop(send_entry.msg_id, None)
            if send_entry.lease is not None:
                send_entry.lease.release()
                send_entry.lease = None
        if recv_key is not None:
            entry = state.recvs.pop(recv_key, None)
            if entry is not None and getattr(entry, "lease", None) is not None:
                entry.lease.release()
                entry.lease = None
        if req is not None:
            req.fail(exc, error_code_for(exc))

    # ------------------------------------------------------------------
    # Reliability: receiver side (dedup window, reorder restore, acks).
    # ------------------------------------------------------------------
    def _rel_ingress(self, vci: int, state: VciState, packet: Packet):
        """Filter one netmod arrival through the reliability window.

        Returns the packets to release to the protocol layer, strictly
        in per-link ``rseq`` order: the arrival itself when in-order
        (plus any buffered successors it unblocks), nothing when it is
        a duplicate, out-of-order, or an ack.
        """
        header = packet.header
        if header.get("kind") == "rel_ack":
            self._rel_handle_ack(vci, state, packet)
            return ()
        rseq = header.get("rseq")
        if rseq is None:
            # Unsequenced traffic (e.g. posted before a config switch);
            # nothing to dedup, deliver as-is.
            return (packet,)
        rel = self._rel_state(state)
        link = rel.rx_link(packet.src)
        deliverable: list[Packet] = []
        if rseq == link.expected:
            link.expected += 1
            deliverable.append(packet)
            while link.expected in link.buffered:
                deliverable.append(link.buffered.pop(link.expected))
                link.expected += 1
        elif rseq > link.expected:
            if rseq in link.buffered:
                rel.stat_dedup_hits += 1
                if packet.lease is not None:
                    packet.lease.release()  # duplicate copy never consumed
                self.tracer.record(
                    self.fabric.clock.now(),
                    "rel_dedup",
                    seq=rseq,
                    src=packet.src[0],
                    pkt=packet.kind,
                )
            else:
                # The parked packet keeps its wire lease reference until
                # the gap fills and it is finally consumed.
                link.buffered[rseq] = packet
                rel.stat_ooo_buffered += 1
        else:
            rel.stat_dedup_hits += 1
            if packet.lease is not None:
                packet.lease.release()  # duplicate copy never consumed
            self.tracer.record(
                self.fabric.clock.now(),
                "rel_dedup",
                seq=rseq,
                src=packet.src[0],
                pkt=packet.kind,
            )
        # Cumulative ack: highest in-order sequence delivered so far.
        # Sent for every reliable arrival (duplicates included) so a
        # lost ack is repaired by the sender's retransmit + this re-ack.
        rel.stat_acks_tx += 1
        self.tracer.record(
            self.fabric.clock.now(),
            "rel_ack_tx",
            ack=link.expected - 1,
            dst=packet.src[0],
        )
        self.endpoint_for(vci).post_send(
            packet.src, {"kind": "rel_ack", "ack": link.expected - 1}, b"", context=None
        )
        return deliverable

    def _rel_handle_ack(self, vci: int, state: VciState, packet: Packet) -> None:
        rel = self._rel_state(state)
        link = rel.tx_link(packet.src)
        ack = packet.header["ack"]
        rel.stat_acks_rx += 1
        self.tracer.record(
            self.fabric.clock.now(), "rel_ack_rx", ack=ack, src=packet.src[0]
        )
        acked: list[UnackedEntry] = []
        # unacked is insertion-ordered with ascending seqs, so the scan
        # stops at the first sequence beyond the cumulative ack.
        for seq in list(link.unacked):
            if seq > ack:
                break
            acked.append(link.unacked.pop(seq))
        for entry in acked:
            if entry.lease is not None:
                entry.lease.release()  # the unacked buffer's reference
                entry.lease = None
            if entry.cookie is not None:
                self._dispatch_completion(vci, state, entry.cookie)

    # ------------------------------------------------------------------
    # Fail-stop peer deaths.
    # ------------------------------------------------------------------
    def _proc_failed_exc(self, rank: int) -> ProcessFailedError:
        return ProcessFailedError(
            f"peer rank {rank} has failed", ranks=tuple(sorted(self.known_dead))
        )

    def note_peer_dead(self, rank: int) -> None:
        """Record a peer death (detector or retry-exhaustion driven).

        The per-VCI sweeps run lazily, each under its own stream's lock:
        a one-shot async hook is queued onto every live stream so the
        next progress pass anywhere clears state addressed at the
        corpse — no cross-stream locking from the caller's context.
        """
        if rank in self.known_dead:
            return
        self.known_dead.add(rank)
        self._dead_version += 1
        host = self._hook_host
        if host is None or getattr(host, "finalized", False):
            return
        for vci in list(self._vcis):
            host.async_start(
                lambda thing, v=vci: self._sweep_hook(v),
                extra_state="ft-dead-peer-sweep",
                stream=host.stream_for_vci(vci),
            )

    def _sweep_hook(self, vci: int) -> int:
        self._sweep_dead_vci(vci, self.vci_state(vci))
        return ASYNC_DONE

    def _sweep_dead_vci(self, vci: int, state: VciState) -> bool:
        """Fail every pending operation involving a dead peer (owning
        stream's lock held).  Wildcard (ANY_SOURCE) receives are left
        alone — a live sender may still match them (ULFM semantics)."""
        state.dead_version = self._dead_version
        dead = self.known_dead
        if not dead:
            return False
        made = False
        # Posted receives naming a dead source.
        for entry in state.match.posted_entries():
            if entry.src in dead and not entry.req.is_complete():
                state.match.remove_posted(entry)
                entry.req.fail(self._proc_failed_exc(entry.src), ERR_PROC_FAILED)
                made = True
        # Rendezvous/pipeline receives awaiting data from a dead source.
        for key, entry in list(state.recvs.items()):
            if key[0][0] in dead:
                state.recvs.pop(key, None)
                if entry.lease is not None:
                    entry.lease.release()
                    entry.lease = None
                entry.req.fail(self._proc_failed_exc(key[0][0]), ERR_PROC_FAILED)
                made = True
        # A parked RTS from a dead source can never be served: its
        # descriptor view (or the CTS it asks for) belongs to a corpse.
        for msg in state.match.unexpected_entries():
            if msg.kind == "rts" and msg.src_addr[0] in dead:
                self._drop_unexpected(state, msg)
                made = True
        # Active sends addressed at a dead destination (including ones
        # parked on an rdone the corpse will never send).
        for msg_id, entry in list(state.sends.items()):
            if entry.dst_rank in dead:
                state.sends.pop(msg_id, None)
                if entry.lease is not None:
                    entry.lease.release()
                    entry.lease = None
                entry.req.fail(
                    self._proc_failed_exc(entry.dst_rank), ERR_PROC_FAILED
                )
                made = True
        # Unacked reliable traffic to a dead destination: stop the
        # retransmit timer from flogging a corpse.
        rel = state.rel
        if rel is not None:
            for dst, link in list(rel.tx.items()):
                if dst[0] not in dead or (link.failed and not link.unacked):
                    continue
                link.failed = True
                entries = list(link.unacked.values())
                link.unacked.clear()
                exc = self._proc_failed_exc(dst[0])
                for uentry in entries:
                    rel.stat_failures += 1
                    if uentry.lease is not None:
                        uentry.lease.release()
                        uentry.lease = None
                    send_entry = (
                        uentry.cookie[1] if uentry.cookie is not None else None
                    )
                    self._rel_abort(
                        state, send_entry, uentry.recv_key, uentry.req, exc
                    )
                made = True
        return made

    # ------------------------------------------------------------------
    # Communicator revocation support.
    # ------------------------------------------------------------------
    def post_revoke(self, vci: int, dst: tuple[int, int], context_id: int) -> None:
        """Send one revoke notice.  Rides the reliability layer when it
        is armed (a lossy fabric cannot lose the revoke); peers already
        known dead are skipped — a corpse does not need the notice."""
        if dst[0] in self.known_dead:
            return
        self._post(vci, dst, {"kind": "comm_revoke", "ctx": context_id}, b"")

    def sweep_revoked(self, vci: int, ctxs, exc: Exception) -> None:
        """Fail every pending p2p operation on the given context ids
        (owning stream's lock held) and discard their queued unexpected
        messages.  Agreement traffic (tags at or above
        ``FT_RESERVED_TAG``) is exempt: ``Comm.agree`` must keep working
        on a revoked communicator, per ULFM."""
        state = self.vci_state(vci)
        ctx_set = set(ctxs)
        code = error_code_for(exc)
        for entry in state.match.posted_entries():
            if (
                entry.context_id in ctx_set
                and entry.tag < FT_RESERVED_TAG
                and not entry.req.is_complete()
            ):
                state.match.remove_posted(entry)
                entry.req.fail(exc, code)
        for key, entry in list(state.recvs.items()):
            if entry.context_id in ctx_set and entry.tag < FT_RESERVED_TAG:
                state.recvs.pop(key, None)
                if entry.lease is not None:
                    entry.lease.release()
                    entry.lease = None
                entry.req.fail(exc, code)
        for msg_id, entry in list(state.sends.items()):
            if entry.context_id in ctx_set and entry.tag < FT_RESERVED_TAG:
                state.sends.pop(msg_id, None)
                if entry.lease is not None:
                    entry.lease.release()
                    entry.lease = None
                entry.req.fail(exc, code)
        # Queued unexpected messages on a revoked context can never be
        # matched again; drop them (and their payload leases) now.
        for msg in state.match.unexpected_entries():
            header = msg.header
            if header["ctx"] in ctx_set and header["tag"] < FT_RESERVED_TAG:
                self._drop_unexpected(state, msg)

    def _drop_unexpected(self, state: VciState, msg: "_UnexpectedMsg") -> None:
        """Discard a parked arrival nothing can match anymore, giving
        back the lease reference it held (exactly once: only the caller
        that actually dequeues it releases)."""
        if state.match.remove_unexpected(msg) and msg.lease is not None:
            msg.lease.release()
            msg.lease = None

    def drop_unexpected(self) -> None:
        """Finalize: this rank will post no more receives, so parked
        pool-backed payloads (eager snapshots, pack-slab descriptors) go
        back to their pools."""
        for state in self._vcis.values():
            for msg in state.match.unexpected_entries():
                if msg.lease is not None:
                    self._drop_unexpected(state, msg)

    def reliability_stats(self) -> dict[str, int]:
        """Aggregated ack/retransmit counters across this rank's VCIs."""
        totals = {
            "retransmits": 0,
            "acks_tx": 0,
            "acks_rx": 0,
            "dedup_hits": 0,
            "ooo_buffered": 0,
            "failures": 0,
        }
        for state in self._vcis.values():
            if state.rel is not None:
                for key, value in state.rel.stats().items():
                    totals[key] += value
        return totals

    def _select_mode(self, nbytes: int) -> SendMode:
        cfg = self.config
        if nbytes <= cfg.buffered_threshold:
            return SendMode.BUFFERED
        if nbytes <= cfg.eager_threshold:
            return SendMode.EAGER
        if nbytes <= cfg.rendezvous_threshold:
            return SendMode.RENDEZVOUS
        return SendMode.PIPELINE

    # ------------------------------------------------------------------
    # Copy accounting and pooled staging.
    # ------------------------------------------------------------------
    def _count_copy(self, vci: int, nbytes: int) -> None:
        if nbytes:
            self.stat_copy_bytes[vci] = self.stat_copy_bytes.get(vci, 0) + nbytes

    def copy_bytes(self, vci: int) -> int:
        """Library staging copies on this VCI, in bytes."""
        return self.stat_copy_bytes.get(vci, 0)

    def copy_stats(self) -> dict[str, int]:
        """Copy-byte counters: one key per VCI plus the total."""
        stats = {f"vci{vci}": n for vci, n in sorted(self.stat_copy_bytes.items())}
        stats["total"] = sum(self.stat_copy_bytes.values())
        return stats

    def stage_payload(self, vci: int, view) -> tuple[Any, Any]:
        """Copy ``view`` once into an owned payload.

        Returns ``(payload, lease)``: a read-only view of a pooled slab
        (pool on, payload at least ``POOL_STAGE_MIN``) or plain
        ``bytes`` with a None lease.  The caller must release its lease reference
        once the payload is posted — wire and retransmit references keep
        the slab alive.  Used by every staging site that needs payload
        ownership detached from the user's buffer (RMA origin data,
        sub-class eager sends).
        """
        nbytes = len(view)
        self._count_copy(vci, nbytes)
        if self._zc and nbytes >= POOL_STAGE_MIN:
            lease = self.pool.acquire(nbytes)
            lease.view[:] = view
            return lease.readonly, lease
        return bytes(view), None

    # ------------------------------------------------------------------
    # Send path.
    # ------------------------------------------------------------------
    def isend(
        self,
        vci: int,
        dst_rank: int,
        dst_vci: int,
        buf,
        count: int,
        datatype: Datatype,
        tag: int,
        context_id: int,
        *,
        sync: bool = False,
    ) -> Request:
        """Start a nonblocking send; returns its request.

        ``sync=True`` forces rendezvous regardless of size (MPI_Ssend
        semantics: completion implies the receive was matched).
        """
        if count < 0:
            raise InvalidCountError(f"negative count {count}")
        if tag < 0 or tag > self.config.tag_ub:
            raise InvalidTagError(f"tag {tag} outside [0, {self.config.tag_ub}]")
        datatype.ensure_committed()
        nbytes = count * datatype.size
        req = Request("send")
        if dst_rank in self.known_dead:
            req.fail(self._proc_failed_exc(dst_rank), ERR_PROC_FAILED)
            return req
        mode = self._select_mode(nbytes)
        if sync and mode in _EAGER_CLASS:
            mode = SendMode.RENDEZVOUS  # completion must imply a match
        use_shmem = self._shmem_route(dst_rank)
        if use_shmem and mode not in _EAGER_CLASS:
            mode = SendMode.DESCRIPTOR  # on-node: one protocol above eager
        entry = SendEntry(req, next(self._msg_ids), mode)
        entry.dst_rank = dst_rank
        entry.dst_vci = dst_vci
        entry.tag = tag
        entry.context_id = context_id
        entry.nbytes = nbytes
        entry.use_shmem = use_shmem

        state = self.vci_state(vci)

        # --- gather the payload -------------------------------------
        if count == 0:
            self._start_protocol(vci, state, entry, b"")
            return req
        if datatype.is_contiguous:
            view = as_readonly_view(buf)
            if view.nbytes > nbytes:
                view = view[:nbytes]
            if self._zc:
                # Hand the protocol a live view of the user's buffer;
                # _start_protocol stages it only where the protocol
                # needs ownership (eager-class completion semantics).
                self._start_protocol(vci, state, entry, view)
            else:
                self._count_copy(vci, nbytes)
                self._start_protocol(vci, state, entry, bytes(view))
        elif nbytes <= self.config.datatype_chunk_size:
            # Small non-contiguous payload: pack synchronously.  The
            # pack itself is the message's one staging copy.
            self._count_copy(vci, nbytes)
            if self._zc and nbytes >= MIN_CLASS_BYTES:
                lease = self.pool.acquire(nbytes)
                datatype.pack_into(buf, count, lease.view)
                self._start_protocol(vci, state, entry, lease.readonly, lease)
            else:
                self._start_protocol(vci, state, entry, bytes(datatype.pack(buf, count)))
        else:
            # Large non-contiguous payload: pack asynchronously via the
            # datatype engine; the protocol starts when packing ends.
            # With the pool on, the pack lands directly in a leased slab
            # — the pack IS the copy, no bytes() re-materialization.
            self._count_copy(vci, nbytes)
            req.add_wait_block()  # the async pack is itself a wait
            if self._zc:
                lease = self.pool.acquire(nbytes)
                staging: Any = lease.view

                def _packed() -> None:
                    self._start_protocol(vci, state, entry, lease.readonly, lease)

            else:
                lease = None
                staging = bytearray(nbytes)

                def _packed() -> None:
                    self._start_protocol(vci, state, entry, bytes(staging))

            task = PackTask(
                datatype,
                count,
                buf,
                staging,
                unpack=False,
                chunk_size=self.config.datatype_chunk_size,
                on_complete=_packed,
            )
            self.datatype_engine.submit(task)
        return req

    def _start_protocol(
        self,
        vci: int,
        state: VciState,
        entry: SendEntry,
        payload: bytes | memoryview,
        lease: Any = None,
    ) -> None:
        zc = lease is None and isinstance(payload, memoryview)
        if zc and entry.mode in _EAGER_CLASS:
            # Eager-class requests complete before the receiver reads
            # the payload, so the wire needs an owned snapshot: one
            # staging copy, pooled when big enough to be worth a slab.
            self._count_copy(vci, entry.nbytes)
            if self._zc and entry.nbytes >= POOL_STAGE_MIN:
                lease = self.pool.acquire(entry.nbytes)
                lease.view[:] = payload
                payload = lease.readonly
            else:
                payload = bytes(payload)
            zc = False
        entry.payload = payload
        entry.lease = lease
        entry.zc = zc
        dst = (entry.dst_rank, entry.dst_vci)
        base_header = {
            "ctx": entry.context_id,
            "src_rank": self.rank,
            "src_vci": vci,
            "tag": entry.tag,
            "msg_id": entry.msg_id,
        }
        self.tracer.record(
            self.fabric.clock.now(),
            "send_start",
            mode=entry.mode.value,
            msg_id=entry.msg_id,
            nbytes=entry.nbytes,
            dst=entry.dst_rank,
        )
        buffered = entry.mode is SendMode.BUFFERED
        if buffered and self._rel_on and not entry.use_shmem:
            # Fire-and-forget is meaningless on a lossy link: completing
            # the request before the ack would hide a dropped packet.
            # Reliable mode therefore runs buffered sends through the
            # eager path (completion deferred to the ack).
            buffered = False
        if buffered:
            # Lightweight send: the payload snapshot above IS the bounce
            # buffer copy; fire and forget, zero wait blocks.  Wire and
            # transport references keep the slab alive past this point.
            header = dict(base_header, kind="eager")
            self._post(vci, dst, header, payload, via_shmem=entry.use_shmem, lease=lease)
            if lease is not None:
                lease.release()
                entry.lease = None
            entry.req.complete(count_bytes=entry.nbytes)
        elif entry.mode in _EAGER_CLASS:
            header = dict(base_header, kind="eager")
            entry.req.add_wait_block()
            state.sends[entry.msg_id] = entry
            self._post(
                vci,
                dst,
                header,
                payload,
                context=("send_done", entry),
                via_shmem=entry.use_shmem,
                req=entry.req,
                lease=lease,
            )
        elif entry.mode is SendMode.DESCRIPTOR:
            # The RTS carries the payload view itself; the only wait is
            # for the receiver's rdone (it read the view, which must
            # stay stable until then — user buffer or leased slab).
            header = dict(base_header, kind="rts", nbytes=entry.nbytes, desc=True)
            entry.req.add_wait_block()  # waiting for the rdone
            state.sends[entry.msg_id] = entry
            self._post(
                vci, dst, header, payload, via_shmem=True, lease=lease, descriptor=True
            )
        else:  # RENDEZVOUS or PIPELINE: RTS first.
            header = dict(
                base_header,
                kind="rts",
                nbytes=entry.nbytes,
                pipelined=entry.mode is SendMode.PIPELINE,
                zc=entry.zc,
            )
            entry.req.add_wait_block()  # waiting for CTS
            state.sends[entry.msg_id] = entry
            self._post(vci, dst, header, b"", req=entry.req, send_entry=entry)

    def _handle_cts(self, vci: int, state: VciState, msg_id: int) -> None:
        entry = state.sends.get(msg_id)
        if entry is None:
            return
        dst = (entry.dst_rank, entry.dst_vci)
        self.tracer.record(
            self.fabric.clock.now(), "cts_received", msg_id=msg_id
        )
        if entry.mode is SendMode.RENDEZVOUS:
            if entry.zc:
                # Zero-copy: the wire carries a live view of the user's
                # buffer, so the local transport completion proves
                # nothing — completion waits for the receiver's rdone
                # confirming the bytes were consumed.
                header = {"kind": "rdata", "msg_id": msg_id, "zc": True}
                entry.req.add_wait_block()  # waiting for the rdone
                self._post(
                    vci,
                    dst,
                    header,
                    entry.payload,
                    req=entry.req,
                    send_entry=entry,
                )
            else:
                header = {"kind": "rdata", "msg_id": msg_id}
                entry.req.add_wait_block()  # waiting for data completion
                self._post(
                    vci,
                    dst,
                    header,
                    entry.payload,
                    context=("send_done", entry),
                    req=entry.req,
                    lease=entry.lease,
                )
        else:  # PIPELINE
            chunk = self.config.pipeline_chunk_size
            entry.total_chunks = max(1, -(-entry.nbytes // chunk))
            self._pump_pipeline(vci, state, entry)

    def _pump_pipeline(self, vci: int, state: VciState, entry: SendEntry) -> None:
        """Post chunks up to the in-flight window."""
        cfg = self.config
        dst = (entry.dst_rank, entry.dst_vci)
        posted_any = False
        while (
            entry.next_offset < entry.nbytes
            and entry.inflight_chunks < cfg.pipeline_max_inflight
        ):
            end = min(entry.next_offset + cfg.pipeline_chunk_size, entry.nbytes)
            header = {
                "kind": "chunk",
                "msg_id": entry.msg_id,
                "offset": entry.next_offset,
                "last": end >= entry.nbytes,
            }
            # Memoryview payloads (zero-copy or pooled) chunk into
            # subviews; bytes payloads (pool off) slice, a copy each.
            chunk_payload = entry.payload[entry.next_offset : end]
            if not isinstance(entry.payload, memoryview):
                self._count_copy(vci, len(chunk_payload))
            self._post(
                vci,
                dst,
                header,
                chunk_payload,
                context=("chunk_done", entry),
                req=entry.req,
                lease=entry.lease,
            )
            entry.next_offset = end
            entry.inflight_chunks += 1
            posted_any = True
        if posted_any:
            entry.req.add_wait_block()  # one wait per posted wave

    def _handle_chunk_done(self, vci: int, state: VciState, entry: SendEntry) -> None:
        entry.inflight_chunks -= 1
        entry.chunks_done += 1
        if entry.next_offset < entry.nbytes:
            self._pump_pipeline(vci, state, entry)
        elif entry.inflight_chunks == 0 and (not entry.zc or entry.rdone_received):
            # Zero-copy pipelines additionally wait for the receiver's
            # rdone: the chunks on the wire are views of the user's
            # buffer, which must stay stable until consumed.
            self._complete_send(state, entry)

    def _complete_send(self, state: VciState, entry: SendEntry) -> None:
        state.sends.pop(entry.msg_id, None)
        if entry.lease is not None:
            entry.lease.release()
            entry.lease = None
        entry.req.complete(count_bytes=entry.nbytes)
        self.tracer.record(
            self.fabric.clock.now(),
            "send_complete",
            mode=entry.mode.value,
            msg_id=entry.msg_id,
        )

    # ------------------------------------------------------------------
    # Receive path.
    # ------------------------------------------------------------------
    def irecv(
        self,
        vci: int,
        buf,
        count: int,
        datatype: Datatype,
        src: int,
        tag: int,
        context_id: int,
    ) -> Request:
        """Post a nonblocking receive; returns its request."""
        if count < 0:
            raise InvalidCountError(f"negative count {count}")
        if tag != ANY_TAG and (tag < 0 or tag > self.config.tag_ub):
            raise InvalidTagError(f"tag {tag} outside [0, {self.config.tag_ub}]")
        datatype.ensure_committed()
        req = Request("recv")
        if src != ANY_SOURCE and src in self.known_dead:
            req.fail(self._proc_failed_exc(src), ERR_PROC_FAILED)
            return req
        entry = RecvEntry(req, buf, count, datatype, src, tag, context_id)
        state = self.vci_state(vci)

        # One shard critical section: match-unexpected-else-post must be
        # atomic or a concurrent arrival could miss the posted entry.
        msg = state.match.recv_match_or_post(context_id, src, tag, entry)
        if msg is None:
            req.add_wait_block()  # will wait for arrival
            return req

        self._deliver_unexpected(vci, state, entry, msg)
        return req

    def _deliver_unexpected(
        self, vci: int, state: VciState, entry: RecvEntry, msg: "_UnexpectedMsg"
    ) -> None:
        """A receive claimed a parked arrival (irecv match or mrecv)."""
        if msg.kind == "eager":
            self._deliver(entry, msg.header, msg.payload)
        else:  # rts arrived before the receive was posted
            self._accept_rts(vci, state, entry, msg.src_addr, msg.header, msg.payload)
        if msg.lease is not None:
            msg.lease.release()  # payload consumed into the user buffer
            msg.lease = None

    def _deliver(
        self,
        entry: RecvEntry,
        header: dict[str, Any],
        payload: bytes | memoryview,
        mode: str = "eager",
    ) -> None:
        """Copy/unpack a whole in-hand payload into the user buffer and
        complete the receive (eager arrival or on-node descriptor)."""
        n = len(payload)
        error = 0
        if n > entry.capacity:
            n = entry.capacity
            error = ERR_TRUNCATE
        if n:
            if entry.contiguous:
                as_writable_view(entry.buf)[:n] = payload[:n]
            else:
                whole = n // entry.datatype.size
                entry.datatype.unpack_from(payload, whole, entry.buf)
        entry.req.complete(
            source=header["src_rank"],
            tag=header["tag"],
            count_bytes=n,
            error=error,
        )
        self.tracer.record(
            self.fabric.clock.now(),
            "recv_complete",
            mode=mode,
            msg_id=header["msg_id"],
            nbytes=n,
        )

    def _accept_rts(
        self,
        vci: int,
        state: VciState,
        entry: RecvEntry,
        src_addr: tuple[int, int],
        header: dict[str, Any],
        payload: bytes | memoryview = b"",
    ) -> None:
        """Matched an RTS.  On-node it carried the payload view: copy
        once and confirm with rdone.  Off-node: reply CTS and arm for
        incoming data."""
        msg_id = header["msg_id"]
        if header.get("desc"):
            self._deliver(entry, header, payload, "descriptor")
            self._post(
                vci, src_addr, {"kind": "rdone", "msg_id": msg_id}, b"", via_shmem=True
            )
            return
        nbytes = header["nbytes"]
        entry.expected_bytes = nbytes
        entry.zc_reply = bool(header.get("zc"))
        entry.req.status.source = header["src_rank"]
        entry.req.status.tag = header["tag"]
        if not entry.contiguous or nbytes > entry.capacity:
            size = min(nbytes, max(entry.capacity, 1)) or 1
            if self._zc and size >= MIN_CLASS_BYTES:
                entry.lease = self.pool.acquire(size)
                entry.staging = entry.lease.view
            else:
                entry.staging = bytearray(size)
        state.recvs[(src_addr, msg_id)] = entry
        entry.req.add_wait_block()  # waiting for the data
        self.tracer.record(
            self.fabric.clock.now(), "cts_sent", msg_id=msg_id, nbytes=nbytes
        )
        self._post(
            vci,
            src_addr,
            {"kind": "cts", "msg_id": msg_id},
            b"",
            req=entry.req,
            recv_key=(src_addr, msg_id),
        )

    def _finish_large_recv(
        self,
        state: VciState,
        key: tuple[tuple[int, int], int],
        entry: RecvEntry,
        payload: bytes | None,
    ) -> None:
        """Complete a rendezvous/pipeline receive.

        ``payload`` is the whole message for rendezvous; None for
        pipeline (data already landed in buf/staging chunk by chunk).
        """
        state.recvs.pop(key, None)
        error = 0
        if payload is not None:
            n = len(payload)
            if n > entry.capacity:
                n = entry.capacity
                error = ERR_TRUNCATE
            if entry.contiguous:
                if n:
                    as_writable_view(entry.buf)[:n] = payload[:n]
            else:
                whole = n // entry.datatype.size
                entry.datatype.unpack_from(payload, whole, entry.buf)
            received = n
        else:
            received = min(entry.bytes_received, entry.capacity)
            if entry.bytes_received > entry.capacity:
                error = ERR_TRUNCATE
            if entry.staging is not None:
                whole = received // entry.datatype.size
                entry.datatype.unpack_from(entry.staging, whole, entry.buf)
        if entry.lease is not None:
            entry.lease.release()  # staging slab back to the pool
            entry.lease = None
            entry.staging = None
        entry.req.complete(count_bytes=received, error=error)
        self.tracer.record(
            self.fabric.clock.now(),
            "recv_complete",
            mode="large",
            msg_id=key[1],
            nbytes=received,
        )

    def _handle_chunk_packet(
        self, vci: int, state: VciState, src_addr: tuple[int, int], packet: Packet
    ) -> None:
        msg_id = packet.header["msg_id"]
        key = (src_addr, msg_id)
        entry = state.recvs.get(key)
        if entry is None:
            return  # stale (cancelled receive)
        offset = packet.header["offset"]
        data = packet.payload
        if entry.staging is not None:
            end = min(offset + len(data), len(entry.staging))
            if offset < end:
                entry.staging[offset:end] = data[: end - offset]
                self._count_copy(vci, end - offset)
        else:
            view = as_writable_view(entry.buf)
            end = min(offset + len(data), entry.capacity)
            if offset < end:
                view[offset:end] = data[: end - offset]
        entry.bytes_received += len(data)
        if entry.bytes_received >= entry.expected_bytes:
            zc_reply = entry.zc_reply
            self._finish_large_recv(state, key, entry, None)
            if zc_reply:
                # Confirm consumption so the sender's rdone-gated
                # request can complete (its chunks were live views of
                # the user's buffer).
                self._post(vci, src_addr, {"kind": "rdone", "msg_id": msg_id}, b"")

    # ------------------------------------------------------------------
    # Probe / matched probe / cancel.
    # ------------------------------------------------------------------
    def improbe(
        self, vci: int, src: int, tag: int, context_id: int
    ) -> "_UnexpectedMsg | None":
        """Matched probe (MPI_Improbe): atomically claim one matching
        unexpected message, removing it from the queue.

        The returned handle can only be received via :meth:`imrecv`;
        other receives can no longer match it.  None when nothing
        matches (the core layer drives progress around this).
        """
        state = self.vci_state(vci)
        return state.match.pop_unexpected(context_id, src, tag)

    def imrecv(
        self,
        vci: int,
        buf,
        count: int,
        datatype: Datatype,
        message: "_UnexpectedMsg",
    ) -> Request:
        """Receive a message claimed by :meth:`improbe`."""
        datatype.ensure_committed()
        req = Request("mrecv")
        entry = RecvEntry(
            req,
            buf,
            count,
            datatype,
            message.header["src_rank"],
            message.header["tag"],
            message.header["ctx"],
        )
        self._deliver_unexpected(vci, self.vci_state(vci), entry, message)
        return req

    def iprobe(
        self, vci: int, src: int, tag: int, context_id: int
    ) -> dict[str, Any] | None:
        """Non-destructive check for a matchable unexpected message.

        Returns ``{'source', 'tag', 'count_bytes'}`` or None.  The core
        layer invokes progress around this.
        """
        state = self.vci_state(vci)
        msg = state.match.peek_unexpected(context_id, src, tag)
        if msg is None:
            return None
        return {
            "source": msg.header["src_rank"],
            "tag": msg.header["tag"],
            "count_bytes": msg.nbytes,
        }

    def cancel_recv(self, vci: int, req: Request) -> bool:
        """Cancel a still-posted receive; True on success."""
        state = self.vci_state(vci)
        for entry in state.match.posted_entries():
            if entry.req is req:
                state.match.remove_posted(entry)
                req.status.cancelled = True
                req.complete(count_bytes=0)
                return True
        return False

    # ------------------------------------------------------------------
    # Progress.
    # ------------------------------------------------------------------
    def progress_netmod(self, vci: int, max_k: int | None = None) -> bool:
        """Poll the netmod endpoint for this VCI (Listing 1.1's
        ``Netmod_progress``); True when anything was processed.

        ``max_k`` bounds the batched drain: at most that many matured
        completions/arrivals are harvested under one endpoint lock
        acquisition, keeping a flooded endpoint from monopolizing the
        pass while still amortizing the lock round-trip over the batch.
        """
        state = self.vci_state(vci)
        made = False
        if state.dead_version != self._dead_version:
            # A peer died since this VCI last looked: fail everything
            # addressed at the corpse (we hold this stream's lock).
            made = self._sweep_dead_vci(vci, state)
        endpoint = self.endpoint_for(vci)
        completions, packets = endpoint.poll_batch(max_k)
        det = self.detector
        if det is not None:
            for packet in packets:
                # Any harvested packet is a piggybacked heartbeat.
                det.note_alive(packet.src[0])
        for op in completions:
            if op.context is not None:
                made = True
                self._dispatch_completion(vci, state, op.context)
        if self._rel_on:
            for packet in packets:
                # Receiving anything (even a duplicate or an ack) is
                # progress: it mutated reliability state.
                made = True
                for released in self._rel_ingress(vci, state, packet):
                    self._consume_packet(vci, state, released)
        else:
            for packet in packets:
                made = True
                self._consume_packet(vci, state, packet)
        return made

    def progress_shmem(self, vci: int, max_k: int | None = None) -> bool:
        """Poll the shmem transport for this VCI (Listing 1.1's
        ``Shmem_progress``); True when anything was processed.  ``max_k``
        bounds the receiver-side cell drain per pass."""
        if self.shmem is None or not self.config.use_shmem:
            return False
        state = self.vci_state(vci)
        addr = (self.rank, vci)
        if not self.shmem.has_work(addr):
            return False
        s_completions, s_packets, made = self.shmem.progress_batch(addr, max_k)
        for op in s_completions:
            if op.context is not None:
                made = True
                self._dispatch_completion(vci, state, op.context)
        for packet in s_packets:
            made = True
            self._consume_packet(vci, state, packet)
        return made

    def progress(self, vci: int) -> bool:
        """Poll both transports (convenience for tests)."""
        made = self.progress_shmem(vci)
        return self.progress_netmod(vci) or made

    def _dispatch_completion(self, vci: int, state: VciState, context: Any) -> None:
        kind, entry = context
        if kind == "send_done":
            self._complete_send(state, entry)
        elif kind == "chunk_done":
            self._handle_chunk_done(vci, state, entry)
        # other cookies ('rts_sent', ...) need no action

    # ------------------------------------------------------------------
    # RMA window registry (one-sided packets bypass matching).
    # ------------------------------------------------------------------
    def register_rma(self, win_id: int, win: Any) -> None:
        self.rma_windows[win_id] = win

    def unregister_rma(self, win_id: int) -> None:
        self.rma_windows.pop(win_id, None)

    def _consume_packet(self, vci: int, state: VciState, packet: Packet) -> None:
        """Dispatch one delivered packet, then drop its wire lease
        reference — unless payload ownership transferred onward (to the
        unexpected queue, which releases it on match)."""
        lease = packet.lease
        if self._dispatch_packet(vci, state, packet) or lease is None:
            return
        lease.release()

    def _dispatch_packet(self, vci: int, state: VciState, packet: Packet) -> bool:
        """Route one delivered packet.  Returns True when the packet's
        payload (and lease reference) was transferred to the unexpected
        queue; every other path consumes the payload immediately."""
        kind = packet.kind
        header = packet.header
        if kind.startswith("rma_"):
            win = self.rma_windows.get(header["win"])
            if win is not None:
                win.handle_packet(self, vci, packet)
            return False
        if kind == "eager" or kind == "rts":
            # One shard critical section: match-posted-else-add must be
            # atomic or a concurrent irecv could miss this arrival.  A
            # parked RTS keeps its descriptor view (and lease) with it.
            entry = state.match.arrival_match_or_add(
                header["ctx"],
                header["src_rank"],
                header["tag"],
                _UnexpectedMsg(kind, packet.src, header, packet.payload, packet.lease),
            )
            if entry is None:
                return True
            if kind == "eager":
                self._deliver(entry, header, packet.payload)
            else:
                self._accept_rts(vci, state, entry, packet.src, header, packet.payload)
        elif kind == "cts":
            self._handle_cts(vci, state, header["msg_id"])
        elif kind == "rdata":
            key = (packet.src, header["msg_id"])
            entry = state.recvs.get(key)
            if entry is not None:
                self._finish_large_recv(state, key, entry, packet.payload)
            if header.get("zc"):
                # Always confirm — even for a stale entry — so the
                # sender's rdone-gated request cannot hang.
                self._post(
                    vci, packet.src, {"kind": "rdone", "msg_id": header["msg_id"]}, b""
                )
        elif kind == "rdone":
            entry = state.sends.get(header["msg_id"])
            if entry is not None:
                entry.rdone_received = True
                if entry.mode is not SendMode.PIPELINE or (
                    entry.chunks_done >= entry.total_chunks
                    and entry.inflight_chunks == 0
                ):
                    self._complete_send(state, entry)
        elif kind == "chunk":
            self._handle_chunk_packet(vci, state, packet.src, packet)
        elif kind == "hb_ping":
            # Heartbeat probe: answer immediately.  Liveness traffic is
            # unsequenced — the reliability layer must never retransmit
            # it (a dead prober would make the pong itself hang).
            self.endpoint_for(vci).post_send(
                packet.src, {"kind": "hb_pong"}, b"", context=None
            )
        elif kind == "hb_pong":
            if self.detector is not None:
                self.detector.stat_pongs_rx += 1
            # note_alive already ran when the packet was harvested
        elif kind == "comm_revoke":
            host = self._hook_host
            if host is not None:
                host.on_comm_revoke(header["ctx"])
        else:  # pragma: no cover - future protocol kinds
            raise AssertionError(f"unknown packet kind {kind!r}")
        return False

    # ------------------------------------------------------------------
    def has_pending(self, vci: int) -> bool:
        """Any protocol activity outstanding on this VCI?"""
        state = self.vci_state(vci)
        if state.sends or state.recvs or len(state.posted):
            return True
        # Unacked reliable sends keep the VCI busy (the retransmit hook
        # must keep firing until the ack lands or the link dies).  Parked
        # out-of-order *receives* deliberately do not: if the sender gave
        # up, waiting on the gap would hang finalize forever.
        if self._rel_on and state.rel is not None and state.rel.has_unacked():
            return True
        if self.netmod_has_work(vci):
            return True
        if self.shmem is not None and self.shmem.has_work((self.rank, vci)):
            return True
        return False
