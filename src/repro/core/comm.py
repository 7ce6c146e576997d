"""Communicators: point-to-point entry points, collectives, stream comms.

A :class:`Comm` binds a rank group to (a) a context-id pair separating
its point-to-point and collective traffic and (b) an MPIX stream whose
VCI carries the traffic and whose lock serializes posting.  A *stream
communicator* (``MPIX_Stream_comm_create``, section 3.1) is simply a
Comm bound to a user-created stream; ``COMM_WORLD`` is bound to the
default stream.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.core.request import Request, Status
from repro.core.stream import MpixStream
from repro.coll.algorithms import (
    plan_allgather_ring,
    plan_allgatherv_ring,
    plan_allreduce_rabenseifner,
    plan_allreduce_recursive_doubling,
    plan_alltoall_pairwise,
    plan_alltoallv_pairwise,
    plan_barrier_dissemination,
    plan_bcast_binomial,
    plan_bcast_scatter_allgather,
    plan_exscan_chain,
    plan_gather_linear,
    plan_gatherv_linear,
    plan_reduce_binomial,
    plan_reduce_scatter_ordered,
    plan_reduce_scatter_pairwise,
    plan_scan_chain,
    plan_scatter_linear,
    plan_scatterv_linear,
)
from repro.coll.plan import Plan, PlanExecutor, plan_for
from repro.datatype.ops import SUM, Op
from repro.datatype.types import (
    BYTE,
    Datatype,
    as_readonly_view,
    as_writable_view,
)
from repro.errors import (
    InvalidArgumentError,
    InvalidCommunicatorError,
    InvalidRankError,
    RevokedError,
)
from repro.p2p.matching import ANY_SOURCE, ANY_TAG
from repro.p2p.protocol import FT_RESERVED_TAG
from repro.util.atomic import AtomicCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mpi import Proc

__all__ = ["Comm", "IN_PLACE", "ERRORS_ARE_FATAL", "ERRORS_RETURN"]

#: MPI_ERRORS_ARE_FATAL: delivery failures raise from test/wait.
ERRORS_ARE_FATAL = "fatal"
#: MPI_ERRORS_RETURN: delivery failures complete the request with the
#: error captured on it (``req.exception`` / ``status.error``).
ERRORS_RETURN = "return"


class _InPlaceType:
    """Singleton sentinel for ``MPI_IN_PLACE``."""

    _instance: "_InPlaceType | None" = None

    def __new__(cls) -> "_InPlaceType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "IN_PLACE"


IN_PLACE = _InPlaceType()

#: Process-wide communicator epoch source: every Comm gets a distinct
#: epoch, so ``(context_id, epoch)`` identifies one communicator
#: *incarnation* — a freed comm's cached plans can never be served to a
#: later comm that reuses its context id.
_comm_epochs = itertools.count()

#: Agreement tags cycle through this window above ``FT_RESERVED_TAG``
#: (two tags per ``agree`` call: contribution round + confirmation
#: round), staying below ``tag_ub``.
_AGREE_TAG_WINDOW = 1 << 20

#: Child-index namespace for shrink-derived contexts — far above any
#: plausible ``_child_count`` so shrink can never collide with an
#: ordinary dup/split context derivation on the same parent.
_SHRINK_CHILD_BASE = 1 << 20


def _byte_type():
    return BYTE


class _ZeroVcis:
    """Immutable all-zeros per-member VCI table.

    Default-stream communicators (the overwhelmingly common case) map
    every member to VCI 0; materializing ``[0] * size`` per comm means
    a 4096-rank sim world carries 4096 such lists — hundreds of MB of
    zeros.  This one-slot stand-in supports the read paths
    (``[i]``, ``len``, iteration) and is shared structurally.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [0] * len(range(*i.indices(self._n)))
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("peer_vcis index out of range")
        return 0

    def __iter__(self):
        return itertools.repeat(0, self._n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ZeroVcis({self._n})"


class Comm:
    """A communicator for one process context.

    Construction is internal; obtain communicators from
    ``proc.comm_world`` and the collective constructors
    (:meth:`dup`, :meth:`split`, :meth:`stream_comm`).
    """

    def __init__(
        self,
        proc: "Proc",
        ranks: list[int],
        context_id: int,
        stream: MpixStream,
        peer_vcis: list[int] | None = None,
    ) -> None:
        self.proc = proc
        #: world ranks of the members, in comm rank order.  A ``range``
        #: is kept as-is: O(1) ``index``/``[]`` with no per-comm member
        #: list — COMM_WORLD at 4096 sim ranks would otherwise cost
        #: 4096 copies of a 4096-entry list.
        self.ranks = ranks if isinstance(ranks, range) else list(ranks)
        self.context_id = context_id
        self.stream = stream
        #: per-member VCI (stream comms exchange these at creation)
        if peer_vcis is None:
            peer_vcis = _ZeroVcis(len(self.ranks))
        self.peer_vcis = (
            peer_vcis if isinstance(peer_vcis, _ZeroVcis) else list(peer_vcis)
        )
        self._rank = self.ranks.index(proc.rank)
        self._coll_seq = 0
        self._child_count = 0
        self.freed = False
        #: incarnation id for plan-cache keys (see ``comm_key``)
        self.epoch = next(_comm_epochs)
        #: tag sequence for user-level collectives (atomic: the progress
        #: pool may start collectives from multiple threads)
        self._user_coll_seq = AtomicCounter(0)
        #: MPI-style error handler: ERRORS_ARE_FATAL, ERRORS_RETURN, or
        #: a callable invoked once per failed operation.
        self.errhandler: Any = ERRORS_ARE_FATAL
        #: set once the communicator is revoked (locally or by a peer's
        #: revoke-flood); every later operation raises RevokedError
        self.revoked = False
        self._agree_seq = 0
        self._shrink_count = 0
        #: register for revoke-flood routing (and apply a revoke that
        #: raced construction)
        proc.register_comm(self)

    # ------------------------------------------------------------------
    # Error handlers (MPI_Comm_set_errhandler).
    # ------------------------------------------------------------------
    def set_errhandler(self, errhandler: Any) -> None:
        """Set this communicator's error disposition.

        ``ERRORS_ARE_FATAL`` (default): a failed operation raises (e.g.
        :class:`~repro.errors.DeliveryFailedError`) from the wait/test
        that observes it.  ``ERRORS_RETURN``: the operation's request
        completes with the exception captured on ``request.exception``
        and a nonzero ``status.error``; waits return normally.  A
        *callable* is invoked exactly once per failed operation with the
        exception, then the wait returns like ``ERRORS_RETURN``.
        """
        if errhandler not in (ERRORS_ARE_FATAL, ERRORS_RETURN) and not callable(
            errhandler
        ):
            raise ValueError(
                f"errhandler must be {ERRORS_ARE_FATAL!r}, {ERRORS_RETURN!r},"
                f" or a callable, got {errhandler!r}"
            )
        self.errhandler = errhandler

    def get_errhandler(self) -> Any:
        return self.errhandler

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        return len(self.ranks)

    @property
    def coll_context_id(self) -> int:
        return self.context_id + 1

    @property
    def comm_key(self) -> tuple[int, int]:
        """Cache identity of this communicator incarnation."""
        return (self.context_id, self.epoch)

    def _check(self) -> None:
        if self.freed:
            raise InvalidCommunicatorError("communicator has been freed")
        if self.revoked:
            raise RevokedError(
                f"communicator ctx={self.context_id} has been revoked"
            )

    def _world_rank(self, comm_rank: int) -> int:
        if not 0 <= comm_rank < self.size:
            raise InvalidRankError(f"rank {comm_rank} outside [0, {self.size})")
        return self.ranks[comm_rank]

    # ------------------------------------------------------------------
    # Point-to-point.
    # ------------------------------------------------------------------
    def isend(
        self,
        buf,
        count: int,
        datatype: Datatype,
        dest: int,
        tag: int = 0,
        *,
        sync: bool = False,
    ) -> Request:
        """Nonblocking send (``sync=True`` gives MPI_Issend semantics)."""
        world_dest = self._world_rank(dest)
        dst_vci = self.peer_vcis[dest]
        with self.stream.lock:
            # Checked under the lock the revoke sweep takes: a post is
            # either swept or sees the flag, never slips in behind it
            # (a handshaking send posted there would wait forever).
            self._check()
            req = self.proc.p2p.isend(
                self.stream.vci,
                world_dest,
                dst_vci,
                buf,
                count,
                datatype,
                tag,
                self.context_id,
                sync=sync,
            )
        req.errhandler = self.errhandler
        return req

    def irecv(
        self,
        buf,
        count: int,
        datatype: Datatype,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Request:
        """Nonblocking receive."""
        world_src = (
            ANY_SOURCE if source == ANY_SOURCE else self._world_rank(source)
        )
        with self.stream.lock:
            self._check()  # under the sweep's lock, as in isend
            req = self.proc.p2p.irecv(
                self.stream.vci, buf, count, datatype, world_src, tag, self.context_id
            )
        req.errhandler = self.errhandler
        return req

    def send(self, buf, count: int, datatype: Datatype, dest: int, tag: int = 0) -> None:
        """Blocking send."""
        self.proc.wait(self.isend(buf, count, datatype, dest, tag), self.stream)

    def ssend(self, buf, count: int, datatype: Datatype, dest: int, tag: int = 0) -> None:
        """Blocking synchronous send (completion implies matching)."""
        self.proc.wait(
            self.isend(buf, count, datatype, dest, tag, sync=True), self.stream
        )

    def recv(
        self,
        buf,
        count: int,
        datatype: Datatype,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Status:
        """Blocking receive; returns the completion status."""
        req = self.irecv(buf, count, datatype, source, tag)
        self.proc.wait(req, self.stream)
        status = req.status
        if status.source >= 0:
            # Translate world rank back into this comm's numbering.
            try:
                status.source = self.ranks.index(status.source)
            except ValueError:  # pragma: no cover - foreign source
                pass
        return status

    def sendrecv(
        self,
        sendbuf,
        sendcount: int,
        sendtype: Datatype,
        dest: int,
        recvbuf,
        recvcount: int,
        recvtype: Datatype,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Status:
        """Combined send+receive, deadlock-free."""
        rreq = self.irecv(recvbuf, recvcount, recvtype, source, recvtag)
        sreq = self.isend(sendbuf, sendcount, sendtype, dest, sendtag)
        self.proc.waitall([rreq, sreq], self.stream)
        return rreq.status

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Nonblocking probe: status of a matchable message, or None.

        Invokes one progress pass first so freshly arrived traffic is
        visible (MPI requires probe to "see" arrived messages).
        """
        self._check()
        self.proc.stream_progress(self.stream)
        world_src = ANY_SOURCE if source == ANY_SOURCE else self._world_rank(source)
        with self.stream.lock:
            found = self.proc.p2p.iprobe(
                self.stream.vci, world_src, tag, self.context_id
            )
        if found is None:
            return None
        status = Status(
            source=found["source"], tag=found["tag"], count_bytes=found["count_bytes"]
        )
        try:
            status.source = self.ranks.index(status.source)
        except ValueError:  # pragma: no cover
            pass
        return status

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Blocking probe."""
        while True:
            status = self.iprobe(source, tag)
            if status is not None:
                return status
            self.proc.idle_wait()

    # ------------------------------------------------------------------
    # Python-object messaging (mpi4py-style lowercase convenience):
    # pickle the object, ship the bytes, unpickle at the receiver.
    # ------------------------------------------------------------------
    def send_obj(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking pickled-object send."""
        import pickle

        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.send(payload, len(payload), _byte_type(), dest, tag)

    def isend_obj(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking pickled-object send."""
        import pickle

        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return self.isend(payload, len(payload), _byte_type(), dest, tag)

    def recv_obj(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking pickled-object receive.

        Uses a matched probe to size the buffer, so arbitrary object
        sizes work without a pre-agreed maximum.
        """
        import pickle

        message, status = self.mprobe(source, tag)
        buf = bytearray(status.count_bytes)
        self.mrecv(buf, status.count_bytes, _byte_type(), message)
        return pickle.loads(bytes(buf))

    # ------------------------------------------------------------------
    # Matched probe (MPI_Mprobe family): race-free probe-then-receive
    # for multithreaded receivers.
    # ------------------------------------------------------------------
    def improbe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking matched probe.

        Returns ``(message, status)`` or None.  The claimed message is
        dequeued: only :meth:`imrecv`/:meth:`mrecv` can receive it.
        """
        self._check()
        self.proc.stream_progress(self.stream)
        world_src = ANY_SOURCE if source == ANY_SOURCE else self._world_rank(source)
        with self.stream.lock:
            msg = self.proc.p2p.improbe(
                self.stream.vci, world_src, tag, self.context_id
            )
        if msg is None:
            return None
        status = Status(
            source=msg.header["src_rank"],
            tag=msg.header["tag"],
            count_bytes=msg.nbytes,
        )
        try:
            status.source = self.ranks.index(status.source)
        except ValueError:  # pragma: no cover
            pass
        return msg, status

    def mprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking matched probe; returns ``(message, status)``."""
        while True:
            found = self.improbe(source, tag)
            if found is not None:
                return found
            self.proc.idle_wait()

    def imrecv(self, buf, count: int, datatype: Datatype, message) -> Request:
        """Nonblocking receive of a matched-probe message."""
        self._check()
        with self.stream.lock:
            req = self.proc.p2p.imrecv(
                self.stream.vci, buf, count, datatype, message
            )
        req.errhandler = self.errhandler
        return req

    def mrecv(self, buf, count: int, datatype: Datatype, message) -> Status:
        """Blocking receive of a matched-probe message."""
        req = self.imrecv(buf, count, datatype, message)
        self.proc.wait(req, self.stream)
        status = req.status
        try:
            status.source = self.ranks.index(status.source)
        except ValueError:  # pragma: no cover
            pass
        return status

    # ------------------------------------------------------------------
    # Persistent requests (MPI_Send_init / MPI_Recv_init).
    # ------------------------------------------------------------------
    def send_init(
        self, buf, count: int, datatype: Datatype, dest: int, tag: int = 0
    ):
        """Create a persistent standard send."""
        from repro.core.persist import PersistentRequest

        self._check()
        self._world_rank(dest)
        return PersistentRequest(
            self,
            "send",
            {"buf": buf, "count": count, "datatype": datatype, "dest": dest, "tag": tag},
        )

    def ssend_init(
        self, buf, count: int, datatype: Datatype, dest: int, tag: int = 0
    ):
        """Create a persistent synchronous send."""
        from repro.core.persist import PersistentRequest

        self._check()
        self._world_rank(dest)
        return PersistentRequest(
            self,
            "ssend",
            {"buf": buf, "count": count, "datatype": datatype, "dest": dest, "tag": tag},
        )

    def recv_init(
        self,
        buf,
        count: int,
        datatype: Datatype,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ):
        """Create a persistent receive."""
        from repro.core.persist import PersistentRequest

        self._check()
        return PersistentRequest(
            self,
            "recv",
            {
                "buf": buf,
                "count": count,
                "datatype": datatype,
                "source": source,
                "tag": tag,
            },
        )

    # ------------------------------------------------------------------
    # Collectives: nonblocking.  Each picks an algorithm, fetches its
    # plan (cached per comm in ``proc.plan_cache``) and hands it to the
    # collective progress subsystem.
    # ------------------------------------------------------------------
    def start_plan(
        self, plan: Plan, recvbuf, count: int, datatype: Datatype, sendbuf=None
    ) -> Request:
        """Run ``plan`` as a native collective on this communicator:
        posted on the collective context under the next collective
        sequence tag, progressed by ``proc.coll_engine``."""
        tag = self._coll_seq
        self._coll_seq += 1
        p2p = self.proc.p2p
        vci = self.stream.vci
        ctx = self.coll_context_id
        ranks = self.ranks
        vcis = self.peer_vcis

        def post_send(view, n: int, dt: Datatype, peer: int, tag: int) -> Request:
            return p2p.isend(vci, ranks[peer], vcis[peer], view, n, dt, tag, ctx)

        def post_recv(view, n: int, dt: Datatype, peer: int, tag: int) -> Request:
            return p2p.irecv(vci, view, n, dt, ranks[peer], tag, ctx)

        req = Request("coll")
        # Stamped before start: a collective that fast-fails (known-dead
        # peer) must already carry the comm's error disposition.
        req.errhandler = self.errhandler
        with self.stream.lock:
            executor = PlanExecutor(
                plan, self, (post_send, post_recv), tag, recvbuf, count, datatype, req, sendbuf
            )
            return self.proc.coll_engine.submit(executor)

    def ibarrier(self) -> Request:
        self._check()
        plan = plan_for(self, plan_barrier_dissemination)
        return self.start_plan(plan, None, 0, BYTE)

    def ibcast(self, buf, count: int, datatype: Datatype, root: int = 0) -> Request:
        """Nonblocking broadcast.

        Algorithm selection (``config.bcast_algorithm``): binomial tree
        for short messages, van de Geijn scatter+ring-allgather for long
        ones (past ``config.bcast_long_threshold`` bytes).
        """
        self._check()
        self._world_rank(root)
        cfg = self.proc.config
        nbytes = count * datatype.size
        algo = cfg.bcast_algorithm
        if algo == "auto":
            long_msg = nbytes > cfg.bcast_long_threshold
            algo = "scatter_allgather" if long_msg and self.size > 1 else "binomial"
        if algo == "scatter_allgather":
            plan = plan_for(self, plan_bcast_scatter_allgather, root, count)
        else:
            plan = plan_for(self, plan_bcast_binomial, root, nbytes=nbytes)
        return self.start_plan(plan, buf, count, datatype)

    def iallreduce(
        self,
        sendbuf,
        recvbuf,
        count: int,
        datatype: Datatype,
        op: Op = SUM,
    ) -> Request:
        """Nonblocking allreduce (any comm size).

        Pass ``IN_PLACE`` as ``sendbuf`` to reduce ``recvbuf`` in place.
        Algorithm selection (``config.allreduce_algorithm``): recursive
        doubling for short messages and non-commutative operations,
        Rabenseifner (reduce-scatter + allgather) for long commutative
        reductions (past ``config.allreduce_long_threshold`` bytes).
        """
        self._check()
        nbytes = count * datatype.size
        if sendbuf is not IN_PLACE:
            as_writable_view(recvbuf)[:nbytes] = as_readonly_view(sendbuf)[:nbytes]
        cfg = self.proc.config
        algo = cfg.allreduce_algorithm
        if algo == "auto":
            algo = (
                "rabenseifner"
                if op.commutative and nbytes > cfg.allreduce_long_threshold
                else "recursive_doubling"
            )
        if algo == "rabenseifner" and op.commutative:
            plan = plan_for(self, plan_allreduce_rabenseifner, op, count)
        else:
            plan = plan_for(self, plan_allreduce_recursive_doubling, op, nbytes=nbytes)
        return self.start_plan(plan, recvbuf, count, datatype)

    def ireduce(
        self,
        sendbuf,
        recvbuf,
        count: int,
        datatype: Datatype,
        op: Op = SUM,
        root: int = 0,
    ) -> Request:
        """Nonblocking reduce-to-root.  ``recvbuf`` is only significant
        at the root; non-roots may pass None."""
        self._check()
        self._world_rank(root)
        if sendbuf is IN_PLACE:
            sendbuf = recvbuf
        plan = plan_for(
            self, plan_reduce_binomial, root, op, nbytes=count * datatype.size
        )
        return self.start_plan(
            plan, recvbuf if self.rank == root else None, count, datatype, sendbuf
        )

    def iallgather(
        self, sendbuf, recvbuf, count: int, datatype: Datatype
    ) -> Request:
        """Nonblocking allgather; ``recvbuf`` holds ``size*count``
        elements, ``IN_PLACE`` sendbuf uses the rank-th block."""
        self._check()
        block = count * datatype.size
        view = as_writable_view(recvbuf)
        if sendbuf is not IN_PLACE:
            view[self.rank * block : (self.rank + 1) * block] = as_readonly_view(
                sendbuf
            )[:block]
        plan = plan_for(self, plan_allgather_ring, nbytes=block)
        return self.start_plan(plan, recvbuf, count, datatype)

    def ialltoall(self, sendbuf, recvbuf, count: int, datatype: Datatype) -> Request:
        """Nonblocking alltoall; both buffers hold ``size*count`` elements."""
        self._check()
        plan = plan_for(self, plan_alltoall_pairwise, nbytes=count * datatype.size)
        return self.start_plan(plan, recvbuf, count, datatype, sendbuf)

    def igather(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, root: int = 0
    ) -> Request:
        self._check()
        self._world_rank(root)
        plan = plan_for(self, plan_gather_linear, root, nbytes=count * datatype.size)
        return self.start_plan(
            plan, recvbuf if self.rank == root else None, count, datatype, sendbuf
        )

    def iscatter(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, root: int = 0
    ) -> Request:
        self._check()
        self._world_rank(root)
        plan = plan_for(self, plan_scatter_linear, root, nbytes=count * datatype.size)
        return self.start_plan(
            plan, recvbuf, count, datatype, sendbuf if self.rank == root else None
        )

    def ireduce_scatter_block(
        self,
        sendbuf,
        recvbuf,
        count: int,
        datatype: Datatype,
        op: Op = SUM,
    ) -> Request:
        """Nonblocking block-regular reduce-scatter: ``sendbuf`` holds
        ``size * count`` elements; each rank receives the reduction of
        its own ``count``-element block into ``recvbuf``.

        Commutative operations use pairwise exchange; non-commutative
        ones compose a rank-ordered reduce with a scatter in one plan.
        """
        self._check()
        planner = (
            plan_reduce_scatter_pairwise
            if op.commutative
            else plan_reduce_scatter_ordered
        )
        plan = plan_for(self, planner, op, nbytes=count * datatype.size)
        return self.start_plan(plan, recvbuf, count, datatype, sendbuf)

    def iscan(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, op: Op = SUM
    ) -> Request:
        """Nonblocking inclusive prefix reduction."""
        self._check()
        nbytes = count * datatype.size
        if sendbuf is not IN_PLACE:
            as_writable_view(recvbuf)[:nbytes] = as_readonly_view(sendbuf)[:nbytes]
        plan = plan_for(self, plan_scan_chain, op, nbytes=nbytes)
        return self.start_plan(plan, recvbuf, count, datatype)

    def iexscan(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, op: Op = SUM
    ) -> Request:
        """Nonblocking exclusive prefix reduction (recvbuf untouched on
        rank 0, per MPI)."""
        self._check()
        if sendbuf is IN_PLACE:
            sendbuf = recvbuf
        plan = plan_for(self, plan_exscan_chain, op, nbytes=count * datatype.size)
        return self.start_plan(plan, recvbuf, count, datatype, sendbuf)

    # ------------------------------------------------------------------
    # Vector collectives: counts and displacements are in elements and
    # part of the (exact) plan, hence of its cache key.
    # ------------------------------------------------------------------
    def iallgatherv(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        counts: list[int],
        displs: list[int],
        datatype: Datatype,
    ) -> Request:
        """Nonblocking allgatherv (ring).  ``IN_PLACE`` sendbuf uses the
        rank's own block of ``recvbuf``."""
        self._check()
        esize = datatype.size
        if sendbuf is not IN_PLACE:
            view = as_writable_view(recvbuf)
            lo = displs[self.rank] * esize
            view[lo : lo + sendcount * esize] = as_readonly_view(sendbuf)[
                : sendcount * esize
            ]
        plan = plan_for(self, plan_allgatherv_ring, tuple(counts), tuple(displs))
        return self.start_plan(plan, recvbuf, 0, datatype)

    def igatherv(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        counts: list[int],
        displs: list[int],
        datatype: Datatype,
        root: int = 0,
    ) -> Request:
        self._check()
        self._world_rank(root)
        if self.rank == root:
            plan = plan_for(
                self, plan_gatherv_linear, root, sendcount, tuple(counts), tuple(displs)
            )
        else:  # counts/displs are only significant at the root
            plan = plan_for(self, plan_gatherv_linear, root, sendcount, (), ())
            recvbuf = None
        return self.start_plan(plan, recvbuf, 0, datatype, sendbuf)

    def iscatterv(
        self,
        sendbuf,
        counts: list[int],
        displs: list[int],
        recvbuf,
        recvcount: int,
        datatype: Datatype,
        root: int = 0,
    ) -> Request:
        self._check()
        self._world_rank(root)
        if self.rank == root:
            plan = plan_for(
                self, plan_scatterv_linear, root, tuple(counts), tuple(displs), recvcount
            )
        else:  # counts/displs are only significant at the root
            plan = plan_for(self, plan_scatterv_linear, root, (), (), recvcount)
            sendbuf = None
        return self.start_plan(plan, recvbuf, 0, datatype, sendbuf)

    def ialltoallv(
        self,
        sendbuf,
        sendcounts: list[int],
        sdispls: list[int],
        recvbuf,
        recvcounts: list[int],
        rdispls: list[int],
        datatype: Datatype,
    ) -> Request:
        self._check()
        plan = plan_for(
            self,
            plan_alltoallv_pairwise,
            tuple(sendcounts),
            tuple(sdispls),
            tuple(recvcounts),
            tuple(rdispls),
        )
        return self.start_plan(plan, recvbuf, 0, datatype, sendbuf)

    # ------------------------------------------------------------------
    # Collectives: blocking wrappers.
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        self.proc.wait(self.ibarrier(), self.stream)

    def bcast(self, buf, count: int, datatype: Datatype, root: int = 0) -> None:
        self.proc.wait(self.ibcast(buf, count, datatype, root), self.stream)

    def allreduce(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, op: Op = SUM
    ) -> None:
        self.proc.wait(
            self.iallreduce(sendbuf, recvbuf, count, datatype, op), self.stream
        )

    def reduce(
        self,
        sendbuf,
        recvbuf,
        count: int,
        datatype: Datatype,
        op: Op = SUM,
        root: int = 0,
    ) -> None:
        self.proc.wait(
            self.ireduce(sendbuf, recvbuf, count, datatype, op, root), self.stream
        )

    def allgather(self, sendbuf, recvbuf, count: int, datatype: Datatype) -> None:
        self.proc.wait(self.iallgather(sendbuf, recvbuf, count, datatype), self.stream)

    def alltoall(self, sendbuf, recvbuf, count: int, datatype: Datatype) -> None:
        self.proc.wait(self.ialltoall(sendbuf, recvbuf, count, datatype), self.stream)

    def gather(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, root: int = 0
    ) -> None:
        self.proc.wait(
            self.igather(sendbuf, recvbuf, count, datatype, root), self.stream
        )

    def scatter(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, root: int = 0
    ) -> None:
        self.proc.wait(
            self.iscatter(sendbuf, recvbuf, count, datatype, root), self.stream
        )

    def reduce_scatter_block(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, op: Op = SUM
    ) -> None:
        self.proc.wait(
            self.ireduce_scatter_block(sendbuf, recvbuf, count, datatype, op),
            self.stream,
        )

    def scan(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, op: Op = SUM
    ) -> None:
        self.proc.wait(self.iscan(sendbuf, recvbuf, count, datatype, op), self.stream)

    def exscan(
        self, sendbuf, recvbuf, count: int, datatype: Datatype, op: Op = SUM
    ) -> None:
        self.proc.wait(
            self.iexscan(sendbuf, recvbuf, count, datatype, op), self.stream
        )

    def allgatherv(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        counts: list[int],
        displs: list[int],
        datatype: Datatype,
    ) -> None:
        self.proc.wait(
            self.iallgatherv(sendbuf, sendcount, recvbuf, counts, displs, datatype),
            self.stream,
        )

    def gatherv(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        counts: list[int],
        displs: list[int],
        datatype: Datatype,
        root: int = 0,
    ) -> None:
        self.proc.wait(
            self.igatherv(
                sendbuf, sendcount, recvbuf, counts, displs, datatype, root
            ),
            self.stream,
        )

    def scatterv(
        self,
        sendbuf,
        counts: list[int],
        displs: list[int],
        recvbuf,
        recvcount: int,
        datatype: Datatype,
        root: int = 0,
    ) -> None:
        self.proc.wait(
            self.iscatterv(
                sendbuf, counts, displs, recvbuf, recvcount, datatype, root
            ),
            self.stream,
        )

    def alltoallv(
        self,
        sendbuf,
        sendcounts: list[int],
        sdispls: list[int],
        recvbuf,
        recvcounts: list[int],
        rdispls: list[int],
        datatype: Datatype,
    ) -> None:
        self.proc.wait(
            self.ialltoallv(
                sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls, datatype
            ),
            self.stream,
        )

    # ------------------------------------------------------------------
    # Communicator constructors (collective over the parent).
    # ------------------------------------------------------------------
    def _alloc_child_context(self) -> int:
        idx = self._child_count
        self._child_count += 1
        return self.proc.world.context_for(self.context_id, idx)

    def dup(self) -> "Comm":
        """Duplicate the communicator (collective)."""
        self._check()
        ctx = self._alloc_child_context()
        comm = Comm(self.proc, self.ranks, ctx, self.stream, self.peer_vcis)
        comm.errhandler = self.errhandler
        self.barrier()
        return comm

    def split(self, color: int | None, key: int = 0) -> "Comm | None":
        """Split by color/key (collective).  ``color=None`` opts out."""
        self._check()
        ctx = self._alloc_child_context()
        # Exchange (color, key) via allgather of two INTs per rank.
        import numpy as np

        from repro.datatype.types import INT

        mine = np.array(
            [color if color is not None else -(2**31), key], dtype="i4"
        )
        table = np.zeros(2 * self.size, dtype="i4")
        self.allgather(mine, table, 2, INT)
        if color is None:
            return None
        members: list[tuple[int, int, int]] = []  # (key, parent_rank, world)
        for r in range(self.size):
            c, k = int(table[2 * r]), int(table[2 * r + 1])
            if c == color:
                members.append((k, r, self.ranks[r]))
        members.sort()
        ranks = [world for _, _, world in members]
        vcis = [self.peer_vcis[pr] for _, pr, _ in members]
        # Distinct colors need distinct contexts: fold the color in via
        # the registry (same derivation on every member).
        ctx = self.proc.world.context_for(ctx, color)
        comm = Comm(self.proc, ranks, ctx, self.stream, vcis)
        comm.errhandler = self.errhandler
        return comm

    def split_type_shared(self) -> "Comm":
        """Split into on-node communicators
        (MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)): ranks sharing a
        simulated node (``config.ranks_per_node``) land together."""
        node = self.proc.rank // self.proc.config.ranks_per_node
        sub = self.split(color=node, key=self.rank)
        assert sub is not None
        return sub

    def stream_comm(self, stream: MpixStream) -> "Comm":
        """``MPIX_Stream_comm_create``: bind a new communicator to a
        local stream (collective; exchanges everyone's VCI)."""
        self._check()
        ctx = self._alloc_child_context()
        import numpy as np

        from repro.datatype.types import INT

        mine = np.array([stream.vci], dtype="i4")
        table = np.zeros(self.size, dtype="i4")
        self.allgather(mine, table, 1, INT)
        comm = Comm(self.proc, self.ranks, ctx, stream, [int(v) for v in table])
        comm.errhandler = self.errhandler
        return comm

    # ------------------------------------------------------------------
    # Fault tolerance (ULFM-style revoke / shrink / agree).
    # ------------------------------------------------------------------
    def _peer_failed(self, comm_rank: int) -> bool:
        return self.ranks[comm_rank] in self.proc.p2p.known_dead

    def failed_ranks(self) -> list[int]:
        """Comm ranks this process currently knows to have failed."""
        return [
            r for r in range(self.size) if r != self._rank and self._peer_failed(r)
        ]

    def revoke(self) -> None:
        """ULFM ``MPI_Comm_revoke``: invalidate the communicator
        everywhere.

        Non-collective — any member may call it (typically after an
        operation failed with :class:`~repro.errors.ProcessFailedError`).
        Every pending operation on the communicator fails with
        :class:`~repro.errors.RevokedError`, and a revoke notice floods
        to all members; each receiver re-floods once, so the revoke
        propagates even if the initiator dies mid-flood.  Subsequent
        operations raise ``RevokedError`` — except :meth:`agree` and
        :meth:`shrink`, which by design still work on a revoked
        communicator.
        """
        if self.freed:
            raise InvalidCommunicatorError("communicator has been freed")
        self._apply_revoke(local=True)

    def _apply_revoke(self, local: bool) -> None:
        """Mark revoked, sweep pending traffic, and (re-)flood the
        notice (runtime internal; idempotent — the ``revoked`` flag
        dedups, bounding the flood at one send per member pair)."""
        if self.revoked or self.freed:
            return
        self.revoked = True
        proc = self.proc
        proc.plan_cache.invalidate_comm(self.comm_key)
        exc = RevokedError(
            f"communicator ctx={self.context_id} has been revoked"
        )
        p2p = proc.p2p
        with self.stream.lock:
            p2p.sweep_revoked(
                self.stream.vci, (self.context_id, self.coll_context_id), exc
            )
            for executor in list(proc.coll_engine.work_list(self.stream.vci)):
                if executor.comm is self:
                    executor.abort(exc)
            for r, world in enumerate(self.ranks):
                if r != self._rank:
                    p2p.post_revoke(
                        self.stream.vci, (world, self.peer_vcis[r]), self.context_id
                    )
        proc.tracer.record(
            proc.clock.now(),
            "comm_revoke",
            rank=proc.rank,
            ctx=self.context_id,
            local=local,
        )

    def _drive_steps(self, gen):
        """Blocking driver for a cooperative ``*_steps`` generator — the
        thread-world counterpart of the sim engine's program protocol:
        ``yield None`` maps to one progress pass (idle-waiting when it
        finds nothing), a yielded request (or list) maps to ``waitall``,
        and a wait-time error is thrown back in at the yield point.
        """
        proc = self.proc
        try:
            item = next(gen)
            while True:
                if item is None:
                    if not proc.stream_progress(self.stream):
                        proc.idle_wait()
                    item = next(gen)
                    continue
                reqs = [item] if isinstance(item, Request) else list(item)
                try:
                    proc.waitall(reqs, self.stream)
                except BaseException as exc:
                    item = gen.throw(exc)
                else:
                    item = next(gen)
        except StopIteration as stop:
            return stop.value

    def _agree_round_steps(self, tag: int, value: int, nbytes: int):
        """One symmetric all-to-all AND round on a reserved tag
        (cooperative: yields ``None`` wherever the blocking form would
        spin progress).

        Contributions go to every believed-alive member; collection
        (probe-based, so a revoke sweep cannot cancel it) runs until
        every member has either contributed or been declared dead.
        """
        proc = self.proc
        p2p = proc.p2p
        payload = value.to_bytes(nbytes, "little")
        sreqs = []
        with self.stream.lock:
            for r, world in enumerate(self.ranks):
                if r == self._rank or world in p2p.known_dead:
                    continue
                req = p2p.isend(
                    self.stream.vci,
                    world,
                    self.peer_vcis[r],
                    payload,
                    nbytes,
                    BYTE,
                    tag,
                    self.context_id,
                )
                req.errhandler = ERRORS_RETURN
                sreqs.append(req)
        acc = value
        got: set[int] = set()
        while True:
            missing = [
                world
                for r, world in enumerate(self.ranks)
                if r != self._rank
                and world not in got
                and world not in p2p.known_dead
            ]
            if not missing:
                break
            with self.stream.lock:
                msg = p2p.improbe(
                    self.stream.vci, ANY_SOURCE, tag, self.context_id
                )
            if msg is None:
                yield None
                continue
            buf = bytearray(nbytes)
            with self.stream.lock:
                rreq = p2p.imrecv(self.stream.vci, buf, nbytes, BYTE, msg)
            rreq.errhandler = ERRORS_RETURN
            while not rreq.is_complete():
                yield None
            proc._finish_wait(rreq)
            src_world = msg.header["src_rank"]
            if src_world not in got:
                got.add(src_world)
                acc &= int.from_bytes(bytes(buf), "little")
        # Sends to peers that died mid-round fail (errhandler 'return')
        # instead of hanging; everything else is long acked by now.
        while not all(r.is_complete() for r in sreqs):
            yield None
        for r in sreqs:
            proc._finish_wait(r)
        return acc

    def _agree_value_steps(self, value: int, nbytes: int):
        """Two AND rounds over ``nbytes``-wide values (tag allocation +
        round sequencing shared by :meth:`agree_steps` and
        :meth:`shrink_steps`, whose survivor masks outgrow 64 bits at
        scale)."""
        seq = self._agree_seq
        self._agree_seq += 1
        base = FT_RESERVED_TAG + (2 * seq) % _AGREE_TAG_WINDOW
        tentative = yield from self._agree_round_steps(base, value, nbytes)
        result = yield from self._agree_round_steps(base + 1, tentative, nbytes)
        return result

    def agree_steps(self, value: int):
        """Cooperative form of :meth:`agree` for sim programs: yields
        ``None`` (resume on the next event/progress pass) and returns
        the agreed value via ``StopIteration``."""
        if self.freed:
            raise InvalidCommunicatorError("communicator has been freed")
        value = int(value)
        if not 0 <= value < (1 << 64):
            raise InvalidArgumentError(f"agree value {value} outside [0, 2**64)")
        result = yield from self._agree_value_steps(value, 8)
        return result

    def agree(self, value: int) -> int:
        """ULFM ``MPI_Comm_agree`` (simplified): bitwise-AND consensus
        on a 64-bit value across surviving members.

        Collective over the survivors; works on a *revoked*
        communicator (its traffic rides reserved tags the revoke sweep
        exempts).  Two all-to-all rounds: round one exchanges
        contributions, round two exchanges the tentative AND — so
        survivors converge on one value even when a rank dies after a
        partial round-one flood.  A death *during* round two leaves the
        result best-effort (a genuine consensus needs a termination
        protocol this reproduction does not carry); deaths before the
        agreement are handled exactly.
        """
        return self._drive_steps(self.agree_steps(value))

    def shrink_steps(self):
        """Cooperative form of :meth:`shrink` for sim programs."""
        if self.freed:
            raise InvalidCommunicatorError("communicator has been freed")
        p2p = self.proc.p2p
        mask = 0
        for r, world in enumerate(self.ranks):
            if r == self._rank or world not in p2p.known_dead:
                mask |= 1 << world
        # The mask spans *world* ranks, so its width follows the world
        # size, not agree()'s 64-bit public contract — a 4096-rank
        # shrink must carry a 4096-bit survivor set.
        nbytes = max(8, (self.proc.world.nranks + 7) // 8)
        agreed = yield from self._agree_value_steps(mask, nbytes)
        survivors = [
            r for r, world in enumerate(self.ranks) if (agreed >> world) & 1
        ]
        ranks = [self.ranks[r] for r in survivors]
        vcis = [self.peer_vcis[r] for r in survivors]
        idx = _SHRINK_CHILD_BASE + self._shrink_count
        self._shrink_count += 1
        ctx = self.proc.world.context_for(self.context_id, idx)
        self.proc.plan_cache.invalidate_comm(self.comm_key)
        comm = Comm(self.proc, ranks, ctx, self.stream, vcis)
        comm.errhandler = self.errhandler
        return comm

    def shrink(self) -> "Comm":
        """ULFM ``MPI_Comm_shrink``: agree on the survivor set and build
        a new communicator from it (collective over the survivors;
        works on a revoked communicator).

        Every survivor contributes a bitmask of the members it believes
        alive; the AND (two agreement rounds) is the shared survivor
        set.  The parent's cached collective plans are invalidated —
        its group no longer matches the fabric's reality.
        """
        return self._drive_steps(self.shrink_steps())

    def free(self) -> None:
        self.freed = True
        self.proc.unregister_comm(self)
        self.proc.plan_cache.invalidate_comm(self.comm_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Comm(rank={self._rank}/{self.size}, ctx={self.context_id}, "
            f"vci={self.stream.vci})"
        )
