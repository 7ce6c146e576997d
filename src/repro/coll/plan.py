"""The schedule IR: the one representation every collective compiles to.

A collective algorithm is "a collection of communication patterns tied
together by a progression schedule" (paper, section 1).  Here that
schedule is a :class:`Plan`: per-rank *rounds* of flat steps
(:class:`SendStep` / :class:`RecvStep` posted together at round entry,
:class:`ReduceStep` / :class:`CopyStep` run once every posted request
completes) with peers, extents and op bindings resolved at plan time.
The per-algorithm *planners* in :mod:`repro.coll.algorithms` produce
plans; a :class:`PlanCache` (``proc.plan_cache``) memoizes them; a
:class:`PlanExecutor` binds one to concrete buffers and replays it.

The native collectives (``Comm.i*``) and the user-level ones
(:mod:`repro.usercoll`) run the *same* plans through the *same*
executor.  They differ only in who calls :meth:`PlanExecutor.poll` —
the collective progress subsystem (:class:`repro.coll.sched.CollSchedEngine`)
or an MPIX async hook — and in the *poster*, the pair of callables the
executor posts a round's sends and receives through.

Extents are in *units*.  A count-independent plan (``exact=False``)
uses the call's ``count`` elements as its unit — the whole message for
allreduce/bcast, one rank's contribution for allgather — so one plan
serves every count and its cache key only carries the size bucket.  An
``exact`` plan was laid out for one concrete ``count`` (or
``counts``/``displs``) with uneven partitions; its unit is one element
and those numbers are part of its cache key.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro.core.async_ext import ASYNC_DONE, ASYNC_NOPROGRESS, ASYNC_PENDING
from repro.core.request import Request
from repro.datatype.ops import Op
from repro.datatype.types import Datatype, as_readonly_view, as_writable_view
from repro.errors import ProcessFailedError, RevokedError, error_code_for
from repro.util import sync as _sync

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import RuntimeConfig
    from repro.core.comm import Comm

__all__ = [
    "BUF_USER",
    "BUF_STAGE",
    "BUF_SEND",
    "K_SEND",
    "K_RECV",
    "K_REDUCE",
    "K_COPY",
    "SendStep",
    "RecvStep",
    "ReduceStep",
    "CopyStep",
    "PlanRound",
    "Plan",
    "PlanCache",
    "PlanExecutor",
    "count_bucket",
    "plan_for",
]

#: Buffer selectors a step can address.  ``BUF_USER`` is the caller's
#: receive (or in-place) buffer, ``BUF_SEND`` its read-only send buffer
#: (alltoall, gather, scatter, reduce), and ``BUF_STAGE`` a slab of
#: ``Plan.stage_blocks`` units leased from the process's
#: :class:`repro.mem.BufferPool` at bind time.
BUF_USER = 0
BUF_STAGE = 1
BUF_SEND = 2

#: Step kind tags (dispatch on an int, not isinstance, in the replay
#: hot loop).
K_SEND = 0
K_RECV = 1
K_REDUCE = 2
K_COPY = 3

_EMPTY = memoryview(bytearray(0))


class SendStep:
    """Post an isend of ``nblocks`` units at ``block`` of ``buf`` to the
    pre-resolved comm-rank ``peer``."""

    __slots__ = ("kind", "peer", "buf", "block", "nblocks")

    def __init__(self, peer: int, buf: int = BUF_USER, block: int = 0, nblocks: int = 1) -> None:
        self.kind = K_SEND
        self.peer = peer
        self.buf = buf
        self.block = block
        self.nblocks = nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Send(->{self.peer} buf{self.buf}[{self.block}:+{self.nblocks}])"


class RecvStep:
    """Post an irecv of ``nblocks`` units at ``block`` of ``buf`` from
    the pre-resolved comm-rank ``peer``."""

    __slots__ = ("kind", "peer", "buf", "block", "nblocks")

    def __init__(self, peer: int, buf: int = BUF_USER, block: int = 0, nblocks: int = 1) -> None:
        self.kind = K_RECV
        self.peer = peer
        self.buf = buf
        self.block = block
        self.nblocks = nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Recv(<-{self.peer} buf{self.buf}[{self.block}:+{self.nblocks}])"


class ReduceStep:
    """``dst = src (op) dst`` over ``nblocks`` units — the op binding
    is resolved at plan time (the op is part of the cache key), so
    replay calls ``op.apply`` with no dispatch."""

    __slots__ = ("kind", "op", "src", "src_block", "dst", "dst_block", "nblocks")

    def __init__(
        self,
        op: Op,
        src: int,
        dst: int,
        *,
        src_block: int = 0,
        dst_block: int = 0,
        nblocks: int = 1,
    ) -> None:
        self.kind = K_REDUCE
        self.op = op
        self.src = src
        self.src_block = src_block
        self.dst = dst
        self.dst_block = dst_block
        self.nblocks = nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Reduce({self.op.name} buf{self.src}[{self.src_block}]"
            f"->buf{self.dst}[{self.dst_block}] +{self.nblocks})"
        )


class CopyStep:
    """Byte copy of ``nblocks`` units between plan buffers."""

    __slots__ = ("kind", "src", "src_block", "dst", "dst_block", "nblocks")

    def __init__(
        self, src: int, dst: int, *, src_block: int = 0, dst_block: int = 0, nblocks: int = 1
    ) -> None:
        self.kind = K_COPY
        self.src = src
        self.src_block = src_block
        self.dst = dst
        self.dst_block = dst_block
        self.nblocks = nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Copy(buf{self.src}[{self.src_block}]"
            f"->buf{self.dst}[{self.dst_block}] +{self.nblocks})"
        )


class PlanRound:
    """One replay round: communication steps posted together at round
    entry, local steps run in order after every posted request
    completes."""

    __slots__ = ("comms", "locals")

    def __init__(self, comms=(), locals=()) -> None:
        self.comms: tuple = tuple(comms)
        self.locals: tuple = tuple(locals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanRound(comms={list(self.comms)}, locals={list(self.locals)})"


class Plan:
    """A compiled, immutable, per-rank schedule for one collective.

    ``stage_blocks`` is how many units of staging the executor must
    lease (0 = no staging slab at all); ``result_blocks`` scales the
    completion ``count_bytes``; ``exact`` selects the unit (see the
    module docstring).
    """

    __slots__ = ("algorithm", "rounds", "stage_blocks", "result_blocks", "exact")

    def __init__(
        self,
        algorithm: str,
        rounds,
        *,
        stage_blocks: int = 0,
        result_blocks: int = 1,
        exact: bool = False,
    ) -> None:
        self.algorithm = algorithm
        self.rounds: tuple[PlanRound, ...] = tuple(rounds)
        self.stage_blocks = stage_blocks
        self.result_blocks = result_blocks
        self.exact = exact

    @property
    def num_steps(self) -> int:
        return sum(len(r.comms) + len(r.locals) for r in self.rounds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Plan({self.algorithm}, rounds={len(self.rounds)}, "
            f"steps={self.num_steps}, stage={self.stage_blocks})"
        )


def count_bucket(nbytes: int) -> int:
    """Power-of-two size bucket for the cache key of a
    count-independent plan.

    Such a plan moves whatever ``count`` it is bound to, so bucketing
    never changes the bytes moved; it only bounds the number of cache
    entries per shape and gives size-dependent algorithm selection a key
    axis.
    """
    return nbytes.bit_length()


# ----------------------------------------------------------------------
# Plan cache.
# ----------------------------------------------------------------------

class PlanCache:
    """LRU cache of compiled plans, one per process context.

    Keys are tuples whose first element is the communicator's
    ``(context_id, epoch)`` identity (see :func:`plan_for` for the
    rest), so a freed communicator's entries can never serve a new
    communicator that reuses its context id.  ``Comm.free`` calls
    :meth:`invalidate_comm`.

    With ``enabled=False`` every lookup builds (counted in
    ``stat_plan_builds``) and nothing is retained — the documented
    off-switch for differential benchmarking of cold planning vs cached
    replay.
    """

    __slots__ = (
        "enabled",
        "max_plans",
        "_plans",
        "_lock",
        "stat_hits",
        "stat_misses",
        "stat_builds",
        "stat_evictions",
        "stat_invalidations",
    )

    def __init__(self, *, enabled: bool = True, max_plans: int = 128) -> None:
        self.enabled = enabled
        self.max_plans = max_plans
        self._plans: OrderedDict[tuple, Plan] = OrderedDict()
        self._lock = _sync.make_lock("plan.cache")
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_builds = 0
        self.stat_evictions = 0
        self.stat_invalidations = 0

    @classmethod
    def from_config(cls, config: "RuntimeConfig") -> "PlanCache":
        return cls(
            enabled=config.schedule_cache_enabled,
            max_plans=config.schedule_cache_max_plans,
        )

    def get_or_build(self, key: tuple, builder: Callable[[], Plan]) -> Plan:
        """Return the cached plan for ``key``, building it on a miss."""
        if not self.enabled:
            with self._lock:
                self.stat_misses += 1
                self.stat_builds += 1
            return builder()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.stat_hits += 1
                self._plans.move_to_end(key)
                return plan
            self.stat_misses += 1
            self.stat_builds += 1
            plan = self._plans[key] = builder()
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.stat_evictions += 1
            return plan

    def invalidate_comm(self, comm_key: tuple) -> int:
        """Drop every plan compiled for ``comm_key``; returns the count."""
        with self._lock:
            stale = [k for k in self._plans if k[0] == comm_key]
            for k in stale:
                del self._plans[k]
            self.stat_invalidations += len(stale)
            return len(stale)

    @property
    def entries(self) -> int:
        return len(self._plans)

    def stats(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "entries": len(self._plans),
            "max_plans": self.max_plans,
            "stat_plan_hits": self.stat_hits,
            "stat_plan_misses": self.stat_misses,
            "stat_plan_builds": self.stat_builds,
            "stat_plan_evictions": self.stat_evictions,
            "stat_plan_invalidations": self.stat_invalidations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanCache(entries={len(self._plans)}/{self.max_plans}, "
            f"hits={self.stat_hits}, misses={self.stat_misses})"
        )


def plan_for(comm: "Comm", planner: Callable[..., Plan], *args, nbytes: int = 0) -> Plan:
    """This rank's plan from ``planner(rank, size, *args)``, through
    ``comm.proc.plan_cache``.

    The cache key is ``(comm_key, planner, args, count_bucket(nbytes))``.
    Everything the layout depends on must be in ``args`` (hashable:
    op, root, and — for an ``exact`` plan — the ``count`` or the
    ``counts``/``displs`` tuples); count-independent plans pass the
    message size as ``nbytes`` and keep only its bucket.
    """
    rank, size = comm.rank, comm.size
    return comm.proc.plan_cache.get_or_build(
        (comm.comm_key, planner, args, count_bucket(nbytes)),
        lambda: planner(rank, size, *args),
    )


# ----------------------------------------------------------------------
# Replay executor.
# ----------------------------------------------------------------------

def _release_when_drained(lease, reqs: list[Request]) -> None:
    """Release ``lease`` once every request in ``reqs`` has completed:
    an operation still in flight may read or write the slab."""
    left = [len(reqs)]

    def drained(_req: Request) -> None:
        left[0] -= 1
        if not left[0]:
            lease.release()

    for r in reqs:
        r.on_complete(drained)


class PlanExecutor:
    """Bind a :class:`Plan` to concrete buffers and replay it.

    Replay does no Python-level planning: round entry is one walk over
    a pre-built step tuple posting through ``poster`` with pre-resolved
    peers and pre-scaled views, and each poll is one ``is_complete``
    walk over the round's request array.  Staging is one
    :class:`~repro.mem.BufferPool` lease per call (a plain
    ``bytearray`` when the pool is disabled), released exactly once —
    on finish, or on :meth:`abort`.

    ``poster`` is ``(post_send, post_recv)``, each called as
    ``post(view, count, datatype, peer, tag) -> Request`` — the
    signature of ``Comm.isend`` / ``Comm.irecv`` — and is the single
    per-driver difference.  ``request`` is the collective's request,
    created (and errhandler-stamped) by the caller.
    """

    __slots__ = (
        "plan",
        "comm",
        "post_send",
        "post_recv",
        "tag",
        "datatype",
        "unit",
        "unit_bytes",
        "request",
        "views",
        "reqs",
        "round_index",
        "lease",
    )

    def __init__(
        self,
        plan: Plan,
        comm: "Comm",
        poster: tuple[Callable[..., Request], Callable[..., Request]],
        tag: int,
        recvbuf: Any,
        count: int,
        datatype: Datatype,
        request: Request,
        sendbuf: Any = None,
    ) -> None:
        self.plan = plan
        self.comm = comm
        self.post_send, self.post_recv = poster
        self.tag = tag
        self.datatype = datatype
        self.request = request
        #: elements per unit, and the address stride of one unit
        unit = self.unit = 1 if plan.exact else count
        ub = self.unit_bytes = unit * datatype.extent
        stage = _EMPTY
        self.lease = None
        if plan.stage_blocks and ub:
            pool = comm.proc.p2p.pool
            if pool.enabled:
                self.lease = pool.acquire(plan.stage_blocks * ub)
                stage = self.lease.view
            else:
                stage = memoryview(bytearray(plan.stage_blocks * ub))
        self.views = (
            as_writable_view(recvbuf) if recvbuf is not None else _EMPTY,
            stage,
            as_readonly_view(sendbuf) if sendbuf is not None else _EMPTY,
        )
        self.reqs: list[Request] = []
        self.round_index = 0

    # ------------------------------------------------------------------
    def start(self) -> int:
        """Post round 0 and replay whatever completes on the spot
        (eager sends, local-only rounds); returns :meth:`poll`'s status
        — the driver only keeps polling when it is not ``ASYNC_DONE``."""
        if not self.plan.rounds:
            self._finish()
            return ASYNC_DONE
        self._start_round(self.plan.rounds[0])
        return self.poll()

    def _start_round(self, rnd: PlanRound) -> None:
        """Post every comm step of ``rnd`` — the one place a plan's
        steps turn into isend/irecv calls."""
        views = self.views
        ub = self.unit_bytes
        unit = self.unit
        dt = self.datatype
        tag = self.tag
        send, recv = self.post_send, self.post_recv
        reqs = self.reqs
        try:
            for s in rnd.comms:
                post = send if s.kind == K_SEND else recv
                view = views[s.buf][s.block * ub : (s.block + s.nblocks) * ub]
                reqs.append(post(view, s.nblocks * unit, dt, s.peer, tag))
        except (ProcessFailedError, RevokedError) as exc:
            # The hook driver posts through Comm.isend/irecv, which
            # raise on a revoked communicator.
            self.abort(exc)

    def _run_locals(self, rnd: PlanRound) -> None:
        views = self.views
        ub = self.unit_bytes
        unit = self.unit
        dt = self.datatype
        for s in rnd.locals:
            src = views[s.src][s.src_block * ub : (s.src_block + s.nblocks) * ub]
            dst = views[s.dst][s.dst_block * ub : (s.dst_block + s.nblocks) * ub]
            if s.kind == K_REDUCE:
                s.op.apply(src, dst, s.nblocks * unit, dt)
            else:
                dst[:] = src

    def _finish(self) -> None:
        if self.lease is not None:
            self.lease.release()
            self.lease = None
        self.request.complete(
            count_bytes=self.plan.result_blocks * self.unit * self.datatype.size
        )

    def abort(self, exc: BaseException) -> None:
        """Fail the collective: the one exit for a revoked communicator,
        a failed round request (dead peer, abandoned delivery) and a
        post that fast-fails.

        Still-posted receives are cancelled so they can never match
        stale traffic; requests already in flight (a send awaiting its
        handshake, a matched rendezvous receive) are left to drain and
        the staging lease is released behind the last of them.  The
        collective's request completes carrying ``exc``; the wait
        surfaces it per the communicator's errhandler.  Idempotent.
        """
        if self.request.is_complete():
            return
        comm = self.comm
        p2p = comm.proc.p2p
        in_flight = []
        with comm.stream.lock:
            for r in self.reqs:
                if r.kind == "recv" and not r.is_complete():
                    p2p.cancel_recv(comm.stream.vci, r)
                if r.is_complete():
                    r.free()
                else:
                    in_flight.append(r)
        self.reqs.clear()
        lease, self.lease = self.lease, None
        if lease is not None:
            if in_flight:
                _release_when_drained(lease, in_flight)
            else:
                lease.release()
        self.request.fail(exc, error_code_for(exc))

    def poll(self, thing: Any = None) -> int:
        """Replay as many rounds as have matured; returns an
        ``ASYNC_*`` status (this is the async-hook poll function, and
        what the collective subsystem calls per pass)."""
        advanced = False
        rounds = self.plan.rounds
        request = self.request
        reqs = self.reqs
        while True:
            # Walk the whole round: a failed request must abort the
            # collective even while a sibling is still pending.
            pending = False
            for r in reqs:
                if not r.is_complete():
                    pending = True
                elif r.exception is not None:
                    self.abort(r.exception)
                    return ASYNC_DONE
            if pending:
                return ASYNC_PENDING if advanced else ASYNC_NOPROGRESS
            if request.is_complete():
                return ASYNC_DONE  # aborted (start, revoke): reqs is empty
            for r in reqs:
                r.free()
            reqs.clear()
            self._run_locals(rounds[self.round_index])
            self.round_index += 1
            advanced = True
            if self.round_index >= len(rounds):
                self._finish()
                return ASYNC_DONE
            self._start_round(rounds[self.round_index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanExecutor({self.plan.algorithm} round "
            f"{self.round_index}/{len(self.plan.rounds)})"
        )
