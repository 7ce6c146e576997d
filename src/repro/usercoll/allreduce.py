"""User-level recursive-doubling allreduce (Listing 1.8), compiled.

``my_allreduce`` keeps the paper's listing semantics: an in-place
reduction driven by one MPIX async hook that checks its requests with
``MPIX_Request_is_complete`` and posts the next round.  What changed is
*where the rounds come from*: instead of re-deriving the
recursive-doubling state machine on every call, the algorithm is
compiled once per (comm, op, size-bucket) into a flat-step
:class:`~repro.coll.plan.Plan` by
:func:`~repro.coll.algorithms.plan_allreduce_recursive_doubling` — the
planner ``Comm.iallreduce`` uses for short messages — cached in
``proc.plan_cache``, and replayed by a
:class:`~repro.coll.plan.PlanExecutor`: the hook does one
``is_complete`` walk per round and zero Python-level planning.

``user_allreduce`` / ``my_iallreduce`` generalize the listing: any
count, basic datatype, reduction op, and communicator size (Rabenseifner
remainder folding), with an optional generalized-request handle
(section 4.6) instead of a wait-flag loop.
"""

from __future__ import annotations

from typing import Any

from repro.coll.algorithms import plan_allreduce_recursive_doubling
from repro.coll.algorithms.util import largest_pof2_below
from repro.coll.plan import Plan, PlanExecutor, plan_for
from repro.core.async_ext import ASYNC_DONE
from repro.core.comm import Comm
from repro.core.greq import GeneralizedRequest
from repro.core.request import Request
from repro.core.stream import STREAM_NULL, MpixStream, StreamNullType
from repro.datatype.ops import SUM, Op
from repro.datatype.types import INT, Datatype
from repro.errors import InvalidArgumentError
from repro.p2p.protocol import FT_RESERVED_TAG

__all__ = ["my_allreduce", "my_iallreduce", "user_allreduce"]

#: Distinct in-flight tags per communicator before the sequence wraps.
#: Wide enough that a colliding pair would need ~a million concurrent
#: user collectives on one comm; guarded against tiny tag_ub configs.
_TAG_WINDOW = 1 << 20


def _user_coll_tag(comm: Comm) -> int:
    """Per-comm tag sequence for user-level collectives, drawn from the
    top of the application tag space so it cannot collide with
    application tags — and kept below ``FT_RESERVED_TAG``, the window a
    revoke sweep exempts, so a revoke fails an in-flight replay.

    The sequence is an :class:`~repro.util.atomic.AtomicCounter`: user
    collectives may be started concurrently from the progress pool's
    workers, and a torn read-modify-write would hand two collectives
    the same tag.
    """
    seq = comm._user_coll_seq.add(1) - 1
    top = min(comm.proc.config.tag_ub, FT_RESERVED_TAG - 1)
    window = min(_TAG_WINDOW, top // 2)
    return top - (seq % max(window, 1))


def _launch(
    comm: Comm,
    plan: Plan,
    buf,
    count: int,
    datatype: Datatype,
    kind: str,
    stream: MpixStream | StreamNullType,
) -> Request:
    """Bind ``plan`` to ``buf`` and drive it from the async hook: the
    user-level driver of the executor ``Comm.start_plan`` hands to the
    collective subsystem.  Its poster is the public ``comm.isend`` /
    ``comm.irecv`` themselves, on a user-collective tag."""
    done_req = Request(kind)
    # Failures during replay (peer fail-stop, revoke) follow the comm's
    # error disposition at wait time, like the built-in collectives.
    done_req.errhandler = comm.errhandler
    ex = PlanExecutor(
        plan,
        comm,
        (comm.isend, comm.irecv),
        _user_coll_tag(comm),
        buf,
        count,
        datatype,
        done_req,
    )
    if ex.start() != ASYNC_DONE:
        comm.proc.async_start(ex.poll, ex, stream)
    return done_req


# ----------------------------------------------------------------------
# Public entry points.
# ----------------------------------------------------------------------

def user_allreduce(
    comm: Comm,
    buf,
    count: int,
    datatype: Datatype = INT,
    op: Op = SUM,
    stream: MpixStream | StreamNullType = STREAM_NULL,
) -> Request:
    """Nonblocking in-place user-level allreduce over any comm size.

    Returns a request; complete it with ``comm.proc.wait`` (or poll
    ``request_is_complete`` from your own engine).
    """
    plan = plan_for(
        comm, plan_allreduce_recursive_doubling, op, nbytes=count * datatype.size
    )
    return _launch(comm, plan, buf, count, datatype, "user-allreduce", stream)


def my_allreduce(
    comm: Comm,
    sendbuf: Any,
    recvbuf,
    count: int,
    datatype: Datatype = INT,
    op: Op = SUM,
) -> None:
    """Listing 1.8's ``My_Allreduce``: blocking, in-place, power-of-two.

    ``sendbuf`` must be ``IN_PLACE`` (the listing asserts exactly this),
    ``datatype``/``op`` default to the INT/SUM the listing hardcodes.
    The final wait loop spins ``MPIX_Stream_progress`` on the default
    stream, as in the listing.
    """
    from repro.core.comm import IN_PLACE

    if sendbuf is not IN_PLACE:
        raise InvalidArgumentError("my_allreduce only supports IN_PLACE")
    if largest_pof2_below(comm.size) != comm.size:
        raise InvalidArgumentError("my_allreduce requires a power-of-two size")
    done_req = user_allreduce(comm, recvbuf, count, datatype, op)
    while not done_req.is_complete():
        comm.proc.stream_progress(STREAM_NULL)
        if not done_req.is_complete():
            comm.proc.idle_wait()


def my_iallreduce(
    comm: Comm,
    buf,
    count: int,
    datatype: Datatype = INT,
    op: Op = SUM,
    stream: MpixStream | StreamNullType = STREAM_NULL,
) -> GeneralizedRequest:
    """User-level allreduce behind a generalized request (section 4.6).

    The returned handle works with ``proc.wait``/``proc.test`` like any
    request; the async hook calls ``grequest_complete`` when done.
    """
    greq = comm.proc.grequest_start(extra_state="user-allreduce")
    inner = user_allreduce(comm, buf, count, datatype, op, stream)
    inner.on_complete(lambda _r: comm.proc.grequest_complete(greq))
    return greq
