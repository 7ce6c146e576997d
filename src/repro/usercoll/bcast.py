"""User-level binomial broadcast via the MPIX async extension.

Demonstrates that arbitrary collective patterns — not just the paper's
allreduce — are expressible as compiled schedules: the binomial tree
(receive from parent, fan out to the subtree) is planned once per
(comm, root, size-bucket) by
:func:`~repro.coll.algorithms.plan_bcast_binomial` — the planner
``Comm.ibcast`` uses for short messages — and replayed from the plan
cache, synchronized round-by-round with ``MPIX_Request_is_complete``.
"""

from __future__ import annotations

from repro.coll.algorithms import plan_bcast_binomial
from repro.coll.plan import plan_for
from repro.core.comm import Comm
from repro.core.request import Request
from repro.core.stream import STREAM_NULL, MpixStream, StreamNullType
from repro.datatype.types import Datatype
from repro.usercoll.allreduce import _launch

__all__ = ["user_ibcast", "user_bcast"]


def user_ibcast(
    comm: Comm,
    buf,
    count: int,
    datatype: Datatype,
    root: int = 0,
    stream: MpixStream | StreamNullType = STREAM_NULL,
) -> Request:
    """Nonblocking user-level binomial broadcast; returns a request."""
    plan = plan_for(comm, plan_bcast_binomial, root, nbytes=count * datatype.size)
    return _launch(comm, plan, buf, count, datatype, "user-bcast", stream)


def user_bcast(
    comm: Comm,
    buf,
    count: int,
    datatype: Datatype,
    root: int = 0,
    stream: MpixStream | StreamNullType = STREAM_NULL,
) -> None:
    """Blocking wrapper over :func:`user_ibcast`."""
    comm.proc.wait(user_ibcast(comm, buf, count, datatype, root, stream), stream)
