"""User-level ring allgather via the MPIX async extension.

One more proof of section 4.7's extensibility claim: the ring pattern
(p-1 forwarding rounds) compiled once per comm shape by
:func:`~repro.coll.algorithms.plan_allgather_ring` — the planner behind
``Comm.iallgather``; block offsets are pre-resolved in block units,
scaled to the concrete ``count`` at bind time — and replayed from the
plan cache.
"""

from __future__ import annotations

from repro.coll.algorithms import plan_allgather_ring
from repro.coll.plan import plan_for
from repro.core.comm import Comm
from repro.core.request import Request
from repro.core.stream import STREAM_NULL, MpixStream, StreamNullType
from repro.datatype.types import Datatype
from repro.usercoll.allreduce import _launch

__all__ = ["user_iallgather", "user_allgather"]


def user_iallgather(
    comm: Comm,
    recvbuf,
    count: int,
    datatype: Datatype,
    stream: MpixStream | StreamNullType = STREAM_NULL,
) -> Request:
    """Nonblocking user-level ring allgather.

    ``recvbuf`` holds ``size`` blocks of ``count`` elements; block
    ``comm.rank`` must already contain the local contribution
    (IN_PLACE-style, like Listing 1.8's in-place restriction).
    """
    plan = plan_for(comm, plan_allgather_ring, nbytes=count * datatype.size)
    return _launch(comm, plan, recvbuf, count, datatype, "user-allgather", stream)


def user_allgather(
    comm: Comm,
    recvbuf,
    count: int,
    datatype: Datatype,
    stream: MpixStream | StreamNullType = STREAM_NULL,
) -> None:
    """Blocking wrapper over :func:`user_iallgather`."""
    comm.proc.wait(user_iallgather(comm, recvbuf, count, datatype, stream), stream)
