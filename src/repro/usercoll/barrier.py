"""User-level dissemination barrier via the MPIX async extension.

The dissemination pattern is compiled once per comm shape by
:func:`~repro.coll.algorithms.plan_barrier_dissemination` (zero-byte
exchanges at doubling strides; the planner behind ``Comm.ibarrier``),
cached, and replayed by the shared executor.
"""

from __future__ import annotations

from repro.coll.algorithms import plan_barrier_dissemination
from repro.coll.plan import plan_for
from repro.core.comm import Comm
from repro.core.request import Request
from repro.core.stream import STREAM_NULL, MpixStream, StreamNullType
from repro.datatype.types import BYTE
from repro.usercoll.allreduce import _launch

__all__ = ["user_ibarrier", "user_barrier"]


def user_ibarrier(
    comm: Comm, stream: MpixStream | StreamNullType = STREAM_NULL
) -> Request:
    """Nonblocking user-level dissemination barrier."""
    plan = plan_for(comm, plan_barrier_dissemination)
    return _launch(comm, plan, None, 0, BYTE, "user-barrier", stream)


def user_barrier(
    comm: Comm, stream: MpixStream | StreamNullType = STREAM_NULL
) -> None:
    """Blocking wrapper over :func:`user_ibarrier`."""
    comm.proc.wait(user_ibarrier(comm, stream), stream)
