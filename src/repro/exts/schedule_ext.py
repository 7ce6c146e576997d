"""The MPIX_Schedule proposal comparator.

:class:`Schedule` is the MPIX_Schedule proposal (Schafer et al. [11];
paper section 5.3): a sequence of *rounds* of operations — MPI requests
(or thunks that start them) and local MPI-op reductions — where each
round must complete before the next begins.  ``commit`` returns a
request that completes when the final round (or the marked completion
point) does.  Committed schedules on the same stream are *fused*: one
async hook replays the whole per-stream chain, so a burst of
back-to-back schedules costs one hook registration and round ``k+1`` of
the next schedule starts in the same poll pass that retired round ``n``
of the previous one.

What the proposal's persistent collectives become once planning is
hoisted out of the per-call path — a compiled, cached schedule IR — is
:mod:`repro.coll.plan`, the representation every collective in this
runtime (native and user-level) runs on.

The paper's criticism of the proposal — no progress mechanism of its
own — holds here too by construction: the comparator *borrows* the MPIX
async hook for progression, exactly as the paper suggests any real
implementation effectively must.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.core.async_ext import ASYNC_DONE, ASYNC_NOPROGRESS, ASYNC_PENDING, AsyncThing
from repro.core.request import Request
from repro.core.stream import STREAM_NULL, MpixStream, StreamNullType
from repro.datatype.ops import Op
from repro.datatype.types import Datatype
from repro.errors import ProcessFailedError, RevokedError, error_code_for
from repro.util import sync as _sync

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mpi import Proc

__all__ = ["Schedule"]

#: A deferred operation: called at round start, returns the request.
RequestThunk = Callable[[], Request]


class _Round:
    __slots__ = ("items", "local_ops", "started", "requests")

    def __init__(self) -> None:
        self.items: list[Request | RequestThunk] = []
        self.local_ops: list[Callable[[], None]] = []
        self.started = False
        self.requests: list[Request] = []

    def reset(self) -> None:
        self.started = False
        self.requests = []


class _ScheduleChain:
    """Per-(proc, stream) fusion of committed schedules.

    All schedules committed on one stream share a single async hook:
    the chain replays the head schedule's rounds and, the moment it
    retires, starts the next schedule's first round *within the same
    poll pass*.  ``stat_fused`` counts commits that rode an already
    active hook instead of registering their own.
    """

    __slots__ = ("proc", "stream", "_lock", "_queue", "_running", "stat_fused", "stat_hooks")

    def __init__(self, proc: "Proc", stream: MpixStream) -> None:
        self.proc = proc
        self.stream = stream
        self._lock = _sync.make_lock(f"schedchain.vci{stream.vci}")
        self._queue: deque[Schedule] = deque()
        self._running = False
        #: commits fused onto an already running hook
        self.stat_fused = 0
        #: hooks registered (chain starts)
        self.stat_hooks = 0

    def submit(self, sched: "Schedule") -> None:
        start = False
        with self._lock:
            self._queue.append(sched)
            if self._running:
                self.stat_fused += 1
            else:
                self._running = True
                self.stat_hooks += 1
                start = True
        if start:
            self.proc.async_start(self._poll, self, self.stream)

    def _poll(self, thing: AsyncThing) -> int:
        advanced = False
        while True:
            with self._lock:
                sched = self._queue[0] if self._queue else None
                if sched is None:
                    self._running = False
                    return ASYNC_DONE
            status = sched._advance()
            if status == "done":
                with self._lock:
                    if self._queue and self._queue[0] is sched:
                        self._queue.popleft()
                advanced = True
                continue
            if status == "progress":
                advanced = True
            return ASYNC_PENDING if advanced else ASYNC_NOPROGRESS


def _chain_for(proc: "Proc", stream: MpixStream) -> _ScheduleChain:
    chains = proc._schedule_chains
    with proc._schedule_chain_lock:
        chain = chains.get(stream.stream_id)
        if chain is None:
            chain = chains[stream.stream_id] = _ScheduleChain(proc, stream)
    return chain


class Schedule:
    """One MPIX_Schedule.

    Build phase: ``add_operation`` / ``add_mpi_operation`` populate the
    current round; ``create_round`` closes it.  ``mark_reset_point`` /
    ``mark_completion_point`` record the persistent-collective markers:
    the commit request completes when the completion-point round does
    (later rounds are finalization), and :meth:`restart` replays from
    the reset point.  ``commit`` freezes the schedule and enqueues it on
    the stream's fused chain.

    ``free`` on a committed-but-incomplete schedule *cancels* it: the
    request completes with ``status.cancelled`` set, no further rounds
    start, and the chain drops it at the next poll — the hook never
    polls a freed schedule forever.
    """

    def __init__(self, proc: "Proc", *, auto_free: bool = True) -> None:
        self.proc = proc
        self.auto_free = auto_free
        self._rounds: list[_Round] = [_Round()]
        self.reset_point: int | None = None
        self.completion_point: int | None = None
        self._committed = False
        self._freed = False
        self._cancelled = False
        self.request: Request | None = None
        self._round_index = 0
        self._chain: _ScheduleChain | None = None

    # ------------------------------------------------------------------
    # Build phase.
    # ------------------------------------------------------------------
    def _check_building(self) -> None:
        if self._committed:
            raise RuntimeError("schedule already committed")
        if self._freed:
            raise RuntimeError("schedule already freed")

    def add_operation(self, op: Request | RequestThunk) -> None:
        """``MPIX_Schedule_add_operation``: add a request (or a thunk
        that starts one at round entry) to the current round."""
        self._check_building()
        self._rounds[-1].items.append(op)

    def add_mpi_operation(
        self,
        op: Op,
        invec,
        inoutvec,
        length: int,
        datatype: Datatype,
    ) -> None:
        """``MPIX_Schedule_add_mpi_operation``: a local reduction
        executed after the round's communications complete."""
        self._check_building()

        def run() -> None:
            op.apply(invec, inoutvec, length, datatype)

        self._rounds[-1].local_ops.append(run)

    def mark_reset_point(self) -> None:
        """``MPIX_Schedule_mark_reset_point``."""
        self._check_building()
        self.reset_point = len(self._rounds) - 1

    def mark_completion_point(self) -> None:
        """``MPIX_Schedule_mark_completion_point``."""
        self._check_building()
        self.completion_point = len(self._rounds) - 1

    def create_round(self) -> None:
        """``MPIX_Schedule_create_round``: close the current round."""
        self._check_building()
        self._rounds.append(_Round())

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def commit(
        self, stream: MpixStream | StreamNullType = STREAM_NULL
    ) -> Request:
        """``MPIX_Schedule_commit``: start executing; returns the
        schedule's request."""
        self._check_building()
        self._committed = True
        # Drop a trailing empty round (an artifact of create_round).
        if self._rounds and not self._rounds[-1].items and not self._rounds[-1].local_ops:
            self._rounds.pop()
        self.request = Request("schedule")
        if not self._rounds:
            self.request.complete()
            return self.request
        self._chain = _chain_for(self.proc, self.proc.resolve_stream(stream))
        self._chain.submit(self)
        return self.request

    def restart(self) -> Request:
        """Replay a completed schedule from its reset point (the
        persistent-collective reset semantics of the proposal).

        Rounds from the reset point on have their state cleared — thunk
        operations are re-invoked at round entry; direct ``Request``
        operations are reused as-is.  Requires ``auto_free=False`` and a
        complete previous run.
        """
        if self._freed:
            raise RuntimeError("schedule already freed")
        if not self._committed:
            raise RuntimeError("schedule not committed")
        if self.request is not None and not self.request.is_complete():
            raise RuntimeError("schedule still executing")
        start = self.reset_point if self.reset_point is not None else 0
        for rnd in self._rounds[start:]:
            rnd.reset()
        self._round_index = start
        self.request = Request("schedule")
        if start >= len(self._rounds):
            self.request.complete()
            return self.request
        assert self._chain is not None
        self._chain.submit(self)
        return self.request

    def _start_round(self, rnd: _Round) -> None:
        rnd.started = True
        for item in rnd.items:
            rnd.requests.append(item() if callable(item) else item)

    def _advance(self) -> str:
        """Chain-driven replay: 'done', 'progress', or 'idle'."""
        advanced = False
        while True:
            if self._cancelled:
                self._finish_cancel()
                return "done"
            rnd = self._rounds[self._round_index]
            if not rnd.started:
                try:
                    self._start_round(rnd)
                except (ProcessFailedError, RevokedError) as exc:
                    self._finish_failed(exc)
                    return "done"
            failed: BaseException | None = None
            for r in rnd.requests:
                if not r.is_complete():
                    return "progress" if advanced else "idle"
                if failed is None and r.exception is not None:
                    failed = r.exception
            if failed is not None:
                self._finish_failed(failed)
                return "done"
            for op in rnd.local_ops:
                op()
            advanced = True
            if self.completion_point == self._round_index:
                req = self.request
                if req is not None and not req.is_complete():
                    req.complete()
            self._round_index += 1
            if self._round_index >= len(self._rounds):
                req = self.request
                if req is not None and not req.is_complete():
                    req.complete()
                if self.auto_free:
                    self._freed = True
                return "done"
            # fall through: start the next round within this same poll

    def _finish_failed(self, exc: BaseException) -> None:
        """Abort after a round operation failed (fail-stop / revoke):
        the schedule's request fails and no later round starts."""
        for rnd in self._rounds:
            for r in rnd.requests:
                if r.is_complete():
                    r.free()
        req = self.request
        if req is not None and not req.is_complete():
            req.fail(exc, error_code_for(exc))
        if self.auto_free:
            self._freed = True

    def _finish_cancel(self) -> None:
        for rnd in self._rounds:
            for r in rnd.requests:
                r.free()
        req = self.request
        if req is not None and not req.is_complete():
            req.status.cancelled = True
            req.complete()

    def free(self) -> None:
        """``MPIX_Schedule_free``.

        Freeing a committed-but-incomplete schedule cancels it: the
        request completes immediately with ``status.cancelled`` set, no
        new rounds are started, and the fused chain detaches it on its
        next poll (already-posted round requests are freed, not
        awaited).  Freeing a building or completed schedule just
        releases it.
        """
        if self._freed:
            return
        self._freed = True
        req = self.request
        if not self._committed or req is None or req.is_complete():
            return
        self._cancelled = True
        req.status.cancelled = True
        req.complete()
