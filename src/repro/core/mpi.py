"""Per-process MPI state: the :class:`Proc` context.

One :class:`Proc` is the library state a single MPI process would own:
its rank, streams, progress engine, subsystem engines, and
``COMM_WORLD``.  All of the paper's extension APIs hang off it:

* ``stream_create`` / ``stream_free``                (section 3.1)
* ``stream_progress``                                 (section 3.2)
* ``async_start``                                     (section 3.3)
* ``request_is_complete``                             (section 3.4)
* ``grequest_start`` / ``grequest_complete``          (section 4.6)

``finalize`` spins progress until every pending async task completes,
matching Listing 1.2's observed behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.config import RuntimeConfig
from repro.core.async_ext import AsyncThing, PollFunction
from repro.core.comm import Comm
from repro.core.greq import GeneralizedRequest, grequest_complete, grequest_start
from repro.core.progress import ProgressEngine, ProgressState
from repro.core.request import Request
from repro.core.stream import STREAM_NULL, MpixStream, StreamNullType
from repro.coll.plan import PlanCache
from repro.coll.sched import CollSchedEngine
from repro.datatype.engine import DatatypeEngine
from repro.errors import (
    AlreadyFinalizedError,
    InvalidStreamError,
    PendingOperationsError,
    ProcessFailedError,
    TruncationError,
)
from repro.ft.detector import FailureDetector
from repro.p2p.protocol import P2PEngine
from repro.util import sync as _sync
from repro.util.atomic import AtomicCounter
from repro.util.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.world import World

__all__ = ["Proc"]

#: Thread-support levels, mirroring MPI.
THREAD_SINGLE = 0
THREAD_FUNNELED = 1
THREAD_SERIALIZED = 2
THREAD_MULTIPLE = 3


class Proc:
    """The MPI library state of one rank."""

    def __init__(
        self,
        rank: int,
        world: "World",
        *,
        thread_level: int = THREAD_MULTIPLE,
        tracer: Tracer | None = None,
    ) -> None:
        self.rank = rank
        self.world = world
        self.config: RuntimeConfig = world.config
        self.clock = world.clock
        self.thread_level = thread_level
        self.tracer = tracer if tracer is not None else Tracer()

        self.datatype_engine = DatatypeEngine()
        self.coll_engine = CollSchedEngine()
        self.p2p = P2PEngine(
            rank,
            world.fabric,
            world.shmem,
            self.datatype_engine,
            self.config,
            self.tracer,
        )
        self.progress_engine = ProgressEngine(self)
        # The p2p engine registers its retransmit-timer hooks through
        # this proc's async_start (same machinery as user hooks).
        self.p2p._hook_host = self

        #: VCI 0 / default stream: what STREAM_NULL resolves to.
        self.default_stream = MpixStream(vci=0)
        self.progress_engine.bind_stream(self.default_stream)
        self._streams: list[MpixStream] = [self.default_stream]
        self._vci_counter = 1
        self._stream_lock = _sync.make_lock(f"proc{rank}.streams")

        self._pending_async = AtomicCounter(0)
        self.finalized = False

        # Compiled-collective plan cache + the MPIX_Schedule
        # comparator's per-stream fused chains.
        self.plan_cache = PlanCache.from_config(self.config)
        self._schedule_chains: dict[int, Any] = {}
        self._schedule_chain_lock = _sync.make_lock(f"proc{rank}.schedchains")

        #: communicators by point-to-point context id (revoke-flood
        #: packets route through this registry)
        self._comms: dict[int, Any] = {}
        #: revokes that arrived before the target comm was registered
        self._pending_revokes: set[int] = set()

        #: heartbeat failure detector; None (zero overhead) unless the
        #: config arms it (explicitly or via a kill-bearing fault plan)
        self.detector: FailureDetector | None = (
            FailureDetector(self) if self.config.detector_active() else None
        )
        self.p2p.detector = self.detector
        if self.detector is not None:
            self.detector.start()

        self.comm_world = Comm(
            self, range(world.nranks), context_id=0, stream=self.default_stream
        )

    # ------------------------------------------------------------------
    # Lifetime.
    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self.finalized:
            raise AlreadyFinalizedError("process context already finalized")

    def finalize(self, *, max_spins: int = 10_000_000) -> None:
        """Finalize: drive progress until all async tasks and pending
        communication drain, then mark the context dead.

        Raises :class:`PendingOperationsError` if draining does not
        converge within ``max_spins`` passes (a hook that never
        completes, or a peer that never matched a message).
        """
        self._check_alive()
        if self.world.fabric.is_dead(self.rank):
            # This rank has fail-stopped: nothing it could drain matters
            # anymore (the fabric blackholes its traffic).  Mark the
            # context dead so the runner and World.finalize can proceed.
            self.finalized = True
            return
        if self.detector is not None:
            # Retire the heartbeat hook so the pending-async count can
            # reach zero; peers this rank already declared dead stay
            # dead (fail-stop).
            self.detector.stop()
        spins = 0
        try:
            while True:
                busy = False
                for stream in list(self._streams):
                    if self.stream_progress(stream):
                        busy = True
                if self._pending_async.value > 0:
                    busy = True
                for stream in list(self._streams):
                    if self.p2p.has_pending(stream.vci):
                        busy = True
                # Finalize is collective: with reliability on, keep
                # making progress until the whole world's reliable
                # traffic is quiescent, or a finalized rank would strand
                # peers waiting on acks only this rank can send.
                if self.p2p._rel_on and not self.world.rel_quiescent():
                    busy = True
                if not busy:
                    break
                spins += 1
                if spins > max_spins:
                    raise PendingOperationsError(
                        f"finalize did not drain: {self._pending_async.value} "
                        f"async tasks pending after {max_spins} passes"
                    )
                if self._pending_async.value > 0 or busy:
                    self.idle_wait()
        except ProcessFailedError as exc:
            if exc.ranks == (self.rank,):
                # Killed mid-finalize: the corpse is done either way.
                self.finalized = True
                return
            raise
        self.p2p.drop_unexpected()  # parked payload leases go home
        self.finalized = True

    # ------------------------------------------------------------------
    # Communicator registry (revoke-flood routing).
    # ------------------------------------------------------------------
    def register_comm(self, comm: Comm) -> None:
        """Track a communicator by p2p context id (runtime internal)."""
        self._comms[comm.context_id] = comm
        if comm.context_id in self._pending_revokes:
            self._pending_revokes.discard(comm.context_id)
            comm._apply_revoke(local=False)

    def unregister_comm(self, comm: Comm) -> None:
        if self._comms.get(comm.context_id) is comm:
            del self._comms[comm.context_id]

    def on_comm_revoke(self, context_id: int) -> None:
        """A ``comm_revoke`` packet arrived for ``context_id`` (runtime
        internal, called from packet dispatch)."""
        comm = self._comms.get(context_id)
        if comm is None:
            # Revoke raced comm construction; applied at registration.
            self._pending_revokes.add(context_id)
            return
        comm._apply_revoke(local=False)

    # ------------------------------------------------------------------
    # Streams (section 3.1).
    # ------------------------------------------------------------------
    def stream_create(self, info: dict[str, Any] | None = None) -> MpixStream:
        """``MPIX_Stream_create``: a new serial context with its own VCI."""
        self._check_alive()
        with self._stream_lock:
            vci = self._vci_counter
            self._vci_counter += 1
            stream = MpixStream(vci=vci, info=info)
            # Bind the pending-work busy check before the stream is
            # published: every progress pass then finds it as a plain
            # attribute (no dict probe, no double-create race).
            self.progress_engine.bind_stream(stream)
            self._streams.append(stream)
        return stream

    def stream_free(self, stream: MpixStream) -> None:
        """``MPIX_Stream_free``: release a stream (must be drained)."""
        stream = self.resolve_stream(stream)
        if stream is self.default_stream:
            raise InvalidStreamError("cannot free the default stream")
        if stream.async_tasks or stream._inbox:
            raise InvalidStreamError("stream still has pending async tasks")
        stream.freed = True
        with self._stream_lock:
            if stream in self._streams:
                self._streams.remove(stream)

    def resolve_stream(self, stream: MpixStream | StreamNullType) -> MpixStream:
        """Map ``STREAM_NULL`` to this process's default stream."""
        if isinstance(stream, StreamNullType):
            return self.default_stream
        if stream.freed:
            raise InvalidStreamError("stream has been freed")
        return stream

    @property
    def streams(self) -> list[MpixStream]:
        return list(self._streams)

    def stream_for_vci(self, vci: int) -> MpixStream:
        """The stream owning ``vci`` (runtime internal; used to attach
        internal async hooks on the right progress context)."""
        if vci == 0:
            return self.default_stream
        with self._stream_lock:
            for stream in self._streams:
                if stream.vci == vci:
                    return stream
        raise InvalidStreamError(f"no stream owns vci {vci}")

    # ------------------------------------------------------------------
    # Explicit progress (section 3.2).
    # ------------------------------------------------------------------
    def stream_progress(
        self,
        stream: MpixStream | StreamNullType = STREAM_NULL,
        state: ProgressState | None = None,
    ) -> bool:
        """``MPIX_Stream_progress``: one progress pass for ``stream``.

        A fail-stopped rank raises :class:`ProcessFailedError` here —
        every blocking wait funnels through progress, so this is the
        single point where a killed rank's threads unwind instead of
        spinning on a fabric that blackholes their traffic.
        """
        self._check_alive()
        fabric = self.world.fabric
        if fabric._dead and self.rank in fabric._dead:
            raise ProcessFailedError(
                f"rank {self.rank} has fail-stopped", ranks=(self.rank,)
            )
        return self.progress_engine.stream_progress(self.resolve_stream(stream), state)

    # ------------------------------------------------------------------
    # MPIX async (section 3.3).
    # ------------------------------------------------------------------
    def async_start(
        self,
        poll_fn: PollFunction,
        extra_state: Any = None,
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> AsyncThing:
        """``MPIX_Async_start``: register a user progress hook."""
        self._check_alive()
        thing = AsyncThing(poll_fn, extra_state, self.resolve_stream(stream))
        self.enqueue_async(thing)
        return thing

    def enqueue_async(self, thing: AsyncThing) -> None:
        """Queue a task onto its stream's inbox (runtime internal)."""
        self._pending_async.add(1)
        with thing.stream._inbox_lock:
            thing.stream._inbox.append(thing)

    def drain_async_inbox(self, stream: MpixStream) -> list[AsyncThing]:
        """Take all inbox tasks for ``stream`` (runtime internal)."""
        if not stream._inbox:
            return []
        with stream._inbox_lock:
            inbox, stream._inbox = stream._inbox, []
        return inbox

    def note_async_done(self) -> None:
        """Bookkeeping when a hook returns DONE (runtime internal)."""
        self._pending_async.sub(1)

    def note_async_spawned(self) -> None:
        """Bookkeeping for a same-stream spawn attached directly to the
        task list by the progress engine (runtime internal)."""
        self._pending_async.add(1)

    @property
    def pending_async_tasks(self) -> int:
        return self._pending_async.value

    # ------------------------------------------------------------------
    # Generalized requests (section 4.6).
    # ------------------------------------------------------------------
    def grequest_start(
        self,
        query_fn=None,
        free_fn=None,
        cancel_fn=None,
        extra_state: Any = None,
    ) -> GeneralizedRequest:
        self._check_alive()
        return grequest_start(query_fn, free_fn, cancel_fn, extra_state)

    @staticmethod
    def grequest_complete(request: GeneralizedRequest) -> None:
        grequest_complete(request)

    # ------------------------------------------------------------------
    # Completion: queries, test, wait.
    # ------------------------------------------------------------------
    @staticmethod
    def request_is_complete(request: Request) -> bool:
        """``MPIX_Request_is_complete``: atomic read, no progress."""
        return request.is_complete()

    def idle_wait(self) -> None:
        """Advance virtual time or yield the CPU when nothing matured."""
        if not self.clock.idle_advance():
            self.clock.yield_cpu()

    def _progress_until(self, done, stream: MpixStream | StreamNullType) -> None:
        """Drive progress until ``done()``; adaptive spin-then-yield backoff.

        All blocking MPI_Wait* variants funnel through this loop.  An
        empty pass first tries :meth:`Clock.idle_advance` (virtual-clock
        worlds jump to the next deadline, so tests stay instantaneous).
        On a real clock the loop spins through ``wait_spin_count``
        consecutive empty passes at full speed — an imminent completion
        is caught at minimum latency — then yields the CPU every
        ``wait_yield_interval``-th empty pass so co-located rank threads
        are not starved by a hot wait loop.  Any progress, completion,
        or virtual-time jump resets the backoff.
        """
        cfg = self.config
        spin = cfg.wait_spin_count
        interval = cfg.wait_yield_interval
        clock = self.clock
        idle = 0
        while not done():
            if self.stream_progress(stream):
                idle = 0
                continue
            if done():
                return
            if clock.idle_advance():
                idle = 0
                continue
            idle += 1
            if idle > spin and (idle - spin) % interval == 0:
                clock.yield_cpu()

    def _finish_wait(self, request: Request) -> None:
        if not request.status.error:
            return
        handler = request.errhandler
        if handler == "return":
            # MPI_ERRORS_RETURN: the error stays on the request/status;
            # the wait itself returns normally.
            return
        if callable(handler):
            # User errhandler: invoked exactly once per failed
            # operation (re-waiting a failed request must not re-fire),
            # then the wait returns like ERRORS_RETURN.
            if not request.errhandler_fired:
                request.errhandler_fired = True
                handler(request.exception)
            return
        if request.exception is not None:
            raise request.exception
        raise TruncationError(
            f"receive truncated: status.error={request.status.error}"
        )

    def test(
        self,
        request: Request,
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> bool:
        """MPI_Test: one progress pass, then check completion."""
        if not request.is_complete():
            self.stream_progress(stream)
        if request.is_complete():
            self._finish_wait(request)
            return True
        return False

    def wait(
        self,
        request: Request,
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> Request:
        """MPI_Wait: progress until ``request`` completes."""
        self._progress_until(request.is_complete, stream)
        self._finish_wait(request)
        return request

    def waitall(
        self,
        requests: Iterable[Request],
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> None:
        """MPI_Waitall over ``requests``."""
        requests = list(requests)
        pending = [r for r in requests if not r.is_complete()]

        def all_done() -> bool:
            pending[:] = [r for r in pending if not r.is_complete()]
            return not pending

        self._progress_until(all_done, stream)
        # surface any truncation error after everything finished
        for r in requests:
            self._finish_wait(r)

    def waitany(
        self,
        requests: list[Request],
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> int:
        """MPI_Waitany: index of the first request to complete."""
        self._progress_until(
            lambda: any(r.is_complete() for r in requests), stream
        )
        for i, r in enumerate(requests):
            if r.is_complete():
                self._finish_wait(r)
                return i
        raise AssertionError("unreachable: waitany finished with none complete")

    def testall(
        self,
        requests: Iterable[Request],
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> bool:
        """MPI_Testall: one progress pass, True iff all complete."""
        requests = list(requests)
        if not all(r.is_complete() for r in requests):
            self.stream_progress(stream)
        if all(r.is_complete() for r in requests):
            for r in requests:
                self._finish_wait(r)
            return True
        return False

    def testany(
        self,
        requests: list[Request],
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> int | None:
        """MPI_Testany: one progress pass, index of a completed request
        or None."""
        self.stream_progress(stream)
        for i, r in enumerate(requests):
            if r.is_complete():
                self._finish_wait(r)
                return i
        return None

    def testsome(
        self,
        requests: list[Request],
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> list[int]:
        """MPI_Testsome: one progress pass, indices of all completed."""
        self.stream_progress(stream)
        done = [i for i, r in enumerate(requests) if r.is_complete()]
        for i in done:
            self._finish_wait(requests[i])
        return done

    def waitsome(
        self,
        requests: list[Request],
        stream: MpixStream | StreamNullType = STREAM_NULL,
    ) -> list[int]:
        """MPI_Waitsome: progress until at least one completes; returns
        the indices of everything complete at that point."""
        self._progress_until(
            lambda: any(r.is_complete() for r in requests), stream
        )
        done = [i for i, r in enumerate(requests) if r.is_complete()]
        for i in done:
            self._finish_wait(requests[i])
        return done

    @staticmethod
    def start(request) -> None:
        """MPI_Start: activate a persistent request."""
        request.start()

    @staticmethod
    def startall(requests) -> None:
        """MPI_Startall."""
        for r in requests:
            r.start()

    # ------------------------------------------------------------------
    def wtime(self) -> float:
        """MPI_Wtime."""
        return self.clock.now()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Proc(rank={self.rank}/{self.world.nranks})"
