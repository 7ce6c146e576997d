"""Concurrency invariants evaluated at every scheduler yield point.

The checks encode the paper's §3.4 concurrency claims as executable
properties:

* **Request monotonicity** — ``MPIX_Request_is_complete`` is a one-way
  flag: once an observer has seen True it may never see False again
  (:class:`MonotonicityError`).  Every :class:`repro.core.request.Request`
  constructed while a scheduler is active is watched automatically.
* **Message conservation** — on the netmod fabric, every packet copy
  scheduled for delivery is either harvested by a poll or still queued:
  ``posted - dropped + duplicated == harvested + in_flight``
  (:class:`ConservationError`).  Worlds register themselves via
  :func:`repro.util.sync.note_world`.
* **Lock ordering** — the acquisition order over instrumented lock
  *instances* is recorded; a pair acquired in both orders by different
  threads is a potential deadlock and is reported
  (:attr:`InvariantMonitor.lock_inversions`, raised when ``strict``).
* **Deadlock / livelock** — detected by the scheduler itself (empty
  runnable set, or the step budget exhausted) and formatted here with
  the wait-for graph and the pending requests, so "all runnable threads
  blocked with requests outstanding" reads directly off the report.

Shmem cell accounting is checked at *quiescence* (run end) rather than
per yield: instrumented transport locks legitimately expose transient
negative in-flight counts mid-handoff (receiver popped a cell whose
sender has not yet finished accounting it).  At quiescence the count
must equal the cells physically left in the rings, and — once nothing
is in flight anywhere — every outstanding buffer-pool lease must be
one a parked unexpected message holds: an eager snapshot or an on-node
descriptor keeps exactly one reference from arrival until it is
matched, swept (revoke, dead source) or dropped by finalize.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.world import World

__all__ = [
    "InvariantError",
    "DeadlockError",
    "LivelockError",
    "MonotonicityError",
    "ConservationError",
    "LockOrderError",
    "InvariantMonitor",
]


class InvariantError(AssertionError):
    """Base class: a concurrency invariant failed under dsched.

    ``decision_trace`` carries the formatted repro script of the run
    that failed (filled in by the scheduler before re-raising).
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.decision_trace: str = ""

    def __str__(self) -> str:
        base = super().__str__()
        if self.decision_trace:
            return f"{base}\n{self.decision_trace}"
        return base


class DeadlockError(InvariantError):
    """No logical thread is runnable and none is sleeping."""


class LivelockError(InvariantError):
    """The yield-point step budget was exhausted without completing."""


class MonotonicityError(InvariantError):
    """A request went complete -> pending (the flag must be one-way)."""


class ConservationError(InvariantError):
    """Fabric packet accounting does not balance."""


class LockOrderError(InvariantError):
    """Two locks were acquired in both orders (strict mode only)."""


class InvariantMonitor:
    """Holds watched state and evaluates the always-on checks.

    One monitor belongs to one :class:`~repro.dsched.sched.DetScheduler`;
    the scheduler calls :meth:`check` at every yield point (cheap: a
    few dict walks over the handful of objects a test touches) and
    :meth:`check_quiescent` once all threads finished.
    """

    def __init__(self, *, strict_lock_order: bool = False) -> None:
        self.strict_lock_order = strict_lock_order
        #: watched requests: id -> (weakref, last observed completion)
        self._requests: dict[int, list] = {}
        self._worlds: list[weakref.ReferenceType] = []
        #: lock-order edges: (id(a), id(b)) -> (name_a, name_b, step)
        self._lock_edges: dict[tuple[int, int], tuple[str, str, int]] = {}
        #: inversion reports: human-readable strings, first occurrence
        self.lock_inversions: list[str] = []
        self._inverted_pairs: set[frozenset[int]] = set()
        self.stat_checks = 0

    # ------------------------------------------------------------------
    # Registration (via repro.util.sync hooks).
    # ------------------------------------------------------------------
    def watch_request(self, request: Any) -> None:
        key = id(request)

        def _drop(_ref, _key=key, _requests=self._requests):
            _requests.pop(_key, None)

        self._requests[key] = [weakref.ref(request, _drop), request.is_complete()]

    def watch_world(self, world: "World") -> None:
        self._worlds.append(weakref.ref(world))

    def pending_requests(self) -> list[Any]:
        """Watched requests not yet complete (deadlock diagnostics)."""
        out = []
        for ref, _last in self._requests.values():
            req = ref()
            if req is not None and not req.is_complete():
                out.append(req)
        return out

    # ------------------------------------------------------------------
    # Lock-order recording (driven by DetLock acquire/release).
    # ------------------------------------------------------------------
    def on_acquire(self, thread: Any, lock: Any, step: int) -> None:
        """Record ordered pairs (held, acquired) and detect inversions."""
        acquired = id(lock)
        for held in thread.held_locks:
            a = id(held)
            if a == acquired:
                continue
            edge = (a, acquired)
            if edge not in self._lock_edges:
                self._lock_edges[edge] = (held.name, lock.name, step)
            rev = self._lock_edges.get((acquired, a))
            if rev is not None:
                pair = frozenset((a, acquired))
                if pair not in self._inverted_pairs:
                    self._inverted_pairs.add(pair)
                    self.lock_inversions.append(
                        f"lock-order inversion: {thread.name} takes "
                        f"{held.name} -> {lock.name} at step {step}, but "
                        f"{rev[0]} -> {rev[1]} was taken at step {rev[2]}"
                    )
        thread.held_locks.append(lock)

    def on_release(self, thread: Any, lock: Any) -> None:
        try:
            thread.held_locks.remove(lock)
        except ValueError:  # released by a different thread path; ignore
            pass

    # ------------------------------------------------------------------
    # Per-yield checks.
    # ------------------------------------------------------------------
    def check(self, step: int) -> None:
        """Evaluate the always-on invariants; raise on violation."""
        self.stat_checks += 1
        for entry in list(self._requests.values()):
            req = entry[0]()
            if req is None:
                continue
            now = req.is_complete()
            if entry[1] and not now:
                raise MonotonicityError(
                    f"request {req!r} reverted complete -> pending at "
                    f"step {step}: MPIX_Request_is_complete must be "
                    "monotonic"
                )
            entry[1] = now
        for wref in self._worlds:
            world = wref()
            if world is None:
                continue
            counts = world.fabric.conservation_counts()
            scheduled = (
                counts["posted"] - counts["dropped"] + counts["duplicated"]
            )
            if scheduled != counts["delivered"]:
                raise ConservationError(
                    f"step {step}: {scheduled} packet copies scheduled "
                    f"(posted={counts['posted']} dropped={counts['dropped']} "
                    f"duplicated={counts['duplicated']}) but "
                    f"{counts['delivered']} enqueued"
                )
            if counts["delivered"] != counts["harvested"] + counts["in_flight"]:
                raise ConservationError(
                    f"step {step}: delivered={counts['delivered']} != "
                    f"harvested={counts['harvested']} + "
                    f"in_flight={counts['in_flight']}"
                )
        if self.strict_lock_order and self.lock_inversions:
            raise LockOrderError(self.lock_inversions[0])

    def check_quiescent(self) -> None:
        """Checks valid only once every logical thread has finished."""
        for wref in self._worlds:
            world = wref()
            if world is None or world.shmem is None:
                continue
            for addr, pending in world.shmem._cells_pending.items():
                queued = world.shmem.cells_in_rings(addr)
                if pending != queued:
                    raise ConservationError(
                        f"shmem cells_pending[{addr}] = {pending} but "
                        f"{queued} cells queued at quiescence: cell "
                        "pushed/popped accounting leaked"
                    )
            self._check_lease_balance(world)

    @staticmethod
    def _check_lease_balance(world: "World") -> None:
        """Outstanding leases == leases parked on unexpected queues,
        provided no other artifact can still hold one."""
        states = [s for p in world.procs for s in p.p2p._vcis.values()]
        if (
            world.fabric.total_pending()
            or any(world.shmem._cells_pending.values())
            or any(world.shmem._sends.values())
            or any(s.sends or s.recvs or s.rel is not None for s in states)
        ):
            return  # wire packets, cells or protocol entries hold references
        parked = {
            id(msg.lease)
            for s in states
            for msg in s.match.unexpected_entries()
            if msg.lease is not None
        }
        outstanding = sum(p.p2p.pool.outstanding for p in world.procs)
        if outstanding != len(parked):
            raise ConservationError(
                f"{outstanding} buffer-pool leases outstanding at quiescence "
                f"but {len(parked)} held by parked unexpected messages: "
                "a lease reference leaked"
            )

    # ------------------------------------------------------------------
    # Deadlock formatting (scheduler supplies the thread table).
    # ------------------------------------------------------------------
    def deadlock_report(self, threads: list[Any]) -> str:
        """Wait-for graph + pending requests for a stuck run."""
        lines = ["wait-for graph:"]
        blocked = [t for t in threads if t.blocked_on is not None]
        for t in blocked:
            res = t.blocked_on
            owner = getattr(res, "_owner", None)
            owner_name = getattr(owner, "name", None)
            tail = f" (held by {owner_name})" if owner_name else ""
            lines.append(f"  {t.name} waits on {res.name}{tail}")
        cycle = self._find_cycle(blocked)
        if cycle:
            lines.append("  cycle: " + " -> ".join(cycle + [cycle[0]]))
        pending = self.pending_requests()
        if pending:
            lines.append(f"pending requests ({len(pending)}):")
            for req in pending[:16]:
                lines.append(f"  {req!r}")
        return "\n".join(lines)

    @staticmethod
    def _find_cycle(blocked: list[Any]) -> list[str] | None:
        """A lock-ownership cycle among blocked threads, if one exists."""
        waits = {}
        for t in blocked:
            owner = getattr(t.blocked_on, "_owner", None)
            if owner is not None and getattr(owner, "name", None) is not None:
                waits[t] = owner
        for start in waits:
            seen: list[Any] = []
            node = start
            while node in waits and node not in seen:
                seen.append(node)
                node = waits[node]
            if node in seen:
                cycle = seen[seen.index(node):]
                return [t.name for t in cycle]
        return None
