"""The collective-schedule progress subsystem
(``Collective_sched_progress`` in Listing 1.1).

Owns the in-flight native collectives — each a bound
:class:`~repro.coll.plan.PlanExecutor` — per VCI, and polls them from
the progress engine.  The executor never recursively invokes progress:
it checks its round's requests with the side-effect-free
``Request.is_complete`` (the section 3.4 rule).
"""

from __future__ import annotations

import threading

from repro.coll.plan import PlanExecutor
from repro.core.async_ext import ASYNC_DONE, ASYNC_NOPROGRESS
from repro.core.request import Request

__all__ = ["CollSchedEngine"]


class CollSchedEngine:
    """Progress subsystem owning active collective schedules, per VCI.

    The idle fast path is one dict-size/int check, keeping the empty
    poll near-free per section 2.6.
    """

    def __init__(self) -> None:
        # Per-VCI executor lists.  Each list is only mutated under its
        # stream's lock; the dict itself is guarded for concurrent
        # first-use from different streams.  The list OBJECT per VCI is
        # stable for the engine's lifetime (mutated in place, never
        # rebound) so the progress engine's pending-work registry can
        # hold a direct reference and test its truthiness.
        self._active: dict[int, list[PlanExecutor]] = {}
        self._dict_lock = threading.Lock()

    def work_list(self, vci: int) -> list[PlanExecutor]:
        """The stable active-schedule list for ``vci`` (registry hook)."""
        lst = self._active.get(vci)
        if lst is None:
            with self._dict_lock:
                lst = self._active.setdefault(vci, [])
        return lst

    def submit(self, executor: PlanExecutor) -> Request:
        """Start a schedule and track it until completion.

        Caller must hold the owning stream's lock (the comm layer does).
        """
        if executor.start() != ASYNC_DONE:
            self.work_list(executor.comm.stream.vci).append(executor)
        return executor.request

    @property
    def active_count(self) -> int:
        return sum(len(lst) for lst in self._active.values())

    def has_work(self, vci: int) -> bool:
        return bool(self._active.get(vci))

    def progress(self, vci: int, max_k: int | None = None) -> bool:
        """Advance up to ``max_k`` schedules on ``vci`` (all when None);
        True if any advanced.

        Caller must hold the owning stream's lock.  Finished schedules
        are retired by swap-remove — O(1) per retirement with the list
        object kept stable for the pending-work registry — instead of
        rebuilding the whole list every pass.
        """
        scheds = self._active.get(vci)
        if not scheds:
            return False
        made = False
        advanced = 0
        i = 0
        while i < len(scheds):
            sched = scheds[i]
            status = sched.poll()
            if status != ASYNC_NOPROGRESS:
                made = True
                advanced += 1
            if status == ASYNC_DONE:
                last = scheds.pop()
                if last is not sched:
                    # the swapped-in tail schedule is re-examined at i
                    scheds[i] = last
                continue
            i += 1
            if max_k is not None and advanced >= max_k:
                break
        return made
