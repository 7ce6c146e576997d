"""Native collectives, implemented as progressed schedules.

A collective algorithm is "a collection of communication patterns tied
together by a progression schedule" (paper, section 1).  Here each
algorithm is a planner (:mod:`repro.coll.algorithms`) emitting a
:class:`~repro.coll.plan.Plan` — rounds of send/recv steps and the
reduce/copy steps that follow them — which a
:class:`~repro.coll.plan.PlanExecutor` replays while the
collective-schedule progress subsystem (``Collective_sched_progress``
in Listing 1.1, :class:`~repro.coll.sched.CollSchedEngine`) polls it.
The user-level collectives replay the same plans from an MPIX async
hook instead.
"""

from repro.coll.plan import Plan, PlanCache, PlanExecutor
from repro.coll.sched import CollSchedEngine

__all__ = ["Plan", "PlanCache", "PlanExecutor", "CollSchedEngine"]
