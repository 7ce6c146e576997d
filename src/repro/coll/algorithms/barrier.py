"""Dissemination barrier (Hensgen/Finkel/Manber; MPICH default)."""

from __future__ import annotations

from repro.coll.plan import Plan, PlanRound, RecvStep, SendStep

__all__ = ["plan_barrier_dissemination"]


def plan_barrier_dissemination(rank: int, size: int) -> Plan:
    """ceil(log2(size)) rounds of zero-byte exchanges: in round k, send
    to ``rank + 2^k`` and receive from ``rank - 2^k`` (mod size); each
    round gates the next."""
    rounds = []
    step = 1
    while step < size:
        to = (rank + step) % size
        frm = (rank - step + size) % size
        rounds.append(
            PlanRound(comms=(RecvStep(frm, nblocks=0), SendStep(to, nblocks=0)))
        )
        step <<= 1
    return Plan("dissem", rounds, result_blocks=0)
