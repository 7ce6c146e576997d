"""Binomial-tree broadcast (MPICH's short-message default)."""

from __future__ import annotations

from repro.coll.plan import Plan, PlanRound, RecvStep, SendStep

__all__ = ["plan_bcast_binomial"]


def plan_bcast_binomial(rank: int, size: int, root: int) -> Plan:
    """Receive from the tree parent (the lowest set bit of the relative
    rank), then fan out to the whole subtree in one round, so the child
    sends proceed concurrently.  Unit: the message."""
    relrank = (rank - root) % size
    rounds: list[PlanRound] = []
    mask = 1
    while mask < size:
        if relrank & mask:
            parent = (rank - mask + size) % size
            rounds.append(PlanRound(comms=(RecvStep(parent),)))
            break
        mask <<= 1
    # Children sit at decreasing masks below our lowest set bit (for
    # the root, below the tree height).
    mask >>= 1
    children = []
    while mask > 0:
        if relrank + mask < size:
            children.append(SendStep((rank + mask) % size))
        mask >>= 1
    if children:
        rounds.append(PlanRound(comms=children))
    return Plan("binomial", rounds)
