"""Van de Geijn long-message broadcast: scatter + ring allgather.

MPICH's default for long messages on small communicators: the root
scatters block ``i`` of the payload to rank ``i``, then a ring
allgather reassembles the full vector everywhere.  Total traffic per
rank is ~2x the message (vs ~log2(p) x for binomial), which wins once
the message is bandwidth-bound.
"""

from __future__ import annotations

from repro.coll.algorithms.allgather import ring_rounds
from repro.coll.algorithms.util import partition
from repro.coll.plan import Plan, PlanRound, RecvStep, SendStep

__all__ = ["plan_bcast_scatter_allgather"]


def plan_bcast_scatter_allgather(rank: int, size: int, root: int, count: int) -> Plan:
    """On completion every rank's buffer holds the root's ``count``
    elements.  An ``exact`` plan: the near-equal partition of ``count``
    over ``size`` blocks is part of the layout."""
    counts, displs = partition(count, size)
    rounds = ring_rounds(rank, size, counts, displs)
    if rank == root:
        if size > 1:
            # Linear scatter, posted with the first ring step: the root
            # already owns every block.  The scatter sends come first,
            # so the right neighbor sees its own block before the ring's.
            scatter = [
                SendStep(peer, block=displs[peer], nblocks=counts[peer])
                for peer in range(size)
                if peer != root and counts[peer]
            ]
            rounds[0] = PlanRound(comms=scatter + list(rounds[0].comms))
    elif counts[rank]:
        rounds.insert(
            0,
            PlanRound(
                comms=(RecvStep(root, block=displs[rank], nblocks=counts[rank]),)
            ),
        )
    return Plan("scatter-allgather", rounds, result_blocks=count, exact=True)
