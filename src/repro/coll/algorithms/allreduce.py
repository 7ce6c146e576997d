"""Recursive-doubling allreduce (Ruefenacht et al. [9], MPICH default
for short messages) — the algorithm of the paper's user-level example
(Listing 1.8), so ``Comm.iallreduce`` and ``usercoll.user_allreduce``
in the Fig. 13 benchmark replay the *same* plan.

Supports any communicator size via the standard remainder folding:
with ``rem = size - pof2`` extra ranks, ranks ``< 2*rem`` pair up
(even ranks fold into their odd neighbor and sit out the doubling),
then results are unfolded at the end.
"""

from __future__ import annotations

from repro.coll.algorithms.util import largest_pof2_below
from repro.coll.plan import (
    BUF_STAGE,
    BUF_USER,
    CopyStep,
    Plan,
    PlanRound,
    RecvStep,
    ReduceStep,
    SendStep,
)
from repro.datatype.ops import Op

__all__ = ["plan_allreduce_recursive_doubling"]


def _reduce_steps(op: Op, rank: int, peer: int) -> tuple:
    """The rank-ordered reduction of the block staged from ``peer``
    into the user buffer: commutative ops (or a lower peer) reduce it
    straight in; a non-commutative higher peer needs the my-data-first
    ordering via a second staging block."""
    if op.commutative or peer < rank:
        # user = stage (op) user
        return (ReduceStep(op, BUF_STAGE, BUF_USER),)
    # user = user (op) stage, as scratch=user; stage=scratch(op)stage
    return (
        CopyStep(BUF_USER, BUF_STAGE, dst_block=1),
        ReduceStep(op, BUF_STAGE, BUF_STAGE, src_block=1),
        CopyStep(BUF_STAGE, BUF_USER),
    )


def plan_allreduce_recursive_doubling(rank: int, size: int, op: Op) -> Plan:
    """In place over the user buffer, which must already hold this
    rank's contribution.  Unit: the whole message."""
    rounds: list[PlanRound] = []
    pof2 = largest_pof2_below(size)
    rem = size - pof2
    stage_blocks = 0

    def exchange(peer: int, send: bool) -> None:
        nonlocal stage_blocks
        steps = _reduce_steps(op, rank, peer)
        stage_blocks = max(stage_blocks, 2 if len(steps) > 1 else 1)
        comms = (RecvStep(peer, BUF_STAGE),) + ((SendStep(peer),) if send else ())
        rounds.append(PlanRound(comms=comms, locals=steps))

    if rank < 2 * rem:
        if rank % 2 == 0:
            # Fold out: contribute, then await the final result.
            rounds.append(PlanRound(comms=(SendStep(rank + 1),)))
            rounds.append(PlanRound(comms=(RecvStep(rank + 1),)))
            return Plan("rd-fold", rounds)
        newrank = rank // 2
        exchange(rank - 1, send=False)  # absorb the even neighbor
    else:
        newrank = rank - rem

    mask = 1
    while mask < pof2:
        peer_new = newrank ^ mask
        exchange(peer_new * 2 + 1 if peer_new < rem else peer_new + rem, send=True)
        mask <<= 1

    if rank < 2 * rem:
        # Unfold: return the result to the even neighbor.
        rounds.append(PlanRound(comms=(SendStep(rank - 1),)))
    return Plan("rd-fold", rounds, stage_blocks=stage_blocks)
