"""Reduce-scatter (block-regular): each rank ends up owning the
reduction of block ``rank`` across all ranks."""

from __future__ import annotations

from repro.coll.algorithms.reduce import ordered_reduce_rounds
from repro.coll.plan import (
    BUF_SEND,
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

__all__ = ["plan_reduce_scatter_pairwise", "plan_reduce_scatter_ordered"]


def plan_reduce_scatter_pairwise(rank: int, size: int, op: Op) -> Plan:
    """Pairwise exchange: at step k send block ``(rank + k) % size`` of
    the send buffer (addressed in place) to that rank and receive the
    contribution of rank ``rank - k`` to our own block, one staging
    block per step so every step flies concurrently; then fold them
    into the user buffer.  Unit: one block.

    Requires a commutative operation (the fold order is step order).
    """
    if not op.commutative:
        raise ValueError("pairwise reduce-scatter requires a commutative op")
    comms = []
    for step in range(1, size):
        to = (rank + step) % size
        frm = (rank - step + size) % size
        comms.append(RecvStep(frm, BUF_STAGE, step - 1))
        comms.append(SendStep(to, BUF_SEND, to))
    folds = [
        ReduceStep(op, BUF_STAGE, BUF_USER, src_block=step - 1)
        for step in range(1, size)
    ]
    return Plan(
        "pairwise",
        [
            PlanRound(
                comms=comms,
                locals=[CopyStep(BUF_SEND, BUF_USER, src_block=rank), *folds],
            )
        ],
        stage_blocks=size - 1,
    )


def plan_reduce_scatter_ordered(rank: int, size: int, op: Op) -> Plan:
    """Non-commutative fallback: a rank-ordered reduce of the whole
    ``size``-block vectors to rank 0, then a linear scatter of the
    result blocks — one plan, so it stays a single collective."""
    rounds = ordered_reduce_rounds(rank, size, 0, op, width=size)
    if rank != 0:
        first = rounds[0]
        rounds[0] = PlanRound(comms=(*first.comms, RecvStep(0, BUF_USER)))
        return Plan("reduce-scatter-ordered", rounds)
    result = (size - 1) * size
    rounds.append(
        PlanRound(
            comms=[SendStep(peer, BUF_STAGE, result + peer) for peer in range(1, size)],
            locals=(CopyStep(BUF_STAGE, BUF_USER, src_block=result),),
        )
    )
    return Plan("reduce-scatter-ordered", rounds, stage_blocks=size * size)
