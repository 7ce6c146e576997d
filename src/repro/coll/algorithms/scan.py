"""Inclusive and exclusive prefix reductions (MPI_Scan / MPI_Exscan).

Chain algorithm: rank r receives the prefix over ranks ``0..r-1`` from
rank ``r-1``, folds in (scan) or stores (exscan) and forwards its own
inclusive prefix to rank ``r+1``.  O(p) latency but exactly
rank-ordered, so it is correct for non-commutative operations too.
"""

from __future__ import annotations

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

__all__ = ["plan_scan_chain", "plan_exscan_chain"]


def plan_scan_chain(rank: int, size: int, op: Op) -> Plan:
    """Inclusive scan, in place: the user buffer starts as the local
    contribution and ends as ``b_0 (op) ... (op) b_rank``.  Unit: the
    message."""
    rounds = []
    if rank > 0:
        # prefix(0..r-1) comes from the lower ranks => it is the first
        # operand: user = stage (op) user.
        rounds.append(
            PlanRound(
                comms=(RecvStep(rank - 1, BUF_STAGE),),
                locals=(ReduceStep(op, BUF_STAGE, BUF_USER),),
            )
        )
    if rank < size - 1:
        rounds.append(PlanRound(comms=(SendStep(rank + 1),)))
    return Plan("chain", rounds, stage_blocks=1 if rank > 0 else 0)


def plan_exscan_chain(rank: int, size: int, op: Op) -> Plan:
    """Exclusive scan: rank r's user buffer ends as
    ``b_0 (op) ... (op) b_{r-1}`` (untouched on rank 0, per MPI); the
    send buffer holds the contribution (it may alias the user buffer).
    Unit: the message."""
    if rank == size - 1:
        # Nothing to forward: the incoming prefix IS the result.
        rounds = [PlanRound(comms=(RecvStep(rank - 1),))] if rank > 0 else []
        return Plan("chain", rounds)
    if rank == 0:
        return Plan("chain", [PlanRound(comms=(SendStep(1, BUF_SEND),))])
    # Forward the inclusive prefix (stage 1 = prefix (op) own) and keep
    # the exclusive one; the contribution is read before the user
    # buffer it may alias is overwritten.
    return Plan(
        "chain",
        [
            PlanRound(
                comms=(RecvStep(rank - 1, BUF_STAGE),),
                locals=(
                    CopyStep(BUF_SEND, BUF_STAGE, dst_block=1),
                    ReduceStep(op, BUF_STAGE, BUF_STAGE, dst_block=1),
                    CopyStep(BUF_STAGE, BUF_USER),
                ),
            ),
            PlanRound(comms=(SendStep(rank + 1, BUF_STAGE, 1),)),
        ],
        stage_blocks=2,
    )
