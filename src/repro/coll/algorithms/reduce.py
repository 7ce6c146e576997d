"""Reduce-to-root: binomial tree for commutative operations, rank-
ordered linear for non-commutative ones."""

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

__all__ = ["plan_reduce_binomial", "ordered_reduce_rounds"]


def ordered_reduce_rounds(
    rank: int, size: int, root: int, op: Op, width: int = 1
) -> list[PlanRound]:
    """Rank-ordered linear reduce of ``width``-unit contributions, for
    non-commutative operations.

    Every rank sends to the root, which stages all ``size``
    contributions rank-indexed (``size * width`` staging units) and
    folds them right-to-left into the last one:
    ``acc = b_{p-1}; acc = b_k (op) acc`` for k from ``p-2`` down to 0
    — by associativity the rank-ordered ``b_0 (op) ... (op) b_{p-1}``
    MPI requires.  The result is left in staging block
    ``(size - 1) * width``.
    """
    if rank != root:
        return [PlanRound(comms=(SendStep(root, BUF_SEND, nblocks=width),))]
    acc = (size - 1) * width
    folds = [
        ReduceStep(
            op, BUF_STAGE, BUF_STAGE, src_block=k * width, dst_block=acc, nblocks=width
        )
        for k in range(size - 2, -1, -1)
    ]
    return [
        PlanRound(
            comms=[
                RecvStep(peer, BUF_STAGE, peer * width, width)
                for peer in range(size)
                if peer != root
            ],
            locals=[
                CopyStep(BUF_SEND, BUF_STAGE, dst_block=root * width, nblocks=width),
                *folds,
            ],
        )
    ]


def plan_reduce_binomial(rank: int, size: int, root: int, op: Op) -> Plan:
    """Reduce the send buffers into the root's user buffer.  Unit: the
    message.

    Commutative path: binomial tree on relative ranks — the receives
    from all children are posted together, one staging block each, and
    folded in mask order into an accumulator (the user buffer at the
    root, staging block 0 elsewhere) that then goes to the parent.  A
    leaf sends its send buffer in place.
    """
    if not op.commutative:
        rounds = ordered_reduce_rounds(rank, size, root, op)
        if rank != root:
            return Plan("linear-ordered", rounds)
        rounds.append(
            PlanRound(locals=(CopyStep(BUF_STAGE, BUF_USER, src_block=size - 1),))
        )
        return Plan("linear-ordered", rounds, stage_blocks=size)

    relrank = (rank - root) % size
    parent = None
    children = []
    mask = 1
    while mask < size:
        if relrank & mask:
            parent = ((relrank & ~mask) + root) % size
            break
        if relrank | mask < size:
            children.append(((relrank | mask) + root) % size)
        mask <<= 1
    if not children and parent is not None:
        return Plan("binomial", [PlanRound(comms=(SendStep(parent, BUF_SEND),))])

    acc, first = (BUF_USER, 0) if parent is None else (BUF_STAGE, 1)
    rounds = [
        PlanRound(
            comms=[RecvStep(c, BUF_STAGE, first + i) for i, c in enumerate(children)],
            locals=[
                CopyStep(BUF_SEND, acc),
                *(
                    ReduceStep(op, BUF_STAGE, acc, src_block=first + i)
                    for i in range(len(children))
                ),
            ],
        )
    ]
    if parent is not None:
        rounds.append(PlanRound(comms=(SendStep(parent, BUF_STAGE),)))
    return Plan("binomial", rounds, stage_blocks=first + len(children))
