"""Rabenseifner allreduce: recursive-halving reduce-scatter followed by
recursive-doubling allgather.

MPICH's default for long messages: each rank only reduces ``count/p``
elements per round instead of ``count``, moving ~2x the data of a plain
reduce but with ~p-times less redundant reduction work than recursive
doubling.  Requires a commutative operation (fold order is partner
order); the communicator layer falls back to recursive doubling
otherwise.  Non-power-of-two sizes use the standard remainder folding.
"""

from __future__ import annotations

from repro.coll.algorithms.util import largest_pof2_below, partition
from repro.coll.plan import (
    BUF_STAGE,
    BUF_USER,
    Plan,
    PlanRound,
    RecvStep,
    ReduceStep,
    SendStep,
)
from repro.datatype.ops import Op

__all__ = ["plan_allreduce_rabenseifner"]


def plan_allreduce_rabenseifner(rank: int, size: int, op: Op, count: int) -> Plan:
    """In place over the user buffer.  The vector is block-partitioned
    among the power-of-two survivors, unevenly when ``count`` does not
    divide — an ``exact`` plan, extents in elements."""
    if not op.commutative:
        raise ValueError("Rabenseifner allreduce requires a commutative op")
    rounds: list[PlanRound] = []
    pof2 = largest_pof2_below(size)
    rem = size - pof2

    def real_rank(newr: int) -> int:
        return newr * 2 + 1 if newr < rem else newr + rem

    def plan(stage_blocks: int) -> Plan:
        return Plan(
            "rabenseifner",
            rounds,
            stage_blocks=stage_blocks,
            result_blocks=count,
            exact=True,
        )

    # ---- fold the remainder ranks (same as recursive doubling) ------
    if rank < 2 * rem:
        if rank % 2 == 0:
            rounds.append(PlanRound(comms=(SendStep(rank + 1, nblocks=count),)))
            rounds.append(PlanRound(comms=(RecvStep(rank + 1, nblocks=count),)))
            return plan(0)
        rounds.append(
            PlanRound(
                comms=(RecvStep(rank - 1, BUF_STAGE, nblocks=count),),
                locals=(ReduceStep(op, BUF_STAGE, BUF_USER, nblocks=count),),
            )
        )
        newrank = rank // 2
    else:
        newrank = rank - rem

    cnts, disps = partition(count, pof2)

    # ---- reduce-scatter: recursive halving ---------------------------
    send_idx = recv_idx = 0
    last_idx = pof2
    mask = 1
    while mask < pof2:
        newdst = newrank ^ mask
        dst = real_rank(newdst)
        half = pof2 // (mask * 2)
        if newrank < newdst:
            send_idx = recv_idx + half
            send_cnt = sum(cnts[send_idx:last_idx])
            recv_cnt = sum(cnts[recv_idx:send_idx])
        else:
            recv_idx = send_idx + half
            send_cnt = sum(cnts[send_idx:recv_idx])
            recv_cnt = sum(cnts[recv_idx:last_idx])
        # The peer's half lands at the same displacement of the staging
        # vector, then folds into the user buffer.
        rounds.append(
            PlanRound(
                comms=(
                    RecvStep(dst, BUF_STAGE, disps[recv_idx], recv_cnt),
                    SendStep(dst, BUF_USER, disps[send_idx], send_cnt),
                ),
                locals=(
                    ReduceStep(
                        op,
                        BUF_STAGE,
                        BUF_USER,
                        src_block=disps[recv_idx],
                        dst_block=disps[recv_idx],
                        nblocks=recv_cnt,
                    ),
                ),
            )
        )
        send_idx = recv_idx
        mask <<= 1
        if mask < pof2:  # not updated on the final halving iteration
            last_idx = recv_idx + pof2 // mask

    # ---- allgather: recursive doubling (reversed halving) ------------
    mask = pof2 >> 1
    while mask > 0:
        newdst = newrank ^ mask
        dst = real_rank(newdst)
        half = pof2 // (mask * 2)
        if newrank < newdst:
            if mask != pof2 >> 1:
                last_idx = last_idx + half
            recv_idx = send_idx + half
            send_cnt = sum(cnts[send_idx:recv_idx])
            recv_cnt = sum(cnts[recv_idx:last_idx])
        else:
            recv_idx = send_idx - half
            send_cnt = sum(cnts[send_idx:last_idx])
            recv_cnt = sum(cnts[recv_idx:send_idx])
        rounds.append(
            PlanRound(
                comms=(
                    RecvStep(dst, BUF_USER, disps[recv_idx], recv_cnt),
                    SendStep(dst, BUF_USER, disps[send_idx], send_cnt),
                )
            )
        )
        if newrank > newdst:
            send_idx = recv_idx
        mask >>= 1

    # ---- unfold: odd survivors push the full vector back --------------
    if rank < 2 * rem:
        rounds.append(PlanRound(comms=(SendStep(rank - 1, nblocks=count),)))
    return plan(count)
