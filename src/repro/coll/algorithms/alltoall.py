"""Pairwise-exchange alltoall, with even or per-peer block sizes."""

from __future__ import annotations

from typing import Sequence

from repro.coll.algorithms.util import largest_pof2_below
from repro.coll.plan import (
    BUF_SEND,
    BUF_USER,
    CopyStep,
    Plan,
    PlanRound,
    RecvStep,
    SendStep,
)

__all__ = ["plan_alltoall_pairwise", "plan_alltoallv_pairwise"]


def _pairwise_round(
    rank: int,
    size: int,
    sendcounts: Sequence[int],
    sdispls: Sequence[int],
    recvcounts: Sequence[int],
    rdispls: Sequence[int],
) -> PlanRound:
    """``size - 1`` exchanges — with ``rank XOR k`` (power-of-two
    sizes) or to ``rank + k`` / from ``rank - k`` (general sizes).
    Every exchange touches disjoint extents of the send and receive
    buffers, so all are posted in one round; the local block is copied
    directly."""
    is_pof2 = largest_pof2_below(size) == size
    comms = []
    for step in range(1, size):
        if is_pof2:
            to = frm = rank ^ step
        else:
            to = (rank + step) % size
            frm = (rank - step + size) % size
        comms.append(RecvStep(frm, BUF_USER, rdispls[frm], recvcounts[frm]))
        comms.append(SendStep(to, BUF_SEND, sdispls[to], sendcounts[to]))
    own = CopyStep(
        BUF_SEND,
        BUF_USER,
        src_block=sdispls[rank],
        dst_block=rdispls[rank],
        nblocks=recvcounts[rank],
    )
    return PlanRound(comms=comms, locals=(own,))


def plan_alltoall_pairwise(rank: int, size: int) -> Plan:
    """Both buffers hold ``size`` equal blocks.  Unit: one block."""
    ones, blocks = [1] * size, range(size)
    return Plan(
        "pairwise",
        [_pairwise_round(rank, size, ones, blocks, ones, blocks)],
        result_blocks=size,
    )


def plan_alltoallv_pairwise(
    rank: int,
    size: int,
    sendcounts: tuple[int, ...],
    sdispls: tuple[int, ...],
    recvcounts: tuple[int, ...],
    rdispls: tuple[int, ...],
) -> Plan:
    """Per-peer counts and displacements (elements): an ``exact`` plan."""
    return Plan(
        "pairwise-v",
        [_pairwise_round(rank, size, sendcounts, sdispls, recvcounts, rdispls)],
        result_blocks=sum(recvcounts),
        exact=True,
    )
