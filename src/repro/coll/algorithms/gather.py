"""Linear gather and scatter, with even or per-rank block sizes.

Linear (direct root <-> peer) algorithms: every non-root exchanges
directly with the root.  MPICH also ships linear variants; tree-based
versions are an acknowledged optimization, not a semantic difference,
and our benchmarks only lean on gather/scatter as substrates.
"""

from __future__ import annotations

from typing import Sequence

from repro.coll.plan import (
    BUF_SEND,
    BUF_USER,
    CopyStep,
    Plan,
    PlanRound,
    RecvStep,
    SendStep,
)

__all__ = [
    "plan_gather_linear",
    "plan_gatherv_linear",
    "plan_scatter_linear",
    "plan_scatterv_linear",
]


def _gather_round(
    rank: int,
    size: int,
    root: int,
    counts: Sequence[int],
    displs: Sequence[int],
    sendcount: int,
) -> PlanRound:
    """Root: receive every peer's block into its rank-indexed extent of
    the user buffer and copy its own in; non-root: one send."""
    if rank != root:
        return PlanRound(comms=(SendStep(root, BUF_SEND, nblocks=sendcount),))
    return PlanRound(
        comms=[
            RecvStep(peer, BUF_USER, displs[peer], counts[peer])
            for peer in range(size)
            if peer != root
        ],
        locals=(
            CopyStep(BUF_SEND, BUF_USER, dst_block=displs[root], nblocks=counts[root]),
        ),
    )


def _scatter_round(
    rank: int,
    size: int,
    root: int,
    counts: Sequence[int],
    displs: Sequence[int],
    recvcount: int,
) -> PlanRound:
    """Root: send every peer its rank-indexed extent of the send buffer
    (addressed in place) and copy its own out; non-root: one receive."""
    if rank != root:
        return PlanRound(comms=(RecvStep(root, BUF_USER, nblocks=recvcount),))
    return PlanRound(
        comms=[
            SendStep(peer, BUF_SEND, displs[peer], counts[peer])
            for peer in range(size)
            if peer != root
        ],
        locals=(
            CopyStep(BUF_SEND, BUF_USER, src_block=displs[root], nblocks=counts[root]),
        ),
    )


def plan_gather_linear(rank: int, size: int, root: int) -> Plan:
    """Gather one block per rank into root's ``size`` rank-indexed
    blocks.  Unit: one block."""
    return Plan(
        "linear", [_gather_round(rank, size, root, [1] * size, range(size), 1)]
    )


def plan_gatherv_linear(
    rank: int,
    size: int,
    root: int,
    sendcount: int,
    counts: tuple[int, ...],
    displs: tuple[int, ...],
) -> Plan:
    """Gather ``sendcount`` elements from this rank into root's
    ``counts``/``displs`` extents (elements): an ``exact`` plan."""
    return Plan(
        "linear-v",
        [_gather_round(rank, size, root, counts, displs, sendcount)],
        result_blocks=sendcount,
        exact=True,
    )


def plan_scatter_linear(rank: int, size: int, root: int) -> Plan:
    """Scatter root's ``size`` rank-indexed blocks, one per rank.
    Unit: one block."""
    return Plan(
        "linear", [_scatter_round(rank, size, root, [1] * size, range(size), 1)]
    )


def plan_scatterv_linear(
    rank: int,
    size: int,
    root: int,
    counts: tuple[int, ...],
    displs: tuple[int, ...],
    recvcount: int,
) -> Plan:
    """Scatter root's ``counts``/``displs`` extents (elements); this
    rank receives ``recvcount``: an ``exact`` plan."""
    return Plan(
        "linear-v",
        [_scatter_round(rank, size, root, counts, displs, recvcount)],
        result_blocks=recvcount,
        exact=True,
    )
