"""Allgather: ring (any size, even or per-rank block sizes) and
recursive doubling (power of two)."""

from __future__ import annotations

from typing import Sequence

from repro.coll.algorithms.util import largest_pof2_below
from repro.coll.plan import Plan, PlanRound, RecvStep, SendStep

__all__ = [
    "ring_rounds",
    "plan_allgather_ring",
    "plan_allgatherv_ring",
    "plan_allgather_recursive_doubling",
]


def ring_rounds(
    rank: int, size: int, counts: Sequence[int], displs: Sequence[int]
) -> list[PlanRound]:
    """``size - 1`` rounds, each forwarding the block received in the
    previous one to the right neighbor.  Block ``rank`` of the user
    buffer must hold the local contribution when the first round
    starts (the van de Geijn broadcast puts its scatter receive in
    front)."""
    right = (rank + 1) % size
    left = (rank - 1 + size) % size
    rounds = []
    for step in range(size - 1):
        sb = (rank - step + size) % size
        rb = (rank - step - 1 + size) % size
        rounds.append(
            PlanRound(
                comms=(
                    RecvStep(left, block=displs[rb], nblocks=counts[rb]),
                    SendStep(right, block=displs[sb], nblocks=counts[sb]),
                )
            )
        )
    return rounds


def plan_allgather_ring(rank: int, size: int) -> Plan:
    """Ring allgather over ``size`` equal blocks.  Unit: one rank's
    contribution."""
    return Plan(
        "ring", ring_rounds(rank, size, [1] * size, range(size)), result_blocks=size
    )


def plan_allgatherv_ring(
    rank: int, size: int, counts: tuple[int, ...], displs: tuple[int, ...]
) -> Plan:
    """Ring allgather over per-rank ``counts``/``displs`` (elements):
    an ``exact`` plan."""
    return Plan(
        "ring-v",
        ring_rounds(rank, size, counts, displs),
        result_blocks=sum(counts),
        exact=True,
    )


def plan_allgather_recursive_doubling(rank: int, size: int) -> Plan:
    """Recursive-doubling allgather for power-of-two sizes: in round k
    exchange the ``2^k`` already-known blocks with rank XOR ``2^k``,
    halving the step count relative to the ring (log2 p rounds)."""
    if largest_pof2_below(size) != size:
        raise ValueError("recursive-doubling allgather requires power-of-two size")
    rounds = []
    mask = 1
    while mask < size:
        peer = rank ^ mask
        # We own the aligned group of `mask` blocks containing our own
        # block; the peer owns the adjacent group.
        rounds.append(
            PlanRound(
                comms=(
                    RecvStep(peer, block=(peer // mask) * mask, nblocks=mask),
                    SendStep(peer, block=(rank // mask) * mask, nblocks=mask),
                )
            )
        )
        mask <<= 1
    return Plan("rd", rounds, result_blocks=size)
