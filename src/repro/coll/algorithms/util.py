"""Shared helpers for collective planners."""

from __future__ import annotations

__all__ = ["largest_pof2_below", "partition"]


def largest_pof2_below(n: int) -> int:
    """Largest power of two <= n (n >= 1)."""
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


def partition(count: int, parts: int) -> tuple[list[int], list[int]]:
    """Split ``count`` elements into ``parts`` near-equal contiguous
    blocks (the first ``count % parts`` get one extra); returns
    ``(counts, displs)``."""
    base, extra = divmod(count, parts)
    counts = [base + (1 if i < extra else 0) for i in range(parts)]
    displs = [0] * parts
    for i in range(1, parts):
        displs[i] = displs[i - 1] + counts[i - 1]
    return counts, displs
