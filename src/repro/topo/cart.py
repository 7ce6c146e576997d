"""Cartesian process topologies (MPI_Cart_create family) and the
neighborhood collectives over them.

Stencil codes — the computation/communication-overlap workload the
paper's introduction leads with — address peers by grid direction, not
rank.  :class:`CartComm` supplies coordinates, shifts with
``PROC_NULL`` at non-periodic edges, and ``neighbor_allgather`` /
``neighbor_alltoall`` built straight on the nonblocking p2p layer.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.comm import Comm
from repro.core.request import Request
from repro.datatype.types import Datatype, as_writable_view
from repro.errors import InvalidArgumentError
from repro.p2p.matching import ANY_TAG

__all__ = ["PROC_NULL", "dims_create", "CartComm", "cart_create", "cart_create_steps"]

#: Null peer (MPI_PROC_NULL): sends vanish, receives complete empty.
PROC_NULL = -2


def dims_create(nnodes: int, ndims: int) -> list[int]:
    """Balanced factorization of ``nnodes`` into ``ndims`` dimensions
    (MPI_Dims_create): dimensions as close to equal as possible,
    sorted decreasing."""
    if nnodes <= 0 or ndims <= 0:
        raise InvalidArgumentError("nnodes and ndims must be positive")
    # prime-factorize, then greedily assign largest factors to the
    # currently smallest dimension product
    factors: list[int] = []
    n = nnodes
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    dims = [1] * ndims
    for factor in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= factor
    return sorted(dims, reverse=True)


class CartComm(Comm):
    """A communicator with an attached Cartesian grid."""

    def __init__(
        self,
        parent: Comm,
        context_id: int,
        dims: Sequence[int],
        periods: Sequence[bool],
    ) -> None:
        super().__init__(
            parent.proc, parent.ranks, context_id, parent.stream, parent.peer_vcis
        )
        self.dims = tuple(dims)
        self.periods = tuple(bool(p) for p in periods)
        total = 1
        for d in self.dims:
            total *= d
        if total != self.size:
            raise InvalidArgumentError(
                f"grid {self.dims} has {total} cells for {self.size} ranks"
            )

    # ------------------------------------------------------------------
    # Coordinates (row-major, like MPI).
    # ------------------------------------------------------------------
    @property
    def ndims(self) -> int:
        return len(self.dims)

    def coords(self, rank: int | None = None) -> tuple[int, ...]:
        """Grid coordinates of ``rank`` (default: this rank)."""
        r = self.rank if rank is None else rank
        if not 0 <= r < self.size:
            raise InvalidArgumentError(f"rank {r} outside the grid")
        out = []
        for d in reversed(self.dims):
            out.append(r % d)
            r //= d
        return tuple(reversed(out))

    def rank_of(self, coords: Sequence[int]) -> int:
        """Rank at ``coords`` (periodic wrap where enabled); PROC_NULL
        when a non-periodic coordinate falls off the grid."""
        if len(coords) != self.ndims:
            raise InvalidArgumentError("coordinate rank mismatch")
        rank = 0
        for c, d, p in zip(coords, self.dims, self.periods):
            if not 0 <= c < d:
                if not p:
                    return PROC_NULL
                c %= d
            rank = rank * d + c
        return rank

    def shift(self, direction: int, disp: int = 1) -> tuple[int, int]:
        """MPI_Cart_shift: returns ``(source, dest)`` ranks for a shift
        of ``disp`` along ``direction`` (PROC_NULL off the edge)."""
        if not 0 <= direction < self.ndims:
            raise InvalidArgumentError(f"direction {direction} out of range")
        me = list(self.coords())
        up = list(me)
        up[direction] += disp
        down = list(me)
        down[direction] -= disp
        return self.rank_of(down), self.rank_of(up)

    def neighbors(self) -> list[int]:
        """The 2*ndims neighbor ranks in MPI order:
        (dim0 down, dim0 up, dim1 down, dim1 up, ...)."""
        out = []
        for d in range(self.ndims):
            src, dest = self.shift(d, 1)
            out.extend([src, dest])
        return out

    # ------------------------------------------------------------------
    # PROC_NULL-aware point-to-point.
    # ------------------------------------------------------------------
    def isend(self, buf, count, datatype, dest, tag=0, *, sync=False) -> Request:
        if dest == PROC_NULL:
            req = Request("send-null")
            req.complete(count_bytes=0)
            return req
        return super().isend(buf, count, datatype, dest, tag, sync=sync)

    def irecv(self, buf, count, datatype, source=PROC_NULL, tag=ANY_TAG) -> Request:
        if source == PROC_NULL:
            req = Request("recv-null")
            req.complete(source=PROC_NULL, tag=ANY_TAG, count_bytes=0)
            return req
        return super().irecv(buf, count, datatype, source, tag)

    def _neighbor_tag(self) -> int:
        """Per-call tag from the top of the tag space, out of the way
        of application tags on this communicator."""
        seq = self._coll_seq
        self._coll_seq += 1
        return self.proc.config.tag_ub - (seq % 4096)

    # ------------------------------------------------------------------
    # Neighborhood collectives.
    # ------------------------------------------------------------------
    def ineighbor_allgather(
        self, sendbuf, recvbuf, count: int, datatype: Datatype
    ) -> Request:
        """Send ``count`` elements to every neighbor; receive each
        neighbor's contribution into its slot of ``recvbuf`` (one
        ``count`` block per neighbor in :meth:`neighbors` order;
        PROC_NULL slots are left untouched)."""
        neighbors = self.neighbors()
        nbytes = count * datatype.size
        view = as_writable_view(recvbuf)
        tag = self._neighbor_tag()
        reqs: list[Request] = []
        for i, peer in enumerate(neighbors):
            if peer == PROC_NULL:
                continue
            reqs.append(
                super().irecv(
                    view[i * nbytes : (i + 1) * nbytes], count, datatype, peer, tag
                )
            )
        for peer in neighbors:
            if peer == PROC_NULL:
                continue
            reqs.append(super().isend(sendbuf, count, datatype, peer, tag))
        return _combine(reqs)

    def neighbor_allgather(self, sendbuf, recvbuf, count, datatype) -> None:
        self.proc.wait(
            self.ineighbor_allgather(sendbuf, recvbuf, count, datatype), self.stream
        )

    def ineighbor_alltoall(
        self, sendbuf, recvbuf, count: int, datatype: Datatype
    ) -> Request:
        """Exchange a distinct ``count``-element block with every
        neighbor: block i of ``sendbuf`` goes to neighbor i, block i of
        ``recvbuf`` receives from neighbor i."""
        from repro.datatype.types import as_readonly_view

        neighbors = self.neighbors()
        nbytes = count * datatype.size
        rview = as_writable_view(recvbuf)
        sview = as_readonly_view(sendbuf)
        tag = self._neighbor_tag()
        reqs: list[Request] = []
        for i, peer in enumerate(neighbors):
            if peer == PROC_NULL:
                continue
            reqs.append(
                super().irecv(
                    rview[i * nbytes : (i + 1) * nbytes], count, datatype, peer, tag
                )
            )
        for i, peer in enumerate(neighbors):
            if peer == PROC_NULL:
                continue
            block = sview[i * nbytes : (i + 1) * nbytes]
            reqs.append(super().isend(block, count, datatype, peer, tag))
        return _combine(reqs)

    def neighbor_alltoall(self, sendbuf, recvbuf, count, datatype) -> None:
        self.proc.wait(
            self.ineighbor_alltoall(sendbuf, recvbuf, count, datatype), self.stream
        )


def _combine(requests: list[Request]) -> Request:
    """One request completing when all of ``requests`` do."""
    combined = Request("neighbor-coll")
    if not requests:
        combined.complete()
        return combined
    remaining = {"n": len(requests)}

    def done(_req: Request) -> None:
        remaining["n"] -= 1
        if remaining["n"] == 0:
            combined.complete()

    for r in requests:
        r.on_complete(done)
    return combined


def cart_create_steps(
    comm: Comm, dims: Sequence[int], periods: Sequence[bool] | None = None
):
    """Cooperative MPI_Cart_create for sim programs: yields the closing
    barrier's request instead of blocking on it, returning the
    :class:`CartComm` via ``StopIteration``."""
    if periods is None:
        periods = [False] * len(dims)
    if len(periods) != len(dims):
        raise InvalidArgumentError("dims/periods length mismatch")
    ctx = comm._alloc_child_context()
    cart = CartComm(comm, ctx, dims, periods)
    yield comm.ibarrier()
    return cart


def cart_create(
    comm: Comm, dims: Sequence[int], periods: Sequence[bool] | None = None
) -> CartComm:
    """MPI_Cart_create (collective): attach a Cartesian grid to a new
    communicator over the same ranks."""
    return comm._drive_steps(cart_create_steps(comm, dims, periods))
