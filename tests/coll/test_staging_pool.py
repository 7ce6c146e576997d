"""Staging of the native collectives: one buffer-pool lease per call.

Every native collective that needs scratch (a received block to fold, a
private accumulator, the rank-ordered contributions of a
non-commutative reduce) takes it as ONE lease from the process's
buffer pool, sized by its plan, and gives it back exactly once — so a
repeated call allocates nothing.  Checked from outside through the
``mem_pool`` block of ``progress_snapshot``.

Payloads stay below the pool's smallest class, so the p2p layer
snapshots them as plain ``bytes`` and every pool acquire seen here is a
collective's staging lease.
"""

import numpy as np
import pytest

import repro
from tests.conftest import drive, make_vworld

SIZE = 5  # not a power of two: the fold/unfold ranks stage differently
N = 4  # INT elements per block: 16 B, far below MIN_CLASS_BYTES

#: "keep the right operand": associative, declared non-commutative
NONCOMM = repro.user_op(lambda s, d: d, name="RIGHT", commutative=False)


def _i4(n, fill=1):
    return np.full(n, fill, dtype="i4")


def _v(size):
    counts = [r % 3 for r in range(size)]
    displs = [sum(counts[:r]) for r in range(size)]
    return counts, displs


#: name -> start(comm) -> Request
COLLECTIVES = {
    "barrier": lambda c: c.ibarrier(),
    "bcast": lambda c: c.ibcast(_i4(N), N, repro.INT, 1),
    "bcast-long": lambda c: c.ibcast(_i4(3 * N), 3 * N, repro.INT, 1),
    "allreduce": lambda c: c.iallreduce(_i4(N), _i4(N), N, repro.INT),
    "allreduce-noncomm": lambda c: c.iallreduce(_i4(N), _i4(N), N, repro.INT, NONCOMM),
    "allreduce-long": lambda c: c.iallreduce(_i4(3 * N), _i4(3 * N), 3 * N, repro.INT),
    "reduce": lambda c: c.ireduce(_i4(N), _i4(N), N, repro.INT, repro.SUM, 2),
    "reduce-noncomm": lambda c: c.ireduce(_i4(N), _i4(N), N, repro.INT, NONCOMM, 2),
    "allgather": lambda c: c.iallgather(_i4(N), _i4(N * c.size), N, repro.INT),
    "alltoall": lambda c: c.ialltoall(_i4(N * c.size), _i4(N * c.size), N, repro.INT),
    "gather": lambda c: c.igather(_i4(N), _i4(N * c.size), N, repro.INT, 3),
    "scatter": lambda c: c.iscatter(_i4(N * c.size), _i4(N), N, repro.INT, 3),
    "reduce_scatter": lambda c: c.ireduce_scatter_block(
        _i4(N * c.size), _i4(N), N, repro.INT
    ),
    "reduce_scatter-noncomm": lambda c: c.ireduce_scatter_block(
        _i4(N * c.size), _i4(N), N, repro.INT, NONCOMM
    ),
    "scan": lambda c: c.iscan(_i4(N), _i4(N), N, repro.INT),
    "exscan": lambda c: c.iexscan(_i4(N), _i4(N), N, repro.INT),
    "allgatherv": lambda c: c.iallgatherv(
        _i4(c.rank % 3), c.rank % 3, _i4(sum(_v(c.size)[0])), *_v(c.size), repro.INT
    ),
    "gatherv": lambda c: c.igatherv(
        _i4(c.rank % 3), c.rank % 3, _i4(sum(_v(c.size)[0])), *_v(c.size), repro.INT, 1
    ),
    "scatterv": lambda c: c.iscatterv(
        _i4(sum(_v(c.size)[0])), *_v(c.size), _i4(c.rank % 3), c.rank % 3, repro.INT, 1
    ),
    "alltoallv": lambda c: c.ialltoallv(
        _i4(c.size), [1] * c.size, list(range(c.size)),
        _i4(c.size), [1] * c.size, list(range(c.size)), repro.INT,
    ),
}


def _pool(proc):
    return repro.progress_snapshot(proc).mem_pool


@pytest.mark.parametrize("name", sorted(COLLECTIVES))
def test_one_lease_per_call_returned_and_recycled(name):
    world = make_vworld(
        SIZE,
        use_shmem=False,
        allreduce_long_threshold=2 * N * 4,
        bcast_long_threshold=2 * N * 4,
    )
    procs = [world.proc(r) for r in range(SIZE)]
    start = COLLECTIVES[name]

    def call():
        before = [_pool(p) for p in procs]
        drive(world, [start(p.comm_world) for p in procs])
        after = [_pool(p) for p in procs]
        acquires, misses = [], []
        for b, a in zip(before, after):
            assert a["outstanding"] == 0, f"{name}: staging lease not returned"
            acquires.append(a["hits"] + a["misses"] - b["hits"] - b["misses"])
            misses.append(a["misses"] - b["misses"])
        return acquires, misses

    first, _ = call()
    assert all(n <= 1 for n in first), f"{name}: more than one lease per call: {first}"
    again, misses = call()
    assert again == first  # the plan, hence the staging, is the same
    assert misses == [0] * SIZE, f"{name}: repeat call allocated a slab: {misses}"


def test_staging_collectives_do_lease():
    """The counter above is not vacuous: reductions stage on the ranks
    the algorithm says they do."""
    world = make_vworld(SIZE, use_shmem=False)
    procs = [world.proc(r) for r in range(SIZE)]
    before = [_pool(p)["hits"] + _pool(p)["misses"] for p in procs]
    drive(world, [COLLECTIVES["allreduce"](p.comm_world) for p in procs])
    after = [_pool(p)["hits"] + _pool(p)["misses"] for p in procs]
    # size 5 = pof2 4 + 1: rank 0 folds out (sends, then receives the
    # result in place); ranks 1..4 stage the peer's block each round.
    assert [a - b for a, b in zip(after, before)] == [0, 1, 1, 1, 1]


def test_pool_disabled_same_bytes():
    """``buffer_pool_enabled=False`` stages through a plain bytearray:
    same results, nothing acquired."""
    outs = {}
    for enabled in (True, False):
        world = make_vworld(SIZE, use_shmem=False, buffer_pool_enabled=enabled)
        bufs = [np.arange(N, dtype="i4") * (r + 1) for r in range(SIZE)]
        reqs = [
            world.proc(r).comm_world.iallreduce(repro.IN_PLACE, bufs[r], N, repro.INT)
            for r in range(SIZE)
        ]
        drive(world, reqs)
        outs[enabled] = [b.tobytes() for b in bufs]
        if not enabled:
            pool = _pool(world.proc(1))
            assert pool["hits"] + pool["misses"] == 0
    assert outs[True] == outs[False]
