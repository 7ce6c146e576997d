"""Static plan checker: every planner's plans, all ranks at once, with
no world.

The abstract machine below executes all ranks' plans over symbolic
cells (one per unit) under *synchronous-send* semantics — a send
completes only once the peer has posted the matching receive, the
strictest reading of a rendezvous — and checks, per case:

* per ordered (src, dst) pair the send extents equal the peer's receive
  extents in FIFO order;
* round execution terminates (no wait cycle);
* every step's extent lies inside its buffer;
* the final cells are the collective's result, reductions being the
  *sequence* of contributing ranks — so a non-commutative operation
  must come out in exact rank order.

One hypothesis differential then replays the same plan through both
drivers (native ``Comm.start_plan`` and the async-hook launcher) and
requires byte-identical buffers and equal fabric packet accounting.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.coll import algorithms as alg
from repro.coll.plan import BUF_SEND, BUF_STAGE, BUF_USER, K_REDUCE, K_SEND
from repro.usercoll.allreduce import _launch
from tests.conftest import drive, make_vworld

SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16]
#: zero, one, fewer than most sizes, odd, large
COUNTS = [0, 1, 3, 37, 1000]
NC = repro.user_op(lambda s, d: d, name="NC", commutative=False)
OPS = [repro.SUM, NC]


def run_plans(plans, bufs):
    """Execute ``plans[r]`` over ``bufs[r] = {selector: [cell, ...]}``
    (the stage list is allocated here); returns the buffers."""
    size = len(plans)
    for r, plan in enumerate(plans):
        bufs[r][BUF_STAGE] = [None] * plan.stage_blocks
    sends = defaultdict(deque)  # (src, dst) -> posted, unmatched sends
    recvs = defaultdict(deque)  # (src, dst) -> posted, unmatched recvs
    waiting = [0] * size  # unmatched comms of the rank's current round
    rnd = [0] * size

    def cells(r, buf, block, nblocks):
        region = bufs[r].get(buf, [])
        assert 0 <= block and block + nblocks <= len(region), (
            f"rank {r}: extent [{block}:+{nblocks}] outside buf{buf} "
            f"of {len(region)} units ({plans[r].algorithm})"
        )
        return region[block : block + nblocks]

    def post(r):
        for s in plans[r].rounds[rnd[r]].comms:
            data = cells(r, s.buf, s.block, s.nblocks)
            if s.kind == K_SEND:
                sends[(r, s.peer)].append(data)
            else:
                recvs[(s.peer, r)].append(s)
            waiting[r] += 1

    def match():
        made = False
        for key in list(sends):
            src, dst = key
            while sends[key] and recvs[key]:
                data, step = sends[key].popleft(), recvs[key].popleft()
                assert len(data) == step.nblocks, (
                    f"{src}->{dst}: send of {len(data)} units meets "
                    f"recv of {step.nblocks}"
                )
                bufs[dst][step.buf][step.block : step.block + step.nblocks] = data
                waiting[src] -= 1
                waiting[dst] -= 1
                made = True
        return made

    def run_locals(r):
        for s in plans[r].rounds[rnd[r]].locals:
            src = cells(r, s.src, s.src_block, s.nblocks)
            dst = cells(r, s.dst, s.dst_block, s.nblocks)
            if s.kind == K_REDUCE:  # dst = src (op) dst, as rank sequences
                src = [a + b for a, b in zip(src, dst)]
            bufs[r][s.dst][s.dst_block : s.dst_block + s.nblocks] = src

    for r in range(size):
        if plans[r].rounds:
            post(r)
    made = True
    while made:
        made = match()
        for r in range(size):
            while rnd[r] < len(plans[r].rounds) and not waiting[r]:
                run_locals(r)
                rnd[r] += 1
                if rnd[r] < len(plans[r].rounds):
                    post(r)
                made = True
    stuck = [r for r in range(size) if rnd[r] < len(plans[r].rounds)]
    assert not stuck, f"wait cycle: ranks {stuck} never finish"
    assert not any(sends.values()) and not any(recvs.values())
    return bufs


def reduced(op, ranks):
    """The cell a reduction over ``ranks`` must leave: the exact rank
    sequence for a non-commutative op, any order otherwise."""
    return tuple(ranks) if not op.commutative else tuple(sorted(ranks))


def norm(op, cell):
    return cell if not op.commutative else tuple(sorted(cell))


def contrib(size, units):
    """Per-rank reduction input: ``units`` cells, each the 1-sequence
    ``(rank,)``."""
    return [[(r,)] * units for r in range(size)]


def labels(r, units):
    """Per-rank data-movement input: distinguishable cells."""
    return [("d", r, i) for i in range(units)]


def spread(size, pattern):
    """Per-rank element counts for the v-collectives."""
    return {
        "zeros": [0] * size,
        "ones": [1] * size,
        "some-empty": [r % 3 for r in range(size)],
        "ragged": [37 * ((r * 7) % 5) + r for r in range(size)],
    }[pattern]


def layout(counts, gap):
    displs, at = [], 0
    for c in counts:
        displs.append(at)
        at += c + gap
    return tuple(displs), at


# ----------------------------------------------------------------------
# Reductions.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op", OPS, ids=["comm", "noncomm"])
@pytest.mark.parametrize("size", SIZES)
class TestReductionPlans:
    def test_allreduce_recursive_doubling(self, size, op):
        plans = [alg.plan_allreduce_recursive_doubling(r, size, op) for r in range(size)]
        bufs = run_plans(plans, [{BUF_USER: c} for c in contrib(size, 1)])
        for r in range(size):
            assert norm(op, bufs[r][BUF_USER][0]) == reduced(op, range(size))

    @pytest.mark.parametrize("count", COUNTS)
    def test_allreduce_rabenseifner(self, size, op, count):
        if not op.commutative:
            with pytest.raises(ValueError):
                alg.plan_allreduce_rabenseifner(0, size, op, count)
            return
        plans = [alg.plan_allreduce_rabenseifner(r, size, op, count) for r in range(size)]
        assert all(p.exact for p in plans)
        bufs = run_plans(plans, [{BUF_USER: c} for c in contrib(size, count)])
        for r in range(size):
            assert [norm(op, c) for c in bufs[r][BUF_USER]] == [
                reduced(op, range(size))
            ] * count

    @pytest.mark.parametrize("in_place", [False, True])
    def test_reduce(self, size, op, in_place):
        for root in range(size):
            plans = [alg.plan_reduce_binomial(r, size, root, op) for r in range(size)]
            bufs = [
                # IN_PLACE at the root: send and user buffer are one
                {BUF_SEND: c, BUF_USER: (c if in_place else [None]) if r == root else []}
                for r, c in enumerate(contrib(size, 1))
            ]
            run_plans(plans, bufs)
            assert norm(op, bufs[root][BUF_USER][0]) == reduced(op, range(size))

    def test_reduce_scatter_block(self, size, op):
        planner = (
            alg.plan_reduce_scatter_pairwise
            if op.commutative
            else alg.plan_reduce_scatter_ordered
        )
        plans = [planner(r, size, op) for r in range(size)]
        bufs = [{BUF_SEND: c, BUF_USER: [None]} for c in contrib(size, size)]
        run_plans(plans, bufs)
        for r in range(size):
            assert norm(op, bufs[r][BUF_USER][0]) == reduced(op, range(size))
        if not op.commutative:
            with pytest.raises(ValueError):
                alg.plan_reduce_scatter_pairwise(0, size, op)

    def test_scan(self, size, op):
        plans = [alg.plan_scan_chain(r, size, op) for r in range(size)]
        bufs = run_plans(plans, [{BUF_USER: c} for c in contrib(size, 1)])
        for r in range(size):
            assert bufs[r][BUF_USER][0] == tuple(range(r + 1))

    @pytest.mark.parametrize("in_place", [False, True])
    def test_exscan(self, size, op, in_place):
        plans = [alg.plan_exscan_chain(r, size, op) for r in range(size)]
        bufs = []
        for c in contrib(size, 1):
            user = c if in_place else ["untouched"]
            bufs.append({BUF_SEND: c, BUF_USER: user})
        run_plans(plans, bufs)
        for r in range(1, size):
            assert bufs[r][BUF_USER][0] == tuple(range(r))
        assert bufs[0][BUF_USER][0] == ((0,) if in_place else "untouched")


# ----------------------------------------------------------------------
# Data movement, count-independent (unit: one block).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
class TestBlockPlans:
    def test_barrier(self, size):
        plans = [alg.plan_barrier_dissemination(r, size) for r in range(size)]
        run_plans(plans, [{BUF_USER: []} for _ in range(size)])

    def test_bcast_binomial(self, size):
        for root in range(size):
            plans = [alg.plan_bcast_binomial(r, size, root) for r in range(size)]
            bufs = [{BUF_USER: labels(r, 1)} for r in range(size)]
            run_plans(plans, bufs)
            assert all(b[BUF_USER] == labels(root, 1) for b in bufs)

    def _allgather(self, size, planner):
        plans = [planner(r, size) for r in range(size)]
        bufs = []
        for r in range(size):
            user = [None] * size
            user[r] = ("d", r)
            bufs.append({BUF_USER: user})
        run_plans(plans, bufs)
        assert all(b[BUF_USER] == [("d", r) for r in range(size)] for b in bufs)

    def test_allgather_ring(self, size):
        self._allgather(size, alg.plan_allgather_ring)

    def test_allgather_recursive_doubling(self, size):
        if size & (size - 1):
            with pytest.raises(ValueError):
                alg.plan_allgather_recursive_doubling(0, size)
        else:
            self._allgather(size, alg.plan_allgather_recursive_doubling)

    def test_alltoall(self, size):
        plans = [alg.plan_alltoall_pairwise(r, size) for r in range(size)]
        bufs = [{BUF_SEND: labels(r, size), BUF_USER: [None] * size} for r in range(size)]
        run_plans(plans, bufs)
        for r in range(size):
            assert bufs[r][BUF_USER] == [("d", src, r) for src in range(size)]

    def test_gather(self, size):
        for root in range(size):
            plans = [alg.plan_gather_linear(r, size, root) for r in range(size)]
            bufs = [
                {BUF_SEND: labels(r, 1), BUF_USER: [None] * size if r == root else []}
                for r in range(size)
            ]
            run_plans(plans, bufs)
            assert bufs[root][BUF_USER] == [("d", r, 0) for r in range(size)]

    def test_scatter(self, size):
        for root in range(size):
            plans = [alg.plan_scatter_linear(r, size, root) for r in range(size)]
            bufs = [
                {BUF_SEND: labels(r, size) if r == root else [], BUF_USER: [None]}
                for r in range(size)
            ]
            run_plans(plans, bufs)
            for r in range(size):
                assert bufs[r][BUF_USER] == [("d", root, r)]


# ----------------------------------------------------------------------
# Data movement, exact (unit: one element).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
class TestExactPlans:
    @pytest.mark.parametrize("count", COUNTS)
    def test_bcast_scatter_allgather(self, size, count):
        for root in range(size):
            plans = [
                alg.plan_bcast_scatter_allgather(r, size, root, count)
                for r in range(size)
            ]
            bufs = [{BUF_USER: labels(r, count)} for r in range(size)]
            run_plans(plans, bufs)
            assert all(b[BUF_USER] == labels(root, count) for b in bufs)

    @pytest.mark.parametrize("gap", [0, 2])
    @pytest.mark.parametrize("pattern", ["zeros", "ones", "some-empty", "ragged"])
    def test_allgatherv(self, size, pattern, gap):
        counts = tuple(spread(size, pattern))
        displs, total = layout(counts, gap)
        plans = [alg.plan_allgatherv_ring(r, size, counts, displs) for r in range(size)]
        expect = [None] * total
        for r in range(size):
            expect[displs[r] : displs[r] + counts[r]] = labels(r, counts[r])
        bufs = []
        for r in range(size):
            user = [None] * total
            user[displs[r] : displs[r] + counts[r]] = labels(r, counts[r])
            bufs.append({BUF_USER: user})
        run_plans(plans, bufs)
        assert all(b[BUF_USER] == expect for b in bufs)

    @pytest.mark.parametrize("gap", [0, 2])
    @pytest.mark.parametrize("pattern", ["zeros", "ones", "some-empty", "ragged"])
    def test_gatherv_scatterv(self, size, pattern, gap):
        counts = tuple(spread(size, pattern))
        displs, total = layout(counts, gap)
        for root in range(size):
            # gatherv: non-roots plan without the root-only counts
            plans = [
                alg.plan_gatherv_linear(
                    r, size, root, counts[r], *((counts, displs) if r == root else ((), ()))
                )
                for r in range(size)
            ]
            bufs = [
                {
                    BUF_SEND: labels(r, counts[r]),
                    BUF_USER: [None] * total if r == root else [],
                }
                for r in range(size)
            ]
            run_plans(plans, bufs)
            for r in range(size):
                got = bufs[root][BUF_USER][displs[r] : displs[r] + counts[r]]
                assert got == labels(r, counts[r])
            # scatterv: the mirror image
            plans = [
                alg.plan_scatterv_linear(
                    r, size, root, *((counts, displs) if r == root else ((), ())), counts[r]
                )
                for r in range(size)
            ]
            bufs = [
                {
                    BUF_SEND: labels(root, total) if r == root else [],
                    BUF_USER: [None] * counts[r],
                }
                for r in range(size)
            ]
            run_plans(plans, bufs)
            for r in range(size):
                assert bufs[r][BUF_USER] == labels(root, total)[
                    displs[r] : displs[r] + counts[r]
                ]

    @pytest.mark.parametrize("pattern", ["zeros", "ones", "some-empty", "ragged"])
    def test_alltoallv(self, size, pattern):
        # rank s sends (s + d) % 3 + base(d) elements to rank d
        base = spread(size, pattern)
        sc = [tuple((s + d) % 3 + base[d] for d in range(size)) for s in range(size)]
        rc = [tuple(sc[s][d] for s in range(size)) for d in range(size)]
        sd = [layout(c, 1)[0] for c in sc]
        rd = [layout(c, 1)[0] for c in rc]
        plans = [
            alg.plan_alltoallv_pairwise(r, size, sc[r], sd[r], rc[r], rd[r])
            for r in range(size)
        ]
        bufs = [
            {
                BUF_SEND: labels(r, layout(sc[r], 1)[1]),
                BUF_USER: [None] * layout(rc[r], 1)[1],
            }
            for r in range(size)
        ]
        run_plans(plans, bufs)
        for d in range(size):
            for s in range(size):
                got = bufs[d][BUF_USER][rd[d][s] : rd[d][s] + rc[d][s]]
                assert got == labels(s, layout(sc[s], 1)[1])[
                    sd[s][d] : sd[s][d] + sc[s][d]
                ]


def test_one_planner_object_per_algorithm():
    """``usercoll`` and ``Comm.i*`` call the *same* planner objects."""
    import repro.core.comm as comm_mod
    from repro.usercoll import allgather, allreduce, barrier, bcast

    assert allreduce.plan_allreduce_recursive_doubling is comm_mod.plan_allreduce_recursive_doubling
    assert bcast.plan_bcast_binomial is comm_mod.plan_bcast_binomial
    assert allgather.plan_allgather_ring is comm_mod.plan_allgather_ring
    assert barrier.plan_barrier_dissemination is comm_mod.plan_barrier_dissemination


# ----------------------------------------------------------------------
# Differential: one plan, two drivers.
# ----------------------------------------------------------------------
PLANNERS = {
    "allreduce": (lambda r, n: alg.plan_allreduce_recursive_doubling(r, n, repro.SUM), 1),
    "allreduce-nc": (lambda r, n: alg.plan_allreduce_recursive_doubling(r, n, NC), 1),
    "bcast": (lambda r, n: alg.plan_bcast_binomial(r, n, n - 1), 1),
    "allgather": (alg.plan_allgather_ring, None),  # `size` blocks
    "scan": (lambda r, n: alg.plan_scan_chain(r, n, repro.SUM), 1),
    "barrier": (alg.plan_barrier_dissemination, 0),
}


def _replay(driver, name, size, count, seed):
    planner, blocks = PLANNERS[name]
    nblocks = size if blocks is None else blocks
    world = make_vworld(size, use_shmem=False)
    rng = np.random.default_rng(seed)
    bufs = [
        rng.integers(-99, 99, size=nblocks * count, dtype="i4") for _ in range(size)
    ]
    reqs = []
    for r in range(size):
        comm = world.proc(r).comm_world
        plan = planner(r, size)
        if driver == "native":
            reqs.append(comm.start_plan(plan, bufs[r], count, repro.INT))
        else:
            reqs.append(
                _launch(comm, plan, bufs[r], count, repro.INT, "diff", repro.STREAM_NULL)
            )
    drive(world, reqs)
    for r in range(size):
        assert world.proc(r).p2p.pool.stats()["outstanding"] == 0
    return [b.tobytes() for b in bufs], world.fabric.conservation_counts()


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(PLANNERS)),
    size=st.integers(1, 6),
    count=st.sampled_from([0, 1, 5, 300, 20000]),  # eager and rendezvous
    seed=st.integers(0, 2**16),
)
def test_native_and_hook_drivers_agree(name, size, count, seed):
    native = _replay("native", name, size, count, seed)
    hook = _replay("hook", name, size, count, seed)
    assert native == hook
