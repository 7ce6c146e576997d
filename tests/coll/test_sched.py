"""Collective schedule machinery: hand-built plans through the native
driver — round order, posting, rank/VCI translation, and the engine."""

import numpy as np

import repro
from repro.coll.plan import (
    BUF_STAGE,
    BUF_USER,
    CopyStep,
    Plan,
    PlanRound,
    RecvStep,
    ReduceStep,
    SendStep,
)
from repro.coll.sched import CollSchedEngine
from repro.core.comm import Comm
from tests.conftest import drive, make_vworld


def recording_op(order, label):
    """A reduction that leaves the data alone and logs that it ran."""

    def kernel(src, dst):
        order.append(label)
        return dst

    return repro.user_op(kernel, name=label)


def local_round(order, label):
    return PlanRound(locals=(ReduceStep(recording_op(order, label), BUF_USER, BUF_USER),))


def start(world, rank, plan, buf=None, count=1):
    if buf is None:
        buf = np.zeros(count, dtype="i4")
    return world.proc(rank).comm_world.start_plan(plan, buf, count, repro.INT)


class TestSchedBuild:
    def test_empty_sched_completes_at_start(self):
        world = make_vworld(1)
        req = start(world, 0, Plan("empty", []))
        assert req.is_complete()

    def test_local_vertices_run_in_dependency_order(self):
        """Rounds run in order; local-only rounds retire at start."""
        world = make_vworld(1)
        order = []
        plan = Plan("locals", [local_round(order, x) for x in "abc"])
        req = start(world, 0, plan)
        assert order == ["a", "b", "c"]
        assert req.is_complete()

    def test_diamond_dependencies(self):
        """a -> (send, recv) -> d: the round's two comms both complete
        before its locals run, and the locals run in listed order."""
        world = make_vworld(2, use_shmem=False)
        orders = {0: [], 1: []}
        bufs = {r: np.array([r + 1], dtype="i4") for r in (0, 1)}
        reqs = []
        for r in (0, 1):
            order = orders[r]
            plan = Plan(
                "diamond",
                [
                    local_round(order, "a"),
                    PlanRound(
                        comms=(RecvStep(1 - r, BUF_STAGE), SendStep(1 - r)),
                        locals=(
                            ReduceStep(recording_op(order, "d1"), BUF_STAGE, BUF_USER),
                            CopyStep(BUF_STAGE, BUF_USER),
                            ReduceStep(recording_op(order, "d2"), BUF_STAGE, BUF_USER),
                        ),
                    ),
                ],
                stage_blocks=1,
            )
            reqs.append(start(world, r, plan, bufs[r]))
        drive(world, reqs)
        for r in (0, 1):
            assert orders[r] == ["a", "d1", "d2"]
            assert bufs[r][0] == 2 - r  # the peer's value arrived first

    def test_barrier_vertex(self):
        """A round with nothing in it is a pure gate."""
        world = make_vworld(1)
        order = []
        plan = Plan(
            "gate", [local_round(order, "a"), PlanRound(), local_round(order, "b")]
        )
        req = start(world, 0, plan)
        assert req.is_complete()
        assert order == ["a", "b"]


class TestSchedCommunication:
    def test_send_recv_pair(self):
        world = make_vworld(2, use_shmem=False)
        out = np.zeros(1, dtype="i4")
        r0 = start(
            world, 0, Plan("s", [PlanRound(comms=(SendStep(1),))]), np.array([42], "i4")
        )
        r1 = start(world, 1, Plan("r", [PlanRound(comms=(RecvStep(0),))]), out)
        drive(world, [r0, r1])
        assert out[0] == 42

    def test_chained_rounds(self):
        """send + recv -> local models one collective round."""
        world = make_vworld(2, use_shmem=False)
        vals = [np.array([1], dtype="i4"), np.array([10], dtype="i4")]
        reqs = []
        for r in (0, 1):
            plan = Plan(
                "exchange-add",
                [
                    PlanRound(
                        comms=(RecvStep(1 - r, BUF_STAGE), SendStep(1 - r)),
                        locals=(ReduceStep(repro.SUM, BUF_STAGE, BUF_USER),),
                    )
                ],
                stage_blocks=1,
            )
            reqs.append(start(world, r, plan, vals[r]))
        drive(world, reqs)
        assert vals[0][0] == 11 and vals[1][0] == 11
        for r in (0, 1):
            assert world.proc(r).p2p.pool.stats()["outstanding"] == 0

    def test_rank_map_translation(self):
        """Plans speak comm ranks; the poster reaches the right world
        ranks."""
        world = make_vworld(3, use_shmem=False)
        # communicator = world ranks [2, 0]; comm rank 0 -> world 2
        p2, p0 = world.proc(2), world.proc(0)
        ca = Comm(p2, [2, 0], 100, p2.default_stream)
        cb = Comm(p0, [2, 0], 100, p0.default_stream)
        out = np.zeros(1, dtype="i4")
        ra = ca.start_plan(  # comm rank 1 == world 0
            Plan("s", [PlanRound(comms=(SendStep(1),))]), np.array([7], "i4"), 1, repro.INT
        )
        rb = cb.start_plan(  # comm rank 0 == world 2
            Plan("r", [PlanRound(comms=(RecvStep(0),))]), out, 1, repro.INT
        )
        drive(world, [ra, rb])
        assert out[0] == 7


class TestCollSchedEngine:
    def test_idle_engine(self):
        engine = CollSchedEngine()
        assert engine.progress(0) is False
        assert engine.active_count == 0
        assert not engine.has_work(0)

    def test_completed_sched_retired(self):
        world = make_vworld(1)
        start(world, 0, Plan("local", [local_round([], "x")]))
        assert world.proc(0).coll_engine.active_count == 0  # retired instantly

    def test_vci_isolation(self):
        world = make_vworld(2, use_shmem=False)
        proc = world.proc(0)
        stream = proc.stream_create()
        comm = Comm(proc, range(2), 100, stream, [stream.vci] * 2)
        comm.start_plan(
            Plan("blocked", [PlanRound(comms=(RecvStep(1),))]),
            np.zeros(1, "i4"),
            1,
            repro.INT,
        )
        assert proc.coll_engine.has_work(stream.vci)
        assert not proc.coll_engine.has_work(0)
        assert proc.coll_engine.progress(0) is False  # other vci untouched
