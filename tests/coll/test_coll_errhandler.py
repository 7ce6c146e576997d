"""Collective delivery failure × per-communicator error handlers.

A one-directional black hole on the 0→1 link makes any collective that
routes data across it fail: rank 0's send exhausts its retry budget
(declaring rank 1 dead via the armed detector), and rank 1 — whose own
packets still get through — discovers rank 0's silence by heartbeat
timeout.  Each rank's collective must then complete with the failure
captured, and a *callable* error handler must fire exactly once per
rank per failed operation, no matter how many times the request is
waited on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.comm import ERRORS_RETURN
from repro.errors import MpiError
from repro.usercoll import user_allreduce, user_ibcast
from tests.conftest import make_vworld
from tests.ft.test_detector import drive_until

#: 0→1 packets vanish; 1→0 packets flow.  Retries are cheap and the
#: detector is armed, so both ranks independently observe the failure.
SPLIT_BRAIN = dict(
    fault_link_overrides={(0, 1): {"drop_prob": 1.0}},
    rel_max_retries=3,
    rel_rto=1e-5,
    ft_detector="on",
    hb_interval=1e-3,
    hb_timeout=1e-2,
    use_shmem=False,
)


def _failing_collective(start):
    """Run ``start(comm) -> Request`` on both ranks of a split-brain
    world; return the per-rank (request, errhandler_calls) pairs."""
    world = make_vworld(2, **SPLIT_BRAIN)
    calls = {0: [], 1: []}
    reqs = {}
    for r in (0, 1):
        proc = world.proc(r)
        comm = proc.comm_world
        comm.set_errhandler(lambda exc, rank=r: calls[rank].append(exc))
        reqs[r] = start(comm)
    drive_until(world, lambda: all(q.is_complete() for q in reqs.values()))
    for r in (0, 1):
        world.proc(r).wait(reqs[r])  # callable handler: no raise
        world.proc(r).wait(reqs[r])  # second wait must NOT re-fire it
    return world, reqs, calls


class TestCallableErrhandlerFiresOnce:
    def test_bcast(self):
        def start(comm):
            buf = np.zeros(4, dtype="i4")
            if comm.rank == 0:
                buf[:] = [1, 2, 3, 4]
            return comm.ibcast(buf, 4, repro.INT, root=0)

        world, reqs, calls = _failing_collective(start)
        for r in (0, 1):
            assert reqs[r].exception is not None, f"rank {r} never failed"
            assert isinstance(reqs[r].exception, MpiError)
            assert len(calls[r]) == 1, (r, calls[r])
            assert isinstance(calls[r][0], MpiError)

    def test_allreduce(self):
        def start(comm):
            buf = np.array([comm.rank + 1], dtype="i4")
            out = np.zeros(1, dtype="i4")
            return comm.iallreduce(buf, out, 1, repro.INT, repro.SUM)

        world, reqs, calls = _failing_collective(start)
        for r in (0, 1):
            assert reqs[r].exception is not None, f"rank {r} never failed"
            assert len(calls[r]) == 1, (r, calls[r])

    def test_errors_return_does_not_call_handler_machinery(self):
        """Sanity: with plain ERRORS_RETURN the failure is captured on
        the request and wait returns silently."""
        world = make_vworld(2, **SPLIT_BRAIN)
        p0 = world.proc(0)
        comm = p0.comm_world
        comm.set_errhandler(ERRORS_RETURN)
        buf = np.array([1], dtype="i4")
        out = np.zeros(1, dtype="i4")
        req = comm.iallreduce(buf, out, 1, repro.INT, repro.SUM)
        drive_until(world, req.is_complete)
        p0.wait(req)  # must not raise
        assert req.exception is not None
        assert req.status.error != 0


@pytest.mark.parametrize("driver", ["native", "user"])
class TestBothDriversFireOnce:
    """The same split-brain failure through either driver of the plan
    executor: one errhandler call per rank per failed collective."""

    def test_bcast(self, driver):
        def start(comm):
            buf = np.zeros(4, dtype="i4")
            if driver == "native":
                return comm.ibcast(buf, 4, repro.INT, root=0)
            return user_ibcast(comm, buf, 4, repro.INT, 0)

        world, reqs, calls = _failing_collective(start)
        for r in (0, 1):
            assert isinstance(reqs[r].exception, MpiError), f"rank {r} never failed"
            assert len(calls[r]) == 1, (r, calls[r])
            assert world.proc(r).p2p.pool.stats()["outstanding"] == 0

    def test_allreduce(self, driver):
        def start(comm):
            buf = np.full(64, comm.rank + 1, dtype="i4")
            if driver == "native":
                return comm.iallreduce(repro.IN_PLACE, buf, 64, repro.INT, repro.SUM)
            return user_allreduce(comm, buf, 64, repro.INT, repro.SUM)

        world, reqs, calls = _failing_collective(start)
        for r in (0, 1):
            assert isinstance(reqs[r].exception, MpiError), f"rank {r} never failed"
            assert len(calls[r]) == 1, (r, calls[r])
            assert world.proc(r).p2p.pool.stats()["outstanding"] == 0
