"""Compiled-plan replay under fail-stop and revoke, both drivers.

The :class:`~repro.coll.plan.PlanExecutor` replays cached schedules
with no Python-level planning — so a peer death or a revoke mid-replay
must be detected in its completion walk and leave through the one
``abort``: the collective's request fails with the captured exception
(never completes over partial data, never hangs), still-posted receives
are cancelled, and the staging lease returns to the pool — whether the
native collective subsystem or an async hook drives the replay.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import ProcessFailedError, RevokedError
from repro.netmod.faults import FaultPlan
from repro.usercoll import user_allreduce
from tests.conftest import make_vworld
from tests.ft.test_detector import drive_until


class TestPlanReplayFailure:
    def test_replay_toward_dead_peer_fails(self):
        world = make_vworld(
            2,
            fault_plan=FaultPlan().kill(1, after_packets=0),
            use_shmem=False,
        )
        p0 = world.proc(0)
        comm = p0.comm_world
        comm.set_errhandler(repro.ERRORS_RETURN)
        buf = np.array([5], dtype="i4")
        req = user_allreduce(comm, buf, 1, repro.INT, repro.SUM)
        drive_until(world, req.is_complete)
        assert isinstance(req.exception, ProcessFailedError)
        assert req.status.error == 76
        p0.wait(req)  # ERRORS_RETURN: no raise
        # The staging lease went back to the pool, not leaked.
        assert p0.p2p.pool.stats()["outstanding"] == 0

    def test_replay_on_revoked_comm_fails_immediately(self):
        world = make_vworld(2, use_shmem=False)
        p0 = world.proc(0)
        comm = p0.comm_world
        comm.set_errhandler(repro.ERRORS_RETURN)
        comm.revoke()
        buf = np.array([5], dtype="i4")
        req = user_allreduce(comm, buf, 1, repro.INT, repro.SUM)
        assert req.is_complete()  # failed in start(), before any hook
        assert isinstance(req.exception, RevokedError)
        assert p0.p2p.pool.stats()["outstanding"] == 0

    def test_failed_replay_raises_under_fatal_handler(self):
        world = make_vworld(
            2,
            fault_plan=FaultPlan().kill(1, after_packets=0),
            use_shmem=False,
        )
        p0 = world.proc(0)
        comm = p0.comm_world  # default ERRORS_ARE_FATAL
        buf = np.array([5], dtype="i4")
        req = user_allreduce(comm, buf, 1, repro.INT, repro.SUM)
        drive_until(world, req.is_complete)
        with pytest.raises(ProcessFailedError):
            p0.wait(req)


def _allreduce(driver, comm, buf):
    if driver == "native":
        return comm.iallreduce(repro.IN_PLACE, buf, len(buf), repro.INT, repro.SUM)
    return user_allreduce(comm, buf, len(buf), repro.INT, repro.SUM)


@pytest.mark.parametrize("driver", ["native", "user"])
class TestAbortBothDrivers:
    def test_dead_peer_aborts_and_returns_lease(self, driver):
        world = make_vworld(
            2, fault_plan=FaultPlan().kill(1, after_packets=0), use_shmem=False
        )
        p0 = world.proc(0)
        comm = p0.comm_world
        comm.set_errhandler(repro.ERRORS_RETURN)
        req = _allreduce(driver, comm, np.arange(64, dtype="i4"))
        drive_until(world, req.is_complete)
        assert isinstance(req.exception, ProcessFailedError)
        assert req.status.error == 76
        p0.wait(req)  # ERRORS_RETURN: no raise
        p0.stream_progress()
        assert p0.coll_engine.active_count == 0
        assert p0.p2p.pool.stats()["outstanding"] == 0
        # The aborted round's receive was cancelled, not left posted.
        assert not list(p0.p2p.vci_state(0).match.posted_entries())

    def test_known_dead_peer_fails_at_start(self, driver):
        """A post to a peer already known dead fast-fails: the request
        is complete (errhandler stamped) when the call returns."""
        world = make_vworld(2, use_shmem=False)
        p0 = world.proc(0)
        p0.p2p.note_peer_dead(1)
        calls = []
        p0.comm_world.set_errhandler(calls.append)
        req = _allreduce(driver, p0.comm_world, np.arange(64, dtype="i4"))
        assert req.is_complete()
        assert isinstance(req.exception, ProcessFailedError)
        p0.wait(req)
        p0.wait(req)
        assert len(calls) == 1
        assert p0.p2p.pool.stats()["outstanding"] == 0

    def test_revoke_mid_replay_aborts(self, driver):
        world = make_vworld(2, use_shmem=False)
        p0 = world.proc(0)
        comm = p0.comm_world
        comm.set_errhandler(repro.ERRORS_RETURN)
        req = _allreduce(driver, comm, np.arange(64, dtype="i4"))
        assert not req.is_complete()  # rank 1 never posts
        comm.revoke()
        drive_until(world, req.is_complete)
        assert isinstance(req.exception, RevokedError)
        p0.stream_progress()
        assert p0.coll_engine.active_count == 0
        assert p0.pending_async_tasks == 0
        assert p0.p2p.pool.stats()["outstanding"] == 0
