"""Collective planners: one per algorithm.

Each ``plan_*(rank, size, ...)`` lays out one rank's side of one
algorithm as a :class:`repro.coll.plan.Plan`.  The communicator layer
and :mod:`repro.usercoll` call the same planners (through
:func:`repro.coll.plan.plan_for`); the communicator layer additionally
owns *algorithm selection* (e.g. recursive doubling vs Rabenseifner by
message size).  Planners only lay out the pattern.
"""

from repro.coll.algorithms.allgather import (
    plan_allgather_recursive_doubling,
    plan_allgather_ring,
    plan_allgatherv_ring,
)
from repro.coll.algorithms.allreduce import plan_allreduce_recursive_doubling
from repro.coll.algorithms.allreduce_rabenseifner import plan_allreduce_rabenseifner
from repro.coll.algorithms.alltoall import (
    plan_alltoall_pairwise,
    plan_alltoallv_pairwise,
)
from repro.coll.algorithms.barrier import plan_barrier_dissemination
from repro.coll.algorithms.bcast import plan_bcast_binomial
from repro.coll.algorithms.bcast_vandegeijn import plan_bcast_scatter_allgather
from repro.coll.algorithms.gather import (
    plan_gather_linear,
    plan_gatherv_linear,
    plan_scatter_linear,
    plan_scatterv_linear,
)
from repro.coll.algorithms.reduce import plan_reduce_binomial
from repro.coll.algorithms.reduce_scatter import (
    plan_reduce_scatter_ordered,
    plan_reduce_scatter_pairwise,
)
from repro.coll.algorithms.scan import plan_exscan_chain, plan_scan_chain

__all__ = [
    "plan_allreduce_recursive_doubling",
    "plan_allreduce_rabenseifner",
    "plan_bcast_binomial",
    "plan_bcast_scatter_allgather",
    "plan_barrier_dissemination",
    "plan_reduce_binomial",
    "plan_reduce_scatter_pairwise",
    "plan_reduce_scatter_ordered",
    "plan_scan_chain",
    "plan_exscan_chain",
    "plan_allgather_ring",
    "plan_allgather_recursive_doubling",
    "plan_allgatherv_ring",
    "plan_alltoall_pairwise",
    "plan_alltoallv_pairwise",
    "plan_gather_linear",
    "plan_scatter_linear",
    "plan_gatherv_linear",
    "plan_scatterv_linear",
]
