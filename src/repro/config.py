"""Tunable runtime configuration.

Every knob an MPICH user would reach for through a CVAR lives here as a
plain dataclass field so tests and benchmarks can sweep them.  The cost
model constants (``nic_alpha``/``nic_beta`` and friends) parameterize the
simulated offload substrate described in DESIGN.md section 5: an
operation on *n* bytes posted at time *t* completes at ``t + alpha +
n * beta``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

__all__ = ["RuntimeConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Immutable bundle of runtime tunables.

    Use :meth:`updated` to derive a modified copy; instances are shared
    between subsystems and must never be mutated in place.
    """

    # ------------------------------------------------------------------
    # Point-to-point protocol thresholds (bytes).
    # ------------------------------------------------------------------
    #: Messages at or below this size are copied into an internal bounce
    #: buffer and injected immediately ("lightweight send", Fig. 1a):
    #: the send completes with zero wait blocks.
    buffered_threshold: int = 64

    #: Messages at or below this size (and above ``buffered_threshold``)
    #: use eager mode (Fig. 1b): the NIC transmits straight from the user
    #: buffer and the send carries one wait block.
    eager_threshold: int = 8192

    #: Messages above ``eager_threshold`` and at or below this size use
    #: the rendezvous protocol (Fig. 1c): RTS/CTS handshake then data,
    #: i.e. two wait blocks.  Larger messages switch to pipeline mode.
    rendezvous_threshold: int = 262144

    #: Chunk size for pipeline mode; each chunk is an independent NIC
    #: operation, so a pipelined transfer has >= 2 wait blocks.
    pipeline_chunk_size: int = 65536

    #: Maximum chunks in flight for a single pipelined transfer.
    pipeline_max_inflight: int = 4

    # ------------------------------------------------------------------
    # Simulated NIC (netmod) cost model.
    # ------------------------------------------------------------------
    #: Per-operation latency in seconds (the "alpha" of alpha + n*beta).
    nic_alpha: float = 2.0e-6

    #: Per-byte transfer cost in seconds (inverse bandwidth).
    nic_beta: float = 1.0e-10

    #: One-way wire delay before a packet becomes visible at the target.
    nic_wire_delay: float = 1.0e-6

    # ------------------------------------------------------------------
    # Shared-memory (on-node) transport.
    # ------------------------------------------------------------------
    #: Payload capacity of one shmem cell (bytes).
    shmem_cell_size: int = 16384

    #: Number of cells per direction per rank pair.
    shmem_num_cells: int = 4

    #: Per-cell copy cost model (seconds + seconds/byte).
    shmem_alpha: float = 2.0e-7
    shmem_beta: float = 2.0e-11

    # ------------------------------------------------------------------
    # Simulated offload (GPU-like) copy engine.
    # ------------------------------------------------------------------
    offload_alpha: float = 5.0e-6
    offload_beta: float = 5.0e-11

    # ------------------------------------------------------------------
    # Datatype engine.
    # ------------------------------------------------------------------
    #: Non-contiguous pack/unpack work is split into chunks of this many
    #: bytes; each chunk is one unit of asynchronous progress.
    datatype_chunk_size: int = 32768

    # ------------------------------------------------------------------
    # Collective algorithm selection.
    # ------------------------------------------------------------------
    #: Allreduce algorithm: 'auto' picks recursive doubling for short
    #: messages / non-commutative ops and Rabenseifner
    #: (reduce-scatter + allgather) for long commutative reductions.
    allreduce_algorithm: str = "auto"

    #: Message size (bytes) above which 'auto' allreduce switches to
    #: Rabenseifner.
    allreduce_long_threshold: int = 16384

    #: Broadcast algorithm: 'auto' picks binomial for short messages and
    #: van de Geijn (scatter + ring allgather) for long ones.
    bcast_algorithm: str = "auto"

    #: Message size (bytes) above which 'auto' bcast switches to
    #: scatter-allgather.
    bcast_long_threshold: int = 16384

    # ------------------------------------------------------------------
    # Progress engine.
    # ------------------------------------------------------------------
    #: Whether netmod progress is skipped when an earlier subsystem
    #: already made progress (the Listing 1.1 short-circuit).  Exposed
    #: so the collation ablation bench can toggle it.
    progress_short_circuit: bool = True

    #: Subsystem polling order.  The paper's order puts netmod last
    #: because its empty poll is not free.
    progress_order: tuple[str, ...] = (
        "datatype",
        "collective",
        "shmem",
        "netmod",
    )

    #: When True, ranks on the same node use the shmem transport for
    #: point-to-point traffic; when False everything goes via netmod.
    use_shmem: bool = True

    #: When True, a progress pass consults the per-VCI pending-work
    #: registry and skips subsystems whose active counters are zero, so
    #: the common idle pass costs a few integer reads instead of four
    #: subsystem polls (section 2.6's "empty polls are not free").
    #: Exposed so the fast-path benchmark can measure the seed behaviour.
    progress_registry_skip: bool = True

    #: When True, ``stream_progress`` timestamps the stream-lock
    #: acquisition on every pass to maintain ``stat_lock_wait_s`` /
    #: ``stat_lock_acquires`` (the Fig. 9 causal measurement).  Off by
    #: default: the two clock reads are pure overhead on the uncontended
    #: hot path.  Benchmarks that report lock-wait series enable it.
    progress_lock_stats: bool = False

    #: Batched-drain bound: one progress pass harvests at most this many
    #: matured completions/arrivals per subsystem in one ``poll_batch``
    #: call, and advances at most this many collective schedules.  0
    #: means unbounded (drain everything matured).  The bound keeps a
    #: flooded VCI from monopolizing its pool worker while still
    #: amortizing the per-call cost over a batch.
    progress_batch_size: int = 64

    # ------------------------------------------------------------------
    # Wait backoff (MPI_Wait* completion loops).
    # ------------------------------------------------------------------
    #: Number of consecutive empty progress passes a wait loop spins
    #: through at full speed before it starts yielding the CPU.  Spinning
    #: catches imminent completions at minimum latency; the backoff keeps
    #: multi-thread-rank runs from burning whole cores on empty polls.
    wait_spin_count: int = 32

    #: Once past the spin phase, yield the CPU on every Nth empty pass
    #: (1 = every empty pass, matching the pre-backoff behaviour).
    wait_yield_interval: int = 1

    # ------------------------------------------------------------------
    # Fault injection (lossy-fabric chaos; all off by default).
    # ------------------------------------------------------------------
    #: Seed for the fault injector's RNG.  Same seed + same (single
    #: threaded) schedule = same faults, so chaos failures replay.
    fault_seed: int = 0

    #: Per-packet probability that the fabric silently drops a packet.
    fault_drop_prob: float = 0.0

    #: Per-packet probability that the fabric delivers a packet twice.
    fault_dup_prob: float = 0.0

    #: Per-packet probability that a packet is held back long enough to
    #: arrive after later traffic on the same link (reordering).
    fault_reorder_prob: float = 0.0

    #: Maximum uniform extra delay (seconds) added to every delivery.
    fault_delay_jitter: float = 0.0

    #: Extra delay applied to a reordered packet, as a multiple of
    #: ``nic_wire_delay`` (drawn uniformly in [1, this]).
    fault_reorder_span: float = 8.0

    #: Optional per-link knob overrides: ``{(src_rank, dst_rank):
    #: {"drop_prob": ..., "dup_prob": ..., "reorder_prob": ...,
    #: "delay_jitter": ...}}``.  Links not listed use the global knobs.
    fault_link_overrides: Any = None

    #: Optional :class:`repro.netmod.faults.FaultPlan` scripting
    #: targeted faults ("drop the 3rd packet from rank 1 to rank 0").
    fault_plan: Any = None

    # ------------------------------------------------------------------
    # Reliability (ack/retransmit) layer.
    # ------------------------------------------------------------------
    #: 'auto' enables the ack/retransmit protocol exactly when any fault
    #: knob is active; 'on'/'off' force it.  When off (the default with
    #: no faults configured) the wire protocol is byte-identical to the
    #: seed: no sequence numbers, no acks, no timers.
    reliability: str = "auto"

    #: Initial retransmit timeout (seconds) before an unacked packet is
    #: resent.  Should comfortably exceed one round trip
    #: (``2 * nic_wire_delay`` plus processing).
    rel_rto: float = 1.0e-4

    #: Multiplier applied to the retransmit timeout after every resend
    #: of the same packet (exponential backoff).
    rel_backoff: float = 2.0

    #: Resend attempts per packet before the link is declared dead and
    #: the owning request fails with ``DeliveryFailedError``.
    rel_max_retries: int = 10

    #: Decorrelated-jitter blend for the retransmit backoff, in [0, 1].
    #: 0 (the default) keeps the pure exponential schedule; 1 draws the
    #: whole delay from the decorrelated-jitter recurrence
    #: ``min(cap, uniform(rel_rto, 3 * prev_delay))`` so simultaneous
    #: retries to a slow peer spread out instead of storming in
    #: lockstep.  Values in between interpolate.  Draws come from a
    #: per-rank RNG seeded with ``fault_seed`` so runs replay.
    rel_backoff_jitter: float = 0.0

    # ------------------------------------------------------------------
    # Fail-stop fault tolerance (ULFM-style).
    # ------------------------------------------------------------------
    #: Failure detector mode: 'auto' arms heartbeats exactly when the
    #: fault plan contains rank kills; 'on'/'off' force it.  Retransmit
    #: exhaustion feeds the same suspicion state even when heartbeats
    #: are off.
    ft_detector: str = "auto"

    #: Heartbeat interval (seconds): a rank pings peers it has not
    #: heard from within this window.  Regular traffic counts as a
    #: heartbeat (piggybacking), so pings flow only on idle links.
    hb_interval: float = 5.0e-4

    #: Silence threshold (seconds) past which a peer is declared dead.
    #: Must comfortably exceed ``hb_interval`` plus a round trip.
    hb_timeout: float = 5.0e-3

    #: Bound (seconds, virtual clock) on the ``World.finalize()`` global
    #: drain.  0 (the default) keeps the seed behaviour: wait for full
    #: quiescence indefinitely.  When positive, a drain that exceeds the
    #: bound raises ``PeerUnreachableError`` naming the ranks that still
    #: hold unacked traffic.
    finalize_timeout: float = 0.0

    # ------------------------------------------------------------------
    # Leased buffer pool (zero-copy payload paths).
    # ------------------------------------------------------------------
    #: When True (the default), payload-bearing paths stage through the
    #: size-class :class:`repro.mem.BufferPool` and large transfers go
    #: zero-copy (receiver-confirmed rendezvous/pipeline).  When False
    #: every path reverts to the plain ``bytes``-snapshot protocol —
    #: the documented off-switch for differential testing against the
    #: copying paths.
    buffer_pool_enabled: bool = True

    #: Cap on bytes retained across the pool's free lists; released
    #: slabs beyond it are dropped to the allocator instead of parked.
    buffer_pool_max_bytes: int = 64 * 1024 * 1024

    #: Number of power-of-two size classes (class i holds slabs of
    #: ``256 << i`` bytes); payloads beyond the largest class lease an
    #: unpooled one-shot buffer.
    buffer_pool_size_classes: int = 16

    # ------------------------------------------------------------------
    # Compiled-schedule plan cache (native and user-level collectives).
    # ------------------------------------------------------------------
    #: When True (the default), collectives compile their comm graph
    #: into a flat-step :class:`~repro.coll.plan.Plan` once per shape
    #: and replay it from the cache on subsequent calls.  When
    #: False every call re-plans — the documented off-switch for
    #: differential benchmarking of cold planning vs cached replay.
    schedule_cache_enabled: bool = True

    #: LRU bound on cached plans per process; the least recently used
    #: plan is evicted past this.
    schedule_cache_max_plans: int = 128

    # ------------------------------------------------------------------
    # Multi-process fabric backend (procmod).
    # ------------------------------------------------------------------
    #: Inline payload capacity of one shm-segment ring cell (bytes).
    #: Frames whose payload fits travel entirely inside the cell;
    #: larger payloads spill into the segment's arena region.
    procmod_cell_size: int = 4096

    #: Cells per directed shm link (SPSC ring depth).
    procmod_num_cells: int = 32

    #: Big-payload arena bytes per directed shm link.  Payloads above
    #: ``procmod_cell_size`` lease a contiguous span here (sender writes
    #: straight from the user buffer — the zero-copy ≥eager path) and
    #: the span is reclaimed when the receiver consumes the frame.
    procmod_arena_bytes: int = 4 * 1024 * 1024

    #: Socket transport: frames accumulate in a writev-style batch and
    #: flush when the pending bytes exceed this (or at the next progress
    #: pass, whichever comes first).
    procmod_flush_bytes: int = 64 * 1024

    #: Seconds the :class:`~repro.runtime.procworld.ProcWorld` reaper
    #: waits, after a rank process dies, for the surviving ranks to
    #: surface their own errors before it terminates them and raises
    #: ``PeerUnreachableError`` in the parent.
    procmod_reaper_timeout: float = 10.0

    # ------------------------------------------------------------------
    # World / topology.
    # ------------------------------------------------------------------
    #: Number of ranks per simulated node (controls which pairs are
    #: "on-node" for the shmem transport).
    ranks_per_node: int = 1

    #: Upper bound for user tags; mirrors MPI_TAG_UB.
    tag_ub: int = (1 << 30) - 1

    def updated(self, **changes: Any) -> "RuntimeConfig":
        """Return a copy with ``changes`` applied."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization (the spawn boundary).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form of every field, for crossing a process spawn
        boundary (or a config file).

        Tuples become lists so the common fields survive a JSON
        round-trip too; :meth:`from_dict` restores them.  Object-valued
        knobs (``fault_plan``, tuple-keyed ``fault_link_overrides``) are
        passed through as-is — they round-trip under pickle, not JSON.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RuntimeConfig":
        """Rebuild a validated config from :meth:`to_dict` output.

        Unknown keys raise ``ValueError`` — a config produced by a
        different revision of this dataclass must fail loudly instead of
        silently dropping knobs (drift across the spawn boundary).
        Missing keys take their defaults, so configs serialized by an
        *older* revision keep working.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RuntimeConfig fields: {unknown}")
        kwargs = dict(data)
        if "progress_order" in kwargs:
            kwargs["progress_order"] = tuple(kwargs["progress_order"])
        if kwargs.get("fault_link_overrides") is not None:
            kwargs["fault_link_overrides"] = {
                tuple(link): dict(knobs)
                for link, knobs in dict(kwargs["fault_link_overrides"]).items()
            }
        config = cls(**kwargs)
        config.validate()
        return config

    def faults_active(self) -> bool:
        """True when any fault-injection knob deviates from "perfect"."""
        if (
            self.fault_drop_prob
            or self.fault_dup_prob
            or self.fault_reorder_prob
            or self.fault_delay_jitter
        ):
            return True
        return self.fault_plan is not None or bool(self.fault_link_overrides)

    def reliability_active(self) -> bool:
        """Whether the ack/retransmit layer runs (resolves 'auto')."""
        if self.reliability == "on":
            return True
        if self.reliability == "off":
            return False
        return self.faults_active()

    def detector_active(self) -> bool:
        """Whether the heartbeat failure detector runs (resolves 'auto')."""
        if self.ft_detector == "on":
            return True
        if self.ft_detector == "off":
            return False
        plan = self.fault_plan
        if plan is None:
            return False
        has_kills = getattr(plan, "has_kills", None)
        return bool(has_kills()) if has_kills is not None else False

    def validate(self) -> None:
        """Raise ``ValueError`` if the configuration is inconsistent."""
        if not (0 <= self.buffered_threshold <= self.eager_threshold):
            raise ValueError("buffered_threshold must be <= eager_threshold")
        if self.eager_threshold > self.rendezvous_threshold:
            raise ValueError("eager_threshold must be <= rendezvous_threshold")
        if self.pipeline_chunk_size <= 0:
            raise ValueError("pipeline_chunk_size must be positive")
        if self.pipeline_max_inflight <= 0:
            raise ValueError("pipeline_max_inflight must be positive")
        if min(self.nic_alpha, self.nic_beta, self.nic_wire_delay) < 0:
            raise ValueError("NIC cost model constants must be >= 0")
        if self.shmem_cell_size <= 0 or self.shmem_num_cells <= 0:
            raise ValueError("shmem cell geometry must be positive")
        if self.datatype_chunk_size <= 0:
            raise ValueError("datatype_chunk_size must be positive")
        if self.ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")
        if self.procmod_cell_size <= 0 or self.procmod_num_cells <= 0:
            raise ValueError("procmod cell geometry must be positive")
        if self.procmod_arena_bytes < self.procmod_cell_size:
            raise ValueError("procmod_arena_bytes must be >= procmod_cell_size")
        if self.procmod_flush_bytes <= 0:
            raise ValueError("procmod_flush_bytes must be positive")
        if self.procmod_reaper_timeout <= 0:
            raise ValueError("procmod_reaper_timeout must be positive")
        if self.progress_batch_size < 0:
            raise ValueError("progress_batch_size must be >= 0 (0 = unbounded)")
        if self.wait_spin_count < 0:
            raise ValueError("wait_spin_count must be >= 0")
        if self.wait_yield_interval <= 0:
            raise ValueError("wait_yield_interval must be positive")
        for name in ("fault_drop_prob", "fault_dup_prob", "fault_reorder_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.fault_delay_jitter < 0:
            raise ValueError("fault_delay_jitter must be >= 0")
        if self.fault_reorder_span < 1.0:
            raise ValueError("fault_reorder_span must be >= 1")
        if self.fault_link_overrides is not None:
            for link, knobs in dict(self.fault_link_overrides).items():
                if len(tuple(link)) != 2:
                    raise ValueError(f"fault link key must be (src, dst): {link!r}")
                for key, value in dict(knobs).items():
                    if key in ("drop_prob", "dup_prob", "reorder_prob"):
                        if not 0.0 <= value <= 1.0:
                            raise ValueError(
                                f"link {link} {key} must be in [0, 1], got {value}"
                            )
                    elif key == "delay_jitter":
                        if value < 0:
                            raise ValueError(
                                f"link {link} delay_jitter must be >= 0"
                            )
                    else:
                        raise ValueError(f"unknown link fault knob {key!r}")
        if self.reliability not in ("auto", "on", "off"):
            raise ValueError(f"unknown reliability mode {self.reliability!r}")
        if self.rel_rto <= 0:
            raise ValueError("rel_rto must be positive")
        if self.rel_backoff < 1.0:
            raise ValueError("rel_backoff must be >= 1")
        if self.rel_max_retries <= 0:
            raise ValueError("rel_max_retries must be positive")
        if not 0.0 <= self.rel_backoff_jitter <= 1.0:
            raise ValueError("rel_backoff_jitter must be in [0, 1]")
        if self.ft_detector not in ("auto", "on", "off"):
            raise ValueError(f"unknown ft_detector mode {self.ft_detector!r}")
        if self.hb_interval <= 0:
            raise ValueError("hb_interval must be positive")
        if self.hb_timeout <= self.hb_interval:
            raise ValueError("hb_timeout must exceed hb_interval")
        if self.finalize_timeout < 0:
            raise ValueError("finalize_timeout must be >= 0 (0 = unbounded)")
        if self.buffer_pool_max_bytes < 0:
            raise ValueError("buffer_pool_max_bytes must be >= 0")
        if not 1 <= self.buffer_pool_size_classes <= 32:
            raise ValueError("buffer_pool_size_classes must be in [1, 32]")
        if self.schedule_cache_max_plans < 1:
            raise ValueError("schedule_cache_max_plans must be >= 1")
        if self.allreduce_algorithm not in (
            "auto",
            "recursive_doubling",
            "rabenseifner",
        ):
            raise ValueError(
                f"unknown allreduce_algorithm {self.allreduce_algorithm!r}"
            )
        if self.bcast_algorithm not in ("auto", "binomial", "scatter_allgather"):
            raise ValueError(f"unknown bcast_algorithm {self.bcast_algorithm!r}")
        unknown = set(self.progress_order) - {
            "datatype",
            "collective",
            "shmem",
            "netmod",
        }
        if unknown:
            raise ValueError(f"unknown progress subsystems: {sorted(unknown)}")


#: Shared default configuration used when callers pass ``config=None``.
DEFAULT_CONFIG = RuntimeConfig()
