"""Netmod endpoint: cost model, polling, FIFO delivery."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.netmod.fabric import Fabric
from repro.util.clock import VirtualClock
from tests.netmod.reference_endpoint import ReferenceFabric


CFG = RuntimeConfig(nic_alpha=1e-6, nic_beta=1e-9, nic_wire_delay=2e-6)


def make_fabric(nranks=2, config=CFG):
    clock = VirtualClock()
    return Fabric(nranks, clock=clock, config=config), clock


class TestPostAndPoll:
    def test_completion_respects_alpha_beta(self):
        fabric, clock = make_fabric()
        ep = fabric.endpoint(0)
        op = ep.post_send((1, 0), {"kind": "eager"}, b"x" * 1000, context="c")
        assert op.deadline == pytest.approx(1e-6 + 1000 * 1e-9)
        comps, packets = ep.poll()
        assert comps == [] and packets == []  # nothing matured yet
        clock.advance_to(op.deadline)
        comps, _ = ep.poll()
        assert comps == [op]
        assert op.completed

    def test_arrival_respects_wire_delay(self):
        fabric, clock = make_fabric()
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        src.post_send((1, 0), {"kind": "eager", "n": 1}, b"abc")
        arrival = 2e-6 + 3 * 1e-9
        clock.advance_to(arrival - 1e-9)
        _, packets = dst.poll()
        assert packets == []
        clock.advance_to(arrival)
        _, packets = dst.poll()
        assert len(packets) == 1
        assert packets[0].payload == b"abc"
        assert packets[0].header["n"] == 1

    def test_empty_poll_is_cheap_and_counted(self):
        fabric, _ = make_fabric()
        ep = fabric.endpoint(0)
        ep.poll()
        assert ep.stat_polls == 1
        assert ep.stat_empty_polls == 1
        assert ep.pending == 0

    def test_payload_snapshotted_at_post(self):
        fabric, clock = make_fabric()
        buf = bytearray(b"AAAA")
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        src.post_send((1, 0), {"kind": "eager"}, buf)
        buf[:] = b"BBBB"  # mutate after post
        clock.advance(1.0)
        _, packets = dst.poll()
        assert packets[0].payload == b"AAAA"

    def test_loopback(self):
        fabric, clock = make_fabric()
        ep = fabric.endpoint(0)
        op = ep.post_send((0, 0), {"kind": "eager"}, b"self")
        clock.advance(1.0)
        comps, packets = ep.poll()
        assert comps == [op]
        assert packets[0].payload == b"self"

    def test_stats(self):
        fabric, _ = make_fabric()
        ep = fabric.endpoint(0)
        ep.post_send((1, 0), {"kind": "eager"}, b"12345")
        assert ep.stat_posted == 1
        assert ep.stat_bytes == 5


class TestOrdering:
    def test_fifo_per_destination_despite_size_inversion(self):
        """A small message posted after a large one must not overtake it
        (MPI non-overtaking)."""
        cfg = CFG.updated(nic_beta=1e-6)  # make size dominate
        fabric, clock = make_fabric(config=cfg)
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        src.post_send((1, 0), {"kind": "eager", "i": 0}, b"x" * 10_000)
        src.post_send((1, 0), {"kind": "eager", "i": 1}, b"y")
        clock.advance(1.0)
        _, packets = dst.poll()
        assert [p.header["i"] for p in packets] == [0, 1]

    def test_different_destinations_not_serialized(self):
        cfg = CFG.updated(nic_beta=1e-6)
        fabric, clock = make_fabric(nranks=3, config=cfg)
        src = fabric.endpoint(0)
        src.post_send((1, 0), {"kind": "eager"}, b"x" * 10_000)
        src.post_send((2, 0), {"kind": "eager"}, b"y")
        # The small message to rank 2 arrives before the big one to 1.
        clock.advance_to(2e-6 + 1e-6 + 1e-9)
        _, p2 = fabric.endpoint(2).poll()
        _, p1 = fabric.endpoint(1).poll()
        assert len(p2) == 1 and len(p1) == 0

    def test_completions_in_deadline_order(self):
        fabric, clock = make_fabric()
        ep = fabric.endpoint(0)
        big = ep.post_send((1, 0), {"kind": "a"}, b"z" * 100_000, context=1)
        small = ep.post_send((1, 0), {"kind": "b"}, b"z", context=2)
        clock.advance(1.0)
        comps, _ = ep.poll()
        assert comps == sorted(comps, key=lambda o: o.deadline)
        assert small.deadline < big.deadline


class TestBatchedDrain:
    def test_poll_batch_bounds_the_drain_and_keeps_fifo(self):
        fabric, clock = make_fabric()
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        for i in range(5):
            src.post_send((1, 0), {"kind": "eager", "i": i}, b"p")
        clock.advance(1.0)
        _, packets = dst.poll_batch(2)
        assert [p.header["i"] for p in packets] == [0, 1]
        assert dst.pending == 3
        _, rest = dst.poll_batch(None)  # unbounded drains the tail
        assert [p.header["i"] for p in rest] == [2, 3, 4]
        assert dst.pending == 0

    def test_budget_applies_per_queue(self):
        """Loopback gives one endpoint both completions and arrivals;
        max_k bounds each queue independently."""
        fabric, clock = make_fabric()
        ep = fabric.endpoint(0)
        for _ in range(3):
            ep.post_send((0, 0), {"kind": "eager"}, b"s")
        clock.advance(1.0)
        comps, packets = ep.poll_batch(2)
        assert len(comps) == 2 and len(packets) == 2
        comps, packets = ep.poll_batch(2)
        assert len(comps) == 1 and len(packets) == 1
        assert ep.pending == 0

    def test_partial_drain_keeps_conservation_exact(self):
        """delivered == harvested + in_flight at every drain slice (the
        dsched message-conservation invariant under batching)."""
        fabric, clock = make_fabric()
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        for _ in range(4):
            src.post_send((1, 0), {"kind": "eager"}, b"x")
        clock.advance(1.0)
        for expect_harvested in (1, 3, 4, 4):
            dst.poll_batch(1 if expect_harvested == 1 else 2)
            c = fabric.conservation_counts()
            assert c["delivered"] == c["harvested"] + c["in_flight"]
            assert dst.stat_harvested == expect_harvested

    def test_batch_harvest_counter_counts_productive_polls(self):
        fabric, clock = make_fabric()
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        dst.poll_batch(8)  # empty — not a batch harvest
        for _ in range(3):
            src.post_send((1, 0), {"kind": "eager"}, b"z")
        clock.advance(1.0)
        dst.poll_batch(2)
        dst.poll_batch(2)
        assert dst.stat_batch_harvests == 2
        assert dst.stat_empty_polls == 1

    def test_poll_is_unbounded_poll_batch(self):
        fabric, clock = make_fabric()
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        for _ in range(7):
            src.post_send((1, 0), {"kind": "eager"}, b"q")
        clock.advance(1.0)
        _, packets = dst.poll()
        assert len(packets) == 7


@pytest.mark.parametrize("mode", ["off", "on"])
class TestConservationBothModes:
    """The production endpoint (``on``) and the single-lock reference
    endpoint (``off``) must satisfy the exact same message-conservation
    invariant (delivered == harvested + in_flight) at every batched
    drain slice, with identical delivery order."""

    def _fabric(self, mode, nranks=3):
        clock = VirtualClock()
        cls = Fabric if mode == "on" else ReferenceFabric
        return cls(nranks, clock=clock, config=CFG), clock

    def test_conservation_over_batched_drain(self, mode):
        fabric, clock = self._fabric(mode)
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        for i in range(6):
            src.post_send((1, 0), {"kind": "eager", "i": i}, b"x")
        clock.advance(1.0)
        harvested = []
        while dst.pending:
            _, packets = dst.poll_batch(2)
            harvested.extend(p.header["i"] for p in packets)
            c = fabric.conservation_counts()
            assert c["delivered"] == c["harvested"] + c["in_flight"]
        assert harvested == list(range(6))
        assert dst.stat_delivered == 6
        assert dst.stat_harvested == 6
        assert dst.arrivals_pending == 0

    def test_multi_source_merge_in_arrival_order(self, mode):
        """Arrivals from several sources merge by (time, seq) exactly as
        in the reference's one locked heap — the per-source inboxes must
        not change observable delivery order."""
        fabric, clock = self._fabric(mode)
        a, b, dst = fabric.endpoint(0), fabric.endpoint(1), fabric.endpoint(2)
        a.post_send((2, 0), {"kind": "eager", "tag": "a0"}, b"x" * 10)
        b.post_send((2, 0), {"kind": "eager", "tag": "b0"}, b"y" * 10)
        a.post_send((2, 0), {"kind": "eager", "tag": "a1"}, b"x" * 10)
        clock.advance(1.0)
        _, packets = dst.poll()
        tags = [p.header["tag"] for p in packets]
        assert sorted(tags) == ["a0", "a1", "b0"]
        # Same-source FIFO always holds.
        assert tags.index("a0") < tags.index("a1")
        c = fabric.conservation_counts()
        assert c["delivered"] == c["harvested"] + c["in_flight"] == 3

    def test_pending_counts_ops_and_arrivals(self, mode):
        fabric, clock = self._fabric(mode)
        src = fabric.endpoint(0)
        src.post_send((1, 0), {"kind": "q"}, b"p")
        # One local completion pending at src, one arrival at dst.
        assert src.pending == 1
        assert fabric.endpoint(1).pending == 1
        assert fabric.total_pending() == 2
        clock.advance(1.0)
        src.poll()
        fabric.endpoint(1).poll()
        assert fabric.total_pending() == 0

    def test_immature_arrivals_stay_pending(self, mode):
        fabric, clock = self._fabric(mode)
        src, dst = fabric.endpoint(0), fabric.endpoint(1)
        src.post_send((1, 0), {"kind": "eager"}, b"abc")
        _, packets = dst.poll()  # wire delay not yet elapsed
        assert packets == []
        assert dst.arrivals_pending == 1  # delivered, not harvested
        clock.advance(1.0)
        _, packets = dst.poll()
        assert len(packets) == 1
        assert dst.arrivals_pending == 0


_STEP = st.one_of(
    st.tuples(
        st.just("post"),
        st.integers(0, 2),  # source rank; the destination is rank 3
        st.sampled_from([0, 8, 5000]),  # big-then-small => FIFO bump
    ),
    st.tuples(st.just("advance"), st.sampled_from([5e-7, 2e-6, 1e-5])),
    st.tuples(
        st.just("poll"),
        st.sampled_from([3, 3, 3, 0, 1, 2]),  # mostly the destination
        st.sampled_from([1, 2, None]),
    ),
)


class TestDifferentialAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_STEP, max_size=40))
    @example(  # small behind big on one link, sliced drain: the FIFO bump
        [("post", 0, 5000), ("post", 1, 8), ("post", 0, 0), ("advance", 1e-5)]
        + [("poll", 3, 1)] * 3
    )
    def test_production_matches_reference_endpoint(self, script):
        """Random post / advance / poll_batch(k) scripts drive the
        reference and production fabrics side by side: harvest order
        and every accounting view agree after every step."""
        ref_clock, prod_clock = VirtualClock(), VirtualClock()
        fabrics = [
            (ReferenceFabric(4, clock=ref_clock, config=CFG), ref_clock),
            (Fabric(4, clock=prod_clock, config=CFG), prod_clock),
        ]
        for i, step in enumerate(script):
            seen = []
            for fabric, clock in fabrics:
                out = None
                if step[0] == "post":
                    fabric.endpoint(step[1]).post_send(
                        (3, 0), {"kind": "eager", "i": i}, b"x" * step[2], context=i
                    )
                elif step[0] == "advance":
                    clock.advance(step[1])
                else:
                    ops, packets = fabric.endpoint(step[1]).poll_batch(step[2])
                    assert all(op.completed for op in ops)
                    out = (
                        [(op.op_id, op.nbytes, op.deadline, op.context) for op in ops],
                        [(p.src, p.seq, p.header, len(p.payload)) for p in packets],
                    )
                eps = [fabric.endpoint(r) for r in range(4)]
                seen.append(
                    (
                        out,
                        [ep.pending for ep in eps],
                        [ep.stat_delivered for ep in eps],
                        [ep.stat_harvested for ep in eps],
                        [ep.arrivals_pending for ep in eps],
                    )
                )
            assert seen[0] == seen[1], (i, step)


class TestConservationShmTransport:
    """The message-conservation invariant must also hold when packets
    cross a shared-memory segment between two fabrics instead of the
    in-process deliver path — same delivered == harvested + in_flight
    at every drain slice, same per-source FIFO."""

    @pytest.fixture
    def shm_pair(self):
        from repro.procmod.fabric import ProcFabric
        from repro.procmod.shmseg import ShmLink

        geom = dict(cell_size=256, num_cells=4, arena_bytes=16384)
        cfg = CFG.updated(
            procmod_cell_size=geom["cell_size"],
            procmod_num_cells=geom["num_cells"],
            procmod_arena_bytes=geom["arena_bytes"],
        )
        ab = ShmLink(create=True, **geom)
        ba = ShmLink(create=True, **geom)
        f0 = ProcFabric(2, 0, clock=VirtualClock(), config=cfg)
        f1 = ProcFabric(2, 1, clock=VirtualClock(), config=cfg)
        f0.attach_shm(1, ab, ShmLink(ba.name, **geom))
        f1.attach_shm(0, ba, ShmLink(ab.name, **geom))
        yield f0, f1
        f0.shutdown()
        f1.shutdown()
        ab.unlink()
        ba.unlink()

    def test_conservation_over_batched_drain(self, shm_pair):
        f0, f1 = shm_pair
        src, dst = f0.endpoint(0), f1.endpoint(1)
        for i in range(6):
            src.post_send((1, 0), {"kind": "eager", "i": i}, b"x")
        harvested = []
        for _ in range(100):
            f0.pump()  # flush any ring-backpressure backlog
            _, packets = dst.poll_batch(2)
            harvested.extend(p.header["i"] for p in packets)
            c = f1.conservation_counts()
            assert c["delivered"] == c["harvested"] + c["in_flight"]
            if len(harvested) == 6:
                break
        assert harvested == list(range(6))
        assert dst.stat_harvested == 6

    def test_wire_halves_balance_at_quiescence(self, shm_pair):
        """Frames on the segment = sender's wire_tx - receiver's
        wire_rx; once both sides are drained the difference is zero."""
        f0, f1 = shm_pair
        for i in range(9):
            f0.endpoint(0).post_send((1, 0), {"kind": "eager", "i": i}, b"q")
        for _ in range(100):
            f0.pump()
            f1.endpoint(1).poll()
            if f0.tx_quiescent() and f0.stat_wire_tx == f1.stat_wire_rx:
                break
        assert f0.stat_wire_tx == f1.stat_wire_rx == 9


class TestFabricValidation:
    def test_bad_rank(self):
        fabric, _ = make_fabric()
        from repro.errors import InvalidRankError

        with pytest.raises(InvalidRankError):
            fabric.endpoint(5)

    def test_bad_nranks(self):
        with pytest.raises(ValueError):
            Fabric(0)

    def test_endpoint_identity(self):
        fabric, _ = make_fabric()
        assert fabric.endpoint(0, 0) is fabric.endpoint(0, 0)
        assert fabric.endpoint(0, 1) is not fabric.endpoint(0, 0)

    def test_same_node(self):
        cfg = CFG.updated(ranks_per_node=2)
        fabric = Fabric(4, clock=VirtualClock(), config=cfg)
        assert fabric.same_node(0, 1)
        assert not fabric.same_node(1, 2)
        assert fabric.same_node(2, 3)

    def test_total_pending(self):
        fabric, clock = make_fabric()
        fabric.endpoint(0).post_send((1, 0), {"kind": "x"}, b"q")
        assert fabric.total_pending() == 2  # one completion + one arrival
        clock.advance(1.0)
        fabric.endpoint(0).poll()
        fabric.endpoint(1).poll()
        assert fabric.total_pending() == 0
