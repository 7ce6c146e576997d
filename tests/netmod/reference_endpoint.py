"""Single-lock two-heap reference endpoint: the executable specification
the production :class:`repro.netmod.endpoint.Endpoint` is differentially
tested against (same cost model, same per-link FIFO adjustment, every
mutation under one lock, counters maintained directly).  Test oracle
only — nothing under ``src/`` can reach it."""

import heapq
import threading

from repro.netmod.endpoint import NicOp
from repro.netmod.fabric import Fabric
from repro.netmod.packet import Packet


class ReferenceEndpoint:
    def __init__(self, address, fabric):
        self.address, self._fabric, self._lock = address, fabric, threading.Lock()
        self._inflight, self._arrivals, self._last_arrival = [], [], {}
        self.stat_posted = self.stat_delivered = self.stat_harvested = 0

    def post_send(self, dst, header, payload=b"", *, context=None):
        cfg, now, data = self._fabric.config, self._fabric.clock.now(), bytes(payload)
        op_id, wire = self._fabric.next_op_id(), len(data) * cfg.nic_beta
        op = NicOp(op_id, len(data), now + cfg.nic_alpha + wire, context)
        with self._lock:
            arrival = now + cfg.nic_wire_delay + wire
            prev = self._last_arrival.get(dst)
            if prev is not None and arrival <= prev:
                arrival = prev + 1e-12
            self._last_arrival[dst] = arrival
            heapq.heappush(self._inflight, op)
            self.stat_posted += 1
        packet = Packet(self.address, dst, dict(header), data, seq=op_id)
        self._fabric.deliver(packet, arrival)
        return op

    def enqueue_arrival(self, packet, arrival_time):
        with self._lock:
            heapq.heappush(self._arrivals, (arrival_time, packet.seq, packet))
            self.stat_delivered += 1

    def poll(self):
        return self.poll_batch(None)

    def poll_batch(self, max_k):
        now, ops, packets = self._fabric.clock.now(), [], []
        with self._lock:
            while self._inflight and self._inflight[0].deadline <= now and len(ops) != max_k:
                ops.append(heapq.heappop(self._inflight))
                ops[-1].completed = True
            while self._arrivals and self._arrivals[0][0] <= now and len(packets) != max_k:
                packets.append(heapq.heappop(self._arrivals)[2])
            self.stat_harvested += len(packets)
        return ops, packets

    @property
    def arrivals_pending(self):
        with self._lock:
            return len(self._arrivals)

    @property
    def pending(self):
        with self._lock:
            return len(self._inflight) + len(self._arrivals)


class ReferenceFabric(Fabric):
    def _make_endpoint(self, key):
        return ReferenceEndpoint(key, self)
