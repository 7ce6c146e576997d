"""Helpers shared by the benchmark's own files: percentiles, the
environment record, span budgets and snapshot-counter deltas.

Nothing here comes from ``repro.bench``; the benchmark carries its own
copies so a change to the repository's bench harness cannot change what
this instrument reads.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on ``sys.path``; refuse to run
    against any other copy of ``repro``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"e2e: no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def summarize(samples_us) -> dict:
    """p50 / p90 / p99 and the sample count of one phase."""
    arr = np.asarray(samples_us, dtype="f8")
    p50, p90, p99 = np.percentile(arr, [50, 90, 99])
    return {"n": int(arr.size), "p50": float(p50), "p90": float(p90), "p99": float(p99)}


def environment(seed: int, seconds: float) -> dict:
    """What a reader needs to judge whether two results are comparable."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "gil_enabled": bool(gil),
        "nproc": nproc,
        "load1_at_start": round(load1, 3),
        "noisy": load1 > 0.5 * nproc,
        "seed": seed,
        "window_seconds": seconds,
    }


# ----------------------------------------------------------------------
# Spans.  A span is (name, start, end, parent, op): parent is the index
# of the causing span in the same list (-1 for an op's root) and op the
# operation both belong to.
# ----------------------------------------------------------------------
def budget(spans) -> dict:
    """Self time per span name, as mean microseconds per op.

    A span's self time is its duration minus the part its direct
    children cover, so the rows sum to the mean root-span duration.
    """
    self_time = [end - start for (_n, start, end, _p, _o) in spans]
    roots = 0
    root_total = 0.0
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            self_time[parent] -= end - start
        else:
            roots += 1
            root_total += end - start
    rows: dict[str, float] = {}
    for (name, _s, _e, parent, _o), t in zip(spans, self_time):
        key = "other" if parent < 0 else name
        rows[key] = rows.get(key, 0.0) + t
    scale = 1e6 / max(roots, 1)
    return {
        "ops": roots,
        "root_us": root_total * scale,
        "rows_us": {k: v * scale for k, v in rows.items()},
    }


def spans_to_json(spans, max_ops: int) -> list[dict]:
    """The first ``max_ops`` operations' spans as dicts for the file."""
    out = []
    for name, start, end, parent, op in spans:
        if op >= max_ops:
            break
        out.append({"name": name, "start": start, "end": end, "parent": parent, "op": op})
    return out


# ----------------------------------------------------------------------
# progress_snapshot counters.
# ----------------------------------------------------------------------
COUNTERS = (
    "engine_passes", "subsystem_polls", "skipped_polls", "posted", "polls",
    "empty_polls", "batch_harvests", "copy_bytes", "shmem_copy_bytes",
    "pool_hits", "pool_misses", "plan_hits", "plan_misses", "retransmits",
)


def read_counters(snapshot_fn, procs) -> dict:
    """Sum the counters the layer metrics use over ``procs``."""
    c = dict.fromkeys(COUNTERS, 0)
    for proc in procs:
        s = snapshot_fn(proc)
        c["engine_passes"] += s.engine_passes
        c["subsystem_polls"] += s.subsystem_polls
        c["skipped_polls"] += s.skipped_polls
        for ep in s.endpoints:
            c["posted"] += ep["posted"]
            c["polls"] += ep["polls"]
            c["empty_polls"] += ep["empty_polls"]
            c["batch_harvests"] += ep["batch_harvests"]
        mem = s.mem_pool or {}
        c["copy_bytes"] += mem.get("copy_bytes_total", 0)
        c["shmem_copy_bytes"] += mem.get("shmem_copy_bytes", 0)
        c["pool_hits"] += mem.get("hits", 0)
        c["pool_misses"] += mem.get("misses", 0)
        cache = s.schedule_cache or {}
        c["plan_hits"] += cache.get("stat_plan_hits", 0)
        c["plan_misses"] += cache.get("stat_plan_misses", 0)
        c["retransmits"] += (s.reliability or {}).get("retransmits", 0)
    return c


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def add_counts(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def share(part: float, rest: float) -> float:
    total = part + rest
    return part / total if total else 0.0


def conservation_ok(counts: dict) -> bool:
    """The dsched message-conservation identities at quiescence."""
    scheduled = counts["posted"] - counts["dropped"] + counts["duplicated"]
    return (
        scheduled == counts["delivered"]
        and counts["delivered"] == counts["harvested"] + counts["in_flight"]
        and counts["in_flight"] == 0
    )
