"""Compiled-schedule plan cache: cold planning vs cached replay.

Three measurements, recorded to ``BENCH_schedule_cache.json``:

* plan acquisition — per-call cost of producing a bound plan: running
  the recursive-doubling planner end to end (the cold path, and what
  the pre-IR implementation paid in per-call state-machine
  construction) vs one cache probe.  Must be >= 2x.
* end-to-end replay — repeated small-message ``user_allreduce`` on a
  virtual-clock world (wire is free, wall time is Python overhead),
  ``schedule_cache_enabled`` on vs off, with rank 0's hit/miss/build
  counters from introspect recorded alongside.  Per-call time here is
  dominated by posting/progressing the actual traffic, so this is a
  no-regression guard around the plan-path gain, not a 2x gate.
* cache-hit smoke — a second identical collective on a fresh world
  must be a cache hit (``stat_plan_hits > 0``, exactly one build), for
  the user-level ``user_allreduce`` and the native ``comm.iallreduce``
  alike (one plan cache serves both), and a
  ``schedule_cache_enabled=False`` world must end with the same bytes.

Run standalone with ``--smoke`` for a seconds-long CI sanity check
(reduced iterations, records no JSON).
"""

from repro.bench import (
    check_second_call_cache_hit,
    measure_plan_acquisition,
    measure_user_coll_cache,
    print_rows,
    record_bench_json,
)

MIN_PLAN_SPEEDUP = 2.0


def _measure(*, iters, calls, repeats):
    plan_path = measure_plan_acquisition(size=8, iters=iters, repeats=repeats)
    end_to_end = measure_user_coll_cache(
        nranks=8, count=16, calls=calls, repeats=repeats
    )
    hit_smoke = check_second_call_cache_hit(nranks=4)
    native = check_second_call_cache_hit(nranks=4, native=True)
    hit_smoke["native_stat_plan_hits"] = native["stat_plan_hits"]
    return plan_path, end_to_end, hit_smoke


def _report(plan_path, end_to_end, hit_smoke):
    print_rows(
        "Plan cache — per-call plan acquisition (8 ranks, allreduce)",
        [plan_path],
        expectation=">=2x: a cache probe beats re-running the planner",
    )
    rows = [
        {
            k: v
            for k, v in end_to_end.items()
            if k != "cache_stats"
        }
    ]
    print_rows(
        "Plan cache — repeated user_allreduce, cached vs cold planning",
        rows,
        expectation="cached replay skips per-call planning entirely",
    )
    print_rows(
        "Plan cache — second-call hit smoke",
        [hit_smoke],
        expectation="second identical collective hits the cache",
    )


def _check(plan_path, end_to_end, hit_smoke, *, min_plan_speedup):
    assert plan_path["speedup"] >= min_plan_speedup, (
        f"plan acquisition speedup {plan_path['speedup']:.2f}x below "
        f"{min_plan_speedup}x: {plan_path}"
    )
    stats = end_to_end["cache_stats"]
    assert stats["stat_plan_hits"] > 0, stats
    # End-to-end wall time is dominated by the traffic itself; the
    # cached path must simply never regress it beyond noise.
    assert end_to_end["speedup"] >= 0.85, (
        f"cached replay regressed end-to-end latency: {end_to_end}"
    )
    assert hit_smoke["stat_plan_hits"] > 0, hit_smoke
    assert hit_smoke["native_stat_plan_hits"] > 0, hit_smoke


def test_schedule_cache_speedup(benchmark):
    plan_path, end_to_end, hit_smoke = benchmark.pedantic(
        lambda: _measure(iters=2000, calls=40, repeats=5), rounds=1, iterations=1
    )
    _report(plan_path, end_to_end, hit_smoke)
    path = record_bench_json(
        "BENCH_schedule_cache.json",
        {
            "plan_acquisition": plan_path,
            "end_to_end": end_to_end,
            "second_call_hit": hit_smoke,
        },
    )
    print(f"recorded: {path}")
    _check(plan_path, end_to_end, hit_smoke, min_plan_speedup=MIN_PLAN_SPEEDUP)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced iterations; asserts the cache-hit smoke; no JSON",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        plan_path, end_to_end, hit_smoke = _measure(iters=400, calls=10, repeats=2)
        _report(plan_path, end_to_end, hit_smoke)
        _check(plan_path, end_to_end, hit_smoke, min_plan_speedup=1.5)
        print(
            f"smoke ok: plan path {plan_path['speedup']:.1f}x, end-to-end "
            f"{end_to_end['speedup']:.2f}x, second call hit "
            f"(user hits={hit_smoke['stat_plan_hits']}, "
            f"native hits={hit_smoke['native_stat_plan_hits']})"
        )
        return
    plan_path, end_to_end, hit_smoke = _measure(iters=2000, calls=40, repeats=5)
    _report(plan_path, end_to_end, hit_smoke)
    path = record_bench_json(
        "BENCH_schedule_cache.json",
        {
            "plan_acquisition": plan_path,
            "end_to_end": end_to_end,
            "second_call_hit": hit_smoke,
        },
    )
    print(f"recorded: {path}")
    _check(plan_path, end_to_end, hit_smoke, min_plan_speedup=MIN_PLAN_SPEEDUP)


if __name__ == "__main__":
    main()
