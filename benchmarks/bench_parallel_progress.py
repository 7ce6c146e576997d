"""Sharded parallel progress: pool scaling and single-stream latency.

Measurements, recorded to ``BENCH_parallel_progress.json``:

* pool scaling — aggregate harvested-completions/sec over 8 busy
  streams as the ProgressPool worker count sweeps 1 -> 4.  Each
  stream's poll cost is a GIL-releasing sleep (a NIC poll / completion
  harvest), so workers genuinely overlap: one worker serializes the 8
  polls per round, four workers run their 2-stream shards concurrently.
* single-stream idle latency — the PR-1 registry idle pass measured
  with and without the stream registered in a pool, in the same run, so
  the comparison against the ``BENCH_progress_fastpath.json`` baseline
  is machine-independent.  The pool must not tax the unsharded case.
* the recorded ``runtime`` block says which interpreter produced the
  numbers: CI runs this file on a GIL 3.11 leg AND a free-threaded
  3.13t (``PYTHON_GIL=0``) leg, and the gil-on vs gil-off comparison is
  made across those two JSON artifacts.

Run standalone with ``--smoke`` for a seconds-long CI sanity sweep
(reduced sizes, asserts the same shapes, writes no JSON).
"""

from repro.bench import (
    measure_pool_idle_latency,
    measure_pool_scaling,
    print_rows,
    record_bench_json,
    runtime_info,
)

WORKERS = [1, 2, 4]


def _check(scaling_rows, idle, *, min_scaling, max_ratio):
    rate = {row["workers"]: row["completions_per_s"] for row in scaling_rows}
    scaling = rate[max(rate)] / rate[1]
    assert scaling >= min_scaling, (
        f"pool scaling {scaling:.2f}x below {min_scaling}x: {scaling_rows}"
    )
    assert idle["ratio"] <= max_ratio, (
        f"pool-registered idle pass {idle['ratio']:.3f}x the "
        f"fastpath reference (limit {max_ratio}): {idle}"
    )


def _run(*, smoke, min_scaling, max_ratio):
    if smoke:
        scaling = measure_pool_scaling(
            [1, 4], num_streams=8, poll_cost=100e-6, duration=0.2
        )
        idle = measure_pool_idle_latency(passes=4_000, repeats=3)
    else:
        scaling = measure_pool_scaling(WORKERS)
        idle = measure_pool_idle_latency()
    results = {
        "pool_scaling": scaling,
        "single_stream_idle": idle,
        "runtime": runtime_info(),
    }
    print_rows(
        "Parallel progress — completions/sec vs pool workers",
        scaling,
        expectation=">=2x aggregate throughput from 1 to 4 workers",
    )
    print_rows(
        "Parallel progress — single-stream idle pass latency",
        [idle],
        expectation="pool registration leaves the unsharded fast path "
        "within 10% of the registry baseline",
    )
    _check(scaling, idle, min_scaling=min_scaling, max_ratio=max_ratio)
    return results


def test_pool_scaling_and_single_stream_latency(benchmark):
    results = benchmark.pedantic(
        lambda: _run(smoke=False, min_scaling=2.0, max_ratio=1.10),
        rounds=1,
        iterations=1,
    )
    path = record_bench_json("BENCH_parallel_progress.json", results, merge=True)
    print(f"recorded: {path}")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep with loose thresholds; records no JSON",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        results = _run(smoke=True, min_scaling=1.5, max_ratio=1.25)
        print(
            f"smoke ok on {results['runtime']['python']} "
            f"(gil_enabled={results['runtime']['gil_enabled']})"
        )
        return
    results = _run(smoke=False, min_scaling=2.0, max_ratio=1.10)
    path = record_bench_json("BENCH_parallel_progress.json", results, merge=True)
    print(f"recorded: {path}")


if __name__ == "__main__":
    main()
