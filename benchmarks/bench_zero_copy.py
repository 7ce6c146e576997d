"""Zero-copy payload paths: leased buffer pool on/off ablation.

Three measurements, recorded to ``BENCH_zero_copy.json``:

* effective bandwidth — one-way transfer bandwidth over a size sweep
  on both transports, pool on vs off.  The virtual clock prices the
  wire; library staging copies are additionally charged a modelled
  memcpy cost (each copied byte reads and writes memory once at the
  wire's 10 GB/s), so the copies the pool removes show up as
  bandwidth.  Large messages (>= 64 KiB) ride the zero-copy
  rendezvous/pipeline paths and must gain >= 2x.  On shmem a large
  message is one descriptor cell either way, so pool-off pays exactly
  its one snapshot copy (no per-cell slices, no join) and pool-on
  none: the gate there is those exact copy counts plus the speedup
  the cost model then predicts (~8.7x at 64 KiB, ~10.8x at 1 MiB).
* small-message rate — wall-clock eager messages/sec.  The pooled
  eager path trades a ``bytes()`` snapshot for a lease acquire +
  slab copy; it must not regress the message rate by more than 5%.
* idle-pass latency — the pool lives on the payload path only; an
  idle progress pass must not pay for it.

Run standalone with ``--smoke`` for a seconds-long CI sanity sweep
(reduced sizes, loose thresholds, writes no JSON).
"""

from repro.bench import (
    measure_small_message_rate,
    measure_zero_copy_bandwidth,
    measure_zero_copy_idle_pass,
    print_rows,
    record_bench_json,
)
from repro.config import DEFAULT_CONFIG

SIZES = [4096, 65536, 262144, 1048576]
ZC_FLOOR = 65536  # sizes from here up must show the >= 2x gain


def _shmem_model_speedup(nbytes):
    """Pool-off/pool-on effective-bandwidth ratio the model predicts
    for one on-node descriptor message: the wire is two cells
    (descriptor + rdone) plus one pass over the bytes at ``shmem_beta``;
    pool-off adds one snapshot copy at the bench's memcpy price."""
    cfg = DEFAULT_CONFIG
    wire = 2 * cfg.shmem_alpha + nbytes * cfg.shmem_beta
    return 1.0 + nbytes * 2.0 * cfg.nic_beta / wire


def _check(netmod_rows, shmem_rows, small, idle, *, min_speedup, min_rate, max_idle):
    for row in shmem_rows:
        if row["nbytes"] < ZC_FLOOR:
            continue
        assert (row["copies_per_msg_on"], row["copies_per_msg_off"]) == (0.0, 1.0), (
            f"shmem descriptor path must copy 0x (pool on) / 1x (pool off): {row}"
        )
        model = _shmem_model_speedup(row["nbytes"])
        assert row["speedup"] >= 0.95 * model, (
            f"shmem speedup {row['speedup']:.2f}x below the modelled "
            f"{model:.2f}x: {row}"
        )
    large = [
        row
        for row in netmod_rows + shmem_rows
        if row["nbytes"] >= ZC_FLOOR
    ]
    worst = min(row["speedup"] for row in large)
    assert worst >= min_speedup, (
        f"zero-copy speedup {worst:.2f}x below {min_speedup}x for >= "
        f"{ZC_FLOOR} B payloads: {large}"
    )
    assert small["ratio"] >= min_rate, (
        f"small-message rate regressed to {small['ratio']:.3f}x "
        f"(floor {min_rate}): {small}"
    )
    assert idle["ratio"] <= max_idle, (
        f"idle pass with pool on is {idle['ratio']:.3f}x the pool-off "
        f"pass (limit {max_idle}): {idle}"
    )
    return worst


def _report(netmod_rows, shmem_rows, small, idle):
    print_rows(
        "Zero copy — effective bandwidth, pool on vs off (netmod)",
        netmod_rows,
        expectation=">=2x effective bandwidth for >=64 KiB payloads",
    )
    print_rows(
        "Zero copy — effective bandwidth, pool on vs off (shmem)",
        shmem_rows,
        expectation="one descriptor cell: 0 copies pool-on, 1 snapshot pool-off",
    )
    print_rows(
        "Zero copy — small-message rate guard",
        [small],
        expectation="pooled eager path within 5% of the copying path",
    )
    print_rows(
        "Zero copy — idle-pass latency guard",
        [idle],
        expectation="an idle progress pass never touches the pool",
    )


def _measure(*, msgs, passes):
    netmod_rows = measure_zero_copy_bandwidth(SIZES, use_shmem=False)
    shmem_rows = measure_zero_copy_bandwidth(SIZES, use_shmem=True)
    small = measure_small_message_rate(msgs=msgs)
    idle = measure_zero_copy_idle_pass(passes=passes)
    return netmod_rows, shmem_rows, small, idle


def test_zero_copy_bandwidth_and_guards(benchmark):
    netmod_rows, shmem_rows, small, idle = benchmark.pedantic(
        lambda: _measure(msgs=2000, passes=20_000), rounds=1, iterations=1
    )
    _report(netmod_rows, shmem_rows, small, idle)
    path = record_bench_json(
        "BENCH_zero_copy.json",
        {
            "bandwidth_netmod": netmod_rows,
            "bandwidth_shmem": shmem_rows,
            "small_message": small,
            "idle_pass": idle,
            "model": {
                "memcpy_beta_s_per_byte": 2.0e-10,
                "note": "copied bytes charged one memory read + one "
                "write at the wire's 10 GB/s (nic_beta)",
            },
        },
    )
    print(f"recorded: {path}")
    _check(
        netmod_rows, shmem_rows, small, idle,
        min_speedup=2.0, min_rate=0.90, max_idle=1.10,
    )


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
        netmod_rows, shmem_rows, small, idle = _measure(msgs=400, passes=4000)
        _report(netmod_rows, shmem_rows, small, idle)
        worst = _check(
            netmod_rows, shmem_rows, small, idle,
            min_speedup=1.8, min_rate=0.75, max_idle=1.35,
        )
        print(
            f"smoke ok: {worst:.2f}x worst large-payload speedup, "
            f"rate ratio {small['ratio']:.3f}, idle ratio {idle['ratio']:.3f}"
        )
        return
    netmod_rows, shmem_rows, small, idle = _measure(msgs=2000, passes=20_000)
    _report(netmod_rows, shmem_rows, small, idle)
    path = record_bench_json(
        "BENCH_zero_copy.json",
        {
            "bandwidth_netmod": netmod_rows,
            "bandwidth_shmem": shmem_rows,
            "small_message": small,
            "idle_pass": idle,
            "model": {
                "memcpy_beta_s_per_byte": 2.0e-10,
                "note": "copied bytes charged one memory read + one "
                "write at the wire's 10 GB/s (nic_beta)",
            },
        },
    )
    print(f"recorded: {path}")
    _check(
        netmod_rows, shmem_rows, small, idle,
        min_speedup=2.0, min_rate=0.90, max_idle=1.10,
    )


if __name__ == "__main__":
    main()
