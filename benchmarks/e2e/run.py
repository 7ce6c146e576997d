"""End-to-end benchmark with a layer budget.

    python3 benchmarks/e2e/run.py [--seed S] [--seconds T] [--repeat N] [--trace]
        run all eight workloads, verify every result and print every
        metric by name with its unit (``--trace`` adds the traced runs:
        span files, the self-time budget tables, the layer metrics)

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
        one run of one workload, as the driver calls it; the last line
        of standard output is the JSON result

    python3 benchmarks/e2e/run.py --selftest-corrupt
        inject a wrong byte / operand into every workload and check that
        it is counted as a failed op

Each workload runs in a fresh worker process with a hard timeout, so a
deadlocked world is a failed run, never a hang.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import common
import spec

RUN_SECONDS = 9  # what BENCHMARK.json's run_seconds says
SETUPS = 5  # set-ups per untraced run; setup_s is their median
WORKER_TIMEOUT_EXTRA = 60.0
#: span names that are layer metrics (a pass that progressed some other
#: subsystem still gets its own budget row)
SPAN_ROWS = (
    "post", "wait", "progress_coll", "progress_async", "progress_netmod",
    "progress_idle", "idle_advance", "other",
)


class WorkloadFailed(RuntimeError):
    """The worker died, timed out or printed no record."""


# ----------------------------------------------------------------------
# Worker side: one workload, in this process.
# ----------------------------------------------------------------------
def _jsonable(obj):
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def worker_main(args) -> int:
    t0 = time.perf_counter()
    common.use_checkout_source()
    import repro
    import workloads

    if not os.path.abspath(repro.__file__).startswith(common.SRC + os.sep):
        raise SystemExit(f"e2e: imported repro from {repro.__file__}, not {common.SRC}")
    import_s = time.perf_counter() - t0
    plan = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "setup_only": args.setup_only,
        "corrupt": args.selftest_corrupt,
    }
    record = workloads.RUNNERS[args.workload](plan)
    record["import_s"] = import_s
    record["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if plan["trace"] and not plan["setup_only"]:
        import probes

        record["probes"], record["probe_reasons"] = probes.run_all()
    sys.stdout.write(json.dumps(record, default=_jsonable) + "\n")
    return 0


# ----------------------------------------------------------------------
# Harness side.
# ----------------------------------------------------------------------
def spawn_worker(workload, seed, seconds, trace, *, setup_only=False, corrupt=False):
    """Run one worker to completion; returns its record with
    ``setup_s`` (worker start to first timed op) filled in."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if corrupt:
        cmd.append("--selftest-corrupt")
    started = time.time()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_TIMEOUT_EXTRA)
    except subprocess.TimeoutExpired:
        raise WorkloadFailed(
            f"{workload}: no result after {seconds + WORKER_TIMEOUT_EXTRA:.0f} s"
        ) from None
    finally:
        # the worker leads its own session: take down any rank process
        # it left behind, then reap it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise WorkloadFailed(f"{workload}: worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise WorkloadFailed(f"{workload}: worker printed no record") from None
    record["setup_s"] = record["setup_wall"] - started
    return record


def _layer_metrics(record) -> dict:
    """Every per-layer metric of one traced worker record."""
    m: dict = {}
    phases = record["phases"]
    totals = dict.fromkeys(common.COUNTERS, 0)
    for ph in spec.PHASES:
        p = phases[ph]
        rows = p["budget"]["rows_us"]
        unit = p["budget"]["unit_ops"]
        for row in SPAN_ROWS:
            m[f"span.{row}_us_{ph}"] = rows.get(row, 0.0) / unit
        m[f"tail.{ph}_us_p90"] = p["untraced"]["p90"]
        m[f"tail.{ph}_us_p99"] = p["untraced"]["p99"]
        c, n = p["counters"], p["count_ops"]
        totals = common.add_counts(totals, c)
        m[f"core.passes_per_op_{ph}"] = c["engine_passes"] / n
        m[f"netmod.posted_per_op_{ph}"] = c["posted"] / n
        m[f"netmod.packets_per_harvest_{ph}"] = (
            c["posted"] / c["batch_harvests"] if c["batch_harvests"] else 0.0
        )
        m[f"p2p.copy_bytes_per_op_{ph}"] = c["copy_bytes"] / n
        sim = p["extra"]
        timed = sim.get("ops", 1) - 1
        m[f"sim.events_per_op_{ph}"] = sim["events"] / timed if "events" in sim else 0
        m[f"sim.us_per_event_{ph}"] = (
            sim["wall"] / sim["events"] * 1e6 if "events" in sim else 0.0
        )
    large = phases["large"]
    m["shmem.copy_bytes_per_op_large"] = (
        large["counters"]["shmem_copy_bytes"] / large["count_ops"]
    )
    m["core.skipped_poll_share"] = common.share(
        totals["skipped_polls"], totals["subsystem_polls"]
    )
    m["netmod.empty_poll_share"] = common.share(
        totals["empty_polls"], totals["polls"] - totals["empty_polls"]
    )
    m["mem.pool_hit_share"] = common.share(totals["pool_hits"], totals["pool_misses"])
    m["exts.plan_hit_share"] = common.share(totals["plan_hits"], totals["plan_misses"])
    m["p2p.retransmits"] = totals["retransmits"]
    m["sim.sweeps"] = sum(p["extra"].get("sweeps", 0) for p in phases.values())
    m["trace.overhead_ratio"] = (
        phases["small"]["traced"]["p50"] / phases["small"]["untraced"]["p50"]
    )
    m.update(record["probes"])
    m["runtime.import_s"] = record["import_s"]
    return m


def run_workload(workload, seed, seconds, trace, *, setups=SETUPS) -> dict:
    """One run: the driver's unit.  Returns the full result (environment,
    metrics with units, sample counts, budget tables when tracing)."""
    env = common.environment(seed, seconds)
    setup_times = []
    if not trace:
        for _ in range(setups - 1):
            setup_times.append(
                spawn_worker(workload, seed, seconds, trace, setup_only=True)["setup_s"]
            )
    record = spawn_worker(workload, seed, seconds, trace)
    setup_times.append(record["setup_s"])
    phases = record["phases"]
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    if not record["conserved"]:
        failed = attempted  # an unbalanced world: nothing it said counts
    result = {
        "workload": workload,
        "trace": bool(trace),
        "env": env,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": {ph: phases[ph]["untraced"]["n"] for ph in spec.PHASES},
    }
    if trace:
        values = _layer_metrics(record)
        declared = spec.PER_LAYER
        result["budget"] = {ph: phases[ph]["budget"] for ph in spec.PHASES}
        result["probe_reasons"] = record["probe_reasons"]
        result["spans"] = {ph: phases[ph]["spans"] for ph in spec.PHASES}
    else:
        values = {f"{ph}_us_p50": phases[ph]["untraced"]["p50"] for ph in spec.PHASES}
        values["peak_rss_mb"] = record["peak_rss_kb"] / 1024
        values["setup_s"] = statistics.median(setup_times)
        declared = spec.END_TO_END
        result["setup_samples"] = len(setup_times)
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    return result


# ----------------------------------------------------------------------
# Printing.
# ----------------------------------------------------------------------
def print_env(env) -> None:
    print(
        f"env: rev={env['git_rev']} python={env['python']} gil={env['gil_enabled']} "
        f"nproc={env['nproc']} load1={env['load1_at_start']} seed={env['seed']} "
        f"window={env['window_seconds']}s"
    )
    if env["noisy"]:
        print(
            f"WARNING: load average {env['load1_at_start']} is above half of "
            f"{env['nproc']} cores; this run is marked noisy"
        )


def print_result(result) -> None:
    w = result["workload"]
    scale = spec.WORKLOADS[w]["scale"]
    print(f"\n== {w} ({'traced' if result['trace'] else 'untraced'}) ==")
    print(f"   op: {spec.WORKLOADS[w]['op']}")
    print(
        f"   attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )
    for name, m in result["metrics"].items():
        note = ""
        for ph, what in zip(spec.PHASES, scale):
            if name.startswith(ph + "_us") or name.endswith(f".{ph}_us_p90"):
                note = f"  [{what}; n={result['samples'][ph]}]"
        if name == "setup_s":
            note = f"  [median of {result['setup_samples']} set-ups]"
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {name:<36} {value:>12} {m['unit']}{note}")
    for name, why in result.get("probe_reasons", {}).items():
        print(f"   {name}: null because {why}")
    for ph, b in result.get("budget", {}).items():
        unit = b["unit_ops"]
        print(f"   budget, {ph} phase: mean us per op over {b['ops']} traced root spans")
        total = 0.0
        for row, us in sorted(b["rows_us"].items(), key=lambda kv: -kv[1]):
            total += us / unit
            print(f"      {row:<18} {us / unit:>12.3f}")
        print(f"      {'sum of rows':<18} {total:>12.3f}")
        print(f"      {'root span':<18} {b['root_us'] / unit:>12.3f}")


def driver_line(result) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


def save_result(result) -> None:
    """Write the full result, and a traced run's spans, under ``out/``."""
    os.makedirs(common.OUT_DIR, exist_ok=True)
    w = result["workload"]
    spans = result.pop("spans", None)
    if spans is not None:
        with open(os.path.join(common.OUT_DIR, f"trace-{w}.json"), "w") as fh:
            json.dump({"workload": w, "env": result["env"], "spans": spans}, fh)
    name = f"result-{w}-trace{int(result['trace'])}.json"
    with open(os.path.join(common.OUT_DIR, name), "w") as fh:
        json.dump(result, fh, indent=1)


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------
def driver_main(args) -> int:
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except WorkloadFailed as exc:
        print(f"e2e: FAILED {exc}", file=sys.stderr)
        return 1
    print_env(result["env"])
    print_result(result)
    save_result(result)
    print(driver_line(result))
    return 0


def full_set(args) -> int:
    status = 0
    started = time.time()
    print_env(common.environment(args.seed, args.seconds))
    for workload in spec.WORKLOADS:
        for rep in range(args.repeat):
            for trace in (0, 1) if args.trace else (0,):
                try:
                    result = run_workload(workload, args.seed + rep, args.seconds, trace)
                except WorkloadFailed as exc:
                    print(f"\n== {workload} == FAILED: {exc}")
                    status = 1
                    continue
                print_result(result)
                save_result(result)
                if not result["correct"]:
                    status = 1
    print(f"\nwhole set: {time.time() - started:.1f} s wall, status {status}")
    return status


def selftest_corrupt(args) -> int:
    """Every workload must count an injected wrong value as failed ops."""
    status = 0
    for workload in spec.WORKLOADS:
        try:
            record = spawn_worker(workload, args.seed, 0.9, 0, corrupt=True)
        except WorkloadFailed as exc:
            print(f"{workload:<18} worker failed: {exc}")
            status = 1
            continue
        failed = sum(p["failed"] for p in record["phases"].values())
        attempted = sum(p["attempted"] for p in record["phases"].values())
        verdict = "detected" if failed else "IGNORED"
        print(f"{workload:<18} {failed} of {attempted} ops failed: {verdict}")
        if not failed:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--selftest-corrupt", action="store_true")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    common.use_checkout_source()
    if args.worker:
        return worker_main(args)
    if args.selftest_corrupt:
        return selftest_corrupt(args)
    if args.workload:
        return driver_main(args)
    return full_set(args)


if __name__ == "__main__":
    sys.exit(main())
