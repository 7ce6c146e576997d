"""Does the benchmark agree with itself, and with its declaration?

    python3 benchmarks/e2e/selfcheck.py [--runs N] [--seconds T] [--no-trace]

Static checks: the names ``run.py`` emits equal the names declared in
``BENCHMARK.json`` (which must equal ``spec.benchmark_json``), every
name matches ``[A-Za-z0-9_.-]+``, and every layer metric's "moves"
target is a declared end-to-end metric on a declared workload.

Dynamic checks: two sets of runs of the same code, each ``N`` runs per
workload with seeds ``0..N-1`` (the acceptance procedure uses N = 10).
For every (workload, end-to-end metric) it prints both medians, how much
worse the second is, each set's quartile spread and the bound, and fails
if the second median is worse than the first by more than the bound, or
(N >= 4) a spread other than ``setup_s``'s exceeds the bound.  One
traced run per set must give identical exact counts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

import common
import run
import spec

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def static_checks() -> list[str]:
    problems = []
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    expected = spec.benchmark_json(
        declared.get("command"), declared.get("paths"), run.RUN_SECONDS
    )
    if declared != expected:
        for key in expected:
            if declared.get(key) != expected[key]:
                problems.append(f"BENCHMARK.json[{key!r}] differs from spec.py")
    e2e = {m["name"] for m in spec.END_TO_END}
    names = list(spec.WORKLOADS) + [m["name"] for m in spec.END_TO_END + spec.PER_LAYER]
    for name in names:
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for m in spec.PER_LAYER:
        for target, workloads in m["moves"]:
            if target not in e2e:
                problems.append(f"{m['name']} moves unknown metric {target}")
            for w in workloads:
                if w not in spec.WORKLOADS:
                    problems.append(f"{m['name']} moves {target} on unknown workload {w}")
    for name in spec.EXACT:
        if name not in {m["name"] for m in spec.PER_LAYER}:
            problems.append(f"exact count {name} is not a declared layer metric")
    return problems


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` is ``second`` worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(runs, seconds, trace):
    """{workload: {"e2e": {metric: [values]}, "exact": {name: value}}}"""
    out = {}
    for w in spec.WORKLOADS:
        values = {m["name"]: [] for m in spec.END_TO_END}
        for seed in range(runs):
            result = run.run_workload(w, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"selfcheck: {w} seed {seed}: {result['failed']} ops failed")
            emitted = set(result["metrics"])
            if emitted != set(values):
                raise SystemExit(f"selfcheck: {w} emitted {sorted(emitted ^ set(values))}")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        exact = {}
        if trace:
            result = run.run_workload(w, 0, seconds, 1)
            declared = {m["name"] for m in spec.PER_LAYER}
            if set(result["metrics"]) != declared:
                raise SystemExit(f"selfcheck: {w} traced names differ from spec.py")
            exact = {n: result["metrics"][n]["value"] for n in spec.EXACT}
        out[w] = {"e2e": values, "exact": exact}
        print(f"  {w}: done", flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args(argv)
    common.use_checkout_source()

    problems = static_checks()
    run.print_env(common.environment(0, args.seconds))
    sets = []
    for i in (1, 2):
        print(f"set {i}: {args.runs} run(s) per workload", flush=True)
        sets.append(run_set(args.runs, args.seconds, not args.no_trace))

    print(
        f"\n{'workload':<18}{'metric':<14}{'median 1':>12}{'median 2':>12}"
        f"{'worse by':>10}{'spread 1':>10}{'spread 2':>10}{'bound':>7}"
    )
    for w in spec.WORKLOADS:
        for m in spec.END_TO_END:
            name, bound = m["name"], m["bound"]
            a, b = (s[w]["e2e"][name] for s in sets)
            worse = worsening(statistics.median(a), statistics.median(b), m["better"])
            spreads = [spread(v) if len(v) >= 4 else None for v in (a, b)]
            flag = ""
            if worse > bound:
                flag = "  <-- medians disagree"
                problems.append(f"{w}/{name}: second median worse by {worse:.1%}")
            if name != "setup_s" and any(s is not None and s > bound for s in spreads):
                flag = "  <-- spread above bound"
                problems.append(f"{w}/{name}: spread {spreads} above {bound}")
            cells = "".join(
                f"{'-' if s is None else format(s, '.1%'):>10}" for s in spreads
            )
            print(
                f"{w:<18}{name:<14}{statistics.median(a):>12.5g}"
                f"{statistics.median(b):>12.5g}{worse:>10.1%}{cells}{bound:>7.2f}{flag}"
            )
        for name in spec.EXACT if not args.no_trace else ():
            a, b = (s[w]["exact"][name] for s in sets)
            if a != b:
                problems.append(f"{w}/{name}: exact count {a} != {b}")
                print(f"{w:<18}{name}: {a} != {b}  <-- exact count differs")
    if problems:
        print("\nselfcheck FAILED:")
        for p in problems:
            print("  " + p)
        return 1
    print("\nselfcheck ok: names agree, medians within bounds, exact counts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
