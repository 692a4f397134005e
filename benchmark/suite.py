#!/usr/bin/env python3
"""Runs the benchmark's workloads as a suite and checks its repeatability.

Run from the repository root.  Everything it needs to know -- the command,
the workloads, the metrics and their bounds -- it reads from BENCHMARK.json,
and every workload runs in a fresh process of that command, one at a time.

  python3 benchmark/suite.py                  five workloads, tracing off
  python3 benchmark/suite.py --traced         the per-layer metrics
  python3 benchmark/suite.py --selfcheck      two passes back to back, compared
  python3 benchmark/suite.py --spread         ten seeds per workload, twice
  ... --workload NAME   only that workload (repeatable)
  ... --seed N          another seed (default 7)
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

SAMPLES_LINE = re.compile(
    r"^(\S+)\s+\S+\s+median (\S+)\s+q1 (\S+)\s+q3 (\S+)\s+samples (\d+)$"
)
# Passes of `--spread`: the acceptance check runs its ten seeds twice.
SPREAD_SETS = 2
# Its seeds.  On 14, 17 and 20 (and 3 seeds in 10 overall, but none of 1-10)
# `RandomCrashes` crashes a node before its rumor is out, which more than
# doubled `checkpoint_dense`'s time before the workload fixed that choice.
SPREAD_SEEDS = range(11, 21)


def run_once(spec, workload, seed, trace):
    """One run of the command; returns its result object and sample lines."""
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload}: exit code {done.returncode} and no result line")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    result["samples"] = {
        m.group(1): {"median": float(m.group(2)), "q1": float(m.group(3)),
                     "q3": float(m.group(4)), "n": int(m.group(5))}
        for m in map(SAMPLES_LINE.match, lines) if m
    }
    return result


def ok(result):
    return result["exit_code"] == 0 and result["correct"] and result["failed"] == 0


def worsening(metric, first, second):
    """By what share of `first` the value `second` is worse."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def spread(values):
    """Inter-quartile range as a share of the median, as the acceptance check takes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def suite(spec, workloads, seed, trace):
    """One pass over the workloads; prints a table, returns the results."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    results = {w: run_once(spec, w, seed, trace) for w in workloads}
    width = max(len(m["name"]) for m in metrics)
    print(f"{'metric':<{width}}  {'unit':<9}  " + "  ".join(f"{w:>16}" for w in workloads))
    for m in metrics:
        cells = []
        for w in workloads:
            cell = f"{results[w]['metrics'][m['name']]['value']:.6g}"
            quartiles = results[w]["samples"].get(m["name"])
            if quartiles:
                cell += f" [{quartiles['q1']:.3g}..{quartiles['q3']:.3g}]/{quartiles['n']}"
            cells.append(f"{cell:>16}")
        print(f"{m['name']:<{width}}  {m['unit']:<9}  " + "  ".join(cells))
    print(f"{'operations':<{width}}  {'ok/tried':<9}  " + "  ".join(
        f"{r['attempted'] - r['failed']}/{r['attempted']:<7}".rjust(16) for r in results.values()))
    return results


def unmeasured(spec, results):
    """Per-layer metrics that read 0 on every workload: the benchmark reports
    a layer a workload does not touch as 0, so a metric BENCHMARK.json declares
    but nothing measures shows only here, over all five."""
    if len(results) < len(spec["workloads"]):
        return []
    return [m["name"] for m in spec["per_layer"]
            if not any(r["metrics"][m["name"]]["value"] for r in results.values())]


def selfcheck(spec, workloads, seed):
    """Two untraced passes, same seed: every value within its bound, `sim_*`
    equal, and every timing's quartiles within a run no wider than its bound."""
    passes = []
    for number in (1, 2):
        print(f"-- pass {number}")
        passes.append(suite(spec, workloads, seed, 0))
    failures = 0
    print("-- comparison (second pass against the first)")
    for w in workloads:
        first, second = passes[0][w], passes[1][w]
        failures += (not ok(first)) + (not ok(second))
        for m in spec["end_to_end"]:
            a = first["metrics"][m["name"]]["value"]
            b = second["metrics"][m["name"]]["value"]
            # The paper's costs are exact for a seed; their bounds in
            # BENCHMARK.json only allow for the acceptance check's ten seeds.
            exact = m["name"].startswith("sim_")
            worse = worsening(m, a, b)
            verdict = "ok"
            if (exact and a != b) or abs(worse) > m["bound"]:
                verdict, failures = "FAIL", failures + 1
            print(f"{w:<18} {m['name']:<18} {a:<14.6g} {b:<14.6g} "
                  f"{100 * worse:+7.2f}%  {'must be equal' if exact else 'bound ' + format(m['bound'], '.0%')}  {verdict}")
            for number, run in enumerate((first, second), 1):
                q = run["samples"].get(m["name"])
                if q and (q["q3"] - q["q1"]) / q["median"] > m["bound"]:
                    failures += 1
                    print(f"{w:<18} {m['name']:<18} FAIL: pass {number} quartiles {q['q1']:.6g}..{q['q3']:.6g} "
                          f"wider than {m['bound']:.0%} of the median {q['median']:.6g}")
    return failures


def spread_check(spec, workloads):
    """The acceptance check: ten seeds per workload, twice.  Every spread must
    stay within the metric's bound, and no median of the second set may be
    worse than the first set's by more than the bound."""
    failures = 0
    medians = []
    for number in range(SPREAD_SETS):
        medians.append({})
        for w in workloads:
            runs = [run_once(spec, w, seed, 0) for seed in SPREAD_SEEDS]
            failures += sum(not ok(r) for r in runs)
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                share = spread(values)
                middle = statistics.median(values)
                medians[-1][w, m["name"]] = middle
                verdict = "ok"
                if share > m["bound"]:
                    verdict, failures = "FAIL", failures + 1
                elif share > m["bound"] / 3:
                    verdict = "above a third of the bound"
                print(f"set {number + 1}  {w:<18} {m['name']:<18} median {middle:<14.6g} "
                      f"spread {100 * share:6.2f}%  bound {100 * m['bound']:.0f}%  {verdict}\n"
                      f"       values {' '.join(f'{v:.6g}' for v in values)}", flush=True)
    for later in medians[1:]:
        for (w, name), b in later.items():
            m = next(m for m in spec["end_to_end"] if m["name"] == name)
            worse = worsening(m, medians[0][w, name], b)
            verdict = "ok"
            if worse > m["bound"]:
                verdict, failures = "FAIL", failures + 1
            print(f"medians  {w:<18} {name:<18} {medians[0][w, name]:<14.6g} {b:<14.6g} "
                  f"{100 * worse:+7.2f}%  bound {100 * m['bound']:.0f}%  {verdict}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open("BENCHMARK.json") as file:
        spec = json.load(file)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    if unknown := set(workloads) - set(names):
        sys.exit(f"no workload {sorted(unknown)}; there are {names}")
    if args.selfcheck:
        failures = selfcheck(spec, workloads, args.seed)
    elif args.spread:
        failures = spread_check(spec, workloads)
    else:
        results = suite(spec, workloads, args.seed, int(args.traced))
        failures = sum(not ok(r) for r in results.values())
        if args.traced:
            for name in unmeasured(spec, results):
                failures += 1
                print(f"FAIL: {name} reads 0 on every workload: nothing measures it")
    if failures:
        sys.exit(f"{failures} check(s) failed")


if __name__ == "__main__":
    main()
