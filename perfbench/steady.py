"""Steadiness check: run workloads repeatedly and report each metric's
spread against its bound in ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --workloads served --runs 5 --traced

Each run is a separate ``perfbench/run.py`` process with its own seed
(``first-seed`` .. ``first-seed + runs - 1``).  For every end-to-end
metric, ``setup_s`` included, it prints the median, the quartiles
(``statistics.quantiles`` with ``n=4``) and the spread — the
inter-quartile distance as a share of the median — next to the metric's
bound, and flags a spread above a third of the bound.  ``--traced`` adds
one traced run per workload and prints the tracing overhead: the traced
run's lookup rate against the untraced median.

``--save FILE`` writes each workload's medians and failed share;
``--against FILE`` compares this set with a saved one and flags a
median that is worse by more than its bound, or a failed share that
differs.  The exit code is 1 when anything is flagged::

    python3 perfbench/steady.py --first-seed 1 --save set1.json
    python3 perfbench/steady.py --first-seed 11 --against set1.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--save", metavar="FILE")
    parser.add_argument("--against", metavar="FILE")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    summary = {}
    steady = True
    for workload in args.workloads:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{n}={m['value']:.4g}"
                             for n, m in result["metrics"].items()),
                  flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: failed share {shares}; all correct: {correct}")
        if len(shares) != 1 or not correct:
            steady = False
        before = earlier.get(workload, {})
        if before and [before["failed_share"]] != shares:
            print(f"  failed share differs from the earlier set's "
                  f"{before['failed_share']}")
            steady = False
        summary[workload] = {"failed_share": shares[0], "medians": {}}
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}" + ("  vs earlier" if before else ""))
        for name, metric in metrics.items():
            bound = metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            summary[workload]["medians"][name] = median
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (f"  {name:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                    f"{spread:>9.3f}{bound:>8.2f}")
            if before:
                # Positive: this set is worse than the earlier one.
                ratio = median / before["medians"][name]
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                line += f"  {worse:+.3f}"
                if worse > bound:
                    line += " > bound"
                    steady = False
            if spread > bound / 3:
                line += "  spread > bound/3"
                steady = False
            print(line)
        if args.traced:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            rate = traced["metrics"]["traced_lookup_mlps"]["value"]
            base = statistics.median(
                r["metrics"]["lookup_mlps"]["value"] for r in results)
            print(f"  tracing overhead: traced lookup_mlps {rate:.4g} vs "
                  f"untraced median {base:.4g} "
                  f"({(1 - rate / base) * 100:+.1f} %)")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
