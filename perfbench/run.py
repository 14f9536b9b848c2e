"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

Workloads: ``bulk``, ``served``, ``churn`` (see README.md).  Every
metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The program is imported from
``src/`` of the checkout; the exit code is non-zero when it is missing
or a workload cannot finish.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "served", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

    import inputs
    import reference
    from tracing import Tracer
    from workloads import WORKLOADS

    # Metric names and units are those of BENCHMARK.json.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    reference.self_check(args.seed)
    tracer = Tracer(bool(args.trace))
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    for problem in outcome.problems[:20]:
        print(f"MISMATCH: {problem}", file=sys.stderr)

    if args.trace:
        outcome.layers["spans"] = float(len(tracer.spans))
        path = os.path.join(inputs.cache_dir(),
                            f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        listed = spec["per_layer"]
        # A layer the workload never reaches reads 0.
        values = {m["name"]: 0.0 for m in listed}
        values.update(outcome.layers)
    else:
        listed, values = spec["end_to_end"], outcome.metrics
    unlisted = set(values) - {m["name"] for m in listed}
    if unlisted:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unlisted)}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in listed
    }
    lookups = outcome.attempted - outcome.updates_attempted
    print(f"workload {args.workload} seed {args.seed}: "
          f"{'correct' if outcome.correct else 'INCORRECT'}; lookups "
          f"{lookups} attempted, {outcome.failed - outcome.updates_failed} "
          f"failed; updates {outcome.updates_attempted} attempted, "
          f"{outcome.updates_failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
