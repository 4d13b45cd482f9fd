"""Benchmark entry point for the planning gateway and the simulator.

    python3 perfbench/run.py --workload hot-classes --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` prints every per-layer metric
from a traced run.  Each metric line carries its unit and sample count;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any correctness or accounting
mismatch exits 1 without that line.  ``--workload all`` runs every
workload untraced, then traced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_one(spec: dict, workload: str, seed: int, seconds: int,
            trace: bool) -> int:
    from perfbench import gateway_bench, sim_bench
    from perfbench.proc import Failure

    try:
        if workload == "failover-storm":
            figures, attempted, failed, notes = sim_bench.run(
                seed, seconds, trace, ROOT)
        else:
            figures, attempted, failed, notes = gateway_bench.run(
                seed, seconds, trace, ROOT)
    except Failure as exc:
        print(f"FAILED {workload} seed {seed}: {exc}", file=sys.stderr)
        return 1
    print(f"== {workload} seed {seed} {'traced' if trace else 'untraced'}: "
          f"attempted {attempted}, failed {failed} "
          f"({failed / max(1, attempted):.4f} of attempted)")
    for note in notes:
        print(f"   {note}")
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        value, samples = figures.get(name, (None, 0))
        if value is None:
            if not trace:
                print(f"FAILED: no value for {name}", file=sys.stderr)
                return 1
            # A layer this workload does not exercise: reported as 0 with
            # its (zero or too small) sample count.
            value = 0.0
        print(f"   {name:40s} {value:14.4f} {unit:9s} n={samples}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    # Replace the script directory with the source tree and the root.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    if args.workload != "all":
        return run_one(spec, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    for trace in (False, True):
        for workload in names:
            code = run_one(spec, workload, args.seed, args.seconds, trace)
            if code:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
