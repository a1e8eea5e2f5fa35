"""Benchmark of satsynth on the full-scale stand-in table.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload occupied --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``occupied``,
``escape``, ``tune`` and ``cli``.  The human-readable report goes to
standard output first; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, the same on every
workload; each step's median is printed above them.  With ``--trace 1``
they are the per-layer ones, and the spans are written to
``perfbench/_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import OUT_DIR, check_counts_record, environment, use_source

WORKLOADS = ("occupied", "escape", "tune", "cli")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    use_source()
    import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    runners = {
        "occupied": lambda run: workloads.run_synthesis(run, escape=False),
        "escape": lambda run: workloads.run_synthesis(run, escape=True),
        "tune": workloads.run_tune,
        "cli": workloads.run_cli,
    }
    runners[args.workload](run)
    run.tally.record("counts repeat across runs", check_counts_record(args.workload, args.seed, run.counts))

    env = environment() | {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                           "trace": args.trace} | run.info
    print("environment " + json.dumps(env, sort_keys=True))
    print("counts " + json.dumps(run.counts, sort_keys=True))
    fail_ratio = run.tally.failed / max(run.tally.attempted, 1)
    print(f"{'fail_ratio':<40} {fail_ratio:<14.6g} {'ratio':<8} "
          f"{run.tally.failed} failed of {run.tally.attempted} operations")
    for problem in run.tally.problems:
        print(f"FAILED {problem}")
    for name, (value, unit, note) in run.steps.items():
        print(f"{'step ' + name:<40} {value:<14.6g} {unit:<8} {note}")
    chosen = run.layer if args.trace else run.e2e
    for name, (value, unit, note) in chosen.items():
        print(f"{name:<40} {value:<14.6g} {unit:<8} {note}")
    if args.trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"environment": env, "spans": run.tracer.spans}), encoding="utf-8")
        print(f"spans: {len(run.tracer.spans)} written to {path}")
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
