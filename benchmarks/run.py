#!/usr/bin/env python3
"""Benchmark entry point. Run from the repository root:

    python3 benchmarks/run.py --workload offline_shared --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run; both print a report and then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. The metric names,
units and better-directions come from BENCHMARK.json. A failed output check
prints no metrics and exits 1. `--smoke` runs tiny inputs for a quick check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    root = Path.cwd()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = parser.parse_args(argv)

    if not (root / "src" / "homorag" / "__init__.py").is_file():
        print(f"error: {root} holds no src/homorag; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import homorag

    if Path(homorag.__file__).resolve().parent != (root / "src" / "homorag").resolve():
        print(f"error: imported homorag from {homorag.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from harness import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = _load_spec(root)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), root, args.smoke)
    bench.run()
    checks = bench.checks
    metrics = {}
    if not checks.problems:
        values = bench.per_layer() if args.trace else bench.end_to_end()
        if set(values) != {m["name"] for m in wanted}:
            print(f"error: computed metrics {sorted(values)} do not match BENCHMARK.json",
                  file=sys.stderr)
            return 2
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {bench.rounds}  records {len(bench.records)}")
    for key, value in sorted(bench.inputs.reuse.items()):
        print(f"  input {key:32s} {value:.4f}")
    for m in wanted:
        if m["name"] in metrics:
            print(f"  {m['name']:40s} {metrics[m['name']]['value']:14.6f} "
                  f"{m['unit']:6s} {m['better']}")
    if not args.trace:
        print(f"  query latency samples {len(bench.samples['query_ms'])}, "
              f"setup samples {len(bench.samples['setup_s'])}")
    print(f"  failed_share {checks.failed}/{checks.attempted} = "
          f"{checks.failed / max(1, checks.attempted):.4f}")
    print(f"  snippet funnel {bench.funnel}")
    print(f"  output_digest {bench.output_digest()}")
    for problem in checks.problems:
        print(f"  CHECK FAILED: {problem}")
    if bench.tracer:
        bench.tracer.write(root / ".benchwork" / f"spans-{args.workload}.jsonl")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if not checks.problems else 1


if __name__ == "__main__":
    sys.exit(main())
