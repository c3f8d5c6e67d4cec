"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload offline-sim --seed 1 --seconds 50 --trace 0

Workloads: ``offline-sim``, ``replay-loopback``, ``openloop-gateway-wal``
(see ``perfbench/spec.json``; ``BENCHMARK.json`` lists the two whose figures
are steady enough to gate on).  The program under test is the ``repro``
package in the checkout's ``src/``; the benchmark checks every output and
prints a table of the workload's figures, then, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer ones, from a traced phase that
follows an untraced one (the difference is printed as ``trace.overhead``).
The exit code is 0 when every check passed, 1 when one failed and 2 when
the program cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def _parse(argv, workloads, default_seed: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workloads():
    from perfbench import offline, openloop, replay

    return {module.NAME: module.run for module in (offline, replay, openloop)}


def main(argv=None) -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from perfbench.common import load_contract, load_spec

    spec = load_spec()
    contract = load_contract()
    workloads = _workloads()
    args = _parse(argv, sorted(workloads), spec["default_seed"])
    out = workloads[args.workload](
        seed=args.seed, seconds=args.seconds, traced=bool(args.trace), spec=spec
    )
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g}")
    for name, value, unit, note in out.report:
        print(f"{name:<28} {value:>16.6g} {unit:<10} {note}")
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    source = out.layers if args.trace else out.metrics
    metrics = {}
    for entry in wanted:
        value = source.get(entry["name"], (0.0,))[0]
        value = value if math.isfinite(value) else 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if args.trace:
            print(f"{entry['name']:<34} {value:>16.6g} {entry['unit']}")
    for name, ok, detail in out.checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}")
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
