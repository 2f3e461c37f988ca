"""The repo benchmark: one workload per invocation, metrics as JSON.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload search-load --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that records layer spans from this
process (or scrapes the server's telemetry, for ``serve-mixed``) and
reports the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value", "unit"}}}

Metric names and units come from ``BENCHMARK.json``; the fixed workload
parameters from ``perfbench/workloads.json``.  Exit status is 0 whenever
a result line is printed (``correct`` carries the verdict) and 2 when
the benchmark cannot run at all, e.g. when the program is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from harness import (
    ROOT,
    WORKLOADS,
    BenchError,
    median,
    probe_setup_seconds,
    remove_scratch,
    require_program,
)

SETUP_REPEATS = 3
MODULES = {"search": "searches", "space": "space", "serve": "serve"}


class Report:
    """What one run found: counts, checks, and the two metric sets."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}

    def info(self, message: str) -> None:
        print(message, flush=True)

    def error(self, message: str) -> None:
        self.errors.append(message)
        print(f"CHECK FAILED: {message}", flush=True)


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"e2e": spec["end_to_end"], "layer": spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    params = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        require_program()
        specs = _metric_specs()
        report = Report()
        started = time.perf_counter()
        if params["kind"] != "serve" and not trace:
            # serve-mixed times its own set-up: server launch to /health.
            setups = probe_setup_seconds(args.workload, args.seed, SETUP_REPEATS)
            report.e2e["setup_s"] = median(setups)
            report.info("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups))
        module = importlib.import_module(MODULES[params["kind"]])
        module.run(params, args.seed, args.seconds, trace, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_scratch()

    report.e2e["failed_frac"] = report.failed / max(report.attempted, 1)
    report.info(f"workload {args.workload} seed {args.seed}: {time.perf_counter() - started:.1f} s")
    report.info(f"failed_frac={report.e2e['failed_frac']:.4f} ({report.failed}/{report.attempted})")
    for values in (report.e2e, report.layer):
        for name in sorted(values):
            report.info(f"  {name} = {values[name]:.6g}")
    chosen = specs["layer"] if trace else specs["e2e"]
    values = report.layer if trace else report.e2e
    metrics = {}
    for metric in chosen:
        name = metric["name"]
        if name not in values:
            if not trace:
                print(f"error: workload produced no {name}", file=sys.stderr)
                return 2
            # A layer this workload never enters did no work in it.
            values[name] = 0.0
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    result = {
        "correct": report.failed == 0 and not report.errors,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
