"""Set-up probe: do one workload's set-up in a fresh interpreter, say ``ready``.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED`` from the checkout
root (``run.py`` spawns it and times it).  The set-up is everything a
user pays before the workload's first timed operation can begin:
interpreter start, importing the program and building the inputs.
"""

from __future__ import annotations

import sys

from harness import WORKLOADS, require_program


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    params = WORKLOADS[workload]
    require_program()
    if params["kind"] == "search":
        import repro.api  # noqa: F401  (what run_comparison imports on first call)
        from searches import configs

        configs(params, seed)
    elif params["kind"] == "space":
        from space import build_session

        build_session(params, seed)
    else:
        raise SystemExit(f"no in-process set-up for workload kind {params['kind']!r}")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
