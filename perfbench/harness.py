"""Shared plumbing for the benchmark: paths, statistics, memory, set-up probes.

Everything here is workload-agnostic.  The benchmark runs from the root
of a source checkout; the program under test is imported from ``src/``
of that checkout and nothing outside the checkout is read or written
(scratch files go to :data:`TMP_DIR`, removed at exit).
"""

from __future__ import annotations

import heapq
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
TMP_DIR = ROOT / ".perfbench_tmp"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text())["workloads"]


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, server did not start)."""


def require_program() -> None:
    """Put the checkout's ``src`` on the import path, or fail cleanly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def scratch_dir() -> Path:
    TMP_DIR.mkdir(exist_ok=True)
    return TMP_DIR


def remove_scratch() -> None:
    shutil.rmtree(TMP_DIR, ignore_errors=True)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile_level, sample_count)``: the order
    statistic with exactly ``beyond`` samples beyond it, the percentile
    that statistic stands for, and how many samples there were.  With
    ``beyond`` or fewer samples no such percentile exists; the maximum is
    returned and the level is reported as 100.
    """
    data = sorted(values)
    n = len(data)
    if n <= beyond:
        return (data[-1] if data else float("nan")), 100.0, n
    index = n - beyond - 1
    return data[index], 100.0 * (index + 1) / n, n


def fits(started: float, times: list, seconds: float) -> bool:
    """Whether one more repetition of mean length ends within ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed + sum(times) / len(times) <= seconds


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
CAL_REF_S = 0.001
"""Seconds one calibration unit takes at the reference speed (about what
it takes on an idle 2-vCPU VM).  In-process job times are reported
scaled to this speed: ``seconds * CAL_REF_S / measured_unit_seconds``."""

_CAL_NODES = 30
_cal_rng = random.Random(0)
_CAL_GRAPH = [
    [(_cal_rng.randrange(_CAL_NODES), _cal_rng.randint(1, 20)) for _ in range(5)]
    for _ in range(_CAL_NODES)
]
_CAL_INDEX = [_cal_rng.randrange(150) for _ in range(600)]
_CAL_VALUES = [_cal_rng.random() for _ in range(600)]


def _cal_dijkstra(source: int) -> list:
    dist = [float("inf")] * _CAL_NODES
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _CAL_GRAPH[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def calibrate(units: int) -> float:
    """Seconds per unit of a fixed workload written here, not in the program.

    The shared host's speed drifts by tens of percent within minutes,
    and an idle-looking VM gives no sign of it.  A unit mixes what the
    program spends its time on: all-sources Dijkstra on a 30-node graph
    in pure Python, and small numpy scatter/sort kernels.  Interleaved
    with the timed job, it measures how fast the machine ran meanwhile.
    """
    import numpy as np

    index = np.asarray(_CAL_INDEX)
    values = np.asarray(_CAL_VALUES)
    started = time.perf_counter()
    for _ in range(units):
        for source in range(_CAL_NODES):
            _cal_dijkstra(source)
        out = np.zeros(150)
        np.add.at(out, index, values)
        np.argsort(out)
    return (time.perf_counter() - started) / units


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process, in MiB."""
    return proc_peak_rss_mb(os.getpid())


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    if match is None:
        raise BenchError(f"no VmHWM for pid {pid}")
    return int(match.group(1)) / 1024.0


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def probe_setup_seconds(workload: str, seed: int, times: int) -> list[float]:
    """Time ``times`` fresh interpreters doing exactly a workload's set-up.

    Each child (``probe.py``) imports the program, builds the workload's
    inputs and prints ``ready``; the clock runs from spawning the child
    to reading that line, which is what a user pays before the first
    timed operation can begin.
    """
    out = []
    for _ in range(times):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - started
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise BenchError(f"set-up probe for {workload} failed (exit {code})")
        out.append(elapsed)
    return out


# ----------------------------------------------------------------------
# Prometheus text (the program's exposition format)
# ----------------------------------------------------------------------
def parse_exposition(text: str) -> dict[str, float]:
    """Flatten a Prometheus text exposition to ``{"name{labels}": value}``."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def counter_delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def registry_samples() -> dict[str, float]:
    """The program's process-wide telemetry registry, flattened."""
    from repro import obs

    return parse_exposition(obs.render_prometheus(obs.snapshot()))
