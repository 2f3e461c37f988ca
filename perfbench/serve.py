"""``serve-mixed``: a live ``repro-dtr serve`` driven open loop over HTTP.

The server is a child process started from the checkout's ``src`` with a
baseline weights file drawn from the seed.  One generator (this
process, two threads, one persistent HTTP/1.1 keep-alive connection
each) sends a seeded Poisson schedule in two phases at fixed offered
rates, ``light`` and ``heavy``.  The stream mixes ``POST /whatif``
queries, whose specs are drawn with a stated share from a small hot set
so that repeats hit the plan cache, with a small share of
``POST /sweep {"kinds": [...]}`` requests that hold the same session
lock.

Open loop: a request is due at its scheduled time whether or not the
previous one has returned.  Latency is timed from when the request was
*due*, so a stall also charges the requests queued behind it.  A
connection serves one request at a time; a request that finds both
busy waits for one, and that wait is part of its latency.  How late the
generator itself sent (beyond any wait for a connection) is reported
as ``gen.late_ms``; a phase whose generator ran late beyond the bound,
or that ends with more requests in flight than the bound, is invalid and
fails the run instead of reporting a latency.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import subprocess
import sys
import threading
import time

from harness import (
    BenchError,
    child_env,
    counter_delta,
    median,
    parse_exposition,
    proc_peak_rss_mb,
    scratch_dir,
    tail,
)

HEADERS = {"Content-Type": "application/json"}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Inputs:
    """Everything drawn from the seed: instance, weights, request schedule."""

    def __init__(self, params: dict, seed: int, seconds: float) -> None:
        from repro.eval.experiment import build_network
        from repro.scenarios.spec import enumerate_scenarios

        rng = random.Random(f"perfbench/serve/{seed}")
        self.params = params
        self.instance_seed = rng.randrange(1, 2**31)
        net = build_network(params["topology"], self.instance_seed)
        low, high = params["weight_range"]
        self.weights = [rng.randint(low, high) for _ in range(net.num_links)]
        candidates = [
            s.spec() for kind in params["whatif_kinds"] for s in enumerate_scenarios(net, kind)
        ]
        rng.shuffle(candidates)
        hot = candidates[: params["hot_set"]]
        cold = candidates[params["hot_set"] :]
        self.phases = []
        cold_index = 0
        for phase in params["phases"]:
            duration = seconds * phase["share_of_seconds"]
            requests = []
            # Poisson arrivals conditioned on their count: exactly
            # rate x duration requests at uniform random times, so every
            # seed offers the phase the same load.
            count = round(phase["rate_qps"] * duration)
            for t in sorted(rng.uniform(0.0, duration) for _ in range(count)):
                if rng.random() < params["sweep_share"]:
                    kinds = rng.choice(params["sweep_kinds"])
                    requests.append((t, "/sweep", {"kinds": kinds}))
                elif rng.random() < params["hot_share"]:
                    requests.append((t, "/whatif", {"scenario": rng.choice(hot)}))
                else:
                    requests.append((t, "/whatif", {"scenario": cold[cold_index % len(cold)]}))
                    cold_index += 1
            self.phases.append((phase["name"], duration, requests))

    def write_weights(self) -> str:
        path = scratch_dir() / "weights.json"
        path.write_text(json.dumps(self.weights))
        return str(path)

    def session_spec(self):
        from repro.serve.pool import SessionSpec

        return SessionSpec(
            topology=self.params["topology"],
            mode=self.params["mode"],
            seed=self.instance_seed,
            weights=self.weights,
        )


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``repro-dtr serve`` child process; ``setup_s`` is launch -> /health 200."""

    def __init__(self, inputs: Inputs, weights_path: str, log_path=None) -> None:
        params = inputs.params
        self.port = _free_port()
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--topology", params["topology"],
            "--mode", params["mode"],
            "--seed", str(inputs.instance_seed),
            "--weights", weights_path,
            "--port", str(self.port),
        ]
        if log_path is not None:
            cmd += ["--log", str(log_path)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            self._wait_healthy(started + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during start-up ({self.proc.returncode})")
            try:
                status, _ = self.get("/health")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise BenchError("server did not answer /health within 60 s")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def scrape(self) -> dict[str, float]:
        status, body = self.get("/metrics?format=prometheus")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return parse_exposition(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a shell that starts the benchmark in the
        # background leaves SIGINT ignored in every child, and the server
        # would then wait out the timeout.  The request log is flushed per
        # line, so nothing is lost.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


# ----------------------------------------------------------------------
# Open-loop generator
# ----------------------------------------------------------------------
class Outcome:
    __slots__ = ("path", "body", "due", "taken", "sent", "done", "status", "data")

    def __init__(self, path, body, due) -> None:
        self.path, self.body, self.due = path, body, due
        self.taken = self.sent = self.done = float("nan")
        self.status = 0
        self.data = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        """How late the generator sent, beyond waiting for a free connection."""
        return (self.sent - max(self.due, self.taken)) * 1e3


def run_phase(port: int, requests, connections: int) -> tuple[float, list[Outcome]]:
    """Send one phase's schedule; returns ``(phase_start, outcomes)``."""
    start = time.perf_counter() + 0.05
    outcomes = [Outcome(path, body, start + t) for t, path, body in requests]
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(outcomes):
                    return
                item = outcomes[index]
                item.taken = time.perf_counter()
                wait = item.due - item.taken
                if wait > 0:
                    time.sleep(wait)
                payload = json.dumps(item.body).encode("utf-8")
                item.sent = time.perf_counter()
                try:
                    conn.request("POST", item.path, body=payload, headers=HEADERS)
                    response = conn.getresponse()
                    item.data = response.read()
                    item.status = response.status
                except (OSError, http.client.HTTPException):
                    item.status = -1
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                item.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise BenchError("generator thread did not finish within 120 s")
    return start, outcomes


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_bodies(inputs: Inputs, outcomes: list[Outcome]) -> set[int]:
    """Indices of outcomes whose answer is wrong or missing.

    Every 200 what-if body must equal, byte for byte, what a fresh
    session built from the same inputs answers directly for the same
    spec (with the transport-only ``served`` envelope the response
    carried); every 200 sweep body must equal the direct sweep of the
    same kinds.
    """
    from repro.scenarios.spec import ScenarioSet, enumerate_scenarios, parse_scenario
    from repro.serve.encoding import canonical_body, sweep_payload, whatif_payload

    session = inputs.session_spec().build()
    expected_whatif: dict[str, dict] = {}
    expected_sweep: dict[tuple, bytes] = {}
    bad = set()
    for index, item in enumerate(outcomes):
        if item.status != 200:
            bad.add(index)
            continue
        if item.path == "/whatif":
            spec = item.body["scenario"]
            if spec not in expected_whatif:
                expected_whatif[spec] = whatif_payload(session.under_scenario(spec))
            try:
                hit = json.loads(item.data)["served"]["cache_hit"]
            except (ValueError, KeyError, TypeError):
                bad.add(index)
                continue
            expected = canonical_body({**expected_whatif[spec], "served": {"cache_hit": hit}})
        else:
            kinds = tuple(item.body["kinds"])
            if kinds not in expected_sweep:
                specs = [s.spec() for kind in kinds for s in enumerate_scenarios(session.network, kind)]
                result = session.sweep(ScenarioSet([parse_scenario(s) for s in specs]))
                expected_sweep[kinds] = canonical_body(sweep_payload(result, specs))
            expected = expected_sweep[kinds]
        if item.data != expected:
            bad.add(index)
    return bad


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _phase_stats(name, duration, start, outcomes, bad_ids, limit_ms) -> dict:
    whatifs = [o for o in outcomes if o.path == "/whatif"]
    good = [o for o in whatifs if id(o) not in bad_ids]
    latencies = [o.latency_ms for o in good]
    end = start + duration
    tail_ms, tail_pct, n = tail(latencies) if latencies else (float("nan"), 0.0, 0)
    late_ms, late_pct, _ = tail([o.late_ms for o in outcomes])
    return {
        "name": name,
        "requests": len(outcomes),
        "whatifs": len(whatifs),
        "p50_ms": median(latencies) if latencies else float("nan"),
        "tail_ms": tail_ms,
        "tail_pct": tail_pct,
        "samples": n,
        "goodput_qps": sum(o.latency_ms <= limit_ms for o in good) / duration,
        "late_ms": late_ms,
        "late_pct": late_pct,
        "in_flight_end": sum(o.due <= end < o.done for o in outcomes),
        "sent_ms": [(o.done - o.sent) * 1e3 for o in good],
        "sweep_ms": [o.latency_ms for o in outcomes if o.path == "/sweep" and id(o) not in bad_ids],
    }


def _drive(server: Server, inputs: Inputs, params: dict, trace: bool):
    """Run every phase; returns per-phase ``(name, duration, start, outcomes, scrapes)``."""
    runs = []
    for name, duration, requests in inputs.phases:
        before = server.scrape() if trace else None
        start, outcomes = run_phase(server.port, requests, params["connections"])
        after = server.scrape() if trace else None
        runs.append((name, duration, start, outcomes, (before, after)))
    return runs


def run(params: dict, seed: int, seconds: float, trace: bool, report) -> None:
    inputs = Inputs(params, seed, seconds)
    weights_path = inputs.write_weights()
    limit_ms = params["latency_limit_ms"]

    untraced_light_p50 = None
    if trace:
        # Reference for the trace overhead: the light phase on a server
        # with no request log and no scrapes.
        server = Server(inputs, weights_path)
        try:
            name, duration, requests = inputs.phases[0]
            start, outcomes = run_phase(server.port, requests, params["connections"])
        finally:
            server.stop()
        bad = check_bodies(inputs, outcomes)
        untraced_light_p50 = median(
            [o.latency_ms for i, o in enumerate(outcomes) if o.path == "/whatif" and i not in bad]
        )

    setups = []
    log_path = scratch_dir() / "requests.jsonl" if trace else None
    # Set up several times: launch, wait for /health, stop; the last
    # server stays up for the workload.
    for _ in range(params["setup_repeats"] - 1):
        server = Server(inputs, weights_path)
        setups.append(server.setup_s)
        server.stop()
    server = Server(inputs, weights_path, log_path)
    setups.append(server.setup_s)
    try:
        runs = _drive(server, inputs, params, trace)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    everything = [o for run_ in runs for o in run_[3]]
    bad_index = check_bodies(inputs, everything)
    bad_ids = {id(everything[i]) for i in bad_index}
    report.attempted += len(everything)
    report.failed += len(bad_index)
    if bad_index:
        statuses = sorted({everything[i].status for i in bad_index})
        report.error(f"{len(bad_index)} requests failed or mismatched (statuses {statuses})")

    stats = {}
    for name, duration, start, outcomes, _scrapes in runs:
        s = _phase_stats(name, duration, start, outcomes, bad_ids, limit_ms)
        stats[name] = s
        report.info(
            f"phase {name}: {s['requests']} requests ({s['whatifs']} what-if) in {duration:.1f} s; "
            f"whatif_p50_ms={s['p50_ms']:.3f} whatif_tail_ms={s['tail_ms']:.3f} "
            f"(p{s['tail_pct']:.1f} of {s['samples']}); goodput_qps={s['goodput_qps']:.3f}; "
            f"gen.late_ms={s['late_ms']:.3f} (p{s['late_pct']:.1f}); "
            f"in flight at end={s['in_flight_end']}"
        )
        if s["late_ms"] > params["max_late_ms"]:
            report.failed += 1
            report.error(
                f"phase {name} invalid: generator late {s['late_ms']:.2f} ms > "
                f"{params['max_late_ms']} ms"
            )
        if s["in_flight_end"] > params["max_in_flight_end"]:
            report.failed += 1
            report.error(
                f"phase {name} invalid: {s['in_flight_end']} requests in flight at phase end > "
                f"{params['max_in_flight_end']} (backlog grew)"
            )

    light, heavy = stats["light"], stats["heavy"]
    sweep_ms = light["sweep_ms"] + heavy["sweep_ms"]
    sweep_p50 = median(sweep_ms) if sweep_ms else float("nan")
    report.info(
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}; "
        f"sweep_p50_ms={sweep_p50:.3f} over {len(sweep_ms)} sweeps; "
        f"latency limit {limit_ms} ms"
    )
    report.e2e["setup_s"] = median(setups)
    report.e2e["peak_rss_mb"] = peak_rss
    report.e2e["unit_ms"] = light["p50_ms"]
    report.e2e["main_ms"] = heavy["p50_ms"]
    serve_metrics = {
        "whatif_p50_ms.light": light["p50_ms"],
        "whatif_tail_ms.light": light["tail_ms"],
        "whatif_p50_ms.heavy": heavy["p50_ms"],
        "whatif_tail_ms.heavy": heavy["tail_ms"],
        "goodput_qps.heavy": heavy["goodput_qps"],
        "sweep_p50_ms": sweep_p50,
        "gen.late_ms": max(light["late_ms"], heavy["late_ms"]),
        "gen.in_flight_end": float(max(light["in_flight_end"], heavy["in_flight_end"])),
        "whatif_tail_pct.light": light["tail_pct"],
        "whatif_tail_pct.heavy": heavy["tail_pct"],
        "whatif_samples.light": float(light["samples"]),
        "whatif_samples.heavy": float(heavy["samples"]),
    }
    report.layer.update(serve_metrics)

    if trace:
        _trace_metrics(runs, log_path, stats, untraced_light_p50, report)


def _trace_metrics(runs, log_path, stats, untraced_light_p50, report) -> None:
    """Per-layer numbers from the server's own telemetry, phase by phase."""
    keys = {
        "wait_sum": "repro_serve_scheduler_queue_wait_seconds_sum",
        "wait_count": "repro_serve_scheduler_queue_wait_seconds_count",
        "batch_sum": "repro_serve_scheduler_batch_size_sum",
        "batch_count": "repro_serve_scheduler_batch_size_count",
        "queries": 'repro_serve_scheduler_events_total{event="query"}',
        "coalesced": 'repro_serve_scheduler_events_total{event="coalesced_query"}',
        "cache_hit": 'repro_serve_plan_cache_events_total{event="hit"}',
        "cache_miss": 'repro_serve_plan_cache_events_total{event="miss"}',
        "pool_builds": 'repro_serve_pool_events_total{event="build"}',
        "scenarios": 'repro_scenarios_engine_events_total{event="scenarios"}',
        "derived": 'repro_scenarios_engine_events_total{event="derived_routings"}',
        "full": 'repro_scenarios_engine_events_total{event="full_routings"}',
        "reused": 'repro_scenarios_engine_events_total{event="reused_rows"}',
        "recomputed": 'repro_scenarios_engine_events_total{event="recomputed_rows"}',
    }
    total = dict.fromkeys(keys, 0.0)
    for *_rest, (before, after) in runs:
        for key, sample in keys.items():
            total[key] += counter_delta(before, after, sample)

    def ratio(num, den):
        return num / den if den else 0.0

    # Server-side handling time per request, from the request log the
    # server writes with --log (one JSON line per request).
    server_ms = []
    for line in log_path.read_text().splitlines():
        record = json.loads(line)
        if record.get("path") == "/whatif" and record.get("status") == 200:
            server_ms.append(record["ms"])
    client_ms = [ms for s in stats.values() for ms in s["sent_ms"]]
    server_p50 = median(server_ms)
    report.layer.update(
        {
            "http.server_ms": server_p50,
            "http.transport_ms": median(client_ms) - server_p50,
            "scheduler.queue_wait_ms": 1e3 * ratio(total["wait_sum"], total["wait_count"]),
            "scheduler.batch_mean": ratio(total["batch_sum"], total["batch_count"]),
            "scheduler.coalesced_frac": ratio(total["coalesced"], total["queries"]),
            "cache.hit_ratio": ratio(total["cache_hit"], total["cache_hit"] + total["cache_miss"]),
            "pool.builds": total["pool_builds"],
            "scenarios.evaluated": total["scenarios"],
            "scenarios.derived_routing_frac": ratio(total["derived"], total["derived"] + total["full"]),
            "scenarios.reused_rows_frac": ratio(
                total["reused"], total["reused"] + total["recomputed"]
            ),
            "trace_overhead_frac": stats["light"]["p50_ms"] / untraced_light_p50 - 1.0,
        }
    )
    report.info(
        f"transport gap: client p50 {median(client_ms):.3f} ms from send vs server handling "
        f"p50 {server_p50:.3f} ms (scheduler queue wait mean "
        f"{report.layer['scheduler.queue_wait_ms']:.3f} ms)"
    )
