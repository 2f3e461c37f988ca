"""``sweep-space``: one combinatorial scenario-space sweep, in process.

``Session.sweep_space`` streams every scenario of the space through the
session's sweep engine (projection reuse, incremental derivation,
dominance pruning) with the serving layers bypassed.  Each repetition
gets a fresh session so no engine memo carries over; the run reports the
median sweep time.
"""

from __future__ import annotations

import random
import time

from harness import CAL_REF_S, calibrate, fits, median, self_peak_rss_mb


def build_session(params: dict, seed: int):
    """The baseline: a seeded network/traffic instance and seeded weights."""
    from repro.api import Session
    from repro.eval.experiment import ExperimentConfig

    rng = random.Random(f"perfbench/space/{seed}")
    config = ExperimentConfig(
        topology=params["topology"], mode=params["mode"], seed=rng.randrange(1, 2**31)
    )
    session = Session.from_config(config)
    low, high = params["weight_range"]
    session.set_weights([rng.randint(low, high) for _ in range(session.network.num_links)])
    return session.prepare()


def _payload(result) -> bytes:
    from repro.serve.encoding import canonical_body, space_payload

    return canonical_body(space_payload(result))


def _aggregate(result) -> bytes:
    """The answer with the pruning bookkeeping left out."""
    from repro.serve.encoding import canonical_body, space_payload

    payload = space_payload(result)
    del payload["evaluated"], payload["pruned"]
    return canonical_body(payload)


def _calibrated_sweep(session, params: dict):
    """One timed sweep with calibration slices spread through it.

    A sweep is one call of several seconds, so calibrating only before
    and after it misses how fast the host ran in between.  The engine's
    per-scenario entry point is wrapped, in this process only, to run a
    short calibration slice every ``cal_every`` scenarios; the slices
    are timed and taken out of the sweep time.

    Returns ``(result, sweep_s, seconds_per_calibration_unit)``.
    """
    from repro.scenarios.batch import SweepEngine

    original = SweepEngine.evaluate_streaming
    units = params["cal_units"]
    every = params["cal_every"]
    slices: list[tuple[float, float]] = []
    calls = 0

    def evaluate_streaming(engine, scenario):
        nonlocal calls
        calls += 1
        if calls % every == 0:
            started = time.perf_counter()
            unit_s = calibrate(units)
            slices.append((time.perf_counter() - started, unit_s))
        return original(engine, scenario)

    slices.append((0.0, calibrate(units)))
    SweepEngine.evaluate_streaming = evaluate_streaming
    try:
        started = time.perf_counter()
        result = session.sweep_space(params["space"])
        elapsed = time.perf_counter() - started
    finally:
        SweepEngine.evaluate_streaming = original
    slices.append((0.0, calibrate(units)))
    spent = sum(duration for duration, _unit in slices)
    return result, elapsed - spent, sum(unit for _d, unit in slices) / len(slices)


def run(params: dict, seed: int, seconds: float, trace: bool, report) -> None:
    spec = params["space"]
    times: list[float] = []
    scaled: list[float] = []
    reference = None
    reps = 2 if trace else params["min_reps"]
    started = time.perf_counter()
    while len(times) < reps or (not trace and fits(started, times, seconds)):
        result, elapsed, unit_s = _calibrated_sweep(build_session(params, seed), params)
        times.append(elapsed)
        scaled.append(elapsed * CAL_REF_S / unit_s)
        report.attempted += 1
        body = _payload(result)
        if result.evaluated + result.pruned != result.scenarios:
            report.failed += 1
            report.error(
                f"evaluated {result.evaluated} + pruned {result.pruned} "
                f"!= scenarios {result.scenarios}"
            )
        elif reference is not None and body != reference:
            report.failed += 1
            report.error("space sweep answer changed between repetitions")
        reference = reference or body

    # Untimed: pruning must not change the aggregate of a smaller space.
    check = params["check_space"]
    report.attempted += 1
    pruned = build_session(params, seed).sweep_space(check)
    unpruned = build_session(params, seed).sweep_space(check, prune=False)
    if _aggregate(pruned) != _aggregate(unpruned):
        report.failed += 1
        report.error(f"{check}: pruned aggregate differs from prune=False")

    space_s = median(times)
    calibrated_s = median(scaled)
    stats = result.stats
    report.info(
        f"space_s={space_s:.4f} s (median of {len(times)} sweeps: "
        + ", ".join(f"{t:.3f}" for t in times)
        + f"); at reference speed {calibrated_s:.4f} s (sweeps: "
        + ", ".join(f"{t:.3f}" for t in scaled)
        + f"); {result.scenarios} scenarios, {result.evaluated} evaluated, "
        f"{result.pruned} pruned"
    )
    report.e2e["main_ms"] = calibrated_s * 1e3
    report.e2e["unit_ms"] = calibrated_s * 1e3 / result.evaluated
    report.e2e["peak_rss_mb"] = self_peak_rss_mb()
    routings = stats["derived_routings"] + stats["full_routings"]
    rows = stats["reused_rows"] + stats["recomputed_rows"]
    report.layer.update(
        {
            "scenarios.evaluated": float(result.evaluated),
            "scenarios.pruned_frac": result.pruned / result.scenarios,
            "scenarios.derived_routing_frac": stats["derived_routings"] / routings
            if routings
            else 0.0,
            "scenarios.reused_rows_frac": stats["reused_rows"] / rows if rows else 0.0,
        }
    )

    if trace:
        from tracer import Tracer, install_inprocess, layer_metrics

        session = build_session(params, seed)
        tracer = Tracer()
        install_inprocess(tracer)
        try:
            with tracer.root("space_sweep"):
                traced = session.sweep_space(spec)
        finally:
            tracer.restore()
        if _payload(traced) != reference:
            report.failed += 1
            report.error("traced space sweep differs from the untraced one")
        ledger = tracer.ledger()
        report.layer.update(layer_metrics(ledger, tracer.counts))
        report.layer["trace_overhead_frac"] = ledger["wall_s"] / times[-1] - 1.0
