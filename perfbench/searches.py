"""``search-load`` / ``search-sla``: the paper's STR -> DTR comparison set.

One *set* is :func:`repro.eval.experiment.run_comparison` (STR, then DTR
seeded from the STR result) on every configured topology, at one fixed
scaled budget, closed loop with one caller.  The run repeats the set
until ``--seconds`` have passed and reports the median set time, so one
slow repetition (a neighbour on the shared machine) does not move it.
"""

from __future__ import annotations

import random
import time

from harness import (
    CAL_REF_S,
    calibrate,
    counter_delta,
    fits,
    median,
    registry_samples,
    self_peak_rss_mb,
)


def configs(params: dict, seed: int) -> list:
    """The comparison set's configs; every config seed is drawn from ``seed``."""
    from repro.eval.experiment import ExperimentConfig, scaled_config

    rng = random.Random(f"perfbench/{params['mode']}/{seed}")
    out = []
    for topology in params["topologies"]:
        for _ in range(params["configs_per_topology"]):
            config = ExperimentConfig(
                topology=topology, mode=params["mode"], seed=rng.randrange(1, 2**31)
            )
            out.append(scaled_config(config, params["scale"]))
    return out


def _signature(result) -> tuple:
    """What must repeat exactly across repetitions of one seed."""
    dtr = result.dtr_result
    return (
        result.str_result.evaluations,
        dtr.evaluations,
        result.str_evaluation.objective.values,
        result.dtr_evaluation.objective.values,
        result.str_result.weights.tobytes(),
        dtr.high_weights.tobytes(),
        dtr.low_weights.tobytes(),
    )


def check_comparison(config, result) -> list[str]:
    """DTR <= STR, and both settings re-evaluate to the reported objectives.

    The re-evaluation uses a freshly built session with no delta hints,
    so a cache or incremental-derivation error in the search shows here.
    """
    from repro.api import Session

    errors = []
    str_obj = result.str_evaluation.objective
    dtr_obj = result.dtr_evaluation.objective
    if str_obj < dtr_obj:
        errors.append(f"DTR objective {dtr_obj.values} worse than STR {str_obj.values}")
    evaluator = Session.from_config(config).evaluator
    w = result.str_result.weights
    again = evaluator.evaluate(w.copy(), w.copy()).objective
    if again.values != str_obj.values or result.str_result.objective.values != str_obj.values:
        errors.append(f"STR re-evaluation {again.values} != reported {str_obj.values}")
    dtr = result.dtr_result
    again = evaluator.evaluate(dtr.high_weights.copy(), dtr.low_weights.copy()).objective
    if again.values != dtr_obj.values or dtr.objective.values != dtr_obj.values:
        errors.append(f"DTR re-evaluation {again.values} != reported {dtr_obj.values}")
    return errors


def _run_set(cfgs, cal_units: int = 0) -> tuple[float, float, list]:
    """Run the set; returns ``(wall_s, calibrated_s, results)``.

    With ``cal_units``, a calibration chunk runs before each comparison
    and after the last one, and ``calibrated_s`` is the wall time scaled
    to the reference machine speed (see :func:`harness.calibrate`).
    """
    from repro.eval.experiment import run_comparison

    wall = 0.0
    unit_s = []
    results = []
    for config in cfgs:
        if cal_units:
            unit_s.append(calibrate(cal_units))
        started = time.perf_counter()
        results.append(run_comparison(config))
        wall += time.perf_counter() - started
    if cal_units:
        unit_s.append(calibrate(cal_units))
        return wall, wall * CAL_REF_S / (sum(unit_s) / len(unit_s)), results
    return wall, wall, results


def run(params: dict, seed: int, seconds: float, trace: bool, report) -> None:
    import repro.api  # noqa: F401  (imported on first use; set-up, not search time)

    cfgs = configs(params, seed)
    times: list[float] = []
    scaled: list[float] = []
    signatures = None
    last = None
    started = time.perf_counter()
    # Untraced repetitions: at least min_reps, then until the budget is
    # spent.  A traced run needs two: the first warms lazy imports, the
    # second is the untraced reference for the trace overhead.
    reps = 2 if trace else params["min_reps"]
    while len(times) < reps or (not trace and fits(started, times, seconds)):
        elapsed, calibrated, results = _run_set(cfgs, params["cal_units"])
        times.append(elapsed)
        scaled.append(calibrated)
        sig = [_signature(r) for r in results]
        report.attempted += len(results)
        if signatures is None:
            signatures = sig
        mismatches = sum(a != b for a, b in zip(signatures, sig))
        if mismatches:
            report.failed += mismatches
            report.error(f"{mismatches} comparisons did not repeat exactly across repetitions")
        last = results
    evaluations = sum(r.str_result.evaluations + r.dtr_result.evaluations for r in last)

    # Output checks (untimed), once per config.
    for config, result in zip(cfgs, last):
        errors = check_comparison(config, result)
        if errors:
            report.failed += 1
            for message in errors:
                report.error(f"{config.topology} seed {config.seed}: {message}")

    search_s = median(times)
    calibrated_s = median(scaled)
    report.info(
        f"search_s={search_s:.4f} s (median of {len(times)} sets: "
        + ", ".join(f"{t:.3f}" for t in times)
        + f"); at reference speed {calibrated_s:.4f} s (sets: "
        + ", ".join(f"{t:.3f}" for t in scaled)
        + f"); {len(cfgs)} comparisons, {evaluations} evaluator calls per set"
    )
    report.e2e["main_ms"] = calibrated_s * 1e3
    report.e2e["unit_ms"] = calibrated_s * 1e3 / evaluations
    report.e2e["peak_rss_mb"] = self_peak_rss_mb()
    report.layer["search.evaluations"] = float(evaluations)

    if trace:
        from tracer import Tracer, install_inprocess, layer_metrics

        tracer = Tracer()
        evaluators = install_inprocess(tracer)
        before = registry_samples()
        try:
            with tracer.root("comparison_set"):
                _wall, _calibrated, traced_results = _run_set(cfgs)
        finally:
            tracer.restore()
        if [_signature(r) for r in traced_results] != signatures:
            report.failed += 1
            report.error("traced comparison set differs from the untraced one")
        ledger = tracer.ledger()
        report.layer.update(layer_metrics(ledger, tracer.counts))
        report.layer.update(evaluator_ratios(evaluators, before, registry_samples()))
        report.layer["trace_overhead_frac"] = ledger["wall_s"] / times[-1] - 1.0


def evaluator_ratios(evaluators, before: dict, after: dict) -> dict:
    """Cache, memo and incremental-build ratios of the traced evaluators.

    Layer-cache and build counts come from each evaluator's
    ``cache_stats()``; the routing memo is only counted by the program's
    own telemetry, read as the difference of two registry snapshots.
    """
    stats: dict[str, int] = {}
    for evaluator in evaluators:
        for key, value in evaluator.cache_stats().items():
            stats[key] = stats.get(key, 0) + value
    memo = "repro_evaluator_routing_memo_total"
    memo_hits = counter_delta(before, after, memo + '{event="hit"}')
    memo_misses = counter_delta(before, after, memo + '{event="miss"}')

    def ratio(num, den):
        return num / den if den else 0.0

    layer_hits = stats.get("high_hits", 0) + stats.get("low_hits", 0)
    layer_lookups = layer_hits + stats.get("high_misses", 0) + stats.get("low_misses", 0)
    incremental = stats.get("high_incremental", 0) + stats.get("low_incremental", 0)
    builds = incremental + stats.get("high_full", 0) + stats.get("low_full", 0)
    full_hits = stats.get("full_hits", 0)
    return {
        "evaluator.full_hit_ratio": ratio(full_hits, full_hits + stats.get("full_misses", 0)),
        "evaluator.layer_hit_ratio": ratio(layer_hits, layer_lookups),
        "evaluator.memo_hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
        "evaluator.incremental_build_frac": ratio(incremental, builds),
    }
