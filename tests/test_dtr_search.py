"""Tests for the DTR search (paper Algorithm 1)."""

import random

import numpy as np
import pytest

from repro.api import Session, optimize
from repro.core.dtr_search import PHASE_HIGH, PHASE_LOW, PHASE_REFINE
from repro.core.evaluator import DualTopologyEvaluator
from repro.core.search_params import SearchParams
from repro.routing.weights import unit_weights

FAST = SearchParams(
    iterations_high=15, iterations_low=15, iterations_refine=20, diversification_interval=8
)


@pytest.fixture
def evaluator(isp_net, small_traffic):
    high, low = small_traffic
    return DualTopologyEvaluator(isp_net, high, low, mode="load")


def run(strategy, evaluator, params, rng, **options):
    """One registered strategy on a session sharing ``evaluator``."""
    return optimize(
        Session.from_evaluator(evaluator), strategy=strategy, params=params, rng=rng, **options
    )


def run_dtr(evaluator, params, rng, **options):
    return run("dtr", evaluator, params, rng, **options)


def test_improves_over_initial(evaluator):
    initial = unit_weights(evaluator.network.num_links)
    result = run_dtr(
        evaluator, FAST, random.Random(1), initial_high=initial, initial_low=initial
    )
    assert result.objective <= evaluator.evaluate(initial, initial).objective


def test_result_consistency(evaluator):
    result = run_dtr(evaluator, FAST, random.Random(2))
    recomputed = evaluator.evaluate(result.high_weights, result.low_weights)
    assert recomputed.objective == result.objective
    assert result.evaluation.objective == result.objective


def test_weights_in_range(evaluator):
    result = run_dtr(evaluator, FAST, random.Random(3))
    for weights in (result.high_weights, result.low_weights):
        assert np.all(weights >= 1)
        assert np.all(weights <= 30)


def test_never_worse_than_str_seed(evaluator):
    """Seeding DTR with the STR optimum guarantees R_H, R_L >= 1."""
    rng = random.Random(4)
    str_result = run("str", evaluator, FAST, rng)
    dtr_result = run_dtr(
        evaluator,
        FAST,
        rng,
        initial_high=str_result.weights,
        initial_low=str_result.weights,
    )
    assert dtr_result.objective <= str_result.objective


def test_dual_weights_typically_diverge(evaluator):
    """The point of DTR: the two topologies end up different."""
    result = run_dtr(evaluator, FAST, random.Random(5))
    assert not np.array_equal(result.high_weights, result.low_weights)


def test_history_phases_ordered(evaluator):
    result = run_dtr(evaluator, FAST, random.Random(6))
    phase_order = {PHASE_HIGH: 0, PHASE_LOW: 1, PHASE_REFINE: 2}
    phases = [phase_order[point.phase] for point in result.cost_trace]
    assert phases == sorted(phases)


def test_history_objectives_monotone(evaluator):
    result = run_dtr(evaluator, FAST, random.Random(7))
    objectives = [point.objective for point in result.cost_trace]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_deterministic_given_seed(evaluator):
    a = run_dtr(evaluator, FAST, random.Random(42))
    b = run_dtr(evaluator, FAST, random.Random(42))
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.high_weights, b.high_weights)
    np.testing.assert_array_equal(a.low_weights, b.low_weights)


def test_initial_low_defaults_to_initial_high(evaluator):
    initial = unit_weights(evaluator.network.num_links)
    result = run_dtr(evaluator, FAST, random.Random(8), initial_high=initial)
    assert result.objective <= evaluator.evaluate(initial, initial).objective


def test_evaluations_counted(evaluator):
    result = run_dtr(evaluator, FAST, random.Random(9))
    assert result.evaluations > FAST.total_iterations()


def test_zero_iteration_budget(evaluator):
    params = SearchParams(
        iterations_high=0, iterations_low=0, iterations_refine=0
    )
    initial = unit_weights(evaluator.network.num_links)
    result = run_dtr(
        evaluator, params, random.Random(10), initial_high=initial, initial_low=initial
    )
    np.testing.assert_array_equal(result.high_weights, initial)
    np.testing.assert_array_equal(result.low_weights, initial)


def test_sla_mode(isp_net, small_traffic):
    high, low = small_traffic
    evaluator = DualTopologyEvaluator(isp_net, high, low, mode="sla")
    rng = random.Random(11)
    str_result = run("str", evaluator, FAST, rng)
    result = run_dtr(
        evaluator, FAST, rng,
        initial_high=str_result.weights, initial_low=str_result.weights,
    )
    assert result.objective <= str_result.objective


class TestProgressHook:
    def test_heartbeats_cover_all_phases(self, evaluator):
        params = SearchParams(
            iterations_high=10, iterations_low=10, iterations_refine=10,
            diversification_interval=8, progress_interval=5,
        )
        beats = []
        run_dtr(
            evaluator, params, random.Random(6),
            progress=lambda phase, i, total: beats.append((phase, i, total)),
        )
        assert {b[0] for b in beats} == {PHASE_HIGH, PHASE_LOW, PHASE_REFINE}
        assert all(i <= total for _, i, total in beats)

    def test_callback_does_not_change_trajectory(self, evaluator):
        plain = run_dtr(evaluator, FAST, random.Random(7))
        observed = run_dtr(
            evaluator, FAST, random.Random(7), progress=lambda *a: None
        )
        assert plain.objective == observed.objective
        np.testing.assert_array_equal(plain.high_weights, observed.high_weights)
        np.testing.assert_array_equal(plain.low_weights, observed.low_weights)
