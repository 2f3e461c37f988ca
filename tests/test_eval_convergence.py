"""Tests for convergence-trace analysis."""

import pytest

from repro.core.lexicographic import LexCost
from repro.core.result import TracePoint
from repro.eval.convergence import relative_gap, trace_from_history


def lex(a, b):
    return LexCost(float(a), float(b))


def point(phase, iteration, a, b):
    return TracePoint(phase, iteration, float(a), float(b))


def single_phase(*events):
    """An STR-style cost trace from ``(iteration, primary, secondary)``."""
    return [point("str", *event) for event in events]


class TestTraceFromHistory:
    def test_str_history(self):
        history = single_phase((0, 10, 100), (3, 8, 90), (7, 8, 50))
        trace = trace_from_history(history, total_iterations=10)
        assert len(trace.iterations) == 11
        assert trace.objectives[0] == lex(10, 100)
        assert trace.objectives[2] == lex(10, 100)
        assert trace.objectives[3] == lex(8, 90)
        assert trace.objectives[7] == lex(8, 50)
        assert trace.final == lex(8, 50)
        assert trace.initial == lex(10, 100)

    def test_dtr_history_phases_concatenated(self):
        history = [
            point("high", 0, 10, 100),
            point("high", 4, 8, 100),
            point("low", 2, 8, 60),
            point("refine", 1, 8, 55),
        ]
        trace = trace_from_history(history, total_iterations=12)
        assert trace.final == lex(8, 55)
        assert trace.objectives[4] == lex(8, 100)
        assert trace.objectives[6] == lex(8, 60)

    def test_non_improving_events_ignored(self):
        history = single_phase((0, 5, 50), (2, 6, 10))
        trace = trace_from_history(history, total_iterations=4)
        assert trace.final == lex(5, 50)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            trace_from_history([], 5)

    def test_improvement_count(self):
        history = single_phase((0, 10, 100), (1, 9, 100), (2, 9, 80))
        trace = trace_from_history(history, total_iterations=3)
        assert trace.improvement_count() == 2


class TestIterationsToWithin:
    def test_exact_final(self):
        history = single_phase((0, 10, 100), (5, 8, 40))
        trace = trace_from_history(history, total_iterations=10)
        assert trace.iterations_to_within(0.0) == 5

    def test_loose_fraction_hits_earlier(self):
        history = single_phase((0, 8, 100), (2, 8, 44), (8, 8, 40))
        trace = trace_from_history(history, total_iterations=10)
        assert trace.iterations_to_within(0.10) == 2
        assert trace.iterations_to_within(0.0) == 8

    def test_negative_fraction_rejected(self):
        trace = trace_from_history(single_phase((0, 1, 1)), 2)
        with pytest.raises(ValueError):
            trace.iterations_to_within(-0.1)


class TestRelativeGap:
    def test_equal_is_zero(self):
        assert relative_gap(lex(1, 50), lex(9, 50)) == 0.0

    def test_positive_gap(self):
        assert relative_gap(lex(1, 60), lex(1, 50)) == pytest.approx(0.2)

    def test_zero_reference(self):
        assert relative_gap(lex(1, 0), lex(1, 0)) == 0.0
        assert relative_gap(lex(1, 5), lex(1, 0)) == float("inf")
