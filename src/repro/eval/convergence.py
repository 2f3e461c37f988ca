"""Convergence analysis of search cost traces.

Every search records a :class:`~repro.core.result.TracePoint` at each
improvement (its ``cost_trace``); these utilities turn those sparse
traces into dense best-so-far traces and summary statistics — used to
compare budgets, ablations, and the STR/DTR searches against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.lexicographic import LexCost
from repro.core.result import TracePoint


@dataclass(frozen=True)
class ConvergenceTrace:
    """A dense best-so-far objective trace.

    Attributes:
        iterations: Iteration axis (0 .. total).
        objectives: Best objective found up to each iteration.
    """

    iterations: tuple[int, ...]
    objectives: tuple[LexCost, ...]

    @property
    def final(self) -> LexCost:
        """The final best objective."""
        return self.objectives[-1]

    @property
    def initial(self) -> LexCost:
        """The starting objective."""
        return self.objectives[0]

    def iterations_to_within(self, fraction: float) -> int:
        """First iteration whose secondary cost is within ``fraction`` of final.

        Measures convergence on the low-priority cost (the component DTR
        exists to improve) after the primary component has reached its
        final value.

        Raises:
            ValueError: if ``fraction`` is negative.
        """
        if fraction < 0:
            raise ValueError(f"fraction must be non-negative, got {fraction}")
        target_primary = self.final.primary
        target_secondary = self.final.secondary * (1.0 + fraction)
        for iteration, objective in zip(self.iterations, self.objectives):
            if objective.primary <= target_primary and objective.secondary <= target_secondary:
                return iteration
        return self.iterations[-1]

    def improvement_count(self) -> int:
        """Number of strict improvements along the trace."""
        count = 0
        for prev, cur in zip(self.objectives, self.objectives[1:]):
            if cur < prev:
                count += 1
        return count


def trace_from_history(
    cost_trace: Sequence[TracePoint], total_iterations: int
) -> ConvergenceTrace:
    """Densify a search's ``cost_trace`` into a best-so-far trace.

    Phase-local iterations are concatenated in phase order: at each
    phase change (DTR's ``high`` -> ``low`` -> ``refine``) the iteration
    offset grows by the last iteration recorded in the previous phase.
    A single-phase trace (STR, joint, anneal) keeps its iterations.

    Args:
        cost_trace: Improvement events, an
            :attr:`~repro.core.result.OptimizationResult.cost_trace`.
        total_iterations: Length of the iteration axis.

    Returns:
        A :class:`ConvergenceTrace` of ``total_iterations + 1`` samples.

    Raises:
        ValueError: on an empty trace.
    """
    if not cost_trace:
        raise ValueError("cost_trace must contain at least the initial objective")
    events = []
    offset = 0
    for previous, point in zip((None, *cost_trace), cost_trace):
        if previous is not None and point.phase != previous.phase:
            offset += previous.iteration
        events.append((offset + point.iteration, point.objective))
    events.sort(key=lambda e: e[0])

    iterations = tuple(range(total_iterations + 1))
    objectives = []
    best = events[0][1]
    idx = 0
    for i in iterations:
        while idx < len(events) and events[idx][0] <= i:
            if events[idx][1] < best:
                best = events[idx][1]
            idx += 1
        objectives.append(best)
    return ConvergenceTrace(iterations=iterations, objectives=tuple(objectives))


def relative_gap(a: LexCost, b: LexCost) -> float:
    """Relative secondary-cost gap of ``a`` over ``b`` (0 when equal)."""
    if b.secondary <= 0:
        return 0.0 if a.secondary <= 0 else float("inf")
    return a.secondary / b.secondary - 1.0
