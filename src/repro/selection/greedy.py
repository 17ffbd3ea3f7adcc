"""The paper's greedy task selection (Section V-B).

"We use the profit provided by the candidate tasks as a criteria, which
is calculated as the reward of the task minus the cost of the movement
from the current location to the location of the task.  Thus, each
mobile user will greedily select the task which can mostly increase the
total profit at each step within the traveling time/distance budget
until no satisfied task can be found."

Complexity is :math:`O(m^2)` (Theorem 3): at most m steps, each scanning
at most m candidates.
"""

from __future__ import annotations

from typing import List

from repro.selection.base import Selection, Selector
from repro.selection.problem import TaskSelectionProblem


class GreedySelector(Selector):
    """Marginal-profit greedy solver for Eq. 1.

    Args:
        min_step_profit: a step is "satisfying" only if it increases the
            total profit by more than this (the paper's rational user
            requires strictly positive marginal profit; 0 by default).
    """

    name = "greedy"

    def __init__(self, min_step_profit: float = 0.0):
        self.min_step_profit = min_step_profit

    def select(self, problem: TaskSelectionProblem) -> Selection:
        size = problem.size
        if size == 0:
            return Selection.empty()
        # Python floats throughout: one tolist() converts every entry
        # exactly, so the scan compares the same values the numpy
        # matrix holds without a numpy scalar read per leg.
        matrix = problem.distance_matrix.tolist()
        rewards = [float(c.reward) for c in problem.candidates]
        cost_rate = problem.cost_per_meter
        budget = problem.max_distance + 1e-9

        order: List[int] = []
        chosen = [False] * size
        current = 0  # node index: 0 = origin, j+1 = candidate j
        traveled = 0.0

        while True:
            best_idx = -1
            best_gain = self.min_step_profit
            row = matrix[current]
            for j in range(size):
                if chosen[j]:
                    continue
                leg = row[j + 1]
                if traveled + leg > budget:
                    continue
                gain = rewards[j] - cost_rate * leg
                if gain > best_gain:
                    best_gain = gain
                    best_idx = j
            if best_idx < 0:
                break
            order.append(best_idx)
            chosen[best_idx] = True
            traveled += row[best_idx + 1]
            current = best_idx + 1

        if not order:
            return Selection.empty()
        return problem.evaluate(order)
