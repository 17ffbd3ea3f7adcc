"""The list-scan greedy against the numpy-scan implementation it replaced.

``GreedySelector.select`` now scans ``distance_matrix.tolist()`` and the
candidates' rewards as Python floats.  ``numpy_scan_select`` below is
the previous implementation, kept here as the reference: it read numpy
scalars from the matrix and a rewards array.  Both must return the same
selection on every problem — float32 and float64 matrices, reward ties
(the first-occurrence maximum wins under the strict ``>``), a positive
``min_step_profit`` and legs that land exactly on the budget slack.
"""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.selection.base import CandidateTask, Selection
from repro.selection.greedy import GreedySelector
from repro.selection.problem import TaskSelectionProblem


def numpy_scan_select(problem, min_step_profit=0.0):
    """The numpy-scalar greedy scan, as it was before the list scan."""
    if problem.size == 0:
        return Selection.empty()
    matrix = problem.distance_matrix
    rewards = problem.rewards
    cost_rate = problem.cost_per_meter
    budget = problem.max_distance + 1e-9
    order = []
    chosen = [False] * problem.size
    current = 0
    traveled = 0.0
    while True:
        best_idx = -1
        best_gain = min_step_profit
        row = matrix[current]
        for j in range(problem.size):
            if chosen[j]:
                continue
            leg = float(row[j + 1])
            if traveled + leg > budget:
                continue
            gain = float(rewards[j]) - cost_rate * leg
            if gain > best_gain:
                best_gain = gain
                best_idx = j
        if best_idx < 0:
            break
        order.append(best_idx)
        chosen[best_idx] = True
        traveled += float(matrix[current, best_idx + 1])
        current = best_idx + 1
    if not order:
        return Selection.empty()
    return problem.evaluate(order)


def random_problem(rng, dtype, size, tie_rewards=False):
    points = rng.uniform(0.0, 1500.0, size=(size + 1, 2))
    diff = points[:, None, :] - points[None, :, :]
    matrix = np.sqrt((diff**2).sum(axis=2)).astype(dtype)
    if tie_rewards:
        rewards = rng.choice([0.5, 1.0, 1.5], size=size)
    else:
        rewards = rng.uniform(0.0, 3.0, size=size)
    candidates = tuple(
        CandidateTask(task_id=100 + j, location=Point(*points[j + 1]), reward=float(r))
        for j, r in enumerate(rewards)
    )
    return TaskSelectionProblem(
        origin=Point(*points[0]),
        candidates=candidates,
        max_distance=float(rng.uniform(300.0, 4000.0)),
        cost_per_meter=float(rng.choice([0.0, 0.001, 0.002, 0.01])),
        distance_matrix=matrix,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("min_step_profit", [0.0, 0.3])
@pytest.mark.parametrize("tie_rewards", [False, True])
def test_matches_numpy_scan_on_random_problems(dtype, min_step_profit, tie_rewards):
    rng = np.random.default_rng([7, int(min_step_profit * 10), tie_rewards])
    selector = GreedySelector(min_step_profit=min_step_profit)
    nonempty = 0
    for _ in range(300):
        problem = random_problem(rng, dtype, int(rng.integers(0, 12)), tie_rewards)
        selection = selector.select(problem)
        assert selection == numpy_scan_select(problem, min_step_profit)
        nonempty += not selection.is_empty
    assert nonempty > 50


def line_problem(legs, rewards, max_distance, dtype=np.float64, cost=0.001):
    """Candidates on a line from the origin at cumulative ``legs``."""
    xs = np.concatenate([[0.0], np.cumsum(legs)])
    matrix = np.abs(xs[:, None] - xs[None, :]).astype(dtype)
    candidates = tuple(
        CandidateTask(task_id=j, location=Point(float(x), 0.0), reward=r)
        for j, (x, r) in enumerate(zip(xs[1:], rewards))
    )
    return TaskSelectionProblem(
        origin=Point(0.0, 0.0),
        candidates=candidates,
        max_distance=max_distance,
        cost_per_meter=cost,
        distance_matrix=matrix,
    )


class TestEdges:
    def test_reward_tie_takes_the_first_candidate(self):
        # Two candidates at the same distance and price: index 0 wins.
        problem = TaskSelectionProblem(
            origin=Point(0.0, 0.0),
            candidates=(
                CandidateTask(1, Point(100.0, 0.0), 1.0),
                CandidateTask(2, Point(-100.0, 0.0), 1.0),
            ),
            max_distance=150.0,
            cost_per_meter=0.001,
            distance_matrix=np.array(
                [[0.0, 100.0, 100.0], [100.0, 0.0, 200.0], [100.0, 200.0, 0.0]]
            ),
        )
        selection = GreedySelector().select(problem)
        assert selection.task_ids == (1,)
        assert selection == numpy_scan_select(problem)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leg_exactly_at_budget_slack_is_taken(self, dtype):
        budget = 100.0
        leg = float(np.asarray(budget + 1e-9, dtype=dtype))
        problem = line_problem([leg], [1.0], max_distance=leg - 1e-9, dtype=dtype)
        # traveled + leg == max_distance + 1e-9 exactly: not over budget.
        assert 0.0 + leg == problem.max_distance + 1e-9
        selection = GreedySelector().select(problem)
        assert selection.task_ids == (0,)
        assert selection == numpy_scan_select(problem)

    def test_leg_past_budget_slack_is_refused(self):
        problem = line_problem([50.0, 50.0 + 2e-9], [1.0, 1.0], max_distance=100.0)
        selection = GreedySelector().select(problem)
        assert selection.task_ids == (0,)
        assert selection == numpy_scan_select(problem)

    def test_min_step_profit_is_strict(self):
        # Gain exactly min_step_profit (0.75 - 64 * 2**-7 = 0.25, exact
        # in binary) is not "more than" it.
        problem = line_problem([64.0], [0.75], max_distance=500.0, cost=2.0**-7)
        assert GreedySelector(min_step_profit=0.25).select(problem).is_empty
        assert numpy_scan_select(problem, 0.25).is_empty
        assert GreedySelector(min_step_profit=0.2).select(problem).task_ids == (0,)
