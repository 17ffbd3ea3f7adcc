"""Unit tests for repro.core.demand — Eq. 2–5 behaviour."""

import math

import numpy as np
import pytest

from repro.core.demand import (
    DemandCalculator,
    DemandWeights,
    TaskDemandInputs,
    deadline_factor,
    progress_factor,
    scarcity_factor,
    scarcity_factors,
)

LN2 = math.log(2.0)


class TestDeadlineFactor:
    def test_far_deadline_is_small(self):
        assert deadline_factor(round_no=1, deadline=100) == pytest.approx(
            math.log(1 + 1 / 100)
        )

    def test_at_deadline_reaches_ln2(self):
        assert deadline_factor(round_no=5, deadline=5) == pytest.approx(LN2)

    def test_monotone_in_round(self):
        values = [deadline_factor(k, deadline=10) for k in range(1, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_growth_rate_accelerates(self):
        """Eq. 3 commentary: growth rate increases approaching the deadline."""
        values = [deadline_factor(k, deadline=10) for k in range(1, 11)]
        increments = [b - a for a, b in zip(values, values[1:])]
        assert all(a < b for a, b in zip(increments, increments[1:]))

    def test_scale_applies(self):
        assert deadline_factor(3, 3, scale=2.0) == pytest.approx(2.0 * LN2)

    def test_past_deadline_raises(self):
        with pytest.raises(ValueError, match="past deadline"):
            deadline_factor(round_no=6, deadline=5)

    def test_bad_round_raises(self):
        with pytest.raises(ValueError, match="round_no"):
            deadline_factor(round_no=0, deadline=5)


class TestProgressFactor:
    def test_untouched_task_maximal(self):
        assert progress_factor(0, 20) == pytest.approx(LN2)

    def test_complete_task_zero(self):
        assert progress_factor(20, 20) == pytest.approx(0.0)

    def test_monotone_decreasing(self):
        values = [progress_factor(r, 20) for r in range(21)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_reduction_rate_accelerates(self):
        """Eq. 4 commentary: reduction rate grows as progress nears 1."""
        values = [progress_factor(r, 10) for r in range(11)]
        drops = [a - b for a, b in zip(values, values[1:])]
        assert all(a < b for a, b in zip(drops, drops[1:]))

    def test_over_received_clamps(self):
        # Engine never over-fills, but the factor must stay defined.
        assert progress_factor(25, 20) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="required"):
            progress_factor(0, 0)
        with pytest.raises(ValueError, match="received"):
            progress_factor(-1, 5)


class TestScarcityFactor:
    def test_no_neighbours_maximal(self):
        assert scarcity_factor(0, 10) == pytest.approx(LN2)

    def test_best_served_task_zero(self):
        assert scarcity_factor(10, 10) == pytest.approx(0.0)

    def test_monotone_decreasing_in_neighbours(self):
        values = [scarcity_factor(n, 10) for n in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_everyone_starved_is_maximal(self):
        """N_max = 0: all tasks equally starved, factor maximal."""
        assert scarcity_factor(0, 0) == pytest.approx(LN2)

    def test_validation(self):
        with pytest.raises(ValueError, match="neighbours"):
            scarcity_factor(-1, 10)
        with pytest.raises(ValueError, match="max_neighbours"):
            scarcity_factor(5, 3)


class TestScarcityFactors:
    def test_matches_scalar_elementwise(self):
        counts = list(range(11))
        vectorized = scarcity_factors(counts, 10)
        for n, value in zip(counts, vectorized):
            # Bit-identical, not approx: both paths share _log_unique.
            assert float(value) == scarcity_factor(n, 10)

    def test_scale_matches_scalar(self):
        vectorized = scarcity_factors([0, 3, 7], 7, scale=2.5)
        for n, value in zip([0, 3, 7], vectorized):
            assert float(value) == scarcity_factor(n, 7, scale=2.5)

    def test_empty_input(self):
        assert scarcity_factors([], 10).shape == (0,)

    def test_everyone_starved_is_maximal(self):
        values = scarcity_factors([0, 0, 0], 0)
        assert values == pytest.approx([LN2, LN2, LN2])

    def test_validation(self):
        with pytest.raises(ValueError, match="neighbours"):
            scarcity_factors([2, -1], 10)
        with pytest.raises(ValueError, match="max_neighbours"):
            scarcity_factors([5], 3)


class TestDemandWeights:
    def test_from_ahp_matches_paper(self):
        weights = DemandWeights.from_ahp()
        assert weights.deadline == pytest.approx(0.648, abs=1e-3)
        assert weights.progress == pytest.approx(0.230, abs=1e-3)
        assert weights.scarcity == pytest.approx(0.122, abs=1e-3)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DemandWeights(0.5, 0.5, 0.5)

    def test_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DemandWeights(1.5, -0.25, -0.25)

    def test_wrong_matrix_order_rejected(self):
        from repro.core.ahp import PairwiseComparisonMatrix

        matrix = PairwiseComparisonMatrix.from_upper_triangle([2.0])
        with pytest.raises(ValueError, match="3 criteria"):
            DemandWeights.from_ahp(matrix)


class TestDemandCalculator:
    @pytest.fixture
    def calculator(self):
        return DemandCalculator(weights=DemandWeights.from_ahp())

    def test_normalized_demand_in_unit_interval(self, calculator):
        inputs = TaskDemandInputs(
            round_no=3, deadline=10, received=5, required=20, neighbours=2
        )
        demand = calculator.normalized_demand(inputs, max_neighbours=8)
        assert 0.0 <= demand <= 1.0

    def test_extreme_task_has_demand_one(self, calculator):
        """At its deadline, untouched, zero neighbours: maximal demand."""
        inputs = TaskDemandInputs(
            round_no=5, deadline=5, received=0, required=20, neighbours=0
        )
        assert calculator.normalized_demand(inputs, max_neighbours=10) == pytest.approx(1.0)

    def test_satisfied_task_has_low_demand(self, calculator):
        inputs = TaskDemandInputs(
            round_no=1, deadline=15, received=19, required=20, neighbours=10
        )
        assert calculator.normalized_demand(inputs, max_neighbours=10) < 0.15

    def test_demands_uses_population_max_neighbours(self, calculator):
        crowded = TaskDemandInputs(1, 15, 0, 20, neighbours=6)
        lonely = TaskDemandInputs(1, 15, 0, 20, neighbours=0)
        demands = calculator.demands([crowded, lonely])
        assert demands[1] > demands[0]

    def test_empty_population(self, calculator):
        assert calculator.demands([]) == []

    def test_max_demand_uses_largest_scale(self):
        calculator = DemandCalculator(
            weights=DemandWeights.from_ahp(),
            deadline_scale=1.0,
            progress_scale=3.0,
            scarcity_scale=2.0,
        )
        assert calculator.max_demand == pytest.approx(3.0 * LN2)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DemandCalculator(weights=DemandWeights.from_ahp(), deadline_scale=0.0)

    def test_unequal_scales_keep_normalization_bounded(self):
        calculator = DemandCalculator(
            weights=DemandWeights(1 / 3, 1 / 3, 1 / 3),
            deadline_scale=0.5,
            progress_scale=2.0,
            scarcity_scale=1.0,
        )
        inputs = TaskDemandInputs(5, 5, 0, 20, neighbours=0)
        assert calculator.normalized_demand(inputs, 0) <= 1.0


class TestDemandsArray:
    """The array path is on-demand pricing's only path: it must equal
    :meth:`DemandCalculator.demands` bit for bit and reject what the
    scalar factors reject."""

    @staticmethod
    def both(calculator, round_no, rows):
        inputs = [TaskDemandInputs(round_no, *row) for row in rows]
        columns = [np.asarray(col) for col in zip(*rows)]
        array = calculator.demands_array(round_no, *columns).tolist()
        return [d.hex() for d in array], [d.hex() for d in calculator.demands(inputs)]

    @pytest.mark.parametrize(
        "scales", [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (3.0, 0.7, 1.9)]
    )
    def test_matches_demands_bitwise_on_random_rounds(self, scales):
        calculator = DemandCalculator(DemandWeights.from_ahp(), *scales)
        rng = np.random.default_rng(11)
        for round_no in (1, 4, 9):
            required = rng.integers(1, 25, 40)
            rows = list(zip(
                (round_no + rng.integers(0, 12, 40)).tolist(),
                [int(rng.integers(0, r + 3)) for r in required],
                required.tolist(),
                rng.integers(0, 30, 40).tolist(),
            ))
            array, scalar = self.both(calculator, round_no, rows)
            assert array == scalar

    def test_matches_demands_on_edges(self):
        calculator = DemandCalculator(DemandWeights(0.2, 0.3, 0.5))
        rows = [
            (5, 0, 20, 0),     # at its deadline, untouched, alone
            (5, 20, 20, 7),    # complete
            (6, 25, 20, 7),    # over-complete: progress clamps to 1
            (40, 10, 20, 3),
        ]
        array, scalar = self.both(calculator, 5, rows)
        assert array == scalar
        no_neighbours = [(5, 0, 20, 0), (9, 1, 3, 0)]
        array, scalar = self.both(calculator, 5, no_neighbours)
        assert array == scalar

    def test_empty_round(self):
        calculator = DemandCalculator(DemandWeights.from_ahp())
        empty = np.zeros(0, dtype=int)
        assert calculator.demands_array(1, empty, empty, empty, empty).size == 0

    @pytest.mark.parametrize(
        "row, match",
        [
            ((10, 0, 0, 1), "required"),
            ((10, -3, 20, 1), "received"),
            ((10, 0, 20, -1), "neighbours"),
            ((2, 0, 20, 1), "deadline"),
        ],
    )
    def test_rejects_what_the_scalar_factors_reject(self, row, match):
        calculator = DemandCalculator(DemandWeights.from_ahp())
        rows = [(10, 1, 20, 2), row]
        with pytest.raises(ValueError, match=match):
            calculator.demands([TaskDemandInputs(3, *r) for r in rows])
        with pytest.raises(ValueError, match=match):
            calculator.demands_array(3, *[np.asarray(c) for c in zip(*rows)])
