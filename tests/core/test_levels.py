"""Unit tests for repro.core.levels — the Table III bucketing."""

import math

import numpy as np
import pytest

from repro.core.levels import DemandLevels


class TestTable3:
    """The paper's worked N = 5 example."""

    @pytest.fixture
    def levels(self):
        return DemandLevels(5)

    @pytest.mark.parametrize(
        "demand,expected",
        [
            (0.0, 1), (0.1, 1), (0.2, 1),   # [0, 0.2]
            (0.21, 2), (0.3, 2), (0.4, 2),  # (0.2, 0.4] — paper's example: 0.3 -> 2
            (0.5, 3), (0.6, 3),
            (0.7, 4), (0.8, 4),
            (0.81, 5), (1.0, 5),
        ],
    )
    def test_bucket_assignment(self, levels, demand, expected):
        assert levels.level_of(demand) == expected

    def test_boundaries_belong_to_lower_bucket(self, levels):
        """Table III buckets are (low, high]: 0.4 is level 2, not 3."""
        assert levels.level_of(0.4) == 2
        assert levels.level_of(0.4 + 1e-9) == 3

    def test_table_rendering(self, levels):
        table = levels.table()
        assert len(table) == 5
        assert table[0] == ((0.0, 0.2), 1)
        assert table[-1] == ((0.8, 1.0), 5)


class TestGeneral:
    def test_single_level(self):
        levels = DemandLevels(1)
        assert levels.level_of(0.0) == 1
        assert levels.level_of(1.0) == 1

    def test_many_levels(self):
        levels = DemandLevels(10)
        assert levels.level_of(0.05) == 1
        assert levels.level_of(0.95) == 10
        assert levels.width == pytest.approx(0.1)

    def test_levels_partition_unit_interval(self):
        levels = DemandLevels(7)
        grid = [i / 1000 for i in range(1001)]
        assigned = [levels.level_of(d) for d in grid]
        assert min(assigned) == 1
        assert max(assigned) == 7
        # Levels never decrease along the grid.
        assert all(a <= b for a, b in zip(assigned, assigned[1:]))

    def test_float_noise_on_boundaries(self):
        levels = DemandLevels(5)
        # 0.6000000000000001-style noise must not jump a bucket.
        assert levels.level_of(0.1 + 0.2 + 0.3) == 3

    def test_out_of_range_rejected(self):
        levels = DemandLevels(5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            levels.level_of(-0.1)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            levels.level_of(1.1)

    def test_bounds_lookup(self):
        levels = DemandLevels(4)
        assert levels.bounds(2) == (0.25, 0.5)
        with pytest.raises(ValueError, match="level"):
            levels.bounds(5)
        with pytest.raises(ValueError, match="level"):
            levels.bounds(0)

    def test_vector_form(self):
        levels = DemandLevels(5)
        assert levels.levels_of([0.0, 0.3, 0.9]) == [1, 2, 5]

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="count"):
            DemandLevels(0)


def edge_demands(count):
    """Every bucket edge k/N, its float neighbours, 0, 1 and the slack."""
    values = [0.0, 1.0, -1e-13, 1.0 + 1e-13, 0.1 + 0.2 + 0.3]
    for k in range(count + 1):
        edge = k / count
        values += [edge, math.nextafter(edge, -1.0), math.nextafter(edge, 2.0)]
    return values


class TestLevelsArrayParity:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 10])
    def test_matches_level_of_on_edges(self, count):
        levels = DemandLevels(count)
        demands = edge_demands(count)
        assert levels.levels_array(np.asarray(demands)).tolist() == (
            levels.levels_of(demands)
        )

    def test_matches_level_of_on_random_demands(self):
        levels = DemandLevels(6)
        demands = np.random.default_rng(3).uniform(0.0, 1.0, 500)
        assert levels.levels_array(demands).tolist() == levels.levels_of(
            demands.tolist()
        )

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
    def test_rejects_what_level_of_rejects(self, bad):
        levels = DemandLevels(5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            levels.level_of(bad)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            levels.levels_array(np.asarray([0.5, bad]))
