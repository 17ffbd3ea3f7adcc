"""The chunk fill: every problem matrix of a batch from one flat buffer.

``RoundProblems._fill`` replaced a per-user assembly that built each
``(k+1, k+1)`` matrix with its own numpy calls.  The reference below is
that per-user assembly, kept here (not in ``src/``) so every problem the
fill yields can be compared with it byte for byte: same candidates, same
dtype, same matrix bytes, on the batched stream (float32 and float64,
one-user and multi-user chunks, contributor exclusion, no active tasks)
and on the scalar ``problem_for`` path.  The fill's matrices are
read-only views of a shared buffer; writing to one must raise.
"""

import numpy as np
import pytest

from repro.selection.problem import TaskSelectionProblem
from repro.simulation import RoundProblems, SimulationConfig, make_engine
from repro.simulation.batch import BatchedRoundProblems
from repro.simulation.perf import PerfStats


def reference_keep(problems, user):
    """The scalar pruning rule: not yet contributed, directly reachable."""
    return [
        index
        for index, task in enumerate(problems.tasks)
        if user.user_id not in task.contributors
        and user.location.distance_to(task.location) <= user.max_travel_distance
    ]


def reference_origin_row(problems, user, keep, dtype):
    """Origin-to-candidate distances in the pipeline's own arithmetic."""
    origin = np.asarray([user.location.x, user.location.y], dtype=float)
    origin = origin.astype(dtype)
    locations = problems.locations.astype(dtype)[keep]
    dx = origin[0] - locations[:, 0]
    dy = origin[1] - locations[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def reference_assemble(problems, user, keep, origin_row):
    """The per-user assembly the fill replaced."""
    keep = np.asarray(keep, dtype=np.int64)
    k = len(keep)
    if k:
        matrix = np.empty((k + 1, k + 1), dtype=problems.dtype)
        matrix[0, 0] = 0.0
        matrix[0, 1:] = origin_row
        matrix[1:, 0] = origin_row
        rows = keep if problems.task_rows is None else problems.task_rows[keep]
        matrix[1:, 1:] = problems.task_matrix[rows[:, None], rows]
        candidates = tuple(problems.candidates[i] for i in keep.tolist())
    else:
        matrix = np.zeros((1, 1), dtype=problems.dtype)
        candidates = ()
    return TaskSelectionProblem(
        origin=user.location,
        candidates=candidates,
        max_distance=float(user.max_travel_distance),
        cost_per_meter=float(user.cost_per_meter),
        distance_matrix=matrix,
    )


def reference(problems, user):
    keep = reference_keep(problems, user)
    origin_row = reference_origin_row(problems, user, keep, problems.dtype)
    return reference_assemble(problems, user, keep, origin_row)


def assert_same(problem, expected):
    assert problem.candidates == expected.candidates
    assert problem.origin == expected.origin
    assert problem.max_distance == expected.max_distance
    assert problem.cost_per_meter == expected.cost_per_meter
    assert problem.distance_matrix.dtype == expected.distance_matrix.dtype
    assert problem.distance_matrix.shape == expected.distance_matrix.shape
    assert problem.distance_matrix.tobytes() == expected.distance_matrix.tobytes()


def played_engine(dtype, rounds=2):
    """A batched engine a few rounds in, so tasks carry contributors."""
    engine = make_engine(
        SimulationConfig(
            n_users=150,
            n_tasks=60,
            rounds=8,
            area_side=6000.0,
            budget=3000.0,
            deadline_range=(6, 8),
            required_measurements=12,
            participation_rate=0.8,
            selector="greedy",
            engine="batched",
            distance_dtype=dtype,
            seed=21,
        )
    )
    for _ in range(rounds):
        engine.step()
    return engine


@pytest.fixture(scope="module", params=["float32", "float64"])
def engine(request):
    return played_engine(request.param)


def batched_problems(engine, chunk_elements, stats=None):
    tasks = engine.published_tasks()
    return BatchedRoundProblems(
        tasks,
        engine.published_rewards(),
        stats=stats,
        chunk_elements=chunk_elements,
        dtype=engine._dtype,
        task_matrix=engine._task_geometry(),
        task_rows=[engine._task_row_of[t.task_id] for t in tasks],
    )


class TestBatchedStream:
    @pytest.mark.parametrize("users_per_chunk", [1, 7, None])
    def test_matches_reference_assembly(self, engine, users_per_chunk):
        n_tasks = len(engine.published_tasks())
        chunk_elements = None if users_per_chunk is None else users_per_chunk * n_tasks
        problems = batched_problems(engine, chunk_elements)
        users = engine.world.users
        yielded = list(problems.iter_problems(users))
        assert [user for user, _ in yielded] == users
        sizes = set()
        for user, problem in yielded:
            assert_same(problem, reference(problems, user))
            sizes.add(problem.size)
        # Mixed candidate counts, including users without a candidate.
        assert 0 in sizes and len(sizes) >= 3

    def test_contributors_are_excluded(self, engine):
        problems = batched_problems(engine, None)
        excluded = 0
        for user, problem in problems.iter_problems(engine.world.users):
            ids = {c.task_id for c in problem.candidates}
            for task in problems.tasks:
                if user.user_id in task.contributors:
                    assert task.task_id not in ids
                    excluded += 1
        assert excluded > 0

    def test_no_active_tasks(self, engine):
        problems = BatchedRoundProblems([], {}, dtype=engine._dtype)
        users = engine.world.users[:5]
        for user, problem in problems.iter_problems(users):
            assert_same(problem, reference_assemble(problems, user, [], None))

    def test_one_hit_per_problem(self, engine):
        stats = PerfStats()
        problems = batched_problems(engine, 7 * len(engine.published_tasks()), stats)
        users = engine.world.users
        list(problems.iter_problems(users))
        assert stats.problem_cache_hits == len(users)
        assert stats.problem_cache_misses == 1

    def test_problem_for_is_the_one_user_case(self, engine):
        problems = batched_problems(engine, None)
        for user in engine.world.users[:20]:
            assert_same(problems.problem_for(user), reference(problems, user))


class TestScalarPath:
    def test_problem_for_matches_reference_assembly(self):
        engine = played_engine("float64")
        problems = RoundProblems(engine.published_tasks(), engine.published_rewards())
        for user in engine.world.users:
            assert_same(problems.problem_for(user), reference(problems, user))

    def test_fill_batches_mixed_counts(self):
        # The scalar stream fills one user at a time; a direct batch with
        # unequal counts must give the same problems.
        engine = played_engine("float64")
        problems = RoundProblems(engine.published_tasks(), engine.published_rewards())
        users = engine.world.users[:12]
        keeps = [reference_keep(problems, u) for u in users]
        rows = [
            reference_origin_row(problems, u, k, np.float64)
            for u, k in zip(users, keeps)
        ]
        filled = problems._fill(
            users,
            [i for keep in keeps for i in keep],
            np.concatenate(rows),
            [len(keep) for keep in keeps],
        )
        assert len({len(keep) for keep in keeps}) > 1
        for user, keep, row, problem in zip(users, keeps, rows, filled):
            assert_same(problem, reference_assemble(problems, user, keep, row))


class TestReadOnly:
    def test_matrices_are_read_only_views(self, engine):
        problems = batched_problems(engine, 7 * len(engine.published_tasks()))
        for _, problem in problems.iter_problems(engine.world.users):
            matrix = problem.distance_matrix
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
            if matrix.base is not None:
                with pytest.raises(ValueError):
                    matrix.base[...] = 1.0

    def test_scalar_matrices_are_read_only(self):
        engine = played_engine("float64", rounds=0)
        problems = RoundProblems(engine.published_tasks(), engine.published_rewards())
        for user in engine.world.users[:10]:
            with pytest.raises(ValueError):
                problems.problem_for(user).distance_matrix[...] = 0.0
