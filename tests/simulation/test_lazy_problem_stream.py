"""Problems are built one at a time and die as soon as they are dropped.

Each user's Eq. 1 instance is solved alone and then discarded, so
nothing a problem stream allocates for one user may outlive that user's
turn: a stream that held a chunk's worth of problems would keep them
alive long enough for the cyclic collector to promote them to its
oldest generation.  Every stream — the scalar ``iter_problems``,
``problem_for`` and the chunked batched ``iter_problems`` — must let an
earlier problem be freed the moment its consumer lets go of it, across
users of one chunk and across chunks, in float32 and float64.
"""

import weakref

import pytest

from repro.simulation import RoundProblems, SimulationConfig, make_engine
from repro.simulation.batch import BatchedRoundProblems


def played_engine(dtype):
    """A batched engine two rounds in, so tasks carry contributors."""
    engine = make_engine(
        SimulationConfig(
            n_users=90,
            n_tasks=40,
            rounds=6,
            area_side=6000.0,
            budget=3000.0,
            deadline_range=(5, 6),
            required_measurements=10,
            selector="greedy",
            engine="batched",
            distance_dtype=dtype,
            seed=5,
        )
    )
    engine.step()
    engine.step()
    return engine


@pytest.fixture(scope="module", params=["float32", "float64"])
def engine(request):
    return played_engine(request.param)


def batched(engine, users_per_chunk):
    tasks = engine.published_tasks()
    chunk_elements = (
        None if users_per_chunk is None else users_per_chunk * len(tasks)
    )
    return BatchedRoundProblems(
        tasks,
        engine.published_rewards(),
        chunk_elements=chunk_elements,
        dtype=engine._dtype,
        task_matrix=engine._task_geometry(),
        task_rows=[engine._task_row_of[t.task_id] for t in tasks],
    )


def assert_dropped_problems_die(stream):
    """Consume ``stream`` keeping only weak references: once the next
    problem is yielded, every earlier one must already be gone.  (The
    stream may hold the problem it just yielded until it is advanced.)"""
    refs = []
    nonempty = 0
    for _user, problem in stream:
        assert [ref() for ref in refs] == [None] * len(refs)
        nonempty += problem.size > 0
        refs.append(weakref.ref(problem))
        del problem
    del stream
    assert [ref() for ref in refs] == [None] * len(refs)
    assert nonempty > 0
    return len(refs)


class TestBatchedStream:
    # 1 user per chunk, 7 (a stream that listed each chunk's problems
    # would keep up to 6 siblings alive), and every user in one chunk.
    @pytest.mark.parametrize("users_per_chunk", [1, 7, None])
    def test_earlier_problems_are_collectable(self, engine, users_per_chunk):
        problems = batched(engine, users_per_chunk)
        users = engine.world.users
        assert assert_dropped_problems_die(problems.iter_problems(users)) == len(users)

    def test_problem_for(self, engine):
        problems = batched(engine, 7)
        refs = []
        for user in engine.world.users[:20]:
            refs.append(weakref.ref(problems.problem_for(user)))
        assert [ref() for ref in refs] == [None] * len(refs)


class TestScalarStream:
    def test_earlier_problems_are_collectable(self):
        engine = played_engine("float64")
        problems = RoundProblems(engine.published_tasks(), engine.published_rewards())
        users = engine.world.users
        assert assert_dropped_problems_die(problems.iter_problems(users)) == len(users)

    def test_problem_for(self):
        engine = played_engine("float64")
        problems = RoundProblems(engine.published_tasks(), engine.published_rewards())
        refs = [weakref.ref(problems.problem_for(u)) for u in engine.world.users]
        assert [ref() for ref in refs] == [None] * len(refs)
