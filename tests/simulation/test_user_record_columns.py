"""The engine's per-round user records, held as columns until read.

:class:`UserRecordColumns` must be indistinguishable from the tuple of
:class:`UserRoundRecord`\\ s the engine used to build eagerly (sorted by
``user_id``): same iteration, equality, hashing and pickling, and the
same fingerprints after an events-JSONL round trip.  It must also never
build those records just to answer ``len()``.
"""

import pickle

import pytest

from repro.io.events import read_events_jsonl, write_events_jsonl
from repro.selection import Selection
from repro.simulation import SimulationConfig, make_engine
from repro.simulation.events import (
    RoundRecord,
    UserRecordColumns,
    UserRoundRecord,
    round_fingerprint,
)

PATH = Selection(task_ids=(4, 2), distance=30.0, reward=5.0, cost=0.06)
OTHER = Selection(task_ids=(1,), distance=10.0, reward=2.0, cost=0.02)
EMPTY = Selection.empty()


class Untouchable:
    """A column that fails the test if any entry is read."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, index):
        raise AssertionError("column read: records were built")


def columns():
    # World order is not user-id order here, so the sort is exercised.
    return UserRecordColumns(
        7, [12, 3, 8], [PATH, EMPTY, OTHER], [4.0, 0.0, 2.0]
    )


def eager():
    """What the engine used to build: one record per user, by user id."""
    records = [
        UserRoundRecord(7, 12, (4, 2), 30.0, 4.0, 0.06),
        UserRoundRecord(7, 3, (), 0.0, 0.0, 0.0),
        UserRoundRecord(7, 8, (1,), 10.0, 2.0, 0.02),
    ]
    return tuple(sorted(records, key=lambda r: r.user_id))


class TestLaziness:
    def test_len_does_not_build_records(self):
        records = UserRecordColumns(
            1, Untouchable(50_000), Untouchable(50_000), Untouchable(50_000)
        )
        assert len(records) == 50_000

    def test_reading_builds_once(self):
        records = columns()
        assert records[0] is records[0]
        assert list(records) == list(eager())


class TestTupleCompatibility:
    def test_iterates_in_user_id_order(self):
        assert [r.user_id for r in columns()] == [3, 8, 12]
        assert tuple(columns()) == eager()

    def test_indexing_and_slicing(self):
        assert columns()[-1] == eager()[-1]
        assert columns()[1:] == eager()[1:]

    def test_equal_to_a_tuple_in_both_directions(self):
        assert columns() == eager()
        assert eager() == columns()
        assert not columns() != eager()
        assert columns() == columns()

    def test_unequal_to_other_content_and_types(self):
        assert columns() != eager()[:2]
        assert eager()[:2] != columns()
        assert columns() != list(eager())

    def test_hashes_like_the_tuple(self):
        assert hash(columns()) == hash(eager())

    def test_pickles_as_a_plain_tuple(self):
        clone = pickle.loads(pickle.dumps(columns()))
        assert type(clone) is tuple
        assert clone == eager()

    def test_round_record_pickles_for_worker_results(self):
        record = RoundRecord(
            round_no=7,
            published_rewards={1: 2.0},
            user_records=columns(),
            measurements=(),
            rejections=(),
            completed_task_ids=(),
            expired_task_ids=(),
        )
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone.user_records) is tuple
        assert clone == record
        assert round_fingerprint(clone) == round_fingerprint(record)


def run(engine_name, **overrides):
    config = SimulationConfig(
        n_users=60,
        n_tasks=12,
        rounds=5,
        area_side=2500.0,
        budget=600.0,
        participation_rate=0.7,
        selector="greedy",
        engine=engine_name,
        seed=13,
        **overrides,
    )
    return make_engine(config).run()


@pytest.fixture(scope="module", params=["scalar", "batched"])
def result(request):
    return run(request.param)


class TestEngineRecords:
    def test_engine_emits_columns(self, result):
        for record in result.rounds:
            assert isinstance(record.user_records, UserRecordColumns)
            assert len(record.user_records) == len(result.world.users)

    def test_records_match_the_users_ledgers(self, result):
        for record in result.rounds:
            ids = [r.user_id for r in record.user_records]
            assert ids == sorted(ids)
            for user, user_record in zip(
                sorted(result.world.users, key=lambda u: u.user_id),
                record.user_records,
            ):
                assert user_record.user_id == user.user_id
                assert user_record.round_no == record.round_no
                assert user_record.profit == user.profit_in_round(record.round_no)

    def test_participating_users(self, result):
        for record in result.rounds:
            assert record.participating_users == sum(
                1 for r in tuple(record.user_records) if r.selected_task_ids
            )
        assert any(r.participating_users for r in result.rounds)

    def test_user_profits_per_round(self, result):
        for record in result.rounds:
            assert result.user_profits(record.round_no) == [
                r.profit for r in tuple(record.user_records)
            ]

    def test_events_jsonl_round_trip_keeps_fingerprints(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "events.jsonl")
        replay = read_events_jsonl(path)
        assert [round_fingerprint(r) for r in replay.rounds] == [
            round_fingerprint(r) for r in result.rounds
        ]
        for loaded, played in zip(replay.rounds, result.rounds):
            assert loaded.user_records == played.user_records
            assert played.user_records == loaded.user_records


def test_coordinator_rounds_emit_columns(tiny_world):
    class AllToTaskZero:
        def assign(self, round_no, active_tasks, users, prices):
            return {u.user_id: Selection((0,), 0.0, 0.0, 0.0) for u in users[:2]}

    engine = make_engine(
        SimulationConfig(n_users=3, n_tasks=4, rounds=2, mechanism="fixed"),
        world=tiny_world,
        coordinator=AllToTaskZero(),
    )
    record = engine.step()
    assert [r.selected_task_ids for r in record.user_records] == [(0,), (0,), ()]
    assert record.participating_users == 2
