"""A round's uploads, held as columns until read.

The engine records accepted measurements and rejected contributions as
plain per-field lists (:class:`MeasurementColumns`,
:class:`RejectionColumns`) instead of one frozen event per upload.  Like
:class:`UserRecordColumns` they must be indistinguishable from the tuple
of events they stand for — same order, equality, hashing, pickling and
fingerprints — and the round's own accounting (``total_paid``,
``RunTotals.absorb``, the metrics drain, the observers) must read the
columns without building the events, summing in the same order.  Records
replayed from an events JSONL hold plain tuples; every accessor must
answer for them too.
"""

import io
import pickle
from collections import Counter

import pytest

from repro.io.events import read_events_jsonl, write_events_jsonl
from repro.selection import Selection
from repro.simulation import SimulationConfig, make_engine
from repro.simulation.events import (
    MeasurementColumns,
    MeasurementEvent,
    RejectedContribution,
    RejectionColumns,
    RoundRecord,
    RunTotals,
    UserRecordColumns,
    round_fingerprint,
)
from repro.simulation.observers import CoverageTracker, ProgressPrinter


class Untouchable:
    """A column that fails the test if any entry is read."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, index):
        raise AssertionError("column read: records were built")

    def __iter__(self):
        raise AssertionError("column iterated: records were built")


def measurements():
    # Acceptance order is neither task nor user order.
    return MeasurementColumns(4, [9, 2, 9], [30, 11, 5], [1.25, 0.5, 1.25])


def measurement_events():
    return (
        MeasurementEvent(4, 9, 30, 1.25),
        MeasurementEvent(4, 2, 11, 0.5),
        MeasurementEvent(4, 9, 5, 1.25),
    )


def rejections():
    return RejectionColumns(4, [9, 2], [17, 30], ["full", "duplicate"])


def rejection_events():
    return (
        RejectedContribution(4, 9, 17, "full"),
        RejectedContribution(4, 2, 30, "duplicate"),
    )


CASES = [
    pytest.param(measurements, measurement_events, id="measurements"),
    pytest.param(rejections, rejection_events, id="rejections"),
]


@pytest.mark.parametrize("columns, events", CASES)
class TestTupleContract:
    def test_len_does_not_build_records(self, columns, events):
        cls = type(columns())
        held = cls(1, Untouchable(40_000), Untouchable(40_000), Untouchable(40_000))
        assert len(held) == 40_000
        assert held._records is None

    def test_records_in_acceptance_order(self, columns, events):
        assert tuple(columns()) == events()
        assert list(columns()) == list(events())
        assert columns()[1] == events()[1]
        assert columns()[-2:] == events()[-2:]

    def test_builds_once(self, columns, events):
        held = columns()
        assert held[0] is held[0]

    def test_equal_to_the_tuple_both_ways(self, columns, events):
        assert columns() == events()
        assert events() == columns()
        assert not columns() != events()
        assert columns() == columns()
        assert columns() != events()[:1]
        assert events()[:1] != columns()
        assert columns() != list(events())

    def test_hashes_like_the_tuple(self, columns, events):
        assert hash(columns()) == hash(events())

    def test_pickles_as_a_plain_tuple(self, columns, events):
        clone = pickle.loads(pickle.dumps(columns()))
        assert type(clone) is tuple
        assert clone == events()

    def test_empty_round(self, columns, events):
        cls = type(columns())
        empty = cls(3, [], [], [])
        assert len(empty) == 0
        assert empty == ()
        assert () == empty
        assert hash(empty) == hash(())

    def test_wrong_column_count_is_rejected(self, columns, events):
        with pytest.raises(TypeError, match="columns"):
            type(columns())(1, [1], [2])


def record_of(measured, rejected, user_records=()):
    return RoundRecord(
        round_no=4,
        published_rewards={2: 0.5, 9: 1.25},
        user_records=user_records,
        measurements=measured,
        rejections=rejected,
        completed_task_ids=(9,),
        expired_task_ids=(),
    )


PATH = Selection(task_ids=(9, 2), distance=30.0, reward=1.75, cost=0.06)
EMPTY = Selection.empty()


def user_columns():
    return UserRecordColumns(4, [30, 11, 5, 17], [PATH, PATH, EMPTY, PATH],
                             [1.25, 0.5, 0.0, 0.0])


class TestAccessorsLeaveColumnsUnbuilt:
    def test_total_paid_count_and_absorb(self):
        record = record_of(
            MeasurementColumns(4, [9, 2, 9], [30, 11, 5], [0.1, 0.2, 0.3]),
            rejections(),
        )
        totals = RunTotals()
        totals.absorb(record)
        assert record.measurement_count == 3
        assert record.total_paid == totals.total_paid
        assert totals.total_measurements == 3
        assert totals.measurements_by_task == {9: 2, 2: 1}
        assert record.measurements._records is None
        assert record.rejections._records is None
        # Same summation order as the event path (0.1 + 0.2 + 0.3 is
        # order-sensitive in binary floating point).
        assert record.total_paid == sum(e.reward for e in tuple(record.measurements))

    def test_participating_users_counts_the_selection_column(self):
        held = UserRecordColumns(
            4, Untouchable(4), [PATH, PATH, EMPTY, PATH], Untouchable(4)
        )
        record = record_of((), (), held)
        assert record.participating_users == 3
        assert record_of((), (), tuple(user_columns())).participating_users == 3

    def test_observers_read_columns(self):
        record = record_of(measurements(), rejections(), user_columns())
        tracker = CoverageTracker(n_tasks=4)
        tracker(record)
        stream = io.StringIO()
        ProgressPrinter(stream=stream)(record)
        assert tracker.by_round == [0.5]
        assert record.measurements._records is None
        assert record.user_records._records is None


class TestReplayedTuples:
    """A record holding plain tuples answers every accessor the same."""

    def test_every_accessor_agrees(self):
        columns = record_of(measurements(), rejections(), user_columns())
        tuples = record_of(
            measurement_events(), rejection_events(), tuple(user_columns())
        )
        assert tuples == columns
        assert columns == tuples
        assert round_fingerprint(tuples) == round_fingerprint(columns)
        assert tuples.measurement_count == columns.measurement_count == 3
        assert tuples.total_paid == columns.total_paid == 3.0
        assert tuples.participating_users == columns.participating_users == 3
        by_columns, by_tuples = RunTotals(), RunTotals()
        by_columns.absorb(columns)
        by_tuples.absorb(tuples)
        for name in ("total_measurements", "total_paid", "measurements_by_task"):
            assert getattr(by_tuples, name) == getattr(by_columns, name)
        trackers = [CoverageTracker(n_tasks=4) for _ in range(2)]
        trackers[0](columns)
        trackers[1](tuples)
        assert trackers[0].by_round == trackers[1].by_round
        lines = []
        for record in (columns, tuples):
            stream = io.StringIO()
            ProgressPrinter(stream=stream)(record)
            lines.append(stream.getvalue())
        assert lines[0] == lines[1]


def config(engine_name, **overrides):
    return SimulationConfig(
        n_users=60,
        n_tasks=12,
        rounds=5,
        area_side=2500.0,
        budget=600.0,
        participation_rate=0.7,
        required_measurements=3,
        selector="greedy",
        engine=engine_name,
        seed=13,
        **overrides,
    )


def run(engine_name, **overrides):
    return make_engine(config(engine_name, **overrides)).run()


@pytest.fixture(scope="module", params=["scalar", "batched"])
def result(request):
    return run(request.param)


class TestEngineColumns:
    def test_engine_emits_columns(self, result):
        assert any(r.measurements for r in result.rounds)
        assert any(r.rejections for r in result.rounds)
        for record in result.rounds:
            assert isinstance(record.measurements, MeasurementColumns)
            assert isinstance(record.rejections, RejectionColumns)

    def test_metrics_drain_leaves_columns_unbuilt(self):
        engine = make_engine(config("batched"))
        record = engine.step()
        assert record.measurements._records is None
        assert record.rejections._records is None
        snapshot = record.metrics.as_dict()
        events = tuple(record.measurements)
        assert snapshot["payout_total"]["value"] == sum(e.reward for e in events)
        assert snapshot["measurements_total{outcome=accepted}"]["value"] == len(events)
        by_reason = Counter(r.reason for r in tuple(record.rejections))
        assert by_reason
        for reason, count in by_reason.items():
            key = f"measurements_total{{outcome=rejected,reason={reason}}}"
            assert snapshot[key]["value"] == count

    def test_events_match_the_task_ledgers(self, result):
        tasks = {task.task_id: task for task in result.world.tasks}
        for record in result.rounds:
            for event in record.measurements:
                assert event.round_no == record.round_no
                assert event.user_id in tasks[event.task_id].contributors
                assert event.reward == record.published_rewards[event.task_id]
            for rejection in record.rejections:
                assert rejection.round_no == record.round_no
                assert rejection.reason in ("full", "duplicate")

    def test_run_totals_match_the_retained_rounds(self, result):
        streamed = run(result.config.engine, stream_rounds=True)
        assert streamed.total_paid == result.total_paid
        assert streamed.total_measurements == result.total_measurements
        assert streamed.measurements_by_task() == result.measurements_by_task()

    def test_events_jsonl_round_trip_keeps_fingerprints(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "events.jsonl")
        replay = read_events_jsonl(path)
        assert [round_fingerprint(r) for r in replay.rounds] == [
            round_fingerprint(r) for r in result.rounds
        ]
        for loaded, played in zip(replay.rounds, result.rounds):
            assert type(loaded.measurements) is tuple
            assert loaded.measurements == played.measurements
            assert played.rejections == loaded.rejections
            assert loaded.total_paid == played.total_paid
            assert loaded.participating_users == played.participating_users
        assert replay.total_paid == result.total_paid
        assert replay.measurements_by_task() == result.measurements_by_task()
