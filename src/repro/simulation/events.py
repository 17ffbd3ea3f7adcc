"""Structured simulation history: what happened, round by round.

The engine emits one :class:`RoundRecord` per simulated round; a full
run is a :class:`SimulationResult`.  The metrics suite
(:mod:`repro.metrics`) is a pure function of these records plus the
final world state — nothing in the engine computes a metric, which keeps
the measurement definitions in one reviewable place.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.dynamics.processes import WorldEvent
from repro.obs.metrics import MetricsRegistry
from repro.simulation.perf import PerfStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.config import SimulationConfig
    from repro.world.generator import World


@dataclass(frozen=True)
class MeasurementEvent:
    """One accepted measurement: who sensed what, when, for how much."""

    round_no: int
    task_id: int
    user_id: int
    reward: float


@dataclass(frozen=True)
class RejectedContribution:
    """A user reached a task but the measurement was not accepted.

    This is the WST redundancy drawback from Section II: the task filled
    up (or expired) after the user committed to its path.  The user's
    travel cost is already sunk; no reward is paid.
    """

    round_no: int
    task_id: int
    user_id: int
    reason: str


@dataclass(frozen=True)
class UserRoundRecord:
    """One user's round: the selection it made and what it got."""

    round_no: int
    user_id: int
    selected_task_ids: Tuple[int, ...]
    distance: float
    reward: float
    cost: float

    @property
    def profit(self) -> float:
        return self.reward - self.cost

    @property
    def participated(self) -> bool:
        """Whether the user left home at all this round."""
        return bool(self.selected_task_ids)


class RecordColumns(Sequence):
    """One round's records, held as aligned columns until read.

    The engine knows a round's records as plain per-field lists, and
    most rounds are never read record by record (streamed runs drop them
    after aggregation).  So the records are built on first iteration or
    indexing, once; ``len()`` never builds them, and :func:`record_field`
    reads a column straight through.

    Behaves as the tuple of records it stands for: it compares equal to
    it in both directions, hashes like it and pickles as a plain tuple.
    Subclasses name their columns in :attr:`fields` and their record
    type in :attr:`record`; record ``i`` is built from row ``i`` of the
    columns unless the subclass overrides :meth:`_build`.
    """

    __slots__ = ("round_no", "_columns", "_records")

    #: The column names, in constructor order.
    fields: Tuple[str, ...] = ()

    #: The record type, called as ``record(round_no, *row)``.
    record: type

    def __init__(self, round_no: int, *columns: Sequence):
        if len(columns) != len(self.fields):
            raise TypeError(
                f"{type(self).__name__} takes columns {self.fields}, "
                f"got {len(columns)}"
            )
        self.round_no = round_no
        self._columns = columns
        self._records: Optional[tuple] = None

    def column(self, name: str) -> Sequence:
        """The column ``name``, in column order, without building records."""
        return self._columns[self.fields.index(name)]

    def _build(self) -> tuple:
        record, round_no = self.record, self.round_no
        return tuple(record(round_no, *row) for row in zip(*self._columns))

    def _built(self) -> tuple:
        records = self._records
        if records is None:
            records = self._records = self._build()
        return records

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return iter(self._built())

    def __getitem__(self, index):
        return self._built()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordColumns):
            other = other._built()
        if isinstance(other, tuple):
            return self._built() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._built())

    def __reduce__(self):
        return tuple, (self._built(),)

    def __repr__(self) -> str:
        return repr(self._built())


class UserRecordColumns(RecordColumns):
    """One round's :class:`UserRoundRecord`\\ s as columns: user id, the
    frozen :class:`~repro.selection.base.Selection` and the reward
    actually earned, in world order.  The records come out sorted by
    ``user_id``, the tuple the engine used to build eagerly."""

    __slots__ = ()
    fields = ("user_id", "selection", "reward")

    def _build(self) -> Tuple[UserRoundRecord, ...]:
        user_ids, selections, rewards = self._columns
        return tuple(
            UserRoundRecord(
                round_no=self.round_no,
                user_id=user_ids[i],
                selected_task_ids=selections[i].task_ids,
                distance=selections[i].distance,
                reward=rewards[i],
                cost=selections[i].cost,
            )
            for i in sorted(range(len(user_ids)), key=user_ids.__getitem__)
        )


class MeasurementColumns(RecordColumns):
    """One round's :class:`MeasurementEvent`\\ s as columns, in acceptance
    order."""

    __slots__ = ()
    fields = ("task_id", "user_id", "reward")
    record = MeasurementEvent


class RejectionColumns(RecordColumns):
    """One round's :class:`RejectedContribution`\\ s as columns, in upload
    order."""

    __slots__ = ()
    fields = ("task_id", "user_id", "reason")
    record = RejectedContribution


def record_field(records: Sequence, name: str) -> Iterable:
    """``name`` of every record in ``records``.

    Reads the column when ``records`` holds columns, so no record is
    built; plain tuples of records (replayed from an events JSONL) are
    read record by record.  Measurement and rejection columns are in
    record order; user-record columns are in world order, not the
    records' ``user_id`` order.
    """
    if isinstance(records, RecordColumns):
        return records.column(name)
    return map(attrgetter(name), records)


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one sensing round.

    The engine fills the three record sequences with lazy
    :class:`RecordColumns` (:class:`UserRecordColumns`,
    :class:`MeasurementColumns`, :class:`RejectionColumns`); a replay of
    an events JSONL holds plain tuples.  Both compare, hash and pickle
    alike, and every accessor here reads either form.

    Args:
        round_no: 1-based round number.
        published_rewards: the mechanism's price per active task id.
        user_records: one record per user (including sit-outs), sorted
            by ``user_id``.
        measurements: accepted measurements, in acceptance order.
        rejections: contributions that arrived too late, in upload order.
        completed_task_ids: tasks that reached :math:`\\varphi` this round.
        expired_task_ids: tasks whose deadline passed at the end of this round.
        selector_fallbacks: how many Eq. 1 instances this round were
            answered by the watchdog's fallback solver instead of the
            configured one (0 unless a
            :class:`~repro.selection.watchdog.TimeBoundedSelector`
            breached its deadline — the degradation-rate signal).
        perf: execution counters for the round (cache hits/misses, DP
            states expanded, selector wall time) — observability only;
            None in replays of event logs written before the counters
            existed.
        metrics: the round's metrics-registry snapshot (measurement
            acceptance/rejection counters, payout, budget-remaining
            gauge, demand-level distribution, selector-latency
            histogram; see :mod:`repro.obs.metrics`) — observability
            only; None in replays of event logs written before the
            registry existed.
        dynamics: the open-world events applied around this round
            (arrivals/departures/publications before it played, renewals
            and expiries after) — always empty for closed-world runs,
            so their serialised records are unchanged byte for byte.
    """

    round_no: int
    published_rewards: Dict[int, float]
    user_records: Sequence[UserRoundRecord]
    measurements: Sequence[MeasurementEvent]
    rejections: Sequence[RejectedContribution]
    completed_task_ids: Tuple[int, ...]
    expired_task_ids: Tuple[int, ...]
    selector_fallbacks: int = 0
    perf: Optional[PerfStats] = None
    metrics: Optional[MetricsRegistry] = None
    dynamics: Tuple[WorldEvent, ...] = ()

    @property
    def measurement_count(self) -> int:
        return len(self.measurements)

    @property
    def total_paid(self) -> float:
        """Rewards the platform paid out this round."""
        return sum(record_field(self.measurements, "reward"))

    @property
    def participating_users(self) -> int:
        """Users who left home this round (a non-empty selection)."""
        records = self.user_records
        if isinstance(records, UserRecordColumns):
            return sum(1 for s in records.column("selection") if s.task_ids)
        return sum(1 for record in records if record.participated)


@dataclass
class RunTotals:
    """Streaming accumulator: everything the metrics suite needs from a
    run whose per-round records were not retained in memory.

    The engine :meth:`absorb`\\ s each finished :class:`RoundRecord` into
    this and then drops it (observers — e.g. a JSONL stream writer —
    still saw the full record), so a 50k-user run holds O(tasks + users)
    state instead of O(rounds x users)."""

    rounds_played: int = 0
    total_measurements: int = 0
    total_paid: float = 0.0
    total_selector_fallbacks: int = 0
    measurements_by_task: Dict[int, int] = field(default_factory=dict)
    perf: PerfStats = field(default_factory=PerfStats)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def absorb(self, record: RoundRecord) -> None:
        self.rounds_played += 1
        self.total_measurements += record.measurement_count
        self.total_paid += record.total_paid
        self.total_selector_fallbacks += record.selector_fallbacks
        by_task = self.measurements_by_task
        for task_id in record_field(record.measurements, "task_id"):
            by_task[task_id] = by_task.get(task_id, 0) + 1
        if record.perf is not None:
            self.perf = PerfStats.merged((self.perf, record.perf))
        if record.metrics is not None:
            self.metrics = MetricsRegistry.merged((self.metrics, record.metrics))


@dataclass
class SimulationResult:
    """A finished run: the config, the final world, and the history.

    The history is either the full per-round record list (``rounds``,
    the default) or — for memory-bounded streaming runs — the
    :class:`RunTotals` accumulator (``totals``), in which case
    ``rounds`` stays empty and per-round accessors raise."""

    config: "SimulationConfig"
    world: "World"
    rounds: List[RoundRecord] = field(default_factory=list)
    totals: Optional[RunTotals] = None

    def absorb(self, record: RoundRecord) -> None:
        """Fold a finished round into :attr:`totals` without keeping it."""
        if self.totals is None:
            self.totals = RunTotals(
                measurements_by_task={t.task_id: 0 for t in self.world.tasks}
            )
        self.totals.absorb(record)

    @property
    def streamed(self) -> bool:
        """Whether per-round records were dropped after aggregation."""
        return self.totals is not None

    @property
    def rounds_played(self) -> int:
        if self.totals is not None:
            return self.totals.rounds_played
        return len(self.rounds)

    @property
    def total_measurements(self) -> int:
        if self.totals is not None:
            return self.totals.total_measurements
        return sum(record.measurement_count for record in self.rounds)

    @property
    def total_paid(self) -> float:
        """Total platform payout over the whole run (must respect Eq. 8)."""
        if self.totals is not None:
            return self.totals.total_paid
        return sum(record.total_paid for record in self.rounds)

    @property
    def total_selector_fallbacks(self) -> int:
        """Watchdog degradations over the whole run (0 = fully exact)."""
        if self.totals is not None:
            return self.totals.total_selector_fallbacks
        return sum(record.selector_fallbacks for record in self.rounds)

    def perf_totals(self) -> PerfStats:
        """All rounds' perf counters merged into one :class:`PerfStats`."""
        if self.totals is not None:
            return self.totals.perf
        return PerfStats.merged(record.perf for record in self.rounds)

    def metrics_totals(self) -> MetricsRegistry:
        """All rounds' metric snapshots merged, in round order.

        Counters and histograms sum; gauges keep the last round's value
        (so ``budget_remaining`` ends at the run's final figure).
        """
        if self.totals is not None:
            return self.totals.metrics
        return MetricsRegistry.merged(record.metrics for record in self.rounds)

    def round(self, round_no: int) -> RoundRecord:
        """The record for a 1-based round number.

        Raises:
            IndexError: if that round was not played (e.g. early stop),
                or if the run streamed its rounds instead of keeping them.
        """
        if self.totals is not None:
            raise IndexError(
                f"round {round_no} not retained: this run streamed its "
                f"records (config.stream_rounds) — read them back from "
                f"the events JSONL instead"
            )
        if not 1 <= round_no <= len(self.rounds):
            raise IndexError(
                f"round {round_no} not played (history has {len(self.rounds)})"
            )
        return self.rounds[round_no - 1]

    def measurements_by_task(self) -> Dict[int, int]:
        """Accepted measurement counts per task over the whole run."""
        counts: Dict[int, int] = {task.task_id: 0 for task in self.world.tasks}
        if self.totals is not None:
            counts.update(self.totals.measurements_by_task)
            return counts
        for record in self.rounds:
            for task_id in record_field(record.measurements, "task_id"):
                counts[task_id] += 1
        return counts

    def user_profits(self, round_no: int = None) -> List[float]:
        """Per-user profit, either for one round or the whole run.

        Args:
            round_no: restrict to one 1-based round; None sums all rounds.
                Per-round profits require retained rounds (non-streaming).
        """
        if round_no is not None:
            return [r.profit for r in self.round(round_no).user_records]
        if self.totals is not None:
            # Users accumulate rewards/costs in place; for streamed runs
            # the final world state is the whole-run ledger.
            return [u.total_profit for u in self.world.users]
        totals: Dict[int, float] = {u.user_id: 0.0 for u in self.world.users}
        for record in self.rounds:
            for user_record in record.user_records:
                # Users who departed mid-run (open world) appear in
                # early records but not the final roster; skip them.
                if user_record.user_id in totals:
                    totals[user_record.user_id] += user_record.profit
        return [totals[u.user_id] for u in self.world.users]


def _canonical_round(record: RoundRecord) -> Dict:
    """The deterministic content of a round, as plain JSON-able data.

    Includes exactly the fields two bit-identical runs must agree on;
    excludes ``perf`` and ``metrics``, which carry wall-clock timings
    and therefore differ between identical replays.
    """
    return {
        "round_no": record.round_no,
        "published_rewards": [
            [task_id, record.published_rewards[task_id]]
            for task_id in sorted(record.published_rewards)
        ],
        "user_records": [
            [r.round_no, r.user_id, list(r.selected_task_ids),
             r.distance, r.reward, r.cost]
            for r in record.user_records
        ],
        "measurements": [
            [m.round_no, m.task_id, m.user_id, m.reward]
            for m in record.measurements
        ],
        "rejections": [
            [r.round_no, r.task_id, r.user_id, r.reason]
            for r in record.rejections
        ],
        "completed_task_ids": list(record.completed_task_ids),
        "expired_task_ids": list(record.expired_task_ids),
        "selector_fallbacks": record.selector_fallbacks,
        "dynamics": [
            [e.kind, e.round_no, e.subject_id,
             [[key, value] for key, value in e.payload]]
            for e in record.dynamics
        ],
    }


def round_fingerprint(record: RoundRecord) -> str:
    """A sha256 hex digest of the round's deterministic content.

    Two rounds fingerprint equal iff every decision the simulation made
    — prices, selections, uploads, expiries, open-world events — was
    identical; perf counters and metric snapshots (which embed wall
    times) are excluded.  This is the equality the session/engine
    bit-identity guarantee is stated in.
    """
    payload = json.dumps(
        _canonical_round(record),
        separators=(",", ":"),
        default=repr,  # exotic dynamics payload values hash via repr
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_fingerprint(result: SimulationResult) -> str:
    """A sha256 hex digest of a whole run's deterministic history.

    Chains :func:`round_fingerprint` over the retained rounds plus the
    run's headline totals, so it works for streamed results too (where
    per-round records were dropped and only totals remain).
    """
    digest = hashlib.sha256()
    for record in result.rounds:
        digest.update(round_fingerprint(record).encode("ascii"))
    totals = json.dumps(
        {
            "rounds_played": result.rounds_played,
            "total_measurements": result.total_measurements,
            "total_paid": result.total_paid,
            "total_selector_fallbacks": result.total_selector_fallbacks,
            "measurements_by_task": [
                [task_id, count]
                for task_id, count in sorted(
                    result.measurements_by_task().items()
                )
            ],
        },
        separators=(",", ":"),
    )
    digest.update(totals.encode("utf-8"))
    return digest.hexdigest()


def merge_user_records(
    records: Sequence[UserRoundRecord],
) -> Dict[int, Tuple[float, float]]:
    """Aggregate (reward, cost) per user over a batch of records."""
    merged: Dict[int, Tuple[float, float]] = {}
    for record in records:
        reward, cost = merged.get(record.user_id, (0.0, 0.0))
        merged[record.user_id] = (reward + record.reward, cost + record.cost)
    return merged
