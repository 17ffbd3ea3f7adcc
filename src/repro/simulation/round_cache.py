"""The select kernel: per-round problem construction and the solve loop.

Before the problem cache existed the engine called
:meth:`~repro.selection.problem.TaskSelectionProblem.build` once per
user per round, and every call recomputed the same task-to-task distance
block and re-read the same price map — O(users x tasks^2) geometry per
round for values that depend only on the round, not the user.

:class:`RoundProblems` computes the round-invariant parts once:

- the active-task reward vector and :class:`CandidateTask` records,
- the ``(n_tasks, n_tasks)`` task-to-task distance matrix
  (:func:`task_distance_matrix`), or a row mapping into a caller's
  all-tasks matrix,
- the task locations as one ``(n_tasks, 2)`` array,

and assembles each user's problem by *gathering*: pick the user's
eligible candidates, compute only the origin-to-task row, and gather the
rest from the shared distance block (:meth:`RoundProblems._fill`, the
one assembly tail every construction path ends in; it fills a whole
batch of users' matrices into one read-only buffer with one gather per
distinct candidate count).  The result is **bit-identical** to
what ``build`` would return — the same float expressions evaluate in the
same order, the pruning rule still uses ``Point.distance_to``
(``math.hypot``, which is not bitwise ``np.sqrt(dx^2+dy^2)``), and the
matrix entries come from the same elementwise pipeline as
:func:`~repro.geometry.distances.pairwise_distances` — so seeded runs
replay exactly as before.

:func:`solve_problems` is the other half of the kernel: it runs the
configured selector over a ``(user, problem)`` stream.  Every engine
calls it — the scalar engine over :meth:`RoundProblems.iter_problems`,
the batched engine over the chunked
:meth:`~repro.simulation.batch.BatchedRoundProblems.iter_problems`, and
each shard worker (:mod:`repro.simulation.shard`) over its slice of the
participants — so solving, timing and accounting are written once.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from functools import lru_cache
from itertools import accumulate
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import Histogram
from repro.obs.trace import NULL_TRACER
from repro.resilience.cancel import NEVER_CANCELLED, CancellationToken
from repro.selection.base import CandidateTask, Selection, Selector
from repro.selection.problem import TaskSelectionProblem
from repro.simulation.perf import PerfStats
from repro.world.task import SensingTask
from repro.world.user import MobileUser

#: How many problems :func:`solve_problems` takes between cancellation
#: polls (a trade between responsiveness and per-user overhead).
CANCEL_CHECK_EVERY = 512

_NO_SPAN = nullcontext()


def task_distance_matrix(locations, dtype=np.float64) -> np.ndarray:
    """The ``(n, n)`` distance matrix of ``n`` task locations (``(x, y)``
    pairs).

    Same arithmetic as ``geometry.distances.pairwise_distances`` — diff,
    square, one add, sqrt — in ``dtype``, written per coordinate and in
    place so no ``(n, n, 2)`` temporary is materialised.  The sum over
    the 2-wide axis is a single correctly-rounded add either way, so the
    float64 entries are bit-identical to the stacked pipeline.
    """
    locations = np.asarray(locations, dtype=dtype).reshape(-1, 2)
    dx = locations[:, 0, None] - locations[None, :, 0]
    dy = locations[:, 1, None] - locations[None, :, 1]
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    np.add(dx, dy, out=dx)
    return np.sqrt(dx, out=dx)


class RoundProblems:
    """One round's shared selection-problem state, sliced per user.

    Args:
        tasks: the round's published tasks, in engine order.
        prices: the mechanism's price per task id (every task priced —
            the engine validates before constructing this cache).
        stats: optional :class:`PerfStats` receiving one cache miss for
            the shared construction and one hit per user problem built.
        task_matrix: optional precomputed distance matrix.  May cover a
            superset of ``tasks`` (e.g. the batched engine's all-tasks
            matrix), in which case ``task_rows`` maps each task's
            position in ``tasks`` to its row in the matrix.
        task_rows: the row mapping for ``task_matrix`` (identity when
            omitted).
    """

    #: Precision of the assembled distance matrices.
    dtype = np.dtype(np.float64)

    def __init__(
        self,
        tasks: Sequence[SensingTask],
        prices: Dict[int, float],
        stats: Optional[PerfStats] = None,
        task_matrix: Optional[np.ndarray] = None,
        task_rows: Optional[np.ndarray] = None,
    ):
        self.tasks: List[SensingTask] = list(tasks)
        self._stats = stats
        n = len(self.tasks)
        self.locations = np.asarray(
            [(t.location.x, t.location.y) for t in self.tasks], dtype=float
        ).reshape(n, 2)
        self._coordinates = self.locations.tolist()
        self.rewards = np.asarray(
            [prices[t.task_id] for t in self.tasks], dtype=float
        )
        if task_matrix is not None:
            # A caller-precomputed matrix (the batched engine caches the
            # all-tasks matrix across rounds; every entry depends only
            # on its two endpoints, so slices of it are bit-identical to
            # a fresh active-set build).
            if task_matrix.ndim != 2 or task_matrix.shape[0] != task_matrix.shape[1]:
                raise ValueError(
                    f"task_matrix must be square, got shape {task_matrix.shape}"
                )
            self.task_matrix = task_matrix
        else:
            self.task_matrix = task_distance_matrix(self.locations, self.dtype)
        self.task_rows = (
            None if task_rows is None else np.asarray(task_rows, dtype=np.int64)
        )
        if self.task_rows is not None and len(self.task_rows) != n:
            raise ValueError(
                f"task_rows must map every task: got {len(self.task_rows)} "
                f"rows for {n} tasks"
            )
        self.candidates = tuple(
            CandidateTask(
                task_id=task.task_id,
                location=task.location,
                reward=float(self.rewards[i]),
            )
            for i, task in enumerate(self.tasks)
        )
        if stats is not None:
            stats.problem_cache_misses += 1

    def problem_for(self, user: MobileUser) -> TaskSelectionProblem:
        """The user's Eq. 1 instance, assembled from the shared state.

        Candidate eligibility (user has not already contributed) and
        reachability pruning (direct distance within the travel budget,
        decided with ``Point.distance_to`` exactly as ``build`` does)
        stay per-user; the matrix comes from :meth:`_fill`.  A subclass
        that builds problems in bulk answers with the one-user case of
        its :meth:`iter_problems`, so this is always the problem the
        round loop solves.
        """
        if type(self).iter_problems is not RoundProblems.iter_problems:
            ((_, problem),) = self.iter_problems([user])
            return problem
        user_id = user.user_id
        ox, oy = user.location.x, user.location.y
        max_distance = float(user.max_travel_distance)
        keep = []
        origin_row = []
        points = zip(self.tasks, self._coordinates)
        for index, (task, (x, y)) in enumerate(points):
            if user_id in task.contributors:
                continue
            dx = ox - x
            dy = oy - y
            # Reachability is ``origin.distance_to(task.location)``
            # written out: math.hypot of the same differences.  The
            # matrix entry uses the sqrt pipeline every other entry uses
            # (diff, square, one add, sqrt — each correctly rounded).
            if math.hypot(dx, dy) <= max_distance:
                keep.append(index)
                origin_row.append(math.sqrt(dx * dx + dy * dy))
        (problem,) = self._fill([user], keep, origin_row, [len(keep)])
        return problem

    def iter_problems(
        self,
        users: Sequence[MobileUser],
        origins: Optional[np.ndarray] = None,
        budgets: Optional[np.ndarray] = None,
    ) -> Iterator[Tuple[MobileUser, TaskSelectionProblem]]:
        """Yield ``(user, problem)`` for each user, in the given order.

        Args:
            users: the users to build problems for.
            origins: optional ``(len(users), 2)`` float64 positions
                aligned with ``users``; bulk subclasses read them instead
                of the user objects.  Unused here: the scalar path reads
                each user.
            budgets: optional ``(len(users),)`` float64 travel budgets,
                same convention.
        """
        for user in users:
            yield user, self.problem_for(user)

    def _fill(
        self,
        users: Sequence[MobileUser],
        cols,
        origin_rows,
        counts: List[int],
    ) -> Iterator[TaskSelectionProblem]:
        """Finish a batch of users' problems: the one assembly tail.

        Args:
            users: the batch, in order.
            cols: every user's candidate indices into :attr:`tasks`,
                concatenated in user order; ascending within each user.
            origin_rows: the origin-to-candidate distances aligned with
                ``cols``.
            counts: each user's candidate count ``k`` (its share of
                ``cols``).

        All ``(k+1, k+1)`` matrices of the batch share one flat buffer.
        Users with the same ``k`` fill one ``(users, k+1, k+1)`` block of
        it with one gather from :attr:`task_matrix`, so the numpy calls
        grow with the distinct counts, not with the users.  The buffer is
        then made read-only and each problem's ``distance_matrix`` is a
        view of it; users without a candidate share one read-only
        ``(1, 1)`` zero matrix.

        The matrices are filled on the first ``next()``, but each
        :class:`TaskSelectionProblem` and its candidate tuple is built
        only when the stream reaches its user.  Nothing here keeps a
        yielded problem alive, so a problem dies as soon as its consumer
        drops it — young, before the collector promotes a chunk's worth
        of problems to its oldest generation.
        """
        dtype = self.dtype
        cols = np.asarray(cols, dtype=np.int64)
        origin_rows = np.asarray(origin_rows, dtype=dtype)
        bounds = [0, *accumulate(counts)]
        distinct = set(counts)
        # One count and no candidate-free user: the batch is one block.
        whole = len(distinct) == 1 and 0 not in distinct
        distinct.discard(0)
        if not whole:
            count_array = np.asarray(counts)
            starts = np.asarray(bounds[:-1])
        groups = []
        size = 0
        for k in sorted(distinct):
            if whole:
                rows = None
                group_cols = cols.reshape(-1, k)
                group_origin = origin_rows.reshape(-1, k)
            else:
                rows = np.flatnonzero(count_array == k)
                slots = starts[rows, None] + np.arange(k)
                group_cols = cols[slots]
                group_origin = origin_rows[slots]
            groups.append((k, rows, group_cols, group_origin))
            size += len(group_cols) * (k + 1) ** 2
        buf = np.empty(size, dtype=dtype)
        matrices = None if whole else [_zero_matrix(dtype)] * len(users)
        start = 0
        for k, rows, group_cols, group_origin in groups:
            matrix_rows = (
                group_cols if self.task_rows is None
                else self.task_rows[group_cols]
            )
            stop = start + len(group_cols) * (k + 1) ** 2
            block = buf[start:stop].reshape(-1, k + 1, k + 1)
            start = stop
            block[:, 0, 0] = 0.0
            block[:, 0, 1:] = group_origin
            block[:, 1:, 0] = group_origin
            block[:, 1:, 1:] = self.task_matrix[
                matrix_rows[:, :, None], matrix_rows[:, None, :]
            ]
            # Views of a read-only block are read-only.
            block.flags.writeable = False
            if rows is None:
                matrices = [block[i] for i in range(len(block))]
            else:
                for row, matrix in zip(rows.tolist(), block):
                    matrices[row] = matrix
        buf.flags.writeable = False
        picked = list(map(self.candidates.__getitem__, cols.tolist()))
        stats = self._stats
        if stats is not None:
            stats.problem_cache_hits += len(users)
        # Positional: origin, candidates, max_distance, cost_per_meter,
        # distance_matrix.
        for i, user in enumerate(users):
            yield TaskSelectionProblem(
                user.location,
                tuple(picked[bounds[i] : bounds[i + 1]]),
                float(user.max_travel_distance),
                float(user.cost_per_meter),
                matrices[i],
            )


@lru_cache(maxsize=None)
def _zero_matrix(dtype: np.dtype) -> np.ndarray:
    """The read-only ``(1, 1)`` matrix of every candidate-free problem."""
    matrix = np.zeros((1, 1), dtype=dtype)
    matrix.flags.writeable = False
    return matrix


def solve_problems(
    selector: Selector,
    problems: Iterable[Tuple[MobileUser, TaskSelectionProblem]],
    perf: PerfStats,
    latency: Histogram,
    tracer=NULL_TRACER,
    cancel: CancellationToken = NEVER_CANCELLED,
) -> List[Selection]:
    """Every problem's selection, in stream order: the solve loop.

    Empty problems get :meth:`Selection.empty` without a selector call
    (selectors answer them with the empty selection — pinned by the
    solver contract tests).  Every call is timed into ``perf`` and
    ``latency``, traced as one ``select-user`` span when ``tracer`` is
    enabled, and the DP states the selector expanded are drained into
    ``perf`` at the end.  ``cancel`` is polled every
    :data:`CANCEL_CHECK_EVERY` problems, so a city-scale round stops
    within a grace period instead of at the round boundary only.
    """
    empty = Selection.empty()
    traced = tracer.enabled
    select = selector.select
    observe = latency.observe
    selections: List[Selection] = []
    append = selections.append
    for count, (user, problem) in enumerate(problems):
        if count % CANCEL_CHECK_EVERY == 0:
            cancel.raise_if_cancelled()
        if not problem.candidates:
            append(empty)
            continue
        span = (
            tracer.span(
                "select-user", cat="selector",
                user=user.user_id, tasks=problem.size,
            )
            if traced
            else _NO_SPAN
        )
        with span:
            started = perf_counter()
            selection = select(problem)
            elapsed = perf_counter() - started
        perf.selector_calls += 1
        perf.selector_wall_time += elapsed
        observe(elapsed)
        append(selection)
    perf.dp_states_expanded += selector.consume_states_expanded()
    return selections
