"""The batched engine path: vectorised rounds for large worlds.

Every engine runs one select kernel (:mod:`repro.simulation.round_cache`):
a ``(user, problem)`` stream from ``RoundProblems.iter_problems``,
solved by :func:`~repro.simulation.round_cache.solve_problems`.  The
scalar stream runs :meth:`RoundProblems.problem_for` per user — an
O(tasks) python loop (``math.hypot`` + a set lookup per task), ~10M
interpreter iterations per round at 10k users x 1k tasks.  This module
supplies only a faster stream, :meth:`BatchedRoundProblems.iter_problems`,
built with chunked numpy:

- one ``(chunk, tasks)`` origin-to-task distance matrix per user chunk,
  computed with the exact elementwise pipeline ``RoundProblems`` uses
  (diff, square, sum, sqrt — add/multiply/sqrt are correctly rounded, so
  the float64 entries are bit-identical to the per-user rows),
- a boolean reachability mask against each user's travel budget, with
  any distance within the boundary tolerance of the budget re-decided by
  ``Point.distance_to`` (``math.hypot``) exactly as the scalar pruning
  rule does — the sqrt pipeline and hypot can disagree only in the last
  ulp, far inside the tolerance band,
- each chunk's problems finished by the shared ``RoundProblems._fill``
  tail in one batch, so the two streams differ only in how candidates
  and origin rows are found.

**Precision.** The chunk pipeline runs in a configurable dtype
(``SimulationConfig.distance_dtype``).  float64 (the default) is
bit-identical to the scalar engine.  float32 halves the distance-matrix
memory traffic — the right trade at city scale — and widens the
reachability recheck band to :func:`float32_boundary_tol` so every
decision the reduced precision could flip is re-decided in float64:
candidate sets are identical to the float64 pipeline's (pinned by
tests), only the low-order bits of the matrix entries differ.
``problem_for`` and ``build_problems`` go through the same stream, so
they return the float32 problems the round actually solves.

**Scale.** At 50k+ users two further costs dominate, each handled
here (see docs/architecture.md "Scaling"):

- the per-round task-to-task distance matrix — computed once over *all*
  world tasks (task locations never change) and sliced per round via a
  row mapping instead of rebuilt,
- the per-chunk position/budget gathering — answered from persistent
  per-world arrays maintained in place as users move.

With ``workers > 1`` the same kernel runs in a process pool over
shared-memory arrays (:mod:`repro.simulation.shard`); results are
bit-identical at every worker count.

Memory stays bounded: distance chunks are sized by
:attr:`BatchedSimulationEngine.chunk_bytes` (~16 MB per chunk in either
dtype — the element count adapts to the dtype's width) and dropped as
soon as a chunk's problems are built, so a city-scale round never
materialises the full user-by-task matrix.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.selection import Selection
from repro.selection.problem import TaskSelectionProblem
from repro.simulation.engine import SimulationEngine
from repro.simulation.round_cache import RoundProblems, task_distance_matrix
from repro.world.task import SensingTask
from repro.world.user import MobileUser

#: Distances this close to a user's travel budget are re-decided with
#: ``Point.distance_to`` so the sqrt-pipeline/``math.hypot`` last-ulp
#: disagreement can never flip a reachability decision.
BOUNDARY_TOL = 1e-6

#: Per-chunk byte budget of the distance pipeline.  The chunk *element*
#: count is derived from this per dtype, so float32 chunks hold twice
#: the rows in the same footprint instead of silently halving it.
DEFAULT_CHUNK_BYTES = 16 << 20

#: Safety factor (in float32 ulps of the dominant magnitude) bounding
#: how far a float32 distance can sit from its float64 value: coordinate
#: rounding contributes ~2 ulps of the coordinate magnitude, the
#: diff/square/sum pipeline a few more, and sqrt halves relative error.
#: 32 ulps covers the worst case with an order of magnitude to spare.
_F32_GUARD = 32.0 * float(np.finfo(np.float32).eps)


def float32_boundary_tol(coordinate_scale: float, budget_scale: float) -> float:
    """The reachability recheck band for the float32 pipeline (meters).

    Any |d32 - budget| inside this band is re-decided in float64; the
    band bounds |d32 - d64| + |budget32 - budget64|, so a float32
    reach decision outside it always agrees with the float64 one.
    """
    return BOUNDARY_TOL + _F32_GUARD * (
        abs(coordinate_scale) + abs(budget_scale)
    )


class BatchedRoundProblems(RoundProblems):
    """Round-problem construction over user chunks instead of users.

    Overrides only :meth:`iter_problems`: the same per-user
    :class:`TaskSelectionProblem` objects the scalar path builds,
    produced from chunked ``(users, tasks)`` distance matrices and
    finished chunk by chunk by the shared :meth:`RoundProblems._fill`
    tail.
    ``problem_for`` is the one-user case of that path, so paired
    experiments that freeze a round see exactly what the round solves.

    Args:
        tasks: the round's published tasks, in engine order.
        prices: the mechanism's price per task id.
        stats: optional :class:`PerfStats` (see :class:`RoundProblems`).
        chunk_elements: elements per distance chunk; ``None`` (default)
            derives the count from ``chunk_bytes`` and ``dtype``.
        dtype: the distance pipeline precision — ``np.float64``
            (bit-identical to the scalar engine) or ``np.float32``
            (reachability boundary re-decided in float64).
        chunk_bytes: per-chunk byte budget when ``chunk_elements`` is
            not given (default ~16 MB regardless of dtype).
        task_matrix, task_rows: see :class:`RoundProblems`.
    """

    def __init__(
        self,
        tasks: Sequence[SensingTask],
        prices: Dict[int, float],
        stats=None,
        chunk_elements: Optional[int] = None,
        dtype=np.float64,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        task_matrix: Optional[np.ndarray] = None,
        task_rows: Optional[np.ndarray] = None,
    ):
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"dtype must be float32 or float64, got {dtype}"
            )
        self.dtype = dtype
        if chunk_elements is None:
            if chunk_bytes < dtype.itemsize:
                raise ValueError(
                    f"chunk_bytes must hold at least one {dtype} element, "
                    f"got {chunk_bytes}"
                )
            chunk_elements = chunk_bytes // dtype.itemsize
        if chunk_elements < 1:
            raise ValueError(f"chunk_elements must be >= 1, got {chunk_elements}")
        self.chunk_elements = int(chunk_elements)
        super().__init__(
            tasks, prices, stats=stats, task_matrix=task_matrix,
            task_rows=task_rows,
        )
        # Task locations in the working dtype (float32 mode casts once;
        # float64 mode reuses the base array).
        self._work_locations = self.locations.astype(dtype, copy=False)

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
                aligned with ``users`` (the engine's persistent position
                array); gathered from the user objects when omitted.
            budgets: optional ``(len(users),)`` float64 travel budgets,
                same convention.
        """
        n_tasks = len(self.tasks)
        if n_tasks == 0:
            yield from zip(users, self._fill(users, (), (), [0] * len(users)))
            return
        n_users = len(users)
        if origins is None:
            origins = np.asarray(
                [(u.location.x, u.location.y) for u in users], dtype=float
            ).reshape(n_users, 2)
        if budgets is None:
            budgets = np.asarray(
                [u.max_travel_distance for u in users], dtype=float
            )
        float32 = self.dtype == np.float32
        if float32:
            origins_w = origins.astype(np.float32)
            budgets_w = budgets.astype(np.float32)
            # The recheck band must cover the float32 representation
            # error of every quantity feeding a reach decision.
            coordinate_scale = max(
                float(np.abs(self._work_locations).max(initial=0.0)),
                float(np.abs(origins_w).max(initial=0.0)),
            )
            budget_scale = float(np.abs(budgets_w).max(initial=0.0))
            tol = float32_boundary_tol(coordinate_scale, budget_scale)
        else:
            origins_w, budgets_w, tol = origins, budgets, BOUNDARY_TOL
        chunk_size = max(1, self.chunk_elements // n_tasks)
        contributors = [task.contributors for task in self.tasks]
        # Contributor exclusion, vectorised: resolve every (contributor,
        # task) pair to a (user position, column) pair once per round,
        # then clear those reach bits chunk by chunk — instead of a
        # set-membership filter per (user, candidate) pair.
        pair_rows = pair_cols = None
        if any(contributors):
            position_of = {u.user_id: i for i, u in enumerate(users)}
            pairs = [
                (position, col)
                for col, contributed in enumerate(contributors)
                for user_id in contributed
                if (position := position_of.get(user_id)) is not None
            ]
            if pairs:
                pair_rows = np.asarray([p[0] for p in pairs], dtype=np.int64)
                pair_cols = np.asarray([p[1] for p in pairs], dtype=np.int64)
        locations = self._work_locations
        tasks = self.tasks
        for start in range(0, n_users, chunk_size):
            stop = min(start + chunk_size, n_users)
            chunk = users[start:stop]
            chunk_origins = origins_w[start:stop]
            chunk_budgets = budgets_w[start:stop]
            # Same arithmetic as RoundProblems.problem_for — diff,
            # square, one add, sqrt — written per coordinate so no
            # (chunk, tasks, 2) temporary is materialised.  dx*dx+dy*dy
            # is the scalar pipeline's sum over the 2-wide axis (a
            # single correctly-rounded add either way), and (a-b)^2 is
            # exact under negation, so float64 origin-minus-task equals
            # the scalar task-minus-origin rows bitwise.
            dx = chunk_origins[:, 0, None] - locations[None, :, 0]
            dy = chunk_origins[:, 1, None] - locations[None, :, 1]
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            np.add(dx, dy, out=dx)
            distances = np.sqrt(dx, out=dx)
            del dy
            reach = distances <= chunk_budgets[:, None]
            # Boundary band = within tol above the budget, or reachable
            # but not clearly below it.  Two threshold comparisons beat
            # an abs-difference here: bool temporaries instead of a
            # full-size float one.
            near = distances <= (chunk_budgets + tol)[:, None]
            near &= ~(distances <= (chunk_budgets - tol)[:, None])
            # Boundary-band decisions re-run the scalar float64
            # predicate, one pair at a time (rare at any realistic
            # geometry — the band is micrometers wide in float64 and
            # sub-meter in float32).
            nrows, ncols = np.nonzero(near)
            if len(nrows):
                for row, col in zip(nrows.tolist(), ncols.tolist()):
                    reach[row, col] = (
                        chunk[row].location.distance_to(tasks[col].location)
                        <= budgets[start + row]
                    )
            if pair_rows is not None:
                in_chunk = (pair_rows >= start) & (pair_rows < stop)
                if in_chunk.any():
                    reach[pair_rows[in_chunk] - start, pair_cols[in_chunk]] = False
            # One nonzero over the whole chunk instead of one per user;
            # rows come out ascending, columns ascending within a row —
            # the same candidate order problem_for produces.
            rows, cols = np.nonzero(reach)
            counts = np.bincount(rows, minlength=len(chunk)).tolist()
            yield from zip(
                chunk, self._fill(chunk, cols, distances[rows, cols], counts)
            )


class BatchedSimulationEngine(SimulationEngine):
    """The scalar engine with the vectorised per-round hot paths.

    Differences from :class:`SimulationEngine` — none of them visible in
    the produced history:

    - problems come from :class:`BatchedRoundProblems` chunks, sliced
      from a cross-round all-tasks distance matrix and fed the engine's
      persistent position/budget arrays,
    - with ``workers > 1``, the select kernel runs in a process pool over
      shared-memory arrays (see :mod:`repro.simulation.shard`); shard
      selections are concatenated in participant order, so the history
      is identical at every worker count.

    Args:
        workers: select-phase worker processes (``None``/``0``/``1`` =
            in-process).  Workers are an execution knob, not a config
            field: they never change results, so they stay out of run
            fingerprints.
    """

    #: Per-chunk byte budget for the distance pipeline (the element
    #: count adapts to the configured dtype).
    chunk_bytes = DEFAULT_CHUNK_BYTES

    #: Explicit element override; ``None`` derives from ``chunk_bytes``.
    chunk_elements: Optional[int] = None

    def __init__(self, *args, workers: Optional[int] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._dtype = np.dtype(
            np.float32 if self.config.distance_dtype == "float32" else np.float64
        )
        users = self.world.users
        self._positions = np.asarray(
            [(u.location.x, u.location.y) for u in users], dtype=float
        ).reshape(len(users), 2)
        self._budgets = np.asarray(
            [u.max_travel_distance for u in users], dtype=float
        )
        self._full_task_matrix: Optional[np.ndarray] = None
        self._task_row_of: Dict[int, int] = {
            t.task_id: i for i, t in enumerate(self.world.tasks)
        }
        self._workers = int(workers) if workers else 1
        self._shard_fallbacks = 0
        self._shards = None
        if self._workers > 1:
            from repro.simulation.shard import ShardedSelectionPool

            self._shards = ShardedSelectionPool(self, self._workers)

    @property
    def workers(self) -> int:
        """Configured select-phase worker count (1 = in-process)."""
        return self._workers

    @property
    def closed(self) -> bool:
        """Whether the worker pool has been released (mid-run or after).

        Single-process engines (``workers<=1``) hold no pool and always
        read as closed; sessions use this to assert teardown."""
        return self._shards is None

    def close(self) -> None:
        """Release the worker pool and its shared memory (if any).

        Idempotent and safe mid-run: a :class:`~repro.simulation.
        session.SimulationSession` closed before the horizon lands here,
        and the shared-memory blocks must unlink exactly once."""
        if self._shards is not None:
            self._shards.close()
            self._shards = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    def _drain_selector_fallbacks(self) -> int:
        # Watchdog degradations that happened inside shard workers are
        # reported back with each shard and accumulated here.
        count = super()._drain_selector_fallbacks() + self._shard_fallbacks
        self._shard_fallbacks = 0
        return count

    # -- open-world churn ------------------------------------------------

    def _apply_dynamics(self, changes) -> None:
        """The shared world mutation, plus array and shard upkeep.

        Population changes invalidate every user-aligned array (rows
        shift when users leave), so positions and budgets are rebuilt;
        new tasks drop the all-tasks distance matrix.  With a sharded
        pool, the shared-memory blocks are re-published under a new
        generation so workers re-attach on their next job.
        """
        super()._apply_dynamics(changes)
        if changes.population_changed:
            users = self.world.users
            self._positions = np.asarray(
                [(u.location.x, u.location.y) for u in users], dtype=float
            ).reshape(len(users), 2)
            self._budgets = np.asarray(
                [u.max_travel_distance for u in users], dtype=float
            )
        if changes.tasks:
            self._task_row_of = {
                t.task_id: i for i, t in enumerate(self.world.tasks)
            }
            self._full_task_matrix = None
        if self._shards is not None:
            self._shards.refresh()

    def _apply_moves(self, arrival, users, selections, tasks_by_id):
        """The shared move pass, plus position-array upkeep for the
        movers it reports (their rows are world rows)."""
        moved = super()._apply_moves(arrival, users, selections, tasks_by_id)
        movers, _, news = moved
        if movers:
            self._positions[movers] = [(new.x, new.y) for new in news]
        return moved

    # -- problem construction -------------------------------------------

    def _task_geometry(self) -> np.ndarray:
        """The all-tasks distance matrix, built once per run.

        Task locations never change, so every round's active-set matrix
        is a row/column slice of this one (each entry depends only on
        its two endpoints — slices are bit-identical to a fresh build).
        """
        if self._full_task_matrix is None:
            self._full_task_matrix = task_distance_matrix(
                [(t.location.x, t.location.y) for t in self.world.tasks],
                self._dtype,
            )
        return self._full_task_matrix

    def _new_problems(self, active, prices) -> BatchedRoundProblems:
        task_rows = np.asarray(
            [self._task_row_of[t.task_id] for t in active], dtype=np.int64
        )
        return BatchedRoundProblems(
            active,
            prices,
            stats=self._perf,
            chunk_elements=self.chunk_elements,
            dtype=self._dtype,
            chunk_bytes=self.chunk_bytes,
            task_matrix=self._task_geometry(),
            task_rows=task_rows,
        )

    # -- the select phase -----------------------------------------------

    def _user_arrays(self, rows):
        return (
            (self._positions, self._budgets)
            if rows is None
            else (self._positions[rows], self._budgets[rows])
        )

    def _select(self, active, prices, participants, rows) -> List[Selection]:
        if self._shards is not None:
            return self._shards.collect(active, prices, rows)
        return super()._select(active, prices, participants, rows)
