"""Outside-in layer timing: wrap public entry points, never edit ``src/``.

A :class:`LayerTrace` replaces a layer's entry point with a timing
wrapper that calls the original and records, per layer:

- exclusive busy seconds: the wrapper's wall time minus the wall time of
  wrapped calls nested inside it (a span's self time),
- the share of that exclusive time spent inside a round (nested in the
  wrapped ``engine.step``), so per-layer times plus the engine's own
  self time add up to the round time exactly,
- a call count.

Wrappers read the clock and nothing else: they never touch a random
stream or change an argument or result, so a traced run replays the
untraced run bit for bit (the benchmark checks this on every traced
run).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: The span every round's time hangs off: ``engine.step``.
ROUND = "simulation.engine"
CONSTRUCT = "simulation.round_cache"


class LayerTrace:
    """In-memory spans over the layers one workload touches.

    Install with :meth:`install` (class-level wrappers), attach to each
    new engine with :meth:`instrument_engine`, remove with
    :meth:`uninstall`.
    """

    def __init__(self):
        self.busy: Dict[str, float] = defaultdict(float)
        self.in_round: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.round_s = 0.0
        self.problems_seen = 0
        self.problems_nonempty = 0
        self.candidates_seen = 0
        self.bytes_published = 0
        # Counts read from each finished RoundRecord (engine observer).
        self.records: Dict[str, float] = defaultdict(int)
        # Open spans, innermost last: [layer name, nested wall seconds].
        self._stack: List[list] = []
        self._round_open = False  # rounds never nest
        self._restore: List[tuple] = []

    # -- span bookkeeping ----------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        if name == ROUND:
            self._round_open = True
        return frame

    def _close(self, frame: list, elapsed: float) -> None:
        self._stack.pop()
        name, nested = frame
        own = elapsed - nested
        self.busy[name] += own
        self.calls[name] += 1
        if self._round_open:
            self.in_round[name] += own
        if name == ROUND:
            self.round_s += elapsed
            self._round_open = False
        if self._stack:
            self._stack[-1][1] += elapsed

    def timed(
        self, name: str, fn: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``on_result`` sees the result of each outermost call of this
        layer (a call nested in a span of the same layer is not counted
        twice, e.g. a subclass override calling its base method).
        """

        def wrapper(*args, **kwargs):
            outermost = on_result is not None and all(
                f[0] != name for f in self._stack
            )
            frame = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - start)
            if outermost:
                on_result(result)
            return result

        return wrapper

    def timed_iter(self, name: str, fn: Callable, on_item: Callable) -> Callable:
        """A generator function whose every ``next()`` is one span."""

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(frame, perf_counter() - start)
                on_item(item)
                yield item

        return wrapper

    # -- installing wrappers -------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def _count_problem(self, problem) -> None:
        self.problems_seen += 1
        self.problems_nonempty += problem.size > 0
        self.candidates_seen += problem.size

    def install(self) -> None:
        """Class-level wrappers: problem construction, the neighbour
        counter, the shard pool, and session construction/observe.

        Installed before any engine is built, so construction-time calls
        (the neighbour-counter prime, the shard pool's publish) are seen.
        """
        from repro.geometry.grid_index import IncrementalNeighbourCounter
        from repro.simulation.batch import BatchedRoundProblems
        from repro.simulation.round_cache import RoundProblems
        from repro.simulation.session import SimulationSession
        from repro.simulation.shard import ShardedSelectionPool

        for cls in (RoundProblems, BatchedRoundProblems):
            self._patch(
                cls,
                "problem_for",
                self.timed(CONSTRUCT, cls.problem_for, self._count_problem),
            )
        self._patch(
            BatchedRoundProblems,
            "iter_problems",
            self.timed_iter(
                CONSTRUCT,
                BatchedRoundProblems.iter_problems,
                lambda item: self._count_problem(item[1]),
            ),
        )
        counter = IncrementalNeighbourCounter
        self._patch(
            counter,
            "apply_moves",
            self.timed("geometry.grid_index.apply_moves", counter.apply_moves),
        )
        self._patch(
            counter, "prime", self.timed("geometry.grid_index.prime", counter.prime)
        )
        pool = ShardedSelectionPool
        self._patch(
            pool, "collect", self.timed("simulation.shard.collect", pool.collect)
        )
        original_share = pool._share

        def share(pool_self, key, array):
            view = original_share(pool_self, key, array)
            self.bytes_published += view.nbytes
            return view

        self._patch(pool, "_share", share)
        self._patch(
            pool, "refresh", self.timed("simulation.shard.refresh", pool.refresh)
        )

        original_session_init = SimulationSession.__init__

        def session_init(session_self, *args, **kwargs):
            original_session_init(session_self, *args, **kwargs)
            self.instrument_engine(session_self.engine)

        self._patch(SimulationSession, "__init__", session_init)
        self._patch(
            SimulationSession,
            "observe",
            self.timed("simulation.session.observe", SimulationSession.observe),
        )

    def instrument_engine(self, engine) -> None:
        """Instance-level wrappers on one engine's collaborators."""
        wraps = [
            (engine, "step", ROUND),
            (engine.selector, "select", "selection.select"),
            (engine.mechanism, "rewards", "core.mechanisms.rewards"),
            (engine.mobility, "next_position", "world.mobility.next_position"),
            (engine.result, "absorb", "simulation.events.absorb"),
        ]
        if engine.timeline is not None:
            wraps.append((engine.timeline, "advance", "dynamics.advance"))
        for owner, attr, name in wraps:
            setattr(owner, attr, self.timed(name, getattr(owner, attr)))
        engine.observers.append(self.record_round)

    def record_round(self, record) -> None:
        """Engine observer: fold one RoundRecord's public counts in."""
        counts = self.records
        perf = record.perf
        if perf is not None:
            counts["selector_calls"] += perf.selector_calls
            counts["selector_wall_time"] += perf.selector_wall_time
            counts["dp_states"] += perf.dp_states_expanded
            counts["problems"] += perf.problem_cache_hits
            counts["price_cache_hits"] += perf.price_cache_hits
        counts["fallbacks"] += record.selector_fallbacks
        counts["measurements"] += len(record.measurements)
        counts["rejections"] += len(record.rejections)
        counts["dynamics_events"] += len(record.dynamics)

    def instrument_env(self, env) -> None:
        """Instance-level wrappers on an env's pluggable pieces."""
        for owner, attr, name in (
            (env.obs_builder, "build", "envs.obs_build"),
            (env.action_adapter, "to_action", "envs.action"),
            (env.reward_function, "score", "envs.reward"),
        ):
            setattr(owner, attr, self.timed(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        """Undo every class-level patch (instance patches die with their
        engine)."""
        while self._restore:
            owner, attr, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading ---------------------------------------------------------

    def in_round_sum(self) -> float:
        """Per-layer exclusive time inside rounds plus the engine's self
        time: equals :attr:`round_s` up to float rounding."""
        return sum(self.in_round.values())

