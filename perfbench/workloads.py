"""The benchmark's workloads: seeded input generation and closed-loop play.

Every workload is a sequence of *units*; unit ``k`` of a run seeded
``s`` uses simulation seed ``1000 * s + k`` and nothing else that varies,
so the same seed always yields the same inputs.  What the program
receives is only what :func:`unit_ops` generates: a config (seed
included), a worker count, and for ``stream-env`` the pre-drawn action
vectors.

- ``paper-sweep``: one unit = the 9 simulations of the paper's grid,
  mechanisms {on-demand, fixed, steered} x users {40, 90, 140}, on the
  ``paper-2018`` preset (scalar engine, exact DP selector).
- ``city-50k``: one unit = one ``city-50k`` simulation, in-process.
- ``city-50k-sharded``: the same simulation with ``workers=2``.
- ``stream-env``: one unit = one ``task-stream-2k`` env episode with an
  ``incentive`` action per step, drawn from ``default_rng([s, k])``.

Play is a closed loop: the next round (or env step) starts only after
the previous one returned.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional

WORKLOADS = ("paper-sweep", "city-50k", "city-50k-sharded", "stream-env")

#: Unit ``k`` of a run seeded ``s`` plays simulation seed ``SEED_STRIDE*s+k``.
SEED_STRIDE = 1000

SWEEP_MECHANISMS = ("on-demand", "fixed", "steered")
SWEEP_USERS = (40, 90, 140)
SHARD_WORKERS = 2
ACTION_SIZE = 5


@dataclass(frozen=True)
class Op:
    """One generated simulation (or env episode): the program's input."""

    config: object
    workers: Optional[int] = None
    actions: Optional[object] = None  # numpy array, one row per step


def unit_ops(workload: str, seed: int, unit: int) -> List[Op]:
    """The operations of unit ``unit`` of a run seeded ``seed``."""
    from repro import api

    sim_seed = SEED_STRIDE * seed + unit
    if workload == "paper-sweep":
        return [
            Op(
                api.build_config(
                    "paper-2018", n_users=users, mechanism=mechanism, seed=sim_seed
                )
            )
            for mechanism in SWEEP_MECHANISMS
            for users in SWEEP_USERS
        ]
    if workload in ("city-50k", "city-50k-sharded"):
        workers = SHARD_WORKERS if workload == "city-50k-sharded" else None
        return [Op(api.build_config("city-50k", seed=sim_seed), workers=workers)]
    if workload == "stream-env":
        import numpy as np

        config = api.build_config("task-stream-2k", seed=sim_seed)
        actions = np.random.default_rng([seed, unit]).random(
            (config.rounds, ACTION_SIZE)
        )
        return [Op(config, actions=actions)]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


def fingerprint_key(workload: str) -> str:
    """The expected-fingerprint table a workload is checked against.

    The sharded run must be fingerprint-identical to the in-process
    one, so both read the ``city-50k`` entries.
    """
    return "city-50k" if workload == "city-50k-sharded" else workload


@dataclass
class UnitOutcome:
    """What one unit produced: timings, outputs, and check results."""

    round_times: List[float] = field(default_factory=list)
    users: List[int] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def open_target(workload: str, op: Op):
    """Build what the first round needs; returns an object with close().

    For session workloads this is an open :class:`SimulationSession`;
    for ``stream-env`` an env that has been reset to the op's seed.
    """
    from repro import api

    if workload == "stream-env":
        env = api.make_env(op.config)
        env.reset(seed=op.config.seed)
        return env
    return api.open_session(op.config, workers=op.workers)


def check_result(result) -> List[str]:
    """Output checks every finished simulation must pass."""
    problems = []
    counts = result.measurements_by_task()
    over = [
        task.task_id
        for task in result.world.tasks
        if counts.get(task.task_id, 0) > task.required_measurements
    ]
    if over:
        problems.append(f"tasks over their measurement cap: {over[:10]}")
    if result.total_selector_fallbacks:
        problems.append(
            f"{result.total_selector_fallbacks} selector watchdog fallbacks"
        )
    return problems


def play_unit(
    workload: str,
    ops: List[Op],
    env=None,
    expected: Optional[List[Optional[str]]] = None,
    between_rounds: Optional[Callable[[], None]] = None,
) -> UnitOutcome:
    """Play one unit's operations in a closed loop and check each result.

    Args:
        env: the run's reusable env for ``stream-env`` (episodes are
            resets of one env, as a policy-training loop would do).
        expected: recorded fingerprints aligned with ``ops``; ``None``
            entries (or no list) skip that comparison.
        between_rounds: called after each round, outside its timing
            (the run's machine-speed probe).
    """
    between_rounds = between_rounds or (lambda: None)
    outcome = UnitOutcome()
    expected = expected or [None] * len(ops)
    for op, want in zip(ops, expected):
        if workload == "stream-env":
            _play_episode(env, op, outcome, want, between_rounds)
        else:
            _play_simulation(op, outcome, want, between_rounds)
    return outcome


def _failures(result, fingerprint: str, want: Optional[str]) -> List[str]:
    problems = check_result(result)
    if want is not None and fingerprint != want:
        problems.append(
            f"seed {result.config.seed}: fingerprint {fingerprint} != "
            f"recorded {want}"
        )
    return problems


def _play_simulation(
    op: Op, outcome: UnitOutcome, want: Optional[str], between_rounds
) -> None:
    from repro import api

    outcome.attempted += 1
    try:
        with api.open_session(op.config, workers=op.workers) as session:
            while not session.finished:
                start = perf_counter()
                record = session.step()
                outcome.round_times.append(perf_counter() - start)
                outcome.users.append(len(record.user_records))
                between_rounds()
            result = session.result()
            fingerprint = api.result_fingerprint(result)
    except Exception:
        outcome.failed += 1
        outcome.problems.append(traceback.format_exc())
        return
    outcome.fingerprints.append(fingerprint)
    problems = _failures(result, fingerprint, want)
    if problems:
        outcome.failed += 1
        outcome.problems.extend(problems)


def _play_episode(
    env, op: Op, outcome: UnitOutcome, want: Optional[str], between_rounds
) -> None:
    steps = 0
    try:
        env.reset(seed=op.config.seed)
        for action in op.actions:
            steps += 1
            start = perf_counter()
            terminated = env.step(action)[2]
            outcome.round_times.append(perf_counter() - start)
            outcome.users.append(len(env.result().world.users))
            between_rounds()
            if terminated:
                break
        result = env.result()
        fingerprint = env.fingerprint()
    except Exception:
        outcome.attempted += max(steps, 1)
        outcome.failed += max(steps, 1)
        outcome.problems.append(traceback.format_exc())
        return
    outcome.attempted += steps
    outcome.fingerprints.append(fingerprint)
    problems = _failures(result, fingerprint, want)
    if problems:
        outcome.failed += steps
        outcome.problems.extend(problems)
