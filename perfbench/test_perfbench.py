"""Self-tests for the benchmark.  Run from the repository root with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import api  # noqa: E402
from run import SpeedProbe  # noqa: E402
from tracing import LayerTrace  # noqa: E402
from workloads import WORKLOADS, unit_ops  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _play(config, workers=None, trace=None):
    """Step one session to the end; return (fingerprint, rounds)."""
    if trace is not None:
        trace.install()
    try:
        with api.open_session(config, workers=workers) as session:
            while not session.finished:
                session.step()
            return api.result_fingerprint(session.result()), session.current_round
    finally:
        if trace is not None:
            trace.uninstall()


@pytest.mark.parametrize(
    "scenario, overrides, workers",
    [
        ("paper-2018", {"n_users": 25, "rounds": 4}, None),
        ("poisson-churn", {}, None),
        ("poisson-churn", {}, 2),
    ],
    ids=["scalar-dp", "batched-churn", "sharded-churn"],
)
def test_wrappers_are_observation_only(scenario, overrides, workers):
    config = api.build_config(scenario, seed=5, **overrides)
    plain, _ = _play(config, workers)
    trace = LayerTrace()
    traced, _ = _play(config, workers, trace)
    assert traced == plain
    assert trace.calls["simulation.engine"] > 0
    # Per-layer exclusive times inside rounds plus the engine's own self
    # time account for the whole round time.
    assert trace.in_round_sum() == pytest.approx(trace.round_s, rel=1e-9)
    if workers:
        assert trace.calls["simulation.shard.collect"] > 0
        assert trace.bytes_published > 0
    else:
        assert trace.calls["selection.select"] > 0
        assert trace.problems_seen > 0


def test_env_wrappers_are_observation_only():
    config = api.build_config("poisson-churn", seed=3)
    actions = np.random.default_rng(0).random((config.rounds, 5))

    def episode(trace=None):
        env = api.make_env(config)
        if trace is not None:
            trace.instrument_env(env)
            trace.install()
        try:
            env.reset(seed=config.seed)
            for action in actions:
                if env.step(action)[2]:
                    break
            return env.fingerprint()
        finally:
            if trace is not None:
                trace.uninstall()
            env.close()

    trace = LayerTrace()
    assert episode(trace) == episode()
    for layer in ("envs.obs_build", "envs.action", "envs.reward",
                  "simulation.session.observe", "dynamics.advance"):
        assert trace.calls[layer] > 0, layer


def test_uninstall_restores_every_class():
    from repro.simulation.batch import BatchedRoundProblems
    from repro.simulation.round_cache import RoundProblems
    from repro.simulation.session import SimulationSession

    before = (
        RoundProblems.problem_for,
        BatchedRoundProblems.problem_for,
        BatchedRoundProblems.iter_problems,
        SimulationSession.__init__,
        SimulationSession.observe,
    )
    trace = LayerTrace()
    trace.install()
    trace.uninstall()
    after = (
        RoundProblems.problem_for,
        BatchedRoundProblems.problem_for,
        BatchedRoundProblems.iter_problems,
        SimulationSession.__init__,
        SimulationSession.observe,
    )
    assert after == before


def test_speed_probe_ignores_concurrent_program_work():
    # Work the program runs beside the probe (here a thread contending
    # for the GIL) delays the probe but must not raise its samples, or a
    # program could hide its own cost in the calibration.
    probe = SpeedProbe()
    idle = statistics.median(probe.sample() for _ in range(5))
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        busy = statistics.median(probe.sample() for _ in range(5))
    finally:
        stop.set()
        worker.join()
    assert busy < 1.4 * idle
    assert probe.wait_frac > 0.1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    def digest(seed, unit):
        return [
            (op.config, op.workers,
             None if op.actions is None else op.actions.tobytes())
            for op in unit_ops(workload, seed, unit)
        ]

    assert digest(4, 0) == digest(4, 0)
    assert digest(4, 1) == digest(4, 1)
    assert digest(4, 0) != digest(5, 0)
    assert digest(4, 0) != digest(4, 1)


def _run(*args):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run(
        "--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
        "--trace", trace,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name in printed:
        assert NAME.match(name), name
