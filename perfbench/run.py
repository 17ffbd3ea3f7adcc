#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs, and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` plays whole units (see ``workloads.py``) for about
``--seconds`` seconds with nothing wrapped and prints the end-to-end
metrics; it then times ``SETUP_PROBES`` fresh interpreters to the first
playable round for ``setup_s``.  ``--trace 1`` plays a fixed number of
units, each once untraced and once with the outside-in layer wrappers of
``tracing.py``, checks that both produce the same fingerprints, and
prints the per-layer metrics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the run's context (machine calibration score, units played, whether
recorded fingerprints were checked).  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time
from typing import Dict, List, Optional, Tuple

from tracing import CONSTRUCT, ROUND, LayerTrace
from workloads import WORKLOADS, fingerprint_key, play_unit, unit_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SETUP_PROBE = HERE / "setup_probe.py"

#: Fresh interpreters timed per untraced run; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0

#: Units each pass of a traced run plays (fixed, so counts repeat exactly).
TRACE_UNITS = {
    "paper-sweep": 8,
    "city-50k": 1,
    "city-50k-sharded": 1,
    "stream-env": 24,
}

#: The speed probe's kernel: a pure-Python loop and a numpy sort.
PROBE_LOOP = 200_000
PROBE_SORT = 200_000
#: Seconds of play between two speed samples.
PROBE_EVERY_S = 0.5
#: Probe sample time the calibrated timing metrics are scaled to (about
#: the median on a 2-vCPU x86 VM at 2.1 GHz).
REFERENCE_SAMPLE_S = 0.02

#: Layers each workload's traced run must enter at least once.  A layer
#: with no calls means its wrapper is no longer reached (an entry point
#: was renamed or bypassed), so its time would hide in engine self time.
_CORE = (ROUND, "core.mechanisms.rewards", "world.mobility.next_position")
_CITY = _CORE + (
    "geometry.grid_index.apply_moves",
    "geometry.grid_index.prime",
    "simulation.events.absorb",
)
ENTERED_LAYERS = {
    "paper-sweep": _CORE + ("selection.select", CONSTRUCT),
    "city-50k": _CITY + ("selection.select", CONSTRUCT),
    "city-50k-sharded": _CITY + ("simulation.shard.collect",),
    "stream-env": _CITY
    + ("selection.select", CONSTRUCT, "dynamics.advance")
    + ("simulation.session.observe", "envs.obs_build", "envs.action", "envs.reward"),
}

Metrics = Dict[str, Tuple[float, str]]


class SpeedProbe:
    """Times one fixed CPU kernel before and during play.

    The kernel is a fixed pure-Python loop plus a fixed numpy sort.  The
    median of three samples taken before any workload is the run's
    machine calibration score.  Called between rounds, the probe takes
    one sample per ``PROBE_EVERY_S`` seconds of play since its last
    sample, so the run's median sample tracks how fast the machine ran
    while it played; ``setup_seconds`` adds two samples before each
    setup interpreter.

    A sample is the CPU time of the probe's own thread, not wall time.
    Work the program runs at the same moment (threads, worker
    processes) delays the probe but adds no CPU time to its thread, so
    it cannot raise the slowdown and hide its own cost; what the program
    runs concurrently shows in ``probe_wait_frac`` instead.  A slower or
    busier host makes the same instructions take more CPU time, which
    the probe does see.
    """

    def __init__(self):
        import numpy as np

        self._sort = np.sort
        self._data = np.random.default_rng(0).random(PROBE_SORT)
        self.wall = 0.0
        self.cpu = 0.0
        self.before = [self.sample() for _ in range(3)]
        self.during: List[float] = []
        self._last = perf_counter()

    def sample(self) -> float:
        start, start_cpu = perf_counter(), thread_time()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        self._sort(self._data)
        cpu = thread_time() - start_cpu
        self.wall += perf_counter() - start
        self.cpu += cpu
        return cpu

    def __call__(self) -> None:
        # One sample per PROBE_EVERY_S of play, however long the round
        # was, so a 1.5 s city round weighs as much as 40 short steps.
        due = int((perf_counter() - self._last) / PROBE_EVERY_S)
        if due:
            self.during += [self.sample() for _ in range(due)]
            self._last = perf_counter()

    @property
    def calibration_s(self) -> float:
        return statistics.median(self.before)

    @property
    def wait_frac(self) -> float:
        """Share of the probe's wall time its thread was not running."""
        return 1.0 - self.cpu / self.wall

    @property
    def slowdown(self) -> float:
        """Median sample over ``REFERENCE_SAMPLE_S``: >1 on a slower machine."""
        return statistics.median(self.before + self.during) / REFERENCE_SAMPLE_S


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def expected_for(table: dict, workload: str, seed: int, unit: int, n_ops: int):
    """Recorded fingerprints for one unit's ops (None where unrecorded)."""
    recorded = table["fingerprints"][fingerprint_key(workload)].get(str(seed), [])
    first = unit * n_ops
    return [
        recorded[i] if i < len(recorded) else None
        for i in range(first, first + n_ops)
    ]


class Player:
    """Plays one workload's units in order for one run.

    ``stream-env`` episodes are resets of one env, created here; with a
    ``trace``, that env's observation builder, action adapter and reward
    function are wrapped.
    """

    def __init__(
        self, workload: str, seed: int, table: dict, trace=None, between_rounds=None
    ):
        from repro import api

        self.workload = workload
        self.seed = seed
        self.table = table
        self.between_rounds = between_rounds
        self.env = None
        if workload == "stream-env":
            self.env = api.make_env(unit_ops(workload, seed, 0)[0].config)
            if trace is not None:
                trace.instrument_env(self.env)

    def play(self, unit: int):
        ops = unit_ops(self.workload, self.seed, unit)
        expected = expected_for(self.table, self.workload, self.seed, unit, len(ops))
        return play_unit(self.workload, ops, self.env, expected, self.between_rounds)

    def close(self) -> None:
        if self.env is not None:
            self.env.close()


def play_for(workload: str, seed: int, seconds: float, table: dict, probe):
    """Play whole units for about ``seconds``, sampling machine speed.

    A new unit starts only while the time used so far plus the last
    unit's time stays within ``seconds``; at least one unit runs.
    """
    player = Player(workload, seed, table, between_rounds=probe)
    outcomes = []
    started = perf_counter()
    try:
        while True:
            unit_started = perf_counter()
            outcomes.append(player.play(len(outcomes)))
            now = perf_counter()
            if now - started + (now - unit_started) > seconds:
                return outcomes
    finally:
        player.close()


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest child reaped so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(workload: str, seed: int, probe: SpeedProbe) -> float:
    """Time from a fresh interpreter to the first playable round: the
    median over ``SETUP_PROBES`` interpreters.

    Two speed samples are taken before each interpreter starts, so the
    run's slowdown also covers the set-up phase.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        probe.during += [probe.sample(), probe.sample()]
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(SETUP_PROBE), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline().strip()
            samples.append(perf_counter() - start)
            child.stdout.read()
            child.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(
                f"setup probe for {workload} failed (exit {child.returncode})"
            )
    return statistics.median(samples)


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one started.

    The sharded engine's shared memory starts multiprocessing's tracker
    process; every block is unlinked by the time a run ends, so stopping
    it here leaves no process of the run alive after exit.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def quantile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q * 100.0))


def untraced_run(workload: str, seed: int, seconds: float, table: dict, probe):
    outcomes = play_for(workload, seed, seconds, table, probe)
    times = [t for o in outcomes for t in o.round_times]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    if not times:
        raise RuntimeError("no round completed:\n" + "\n".join(problems))
    rss = peak_rss_mib()
    raw = {
        "setup_s": setup_seconds(workload, seed, probe),
        "user_rounds_per_s": statistics.median(
            sum(o.users) / sum(o.round_times) for o in outcomes if o.round_times
        ),
        "round_p50_ms": quantile(times, 0.5) * 1e3,
        "round_p90_ms": quantile(times, 0.9) * 1e3,
    }
    # Timings are reported at the reference machine speed: this machine's
    # speed drifts by more than the bounds over minutes, and the probe
    # interleaved with play and set-up tracks that drift.  Raw values are
    # in context.
    slowdown = probe.slowdown
    metrics: Metrics = {
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "user_rounds_per_s": (raw["user_rounds_per_s"] * slowdown, "1/s"),
        "round_p50_ms": (raw["round_p50_ms"] / slowdown, "ms"),
        "round_p90_ms": (raw["round_p90_ms"] / slowdown, "ms"),
        "peak_rss_mib": (rss, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    context = {
        "units": len(outcomes),
        "rounds": len(times),
        "raw": raw,
        "slowdown": slowdown,
        "speed_samples": len(probe.before) + len(probe.during),
        "probe_wait_frac": probe.wait_frac,
    }
    return metrics, attempted, failed, problems, context


def traced_run(workload: str, seed: int, import_s: float, table: dict):
    # Each unit plays untraced, then traced, so slow drift in machine
    # load biases trace.overhead_frac less than two long passes would.
    units = TRACE_UNITS[workload]
    trace = LayerTrace()
    plain_player = Player(workload, seed, table)
    traced_player = Player(workload, seed, table, trace=trace)
    plain, traced = [], []
    try:
        for unit in range(units):
            plain.append(plain_player.play(unit))
            trace.install()
            try:
                traced.append(traced_player.play(unit))
            finally:
                trace.uninstall()
    finally:
        plain_player.close()
        traced_player.close()
    outcomes = plain + traced
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    for unit, (untraced, with_trace) in enumerate(zip(plain, traced)):
        if untraced.fingerprints != with_trace.fingerprints:
            failed += with_trace.attempted
            problems.append(f"unit {unit}: traced fingerprints differ from untraced")
    missed = [layer for layer in ENTERED_LAYERS[workload] if not trace.calls[layer]]
    if missed:
        failed = attempted
        problems.append(f"traced run never entered the layers {missed}")

    busy, calls, records = trace.busy, trace.calls, trace.records
    plain_s = sum(t for o in plain for t in o.round_times)
    traced_s = sum(t for o in traced for t in o.round_times)
    select_calls = calls["selection.select"]
    seen = trace.problems_seen
    attempts = records["measurements"] + records["rejections"]
    sharded = calls["simulation.shard.collect"] > 0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: Metrics = {
        "selection.select_s": (busy["selection.select"], "s"),
        "selection.calls": (records["selector_calls"], "count"),
        "selection.us_per_call": (
            ratio(busy["selection.select"], select_calls) * 1e6, "us"
        ),
        "selection.dp_states": (records["dp_states"], "count"),
        "selection.fallbacks": (records["fallbacks"], "count"),
        "simulation.round_cache.construct_s": (busy[CONSTRUCT], "s"),
        "simulation.round_cache.problems": (records["problems"], "count"),
        "simulation.round_cache.nonempty_ratio": (
            ratio(trace.problems_nonempty, seen), "ratio"
        ),
        "simulation.round_cache.candidates_mean": (
            ratio(trace.candidates_seen, seen), "count"
        ),
        "simulation.engine.round_s": (trace.round_s, "s"),
        "simulation.engine.self_s": (busy[ROUND], "s"),
        "simulation.engine.accept_ratio": (
            ratio(records["measurements"], attempts), "ratio"
        ),
        "world.mobility.next_position_s": (
            busy["world.mobility.next_position"], "s"
        ),
        "world.mobility.calls": (calls["world.mobility.next_position"], "count"),
        "geometry.grid_index.apply_moves_s": (
            busy["geometry.grid_index.apply_moves"], "s"
        ),
        "core.mechanisms.rewards_s": (busy["core.mechanisms.rewards"], "s"),
        "core.mechanisms.rewards_calls": (
            calls["core.mechanisms.rewards"], "count"
        ),
        "core.mechanisms.price_cache_hits": (records["price_cache_hits"], "count"),
        "dynamics.advance_s": (busy["dynamics.advance"], "s"),
        "dynamics.events": (records["dynamics_events"], "count"),
        "simulation.shard.collect_s": (busy["simulation.shard.collect"], "s"),
        "simulation.shard.worker_select_s": (
            records["selector_wall_time"] if sharded else 0.0, "s"
        ),
        "simulation.shard.refreshes": (calls["simulation.shard.refresh"], "count"),
        "simulation.shard.bytes_published": (
            trace.bytes_published, "bytes_computed"
        ),
        "simulation.session.observe_s": (busy["simulation.session.observe"], "s"),
        "envs.obs_build_s": (busy["envs.obs_build"], "s"),
        "envs.action_s": (busy["envs.action"], "s"),
        "envs.reward_s": (busy["envs.reward"], "s"),
        "simulation.events.absorb_s": (busy["simulation.events.absorb"], "s"),
        "api.import_s": (import_s, "s"),
        "geometry.grid_index.prime_s": (busy["geometry.grid_index.prime"], "s"),
        "trace.overhead_frac": (ratio(traced_s, plain_s) - 1.0, "frac"),
    }
    context = {
        "units": units,
        "rounds": sum(len(o.round_times) for o in traced),
        "in_round_s": {
            name: seconds for name, seconds in sorted(trace.in_round.items())
        },
    }
    return metrics, attempted, failed, problems, context


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no repro sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import repro  # noqa: F401  (timed: the cold import is api.import_s)

    import_s = perf_counter() - started
    probe = SpeedProbe()
    table = load_expected()
    if args.trace:
        result = traced_run(args.workload, args.seed, import_s, table)
    else:
        result = untraced_run(args.workload, args.seed, args.seconds, table, probe)
    stop_resource_tracker()
    metrics, attempted, failed, problems, context = result
    failed = min(failed, attempted)
    for problem in problems:
        sys.stderr.write(f"CHECK FAILED: {problem}\n")
    for name, (value, unit) in metrics.items():
        sys.stdout.write(f"{name:42s} {value:16.6f} {unit}\n")
    context.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        calibration_s=probe.calibration_s,
        fingerprints_recorded=str(args.seed)
        in table["fingerprints"][fingerprint_key(args.workload)],
    )
    sys.stdout.write(json.dumps({"context": context}) + "\n")
    correct = failed == 0
    sys.stdout.write(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
        + "\n"
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
