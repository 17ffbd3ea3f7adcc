#!/usr/bin/env python3
"""Record the fingerprints ``run.py`` checks every result against.

Usage, from the repository root::

    python3 perfbench/record.py

For each seed in ``SEEDS`` this plays the first ``RECORD_UNITS`` units of
``paper-sweep``, ``city-50k`` and ``stream-env`` (``city-50k-sharded``
is checked against the ``city-50k`` entries), checks every result, and
rewrites ``expected.json``.  Re-record only for a change that is meant
to alter simulation results; a change that only makes the program
faster must leave every recorded fingerprint as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import Player  # noqa: E402

EXPECTED = HERE / "expected.json"

#: Units whose fingerprints are recorded per workload and seed.
RECORD_UNITS = {"paper-sweep": 1, "city-50k": 1, "stream-env": 4}

#: Seeds recorded; they include the default seed and the held-out seed.
SEEDS = range(0, 13)
DEFAULT_SEED = 1
HELD_OUT_SEED = 11


def record() -> dict:
    unrecorded = {"fingerprints": {name: {} for name in RECORD_UNITS}}
    table = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "units": RECORD_UNITS,
        "fingerprints": {name: {} for name in RECORD_UNITS},
    }
    for workload, units in RECORD_UNITS.items():
        for seed in SEEDS:
            player = Player(workload, seed, unrecorded)
            fingerprints = []
            try:
                for unit in range(units):
                    outcome = player.play(unit)
                    if outcome.failed:
                        raise RuntimeError(
                            f"{workload} seed {seed} unit {unit} failed its "
                            f"checks:\n" + "\n".join(outcome.problems)
                        )
                    fingerprints.extend(outcome.fingerprints)
            finally:
                player.close()
            table["fingerprints"][workload][str(seed)] = fingerprints
            sys.stderr.write(f"recorded {workload} seed {seed}\n")
    return table


def main() -> None:
    table = record()
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
