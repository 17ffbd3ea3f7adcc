"""Time-to-first-round probe: one fresh interpreter, one workload set-up.

``run.py`` starts this script ``SETUP_PROBES`` times per untraced run and
times each from process start to the ``ready`` line, which is printed
once ``import repro`` and the workload's first engine (or env) are built
and reset.  Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import open_target, unit_ops  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    target = open_target(workload, unit_ops(workload, seed, 0)[0])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    target.close()


if __name__ == "__main__":
    main()
