#!/usr/bin/env python3
"""The repository benchmark: open-loop workloads against the simulated
JOSHUA and replicated-PVFS stacks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady_writes --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced run and reports the per-layer metrics. Every run checks the
program's outputs and fails, printing no result, when a check fails. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads, and for each metric's unit and
clock.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import driver  # noqa: E402  (imports the program from src/)

    return driver.run(args.workload, args.seed, args.seconds, args.trace, started)


if __name__ == "__main__":
    sys.exit(main())
