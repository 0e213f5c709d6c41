"""Cross-check the polynomial solver against the exhaustive oracle.

Draws random small instances, solves each in both decision modes, and
compares the answers with brute force over all manipulator ballots (and
with the search restricted to one common ballot). Any disagreement is
printed and the script exits nonzero.

Usage: python3 scripts/oracle_audit.py [--instances N] [--seed S]
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
import time
from pathlib import Path

# Run against this checkout's sources, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schulze_wcm.model import Mode  # noqa: E402
from schulze_wcm.oracle import brute_force_wcm  # noqa: E402
from schulze_wcm.sampling import random_instance  # noqa: E402
from schulze_wcm.solver import solve_wcm  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    checked = 0
    yes = 0
    mismatches = 0
    start = time.perf_counter()
    for index in range(args.instances):
        base = random_instance(rng)
        for mode in (Mode.UNIQUE, Mode.COWINNER):
            instance = dataclasses.replace(base, mode=mode)
            outcome = solve_wcm(instance)
            oracle, _ = brute_force_wcm(instance)
            identical, _ = brute_force_wcm(instance, identical_only=True)
            checked += 1
            yes += outcome.decision
            if outcome.decision != oracle or identical != oracle:
                mismatches += 1
                print(
                    f"mismatch on base {index} mode {mode.value}:"
                    f" solver={outcome.decision} oracle={oracle}"
                    f" identical={identical}"
                )
                print(f"  instance: {instance!r}")
    elapsed = time.perf_counter() - start

    print(
        f"{checked} instances checked in {elapsed:.2f}s:"
        f" {yes} manipulable, {checked - yes} not, {mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
