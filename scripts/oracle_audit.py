"""Cross-check the polynomial solver against the exhaustive oracle.

Draws random small instances, solves each in both decision modes, and
compares the answers with brute force over all manipulator ballots (and
with the search restricted to one common ballot). A fixed tie-heavy
COWINNER corpus runs every time as well, whatever the seed: five
candidates, four to six ballots of weight 1-3 and one manipulator of weight
2-4, checked against the common-ballot search. Its many tied and near-tied
edges reach the strict transfer test that the small random instances
rarely do. Any disagreement is printed and the script exits nonzero.

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

from schulze_wcm.model import ManipulationInstance, Mode  # noqa: E402
from schulze_wcm.oracle import brute_force_wcm  # noqa: E402
from schulze_wcm.sampling import random_instance, random_profile  # noqa: E402
from schulze_wcm.solver import solve_wcm  # noqa: E402

TIED_CORPUS = 3000


def tied_instances():
    """The fixed tie-heavy COWINNER corpus."""
    rng = random.Random("cowinner-ties")
    for _ in range(TIED_CORPUS):
        profile = random_profile(rng, 5, ballots=(4, 6))
        weights = (rng.randint(2, 4),)
        yield ManipulationInstance(profile, weights, rng.randrange(5), Mode.COWINNER)


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

    tied_yes = tied_mismatches = 0
    start = time.perf_counter()
    for index, instance in enumerate(tied_instances()):
        decision = solve_wcm(instance).decision
        identical, _ = brute_force_wcm(instance, identical_only=True)
        tied_yes += decision
        if decision != identical:
            tied_mismatches += 1
            print(
                f"mismatch on tied instance {index}:"
                f" solver={decision} identical={identical}"
            )
            print(f"  instance: {instance!r}")
    elapsed = time.perf_counter() - start
    print(
        f"{TIED_CORPUS} tie-heavy COWINNER instances checked in {elapsed:.2f}s:"
        f" {tied_yes} manipulable, {TIED_CORPUS - tied_yes} not,"
        f" {tied_mismatches} mismatches"
    )
    return 1 if mismatches + tied_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
