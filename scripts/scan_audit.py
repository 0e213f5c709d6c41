"""Cross-check the solver's restricted scans and its tree certificate.

`compute_bound_function` runs its transfer scan over the rivals that can
still lower someone, and `build_admissible_graph` tests only the heads whose
bound is at most the row's. This script recomputes both with local
references that visit every candidate pair, on graphs with 100 to 400
candidates in both decision modes: majority graphs of random profiles with
20 and with 300 ballots, and tie-heavy skew graphs whose entries have
magnitude at most 2. On every YES decision it also runs the rest of the
solve (tree, ballot, tree certificate) and checks the final election in full
whatever the certificate says; it prints the share of YES answers the
certificate settled. As the solver's own ballots always win, each YES case
also probes the certificate where it may have to say no: the same ballot and
tree at coalition weights W - 1 and W // 2, and a random ballot with a random
tree rooted at the target at W. Every probe the certificate accepts is
checked in full. A scan difference, a constructed ballot that fails the full
check whether certified or not, or a certified probe that fails it, is
printed, and the script exits nonzero.

Usage: python3 scripts/scan_audit.py [--sizes 100 200 400] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import product
from pathlib import Path

# Run against this checkout's sources, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schulze_wcm.engine import widest_from  # noqa: E402
from schulze_wcm.model import (  # noqa: E402
    Mode,
    build_majority_graph,
    overlay_identical_manipulators,
)
from schulze_wcm.sampling import (  # noqa: E402
    random_profile,
    random_ranking,
    random_skew_graph,
)
from schulze_wcm.solver import (  # noqa: E402
    INF,
    _reaches_goal,
    _tree_certifies_goal,
    build_admissible_graph,
    compute_bound_function,
    construct_manipulator_vote,
    decide_manipulable,
    spanning_arborescence,
)


def full_scan_bounds(weights, target, coalition_weight, mode):
    """The bound fixed point with a transfer scan over every rival pair."""
    m = len(weights)
    bounds = [max(map(max, weights)) + coalition_weight] * m
    bounds[target] = INF
    applications = 0
    strict_transfer = mode is not Mode.UNIQUE
    while True:
        support = widest_from(weights, target, coalition_weight, bounds)
        support[target] = INF
        applications += sum(s < b for s, b in zip(support, bounds))
        bounds = support
        before = applications
        for x in range(m):
            if x == target:
                continue
            for y, bound_y in enumerate(bounds):
                if bound_y >= bounds[x]:
                    continue
                edge = weights[y][x] - coalition_weight
                if edge > bound_y or (edge == bound_y and not strict_transfer):
                    bounds[x] = bound_y
                    applications += 1
        if applications == before:
            return tuple(bounds), applications


def full_admissible(weights, values, coalition_weight):
    """The admissible graph tested over every ordered pair."""
    m = len(values)
    return tuple(
        tuple(
            y
            for y in range(m)
            if y != x and min(values[x], weights[x][y] + coalition_weight) >= values[y]
        )
        for x in range(m)
    )


def graphs(rng: random.Random, m: int):
    """(kind, graph) pairs of one size: two profile tallies, two tied graphs."""
    for count in (20, 300):
        profile = random_profile(rng, m, ballots=(count, count))
        yield f"profile-{count}", build_majority_graph(profile)
    for magnitude in (1, 2):
        yield f"skew-{magnitude}", random_skew_graph(rng, m, magnitude=magnitude)


def random_tree(rng: random.Random, m: int, target: int) -> tuple[int | None, ...]:
    """Parents of a random tree rooted at the target: each joins an earlier node."""
    order = [target] + rng.sample([x for x in range(m) if x != target], m - 1)
    parents: list[int | None] = [None] * m
    for position in range(1, m):
        parents[order[position]] = order[rng.randrange(position)]
    return tuple(parents)


def probe_certificate(rng, graph, target, vote, parents, coalition_weight, mode):
    """(probes certified, certified probes that fail the full check)."""
    m = len(graph.candidates)
    probes = [
        (vote, parents, coalition_weight - 1),
        (vote, parents, coalition_weight // 2),
        (random_ranking(rng, m), random_tree(rng, m, target), coalition_weight),
    ]
    certified = unsound = 0
    for probe_vote, probe_parents, weight in probes:
        if _tree_certifies_goal(graph, target, probe_vote, probe_parents, weight, mode):
            certified += 1
            final = overlay_identical_manipulators(graph, probe_vote, weight)
            unsound += not _reaches_goal(final, target, mode)
    return certified, unsound


def audit(graph, target: int, coalition_weight: int, mode: Mode, rng: random.Random):
    """(scans match, YES tail), the tail None on NO, else (certified, reaches, probes).

    reaches is the full check of the final election, run on every YES;
    probes is what probe_certificate returns.
    """
    weights = graph.weights
    bounds, applications = compute_bound_function(
        graph, target, coalition_weight, mode
    )
    admissible = build_admissible_graph(graph, bounds, coalition_weight)
    same = (bounds.values, applications) == full_scan_bounds(
        weights, target, coalition_weight, mode
    ) and admissible == full_admissible(weights, bounds.values, coalition_weight)
    if not decide_manipulable(graph, bounds, coalition_weight):
        return same, None
    parents = spanning_arborescence(admissible, target)
    vote = construct_manipulator_vote(parents, bounds)
    certified = _tree_certifies_goal(
        graph, target, vote, parents, coalition_weight, mode
    )
    final = overlay_identical_manipulators(graph, vote, coalition_weight)
    probes = probe_certificate(
        rng, graph, target, vote, parents, coalition_weight, mode
    )
    return same, (certified, _reaches_goal(final, target, mode), probes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    # The probes draw from their own stream, so the cases stay those of the seed.
    probe_rng = random.Random(f"probes-{args.seed}")
    checked = 0
    mismatches = 0
    yes = 0
    certified = 0
    failed = 0
    probes_certified = 0
    unsound = 0
    start = time.perf_counter()
    for m in args.sizes:
        for kind, graph in graphs(rng, m):
            targets = rng.sample(range(m), 2)
            coalitions = (1, rng.randint(2, 40), rng.randint(41, 900))
            for target, coalition_weight, mode in product(targets, coalitions, Mode):
                checked += 1
                same, tail = audit(graph, target, coalition_weight, mode, probe_rng)
                case = (
                    f"m={m} {kind} target={target}"
                    f" coalition={coalition_weight} mode={mode.value}"
                )
                if not same:
                    mismatches += 1
                    print(f"mismatch: {case}")
                if tail is not None:
                    yes += 1
                    settled, reaches, (accepted, wrong) = tail
                    certified += settled
                    if not reaches:
                        failed += 1
                        verdict = "certified" if settled else "uncertified"
                        print(f"{verdict} ballot fails the full check: {case}")
                    probes_certified += accepted
                    if wrong:
                        unsound += wrong
                        print(f"{wrong} certified probes fail the full check: {case}")
    elapsed = time.perf_counter() - start

    print(f"{checked} solves checked in {elapsed:.2f}s: {mismatches} mismatches")
    print(
        f"{yes} YES answers: {certified} settled by the tree certificate,"
        f" {yes - certified} by the full check; {failed} ballots fail the full check"
    )
    print(
        f"{3 * yes} certificate probes: {probes_certified} certified,"
        f" {unsound} of them fail the full check"
    )
    return 1 if mismatches or failed or unsound else 0


if __name__ == "__main__":
    sys.exit(main())
