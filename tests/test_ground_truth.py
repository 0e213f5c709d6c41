"""The oracle's ground truth: pinned answers and what the bound function means."""

import dataclasses
import itertools
import random

from schulze_wcm import (
    ManipulationInstance,
    Mode,
    Ranking,
    WeightedBallot,
    WeightedProfile,
    brute_force_wcm,
    parse_election_file,
    solve_wcm,
    verify_manipulation,
)
from schulze_wcm import oracle
from schulze_wcm.sampling import random_profile


# A tie-heavy COWINNER instance on which the transfer test must stay strict:
# with the UNIQUE floor in both modes the solver answers NO, while a common
# ballot exists.
STRICT_TRANSFER_PIN = (
    "candidates: a b c d e f\n"
    "ballot 2: e > f > a > c > d > b\n"
    "ballot 2: e > b > c > f > a > d\n"
    "ballot 2: a > e > b > c > f > d\n"
    "ballot 2: b > c > e > f > d > a\n"
    "ballot 3: f > a > e > b > c > d\n"
    "ballot 1: c > e > f > b > a > d\n"
    "manipulators: 4\n"
    "target: a\n"
)


def test_cowinner_transfer_test_stays_strict_on_a_tie_heavy_instance():
    instance = dataclasses.replace(
        parse_election_file(STRICT_TRANSFER_PIN), mode=Mode.COWINNER
    )
    expected, witness = brute_force_wcm(instance, identical_only=True)
    assert expected and verify_manipulation(instance, witness[0])
    outcome = solve_wcm(instance)
    assert outcome.decision
    assert verify_manipulation(instance, outcome.vote)


def test_winning_ballots_keep_rival_strengths_within_the_bounds():
    # U(x) is a ceiling on the strength s'(x, t) of every rival x toward the
    # target in any final election the coalition wins, with one common ballot
    # or, for two manipulators at m <= 4, with a ballot each. The oracle's
    # own tally and strengths enumerate those assignments.
    rng = random.Random(2018)
    winning = tight = split = 0
    for _ in range(200):
        m = rng.randint(2, 5)
        profile = random_profile(rng, m, ballots=(0, 5))
        if rng.random() < 0.5:
            # Reversed pairs cancel out, so the graph carries many ties.
            reversed_ballots = tuple(
                WeightedBallot(
                    Ranking(tuple(m + 1 - rank for rank in b.ranking.ranks)), b.weight
                )
                for b in profile.ballots
            )
            profile = WeightedProfile(
                profile.candidates, profile.ballots + reversed_ballots
            )
        weights = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        target = rng.randrange(m)
        base = [[0] * m for _ in range(m)]
        for b in profile.ballots:
            oracle._cast(base, oracle._preference_pairs(b.ranking.ranks), b.weight)
        rankings = list(itertools.permutations(range(1, m + 1)))
        assignments = [[(ranks, sum(weights))] for ranks in rankings]
        if len(weights) == 2 and m <= 4:
            # Equal pairs are the common ballots above.
            assignments += [
                list(zip(pair, weights))
                for pair in itertools.product(rankings, repeat=2)
                if pair[0] != pair[1]
            ]
        for mode in Mode:
            instance = ManipulationInstance(profile, weights, target, mode)
            bounds = solve_wcm(instance).bounds.values
            for assignment in assignments:
                trial = [row[:] for row in base]
                for ranks, weight in assignment:
                    oracle._cast(trial, oracle._preference_pairs(ranks), weight)
                if not oracle._target_wins(trial, target, mode is Mode.UNIQUE):
                    continue
                winning += 1
                split += len(assignment) == 2
                strengths = oracle._strengths(trial)
                for x in range(m):
                    if x != target:
                        assert strengths[x][target] <= bounds[x], (instance, assignment)
                        tight += strengths[x][target] == bounds[x]
    assert winning - split > 1000 and split > 1000 and tight > 0
