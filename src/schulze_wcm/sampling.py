"""Seeded random generators for cross-validation corpora and benchmarks."""

from __future__ import annotations

import random
import string

from .model import (
    CandidateSet,
    MajorityGraph,
    ManipulationInstance,
    Mode,
    Ranking,
    WeightedBallot,
    WeightedProfile,
)


def candidate_labels(m: int) -> tuple[str, ...]:
    """Single letters while they last, numbered labels beyond that."""
    if m <= 26:
        return tuple(string.ascii_lowercase[:m])
    return tuple(f"c{i:03d}" for i in range(m))


def random_ranking(rng: random.Random, m: int) -> Ranking:
    ranks = list(range(1, m + 1))
    rng.shuffle(ranks)
    return Ranking(tuple(ranks))


def random_profile(
    rng: random.Random, m: int, *, ballots: tuple[int, int] = (0, 3)
) -> WeightedProfile:
    """A count of ballots drawn from `ballots`, each of weight 1-3."""
    candidates = CandidateSet(candidate_labels(m))
    count = rng.randint(*ballots)
    cast = tuple(
        WeightedBallot(random_ranking(rng, m), rng.randint(1, 3)) for _ in range(count)
    )
    return WeightedProfile(candidates, cast)


def random_instance(rng: random.Random) -> ManipulationInstance:
    """m in 2-4, 0-3 ballots and 1-2 manipulators of weight 1-3, UNIQUE mode."""
    m = rng.randint(2, 4)
    profile = random_profile(rng, m)
    count = rng.randint(1, 2)
    weights = tuple(rng.randint(1, 3) for _ in range(count))
    target = rng.randrange(m)
    return ManipulationInstance(profile, weights, target, Mode.UNIQUE)


def random_skew_graph(
    rng: random.Random, m: int, *, magnitude: int = 9, parity: int | None = None
) -> MajorityGraph:
    """Random skew-symmetric graph whose entries all share one parity.

    Profile-realizable graphs have every entry congruent to the total voter
    weight mod 2; drawing with a fixed parity keeps that texture without
    having to realize an actual profile.
    """
    if parity is None:
        parity = rng.randint(0, 1)
    # The allowed values run first, first + 2, ..., up to magnitude; drawing
    # an offset into them consumes the stream exactly as rng.choice over the
    # listed values would, without building the list.
    first = -magnitude + (magnitude + parity) % 2
    count = (magnitude - first) // 2 + 1
    if parity not in (0, 1) or count < 1:
        raise ValueError(f"no value of parity {parity} has magnitude <= {magnitude}")
    rows = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(x + 1, m):
            value = first + 2 * rng.randrange(count)
            rows[x][y] = value
            rows[y][x] = -value
    return MajorityGraph(
        CandidateSet(candidate_labels(m)), tuple(tuple(row) for row in rows)
    )
