"""Exhaustive ground truth for small manipulation instances.

The oracle enumerates every possible assignment of manipulator ballots and
reports whether any of them reaches the goal. It shares no code with the
polynomial solver: the pairwise tally and the winner status are recomputed
here from scratch, with plain pair loops, so an agreement between the two
routes is meaningful. Only the model's data types are shared.
"""

from __future__ import annotations

import itertools
import math

from .model import CapacityError, ManipulationInstance, Mode, Ranking

ENUMERATION_LIMIT = 10_000_000


def _strengths(rows: list[list[int]]) -> list[list[int]]:
    # Local widest-path computation, deliberately not imported from engine.
    m = len(rows)
    s = [row[:] for row in rows]
    for mid in range(m):
        row_mid = s[mid]
        for a in range(m):
            if a == mid:
                continue
            row_a = s[a]
            through = row_a[mid]
            for b in range(m):
                v = row_mid[b]
                if through < v:
                    v = through
                if v > row_a[b]:
                    row_a[b] = v
    return s


def _target_wins(rows: list[list[int]], target: int, unique: bool) -> bool:
    s = _strengths(rows)
    row_t = s[target]
    if unique:
        return all(row_t[y] > s[y][target] for y in range(len(rows)) if y != target)
    return all(row_t[y] >= s[y][target] for y in range(len(rows)) if y != target)


def _preference_pairs(rank_vector: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    m = len(rank_vector)
    pairs = []
    for x in range(m):
        for y in range(x + 1, m):
            pairs.append((x, y) if rank_vector[x] > rank_vector[y] else (y, x))
    return tuple(pairs)


def _cast(rows: list[list[int]], pairs: tuple[tuple[int, int], ...], weight: int) -> None:
    for above, below in pairs:
        rows[above][below] += weight
        rows[below][above] -= weight


def brute_force_wcm(
    instance: ManipulationInstance, identical_only: bool = False
) -> tuple[bool, tuple[Ranking, ...] | None]:
    """Decide manipulability by trying every manipulator ballot assignment.

    With identical_only the search is restricted to assignments where all
    manipulators cast one common ballot. Rankings are enumerated in
    lexicographic order of their rank vectors, and assignments in
    lexicographic order over manipulators, so a yes answer always carries
    the first witness in that order: one ranking per manipulator. A no
    answer carries None.

    The search space (m! per free manipulator, m! once when identical_only)
    is bounded by ENUMERATION_LIMIT; larger instances are rejected with a
    CapacityError.
    """
    profile = instance.profile
    m = len(profile.candidates)
    manipulator_weights = instance.manipulator_weights
    free_slots = 1 if identical_only else len(manipulator_weights)
    if math.factorial(m) ** free_slots > ENUMERATION_LIMIT:
        raise CapacityError(
            f"enumeration would exceed {ENUMERATION_LIMIT} assignments"
        )

    unique = instance.mode is Mode.UNIQUE
    target = instance.target
    # Local tally, deliberately not build_majority_graph.
    base = [[0] * m for _ in range(m)]
    for ballot in profile.ballots:
        _cast(base, _preference_pairs(ballot.ranking.ranks), ballot.weight)

    if not manipulator_weights:
        achieved = _target_wins(base, target, unique)
        return (True, ()) if achieved else (False, None)

    if identical_only or len(manipulator_weights) == 1:
        # One free slot: stream the permutations, nothing is materialized.
        total = sum(manipulator_weights)
        for rv in itertools.permutations(range(1, m + 1)):
            trial = [row[:] for row in base]
            _cast(trial, _preference_pairs(rv), total)
            if _target_wins(trial, target, unique):
                vote = Ranking(rv)
                return True, (vote,) * len(manipulator_weights)
        return False, None

    # Several free slots: the guard keeps m! small, so a table is cheap.
    rank_vectors = list(itertools.permutations(range(1, m + 1)))
    pair_table = [_preference_pairs(rv) for rv in rank_vectors]
    for combo in itertools.product(
        range(len(rank_vectors)), repeat=len(manipulator_weights)
    ):
        trial = [row[:] for row in base]
        for weight, index in zip(manipulator_weights, combo):
            _cast(trial, pair_table[index], weight)
        if _target_wins(trial, target, unique):
            return True, tuple(Ranking(rank_vectors[i]) for i in combo)
    return False, None
