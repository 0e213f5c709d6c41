"""Candidates, rankings, weighted ballots, and pairwise majority graphs.

The majority graph stores, for every ordered candidate pair (x, y), the total
weight of the voters ranking x above y minus the total weight ranking y above
x. All arithmetic is exact integer arithmetic. Total voter weight is capped
so that every derived quantity stays inside the signed 64-bit range even
though Python integers themselves never overflow.

`build_majority_graph` tallies the matrix in one of two exact layouts and
writes entry (x, y) as 2 * count - total, where count is the weight ranking x
above y.

Rows: one packed integer per candidate, one F-bit field per candidate, with
F = 8, 16, 32 or 64 the narrowest width with total < 2**(F-1), so that a
signed F-bit field holds every margin in -total..total. Each ballot is
walked from its last candidate up: packed[x] gains weight * below, where
below has bit F * y set for every y already passed, so field y of packed[x]
ends up holding the weight ranking x above y, and field x holds 0. The row
is then read as margins in one pass of big-int steps: doubling it, adding a
bias of 2**(F-1) - total to every field and total to field x leaves every
field in 2**(F-1) - total..2**(F-1) + total, inside 0..2**F, so no field
carries into its neighbour, and field y holds 2**(F-1) + 2 * count - total,
field x exactly 2**(F-1). Flipping each field's top bit then turns it into
the two's complement of 2 * count - total, and 0 on the diagonal, which one
signed struct unpack per row reads back. Profiles cap the total at
2**63 - 1, so F = 64 always suffices. This costs about m big-int steps per
ballot, on ints of m * F bits.

Lanes: one packed integer per candidate holding its rank on every ballot,
one byte lane per ballot, so they serve only m < 128, where rank m stays
below the lane's top bit 128. guard holds the top bit of every lane. In
(column[x] | guard) - column[y] each lane computes 128 + rank_x - rank_y,
which lies strictly between 0 and 256 because both ranks lie in 1..m < 128,
so no lane borrows from its neighbour and the top bit survives exactly when
the ballot ranks x above y. Masking with guard and then with each bit plane
of the ballot weights (plane j has lane b's top bit set when bit j of ballot
b's weight is) gives count = sum of popcount(above & plane_j) << j. This
costs about m * m / 2 * (planes + 1) big-int steps on n-lane integers,
whatever the number n of ballots.

Neither layout wins everywhere. Lanes win when ballots far outnumber the
weight bit planes (about 3.5x faster at 30 candidates, 1000 ballots, weights
1-3); rows win for a few ballots, many candidates, or weights with many
bits. As rows cost about m steps per ballot and lanes about m * m / 2 per
plane step, the ballots that pay for a step grow with m: lanes are taken
when m < 128, planes + 1 < 10 and n >= (planes + 1) * (8 + m // 3)
(`_LANE_BALLOTS_PER_STEP` is the 8), and rows otherwise. The rule reads
only n, m and the largest weight.
"""

from __future__ import annotations

import enum
import operator
import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

INT64_MAX = 2**63 - 1
# Lanes pay for their per-pair steps at about this many ballots per step plus
# one per three candidates: measured crossovers run from 24 to 115 ballots
# for m = 5 to 100 at 2 to 5 steps (calibration table in CHANGES.md).
_LANE_BALLOTS_PER_STEP = 8


class CapacityError(ValueError):
    """Raised when weights would leave the exact signed 64-bit envelope."""


class InternalInvariantError(RuntimeError):
    """Raised when a condition the algorithms guarantee fails to hold.

    Seeing this exception always indicates a bug, never bad input.
    """


def _proven(cls, *values):
    """An instance of slotted dataclass cls from every field value, skipping its checks.

    Sets each slot in field order. Only for producers that have already proved
    the invariants the public constructor checks, and pass each field already
    as a tuple where one is due.
    """
    instance = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(instance, name, value)
    return instance


def _check_index(index: int, m: int, what: str) -> None:
    """Reject an index that is not an int in 0..m-1, or is a bool."""
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValueError(f"{what} index must be an int, got {index!r}")
    if not 0 <= index < m:
        raise ValueError(f"{what} index {index} out of range")


def _check_weight(weight: int, what: str, least: int) -> None:
    """Reject a weight that is not an int >= least, or is a bool."""
    # bool is an int subclass, but True would be written back as "True".
    if not isinstance(weight, int) or isinstance(weight, bool):
        raise ValueError(f"{what} must be an int, got {weight!r}")
    if weight < least:
        raise ValueError(f"{what} must be >= {least}")


class Mode(enum.Enum):
    """Winner notion a manipulation aims for.

    UNIQUE asks for the target to become the sole winner, COWINNER only asks
    for membership in the winner set.
    """

    UNIQUE = "unique"
    COWINNER = "cowinner"


@dataclass(frozen=True, slots=True)
class CandidateSet:
    """Ordered, pairwise distinct labels; list position is the canonical index."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("candidate set must not be empty")
        for label in self.labels:
            if not isinstance(label, str) or not label:
                raise ValueError("candidate labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("candidate labels must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, slots=True)
class Ranking:
    """Strict total order over m candidates, stored as rank positions.

    ranks[i] is the position of candidate i; positions are a bijection onto
    1..m and a larger position means more preferred, so the top candidate
    holds position m.
    """

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(self.ranks))
        m = len(self.ranks)
        if sorted(self.ranks) != list(range(1, m + 1)):
            raise ValueError("ranks must be a bijection onto 1..m")
        # The ranks now compare equal to 1..m, so their sum is an int unless
        # one is a float, Fraction or other non-int number. bool is an int
        # subclass, but True would be written back as "True".
        if type(sum(self.ranks)) is not int or bool in map(type, self.ranks):
            raise ValueError("ranks must be ints")

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "Ranking":
        """Build a ranking from candidate indices listed most preferred first."""
        m = len(order)
        # As in __post_init__, the sum catches a float or other non-int index
        # that compares equal to an int, which could not index ranks below,
        # and the type scan a bool, which could.
        if (
            sorted(order) != list(range(m))
            or type(sum(order)) is not int
            or bool in map(type, order)
        ):
            raise ValueError("order must list each candidate index once, as ints")
        ranks = [0] * m
        for position, candidate in enumerate(order):
            ranks[candidate] = m - position
        return _proven(cls, tuple(ranks))

    def order(self) -> tuple[int, ...]:
        """Candidate indices, most preferred first."""
        # Ranks are distinct, so the reversed stable sort is the strict order.
        ranks = self.ranks
        return tuple(sorted(range(len(ranks)), key=ranks.__getitem__, reverse=True))

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True, slots=True)
class WeightedBallot:
    """One ranking cast with a positive integer weight."""

    ranking: Ranking
    weight: int

    def __post_init__(self) -> None:
        if not isinstance(self.ranking, Ranking):
            raise ValueError(f"ballot ranking must be a Ranking, got {self.ranking!r}")
        _check_weight(self.weight, "ballot weight", 1)


_new = object.__new__
_set_ranks = Ranking.ranks.__set__
_set_ranking = WeightedBallot.ranking.__set__
_set_weight = WeightedBallot.weight.__set__


def _proven_ballot(ranks: tuple[int, ...], weight: int) -> WeightedBallot:
    """The ballot of a Ranking of ranks cast with weight, skipping both checks.

    Only for a producer that has proved ranks a tuple of ints onto 1..m and
    weight an int in 1..2**63 - 1, as the parser does for every ballot line.
    Each slot is set through its own member descriptor, which skips the
    frozen __setattr__ and _proven's walk over the slot names: about 3x
    faster than _proven over the 1500 ballots of one m = 30 file.
    """
    ranking = _new(Ranking)
    _set_ranks(ranking, ranks)
    ballot = _new(WeightedBallot)
    _set_ranking(ballot, ranking)
    _set_weight(ballot, weight)
    return ballot


@dataclass(frozen=True, slots=True)
class WeightedProfile:
    """A candidate set plus the non-manipulators' weighted ballots."""

    candidates: CandidateSet
    ballots: tuple[WeightedBallot, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ballots", tuple(self.ballots))
        if not isinstance(self.candidates, CandidateSet):
            raise ValueError(
                f"candidates must be a CandidateSet, got {self.candidates!r}"
            )
        m = len(self.candidates)
        for ballot in self.ballots:
            if not isinstance(ballot, WeightedBallot):
                raise ValueError(
                    f"each ballot must be a WeightedBallot, got {ballot!r}"
                )
            if len(ballot.ranking) != m:
                raise ValueError(
                    f"ballot ranks {len(ballot.ranking)} candidates, profile has {m}"
                )
        if self.total_weight > INT64_MAX:
            raise CapacityError("total ballot weight exceeds the signed 64-bit cap")

    @property
    def total_weight(self) -> int:
        return sum(ballot.weight for ballot in self.ballots)


@dataclass(frozen=True, slots=True)
class ManipulationInstance:
    """A profile, the manipulators' weights, the target candidate, and the mode."""

    profile: WeightedProfile
    manipulator_weights: tuple[int, ...]
    target: int
    mode: Mode = Mode.UNIQUE

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "manipulator_weights", tuple(self.manipulator_weights)
        )
        if not isinstance(self.profile, WeightedProfile):
            raise ValueError(f"profile must be a WeightedProfile, got {self.profile!r}")
        _check_index(self.target, len(self.profile.candidates), "target")
        for weight in self.manipulator_weights:
            _check_weight(weight, "manipulator weight", 1)
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        if self.profile.total_weight + self.coalition_weight > INT64_MAX:
            raise CapacityError("total election weight exceeds the signed 64-bit cap")

    @property
    def coalition_weight(self) -> int:
        return sum(self.manipulator_weights)


@dataclass(frozen=True, slots=True)
class MajorityGraph:
    """Skew-symmetric integer pairwise weights on the complete digraph.

    Any skew-symmetric matrix is accepted, whether or not some profile
    realizes it; the diagonal must be zero. A weight that is not an int
    raises ValueError, and one past the signed 64-bit cap CapacityError.
    """

    candidates: CandidateSet
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.weights)
        object.__setattr__(self, "weights", rows)
        if not isinstance(self.candidates, CandidateSet):
            raise ValueError(
                f"candidates must be a CandidateSet, got {self.candidates!r}"
            )
        m = len(self.candidates)
        if len(rows) != m or any(len(row) != m for row in rows):
            raise ValueError(f"weight matrix must be {m}x{m}")
        # Packing a row into signed 64-bit fields refuses every entry that is
        # not an int or lies past the cap; only a refused row is read again.
        pack = struct.Struct(f"<{m}q").pack
        try:
            for row in rows:
                pack(*row)
        except struct.error:
            for value in row:
                if not isinstance(value, int):
                    raise ValueError(
                        f"pairwise weights must be ints, got {value!r}"
                    ) from None
            raise CapacityError(
                "pairwise weight exceeds the signed 64-bit cap"
            ) from None
        for x in range(m):
            if rows[x][x] != 0:
                raise ValueError("diagonal weights must be zero")
            for y in range(x + 1, m):
                if rows[x][y] != -rows[y][x]:
                    raise ValueError("weight matrix must be skew-symmetric")


def _field_code(total: int) -> str:
    """Struct code of the narrowest signed row field whose range holds +-total."""
    if total < 1 << 15:
        return "b" if total < 1 << 7 else "h"
    return "i" if total < 1 << 31 else "q"


def _row_margins(
    m: int, rankings: Sequence[tuple[int, ...]], weights: Sequence[int], total: int
) -> list[list[int]]:
    """The row layout: one packed row per candidate, signed fields read as margins."""
    code = _field_code(total)
    size = struct.calcsize(code)
    width = 8 * size
    bits = [1 << (width * x) for x in range(m)]
    packed = [0] * m
    for ranks, weight in zip(rankings, weights):
        below = 0
        for x in sorted(range(m), key=ranks.__getitem__):
            packed[x] += weight * below
            below |= bits[x]
    ones = sum(bits)
    half = ones << (width - 1)
    bias = ((1 << (width - 1)) - total) * ones
    layout = f"<{m}{code}"
    rows = []
    for x in range(m):
        # Field y now holds 2 * count + 2**(F-1) - total and field x holds
        # 2**(F-1); flipping each top bit leaves margins in two's complement.
        fields = ((packed[x] << 1) + bias + total * bits[x]) ^ half
        rows.append(list(struct.unpack(layout, fields.to_bytes(size * m, "little"))))
    return rows


def _lane_margins(
    m: int, rankings: Sequence[tuple[int, ...]], weights: Sequence[int], total: int
) -> list[list[int]]:
    """The lane layout: one byte lane per ballot, one borrow-free compare per pair."""

    def pack(lanes: Iterable[int]) -> int:
        return int.from_bytes(bytes(lanes), "little")

    guard = pack([128] * len(weights))
    columns = [pack(column) for column in zip(*rankings)]
    planes = [
        (j, pack([128 if weight >> j & 1 else 0 for weight in weights]))
        for j in range(max(weights).bit_length())
    ]
    rows: list[list[int]] = []
    for x in range(m):
        # Lane b of each entry keeps its top bit when ballot b ranks x above y.
        high = columns[x] | guard
        above = list(map(guard.__and__, map(high.__sub__, columns[x + 1 :])))
        counts = [0] * len(above)
        for j, plane in planes:
            found = map(int.bit_count, map(plane.__and__, above))
            weighted = map(operator.lshift, found, repeat(j))
            counts = list(map(operator.add, counts, weighted))
        row = [-rows[y][x] for y in range(x)]
        row.append(0)
        row.extend([count + count - total for count in counts])
        rows.append(row)
    return rows


def build_majority_graph(profile: WeightedProfile) -> MajorityGraph:
    """Accumulate the pairwise weight matrix of a profile.

    Entry (x, y) is the signed weight margin of voters preferring x to y.
    Skew symmetry, the zero diagonal and the cap (|entry| <= total) hold by
    construction, so the graph skips MajorityGraph's checks. The layout is
    chosen as the module docstring describes.
    """
    m = len(profile.candidates)
    rankings = [ballot.ranking.ranks for ballot in profile.ballots]
    weights = [ballot.weight for ballot in profile.ballots]
    total = sum(weights)
    steps = max(weights, default=0).bit_length() + 1
    per_step = _LANE_BALLOTS_PER_STEP + m // 3
    lanes = m < 128 and steps < 10 and len(weights) >= steps * per_step
    tally = _lane_margins if lanes else _row_margins
    rows = tally(m, rankings, weights, total)
    return _proven(MajorityGraph, profile.candidates, tuple(map(tuple, rows)))


def overlay_identical_manipulators(
    graph: MajorityGraph, vote: Ranking, coalition_weight: int
) -> MajorityGraph:
    """Add a coalition that casts one common ballot of the given total weight.

    Equivalent to rebuilding the majority graph after appending a single
    ballot (vote, coalition_weight); with weight zero the graph is unchanged.
    """
    m = len(graph.candidates)
    if not isinstance(vote, Ranking):
        raise ValueError(f"vote must be a Ranking, got {vote!r}")
    if len(vote) != m:
        raise ValueError(f"vote ranks {len(vote)} candidates, graph has {m}")
    _check_weight(coalition_weight, "coalition weight", 0)
    rows = []
    for x, (row, rank) in enumerate(zip(graph.weights, vote.ranks)):
        out = [
            weight + coalition_weight if rank > other else weight - coalition_weight
            for weight, other in zip(row, vote.ranks)
        ]
        out[x] = 0
        rows.append(tuple(out))
    # The vote ranks exactly one of x, y above the other, so the shifted
    # graph stays skew-symmetric with a zero diagonal, and its largest entry
    # is its largest magnitude.
    if max(map(max, rows)) > INT64_MAX:
        raise CapacityError("pairwise weight exceeds the signed 64-bit cap")
    return _proven(MajorityGraph, graph.candidates, tuple(rows))
