"""Bottleneck path strengths and Schulze winner determination.

The strength of a path is the smallest edge weight along it. The strength
between two candidates is the best bottleneck over all directed paths from
one to the other in the complete pairwise graph. A candidate wins when no
rival reaches it with strictly more strength than it reaches the rival.

Two kernels compute strengths. `widest_path_strengths` gives all pairs and
backs the full winner set: strength(x, z) >= w exactly when z is reachable
from x over edges of weight >= w, so it adds edges from the heaviest down,
keeps each row's reach set and each column's set of reaching rows as one
bitset, and records every pair at the level where it first becomes
reachable. Each edge visits only the rows it extends, so the scan costs
O(m^2) Python-level steps after an O(m^2 log m) sort. `widest_from` is the
single-source kernel, O(m^2), behind the solver's path rule. One candidate's
status needs only its own row and column, so `is_unique_winner` and
`is_schulze_winner` settle it with two single-source runs, forward and on
the transpose, in O(m^2).
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import Sequence

from .model import InternalInvariantError, MajorityGraph, _check_index


def widest_path_strengths(weights: Sequence[Sequence[int]]) -> list[list[int]]:
    """All-pairs max-min path strengths over a complete digraph.

    Accepts any square integer matrix, no symmetry assumed. Entry (x, y) of
    the result is the largest, over all (x, y) paths of length >= 1, of the
    smallest edge weight on the path. Diagonal entries of both the input and
    the output carry no meaning and must not be read.

    The edges are added in descending weight order while reach[r], a bitset
    holding r itself, tracks what row r reaches over the edges added so far,
    and into[z] holds the rows whose reach set holds z. An edge (i, j)
    extends every row that reaches i by what j reaches; each pair that enters
    a reach set this way has strength exactly the current weight, since no
    heavier level connected it and this one does. Diagonal edges and edges
    inside a reach set change nothing and are skipped. Reach sets stay
    closed, so a row that already reaches j already holds all of reach[j]:
    only the rows in into[i] & ~into[j] are visited, and each gains at least
    j. Each pair is written once, and the scan stops when every row is full.
    So there are at most m(m-1) row visits, O(m^2) Python-level steps on
    m-bit ints after an O(m^2 log m) sort.

    Raises ValueError when a row's length is not the number of rows.
    """
    m = len(weights)
    if any(len(row) != m for row in weights):
        raise ValueError(f"weight matrix must be {m}x{m}")
    flat = list(chain.from_iterable(weights))
    out = [list(row) for row in weights]
    reach = [1 << x for x in range(m)]
    into = reach[:]
    left = m * (m - 1)
    for edge in sorted(range(m * m), key=flat.__getitem__, reverse=True):
        i, j = divmod(edge, m)
        if reach[i] >> j & 1:
            continue
        w = flat[edge]
        gain = reach[j]
        rows = into[i] & ~into[j]
        while rows:
            row_bit = rows & -rows
            rows ^= row_bit
            r = row_bit.bit_length() - 1
            new = gain & ~reach[r]
            reach[r] |= new
            left -= new.bit_count()
            out_r = out[r]
            while new:
                low = new & -new
                z = low.bit_length() - 1
                out_r[z] = w
                into[z] |= row_bit
                new ^= low
        if not left:
            break
    return out


def widest_from(
    weights: Sequence[Sequence[int]],
    source: int,
    offset: int = 0,
    caps: Sequence[int | float] | None = None,
) -> list:
    """Single-source max-min path strengths over a complete digraph.

    Edge (y, z) is worth weights[y][z] + offset, capped at caps[z] when caps
    are given. Entry z of the result is the best bottleneck over all
    (source, z) paths; the entry for the source is None. Accepts any square
    matrix, no symmetry assumed. A greedy max-first scan (the bottleneck
    analogue of Dijkstra) is exact for arbitrary integer weights and runs in
    O(m^2). Raises ValueError when a row's length or the number of caps is
    not the number of rows.
    """
    m = len(weights)
    _check_index(source, m, "source")
    if any(map(m.__ne__, map(len, weights))):
        raise ValueError(f"weight matrix must be {m}x{m}")
    if caps is None:
        caps = [math.inf] * m
    elif len(caps) != m:
        raise ValueError(f"caps cover {len(caps)} candidates, the matrix {m}")
    best: list = [None] * m
    todo = [z for z in range(m) if z != source]
    row = weights[source]
    for z in todo:
        value = row[z] + offset
        best[z] = caps[z] if caps[z] < value else value
    while todo:
        pick = max(todo, key=best.__getitem__)
        todo.remove(pick)
        limit = best[pick]
        row = weights[pick]
        for z in todo:
            value = row[z] + offset
            # min(value, limit, caps[z]) cannot beat best[z] unless value does.
            if value > best[z]:
                if value > limit:
                    value = limit
                if value > caps[z]:
                    value = caps[z]
                if value > best[z]:
                    best[z] = value
    return best


def schulze_winners(graph: MajorityGraph) -> tuple[int, ...]:
    """Indices of all Schulze winners, in ascending index order.

    Candidate x wins when strength(x, y) >= strength(y, x) for every rival y.
    The winner set is never empty.
    """
    return _winners_from(widest_path_strengths(graph.weights))


def _winners_from(strengths: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The Schulze winners read off an all-pairs strength matrix."""
    # The diagonal meets itself in the row-against-column comparison.
    winners = tuple(
        x
        for x, (row, column) in enumerate(zip(strengths, zip(*strengths)))
        if all(map(operator.ge, row, column))
    )
    if not winners:
        raise InternalInvariantError("winner set came out empty")
    return winners


def _rival_strengths(graph: MajorityGraph, target: int) -> list[tuple[int, int]]:
    """(strength(target, y), strength(y, target)) for every rival y."""
    weights = graph.weights
    out = widest_from(weights, target)
    into = widest_from(tuple(zip(*weights)), target)
    return [(out[y], into[y]) for y in range(len(weights)) if y != target]


def is_unique_winner(graph: MajorityGraph, target: int) -> bool:
    """True when the target beats every rival strictly in path strength."""
    return all(out > into for out, into in _rival_strengths(graph, target))


def is_schulze_winner(graph: MajorityGraph, target: int) -> bool:
    """True when no rival beats the target in path strength (ties allowed)."""
    return all(out >= into for out, into in _rival_strengths(graph, target))
