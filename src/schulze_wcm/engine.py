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
O(m^2) Python-level steps after an O(m^2 log m) sort. A row that gains many
columns at once reads their positions in C, and a row that gains its last
columns leaves the column index, so on tie-heavy graphs, where most pairs
arrive in a few large gains, the scan does little more than one store per
pair. No pair connects below the least row maximum, which on random graphs
is almost always where the scan ends, so the edges under it are sorted only
if the scan gets there. `widest_from` is the single-source kernel, O(m^2),
behind the solver's path rule. One candidate's status needs only its own row
and column, so `is_unique_winner` and `is_schulze_winner` settle it with two
single-source runs, forward and on the transpose, in O(m^2).
"""

from __future__ import annotations

import math
import operator
from itertools import chain, compress
from typing import Iterator, Sequence

from .model import InternalInvariantError, MajorityGraph, _check_index

# A row gain of more than _BULK_GAIN_BITS + m // 24 columns is decoded in C
# rather than peeled one bit at a time: the decode reads every column, and
# measured crossovers run from about 13 columns at m = 30 to about 30 at
# m = 400 (crossover table in CHANGES.md).
_BULK_GAIN_BITS = 12
# Maps the digits of format(new, "b") to the bytes that compress selects by.
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


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

    A row visit that gains k columns costs k stores into the row and k into
    the column index, plus the bit arithmetic that finds them. Up to
    _BULK_GAIN_BITS + m // 24 columns are peeled off one bit at a time; a
    larger gain is read out in C (format, translate, compress), an O(m) step
    that leaves only the stores. A row the gain fills joins the filled set
    instead of the column index: it can gain nothing more, and the filled set
    keeps it out of every later visit.

    No pair connects below the least row maximum over the off-diagonal
    entries: the row that holds it has no heavier edge out. So the edges at
    or above it are sorted first, and the rest only if the scan reaches
    them, which on random graphs it almost never does.

    Raises ValueError when a row's length is not the number of rows.
    """
    m = len(weights)
    if any(len(row) != m for row in weights):
        raise ValueError(f"weight matrix must be {m}x{m}")
    out = [list(row) for row in weights]
    left = m * (m - 1)
    if not left:
        return out
    flat = list(chain.from_iterable(out))
    cut = min(max(row[:x] + row[x + 1 :]) for x, row in enumerate(out))
    top = [edge for edge, w in enumerate(flat) if w >= cut]
    top.sort(key=flat.__getitem__, reverse=True)
    reach = [1 << x for x in range(m)]
    into = reach[:]
    full = (1 << m) - 1
    filled = 0
    bulk = _BULK_GAIN_BITS + m // 24
    columns = list(range(m))
    for edge in chain(top, _edges_below(flat, cut)):
        i, j = divmod(edge, m)
        if reach[i] >> j & 1:
            continue
        w = flat[edge]
        gain = reach[j]
        rows = into[i] & ~(into[j] | filled)
        while rows:
            row_bit = rows & -rows
            rows ^= row_bit
            r = row_bit.bit_length() - 1
            new = gain & ~reach[r]
            reach[r] |= new
            count = new.bit_count()
            left -= count
            out_r = out[r]
            if count > bulk:
                gained = compress(
                    columns, format(new, "b")[::-1].encode().translate(_ZERO_ONE)
                )
                if reach[r] == full:
                    filled |= row_bit
                    for z in gained:
                        out_r[z] = w
                else:
                    for z in gained:
                        out_r[z] = w
                        into[z] |= row_bit
                continue
            while new:
                low = new & -new
                z = low.bit_length() - 1
                out_r[z] = w
                into[z] |= row_bit
                new ^= low
        if not left:
            break
    return out


def _edges_below(flat: list[int], cut: int) -> Iterator[int]:
    """The entries below cut, heaviest first, sorted when first asked for."""
    below = [edge for edge, w in enumerate(flat) if w < cut]
    below.sort(key=flat.__getitem__, reverse=True)
    yield from below


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
