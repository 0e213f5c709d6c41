"""Shared independent checkers used to audit the library's answers.

The checkers recompute results from first principles (exhaustive path
enumeration, the Floyd-Warshall recurrence, direct rule checks) so the tests
do not lean on the code paths they are judging. The skew-symmetric graph
builder and its strategy are shared test inputs.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from schulze_wcm.model import CandidateSet, MajorityGraph, Mode
from schulze_wcm.solver import INF


def skew(labels, upper):
    """Build a MajorityGraph from the strict upper triangle."""
    m = len(labels)
    rows = [[0] * m for _ in range(m)]
    index = 0
    for x in range(m):
        for y in range(x + 1, m):
            rows[x][y] = upper[index]
            rows[y][x] = -upper[index]
            index += 1
    return MajorityGraph(CandidateSet(labels), tuple(tuple(r) for r in rows))


@st.composite
def skew_graphs(draw, min_m=1, max_m=5, magnitude=5):
    m = draw(st.integers(min_m, max_m))
    upper = [
        draw(st.integers(-magnitude, magnitude))
        for _ in range(m * (m - 1) // 2)
    ]
    return skew(tuple("abcdefgh"[:m]), upper)


def enumerated_strengths(weights) -> list[list]:
    """Max-min path strengths by brute enumeration of simple paths.

    Exponential, only for small matrices. Diagonal entries are None.
    """
    m = len(weights)
    out: list[list] = [[None] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            if x == y:
                continue
            rest = [v for v in range(m) if v not in (x, y)]
            best = None
            for count in range(len(rest) + 1):
                for mids in itertools.permutations(rest, count):
                    path = (x, *mids, y)
                    strength = min(
                        weights[a][b] for a, b in zip(path, path[1:])
                    )
                    if best is None or strength > best:
                        best = strength
            out[x][y] = best
    return out


def floyd_warshall_strengths(weights) -> list[list]:
    """Max-min path strengths by the O(m^3) Floyd-Warshall recurrence.

    Polynomial, for matrices too large to enumerate. Diagonal entries carry
    no meaning.
    """
    m = len(weights)
    out = [list(row) for row in weights]
    for k in range(m):
        row_k = out[k]
        for i in range(m):
            if i == k:
                continue
            row_i = out[i]
            via = row_i[k]
            for j in range(m):
                if j == i or j == k:
                    continue
                value = via if via < row_k[j] else row_k[j]
                if value > row_i[j]:
                    row_i[j] = value
    return out


def capped_weights(weights, bounds, target: int, coalition_weight: int):
    """Edge matrix min(weight + coalition, bound of the head) as plain ints."""
    m = len(weights)
    capped = [[0] * m for _ in range(m)]
    for y in range(m):
        for z in range(m):
            if y == z:
                continue
            value = weights[y][z] + coalition_weight
            if z != target and bounds[z] < value:
                value = bounds[z]
            capped[y][z] = value
    return capped


def applicable_rule(
    weights,
    bounds,
    target: int,
    coalition_weight: int,
    mode: Mode,
    strengths_of=enumerated_strengths,
) -> str | None:
    """Search for any applicable lowering rule; None means a true fixed point.

    The path rule check computes all-pairs strengths with `strengths_of`
    (simple paths enumerated outright by default) instead of reusing the
    solver's single-source computation.
    """
    m = len(weights)
    if m == 1:
        return None
    capped = capped_weights(weights, bounds, target, coalition_weight)
    strengths = strengths_of(capped)
    for x in range(m):
        if x == target:
            continue
        if strengths[target][x] < bounds[x]:
            return f"path rule applies at {x}"
    for x in range(m):
        if x == target:
            continue
        for y in range(m):
            if y in (x, target):
                continue
            if bounds[y] >= bounds[x]:
                continue
            edge = weights[y][x] - coalition_weight
            if mode is Mode.UNIQUE:
                if edge >= bounds[y]:
                    return f"transfer rule applies at ({x}, {y})"
            elif edge > bounds[y]:
                return f"transfer rule applies at ({x}, {y})"
    return None


def bound_value_set(weights, coalition_weight: int) -> set[int]:
    """Every value a finite bound may legally take."""
    m = len(weights)
    values = {
        weights[y][z] + coalition_weight
        for y in range(m)
        for z in range(m)
        if y != z
    }
    values.add(
        max(weights[y][z] for y in range(m) for z in range(m) if y != z)
        + coalition_weight
    )
    return values


def reachable(out_edges, start: int) -> set[int]:
    """Plain breadth-first reachability over adjacency tuples."""
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for y in out_edges[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def finite_bounds(bound_function) -> dict[int, int]:
    """Map of candidate index to finite bound value, skipping the target."""
    return {
        x: v
        for x, v in enumerate(bound_function.values)
        if v is not INF and x != bound_function.target
    }
