"""Constructive weighted coalitional manipulation of Schulze elections.

Given the non-manipulators' majority graph, a target candidate and the total
coalition weight, the solver computes a per-candidate bound function, a
ceiling on the path strength any rival may be allowed to reach toward the
target, by applying two value-lowering rules until a joint fixed point. The
decision then compares each rival's bound against the direct edge it holds
into the target. On a yes decision, a spanning arborescence of the admissible
support graph is folded into one ballot that the whole coalition casts; the
resulting election is re-checked before the outcome is returned.

Everything runs in polynomial time in the number of candidates; weights only
enter through exact integer comparisons.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from dataclasses import dataclass

from .engine import is_schulze_winner, is_unique_winner, widest_from
from .engine import schulze_winners  # noqa: F401 - the benchmark tracer wraps it
from .model import (
    InternalInvariantError,
    MajorityGraph,
    ManipulationInstance,
    Mode,
    Ranking,
    build_majority_graph,
    overlay_identical_manipulators,
)


# Bound values are ints, except the target's, which is this float. CPython
# compares int with float exactly, so every comparison stays exact.
INF = math.inf


@dataclass(frozen=True)
class BoundFunction:
    """Fixed-point ceilings on rival path strengths toward the target.

    The target itself carries the infinite bound; every other candidate
    carries a finite integer.
    """

    values: tuple[int | float, ...]
    target: int
    mode: Mode

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not 0 <= self.target < len(self.values):
            raise ValueError(f"target index {self.target} out of range")
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        for x, value in enumerate(self.values):
            if x == self.target:
                if value != INF:
                    raise ValueError("the target bound must be infinite")
            elif not isinstance(value, int):
                raise ValueError("non-target bounds must be integers")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ManipulationOutcome:
    """Decision, optional coalition ballot, and the certificate behind them."""

    decision: bool
    vote: Ranking | None
    bounds: BoundFunction
    rule_applications: int


def compute_bound_function(
    graph: MajorityGraph, target: int, coalition_weight: int, mode: Mode
) -> tuple[BoundFunction, int]:
    """Run the two lowering rules to their joint fixed point.

    Every candidate except the target starts at the largest pairwise weight
    plus the coalition weight; the target starts, and stays, infinite. Two
    rules lower the finite values:

    * path rule: a candidate falls to the strongest support path the
      coalition can still deliver from the target, with every edge capped at
      its head's current bound;
    * transfer rule: when a rival y sits below x and the fixed edge (y, x)
      stays at least as strong as y's bound even against the full coalition,
      x falls to y's bound. In COWINNER mode the edge test is strict.

    A sweep is one kernel run plus one transfer scan. The single-source run
    saturates the path rule (the batch assigns exactly the values the rule
    would assign one at a time in decreasing order); the scan then visits
    rival pairs in lexicographic order for the transfer rule. Sweeps repeat
    until one changes nothing. Returns the fixed point and the number of
    individual rule applications.
    """
    m = len(graph.candidates)
    if not 0 <= target < m:
        raise ValueError(f"target index {target} out of range")
    if coalition_weight < 0:
        raise ValueError("coalition weight must be >= 0")

    weights = graph.weights
    # The matrix is skew-symmetric with a zero diagonal, so its largest entry
    # is the largest pairwise weight (or 0 with a single candidate).
    start = max(map(max, weights)) + coalition_weight
    bounds: list = [start] * m
    bounds[target] = INF
    # Each candidate walks down a value set of at most m*(m-1)+1 entries, so
    # the application count can never pass this budget.
    budget = m * (m * (m - 1) + 1)
    applications = 0
    strict_transfer = mode is not Mode.UNIQUE

    while True:
        before = applications
        support = widest_from(weights, target, coalition_weight, bounds)
        # One run saturates: a path through head h has bottleneck <= support[h].
        # The kernel caps each entry at its current bound, so the vector is
        # already the lowered one.
        support[target] = INF
        applications += sum(map(operator.lt, support, bounds))
        bounds = support
        for x in range(m):
            if x == target:
                continue
            # The skip rejects y == x (equal bounds) and the target (INF).
            for y, bound_y in enumerate(bounds):
                if bound_y >= bounds[x]:
                    continue
                edge = weights[y][x] - coalition_weight
                if edge > bound_y or (edge == bound_y and not strict_transfer):
                    bounds[x] = bound_y
                    applications += 1
        if applications > budget:
            raise InternalInvariantError("rule application budget exceeded")
        if applications == before:
            return BoundFunction(tuple(bounds), target, mode), applications


def _check_sizes(graph: MajorityGraph, bounds: BoundFunction) -> int:
    """The candidate count, once the graph and the bounds agree on it."""
    m = len(bounds)
    if len(graph.candidates) != m:
        raise ValueError(f"graph spans {len(graph.candidates)} candidates, bounds {m}")
    return m


def decide_manipulable(
    graph: MajorityGraph, bounds: BoundFunction, coalition_weight: int
) -> bool:
    """Compare every rival's bound against its direct edge into the target.

    In UNIQUE mode each rival's bound must exceed its edge weight into the
    target minus the coalition weight; in COWINNER mode matching it is
    enough. A single candidate is always manipulable.
    """
    _check_sizes(graph, bounds)
    target = bounds.target
    strict = bounds.mode is Mode.UNIQUE
    # The target's INF bound passes its own test against any finite threshold.
    for row, value in zip(graph.weights, bounds.values):
        threshold = row[target] - coalition_weight
        if value < threshold or (value == threshold and strict):
            return False
    return True


def build_admissible_graph(
    graph: MajorityGraph, bounds: BoundFunction, coalition_weight: int
) -> tuple[tuple[int, ...], ...]:
    """Out-neighbour lists of the edges the coalition may use without breaking a bound.

    Edge (x, y) exists when min(bound(x), weight(x, y) + coalition) is at
    least bound(y). Entry x lists x's out-neighbours in ascending index order.
    """
    m = _check_sizes(graph, bounds)
    values = bounds.values
    out: list[tuple[int, ...]] = []
    for x in range(m):
        bound_x = values[x]
        row = graph.weights[x]
        hits = []
        for y in range(m):
            if y == x:
                continue
            strength = row[y] + coalition_weight
            if bound_x < strength:
                strength = bound_x
            if strength >= values[y]:
                hits.append(y)
        out.append(tuple(hits))
    return tuple(out)


def spanning_arborescence(
    out_edges: tuple[tuple[int, ...], ...], root: int
) -> tuple[int | None, ...]:
    """Breadth-first spanning arborescence of the admissible graph, as parents.

    Entry x is x's parent in the tree, and the root's entry is None.
    Neighbors are scanned in ascending index order and the first discovery
    fixes the parent, so the result is deterministic. Every candidate is
    reachable from the root at a rule fixed point; an unreachable candidate
    therefore signals a bug.
    """
    m = len(out_edges)
    if not 0 <= root < m:
        raise ValueError(f"root index {root} out of range for {m} candidates")
    parents: list[int | None] = [None] * m
    seen = [False] * m
    seen[root] = True
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in out_edges[x]:
            if not seen[y]:
                seen[y] = True
                parents[y] = x
                queue.append(y)
    missing = [x for x in range(m) if not seen[x]]
    if missing:
        raise InternalInvariantError(
            f"candidates {missing} unreachable in the admissible graph"
        )
    return tuple(parents)


def construct_manipulator_vote(
    parents: tuple[int | None, ...], bounds: BoundFunction
) -> Ranking:
    """Fold a spanning tree and the bound order into one coalition ballot.

    parents[x] is x's parent in a tree rooted at the target, whose own entry
    is None. The ballot must rank x above y whenever (x, y) is a tree edge or
    x has the strictly larger bound. It is built in one heap pass from the
    target: pop the ready candidate with the largest bound, smallest index
    first, and make its tree children ready. A parent's bound is never below
    its child's, so candidates come out in descending bound order, the target
    first, with tree edges obeyed and remaining ties broken by index. A
    malformed tree raises ValueError.
    """
    m = len(bounds)
    target = bounds.target
    if len(parents) != m:
        raise ValueError(f"tree spans {len(parents)} candidates, bounds {m}")
    if parents[target] is not None:
        raise ValueError(f"tree is not rooted at the target {target}")
    values = bounds.values
    children: list[list[int]] = [[] for _ in range(m)]
    for child, parent in enumerate(parents):
        if parent is not None:
            if not isinstance(parent, int):
                raise ValueError(f"parent index must be an int, got {parent!r}")
            if not 0 <= parent < m:
                raise ValueError(f"parent index {parent} out of range")
            if values[parent] < values[child]:
                raise ValueError("tree edge ascends the bound function")
            children[parent].append(child)

    ranks = [0] * m
    rank = m
    ready = [(-values[target], target)]
    while ready:
        _, x = heapq.heappop(ready)
        ranks[x] = rank
        rank -= 1
        for child in children[x]:
            heapq.heappush(ready, (-values[child], child))
    # Every other candidate has one parent, so one left unranked hangs under a
    # missing parent or on a parent cycle detached from the target.
    if rank:
        raise ValueError("tree does not span the candidates from the target")
    return Ranking(tuple(ranks))


def _reaches_goal(graph: MajorityGraph, target: int, mode: Mode) -> bool:
    """Test the target's winner status on a finished graph under the mode."""
    if mode is Mode.UNIQUE:
        return is_unique_winner(graph, target)
    return is_schulze_winner(graph, target)


def verify_manipulation(instance: ManipulationInstance, vote: Ranking) -> bool:
    """Check whether the whole coalition casting this ballot reaches the goal.

    Appends one ballot carrying the entire coalition weight and tests the
    target's winner status under the instance's mode.
    """
    graph = overlay_identical_manipulators(
        build_majority_graph(instance.profile), vote, instance.coalition_weight
    )
    return _reaches_goal(graph, instance.target, instance.mode)


def solve_wcm(instance: ManipulationInstance) -> ManipulationOutcome:
    """Decide the manipulation instance and construct a ballot when one exists.

    With a single candidate the answer is trivially yes. With no manipulators
    the answer is whether the target already holds the required status, and
    no ballot is produced. Otherwise the bound function decides, and on yes
    the constructed ballot is verified against the stated goal before being
    returned; all manipulators cast that same ballot.
    """
    profile = instance.profile
    target = instance.target
    mode = instance.mode
    m = len(profile.candidates)
    graph = build_majority_graph(profile)
    coalition_weight = instance.coalition_weight

    if m == 1:
        return ManipulationOutcome(
            decision=True,
            vote=Ranking((1,)),
            bounds=BoundFunction((INF,), target, mode),
            rule_applications=0,
        )

    bounds, applications = compute_bound_function(
        graph, target, coalition_weight, mode
    )

    if coalition_weight == 0:
        decision = _reaches_goal(graph, target, mode)
        return ManipulationOutcome(decision, None, bounds, applications)

    decision = decide_manipulable(graph, bounds, coalition_weight)
    vote: Ranking | None = None
    if decision:
        admissible = build_admissible_graph(graph, bounds, coalition_weight)
        parents = spanning_arborescence(admissible, target)
        vote = construct_manipulator_vote(parents, bounds)
        final = overlay_identical_manipulators(graph, vote, coalition_weight)
        if not _reaches_goal(final, target, mode):
            raise InternalInvariantError(
                "constructed ballot failed the final winner check"
            )
    return ManipulationOutcome(decision, vote, bounds, applications)
