"""Constructive weighted coalitional manipulation of Schulze elections.

Given the non-manipulators' majority graph, a target candidate and the total
coalition weight, the solver computes a per-candidate bound function, a
ceiling on the path strength any rival may be allowed to reach toward the
target, by applying two value-lowering rules until a joint fixed point. The
decision then compares each rival's bound against the direct edge it holds
into the target. On a yes decision, a spanning arborescence of the admissible
support graph is folded into one ballot that the whole coalition casts, and
the outcome is returned only once that ballot is shown to reach the goal.
The solve finds that tree by a breadth-first walk from the target that tests
the admissible edge rule on the bounds as it goes, so the admissible graph
itself is never built there; `build_admissible_graph` and
`spanning_arborescence` compute the same tree in two steps and serve as its
reference. The tree first serves as an O(m) certificate: on a ballot that
ranks every parent above its child, the lightest tree edge bounds the
target's strength toward each rival from below, and the heaviest final entry
into the target bounds every rival's strength back. When those bounds cannot
settle it, the final election is built and its winner status re-checked.

Everything runs in polynomial time in the number of candidates; weights only
enter through exact integer comparisons.
"""

from __future__ import annotations

import bisect
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
    _check_index,
    _check_weight,
    _proven,
    build_majority_graph,
    overlay_identical_manipulators,
)


# Bound values are ints, except the target's, which is this float. CPython
# compares int with float exactly, so every comparison stays exact.
INF = math.inf


@dataclass(frozen=True, slots=True)
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
        _check_index(self.target, len(self.values), "target")
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        for x, value in enumerate(self.values):
            if x == self.target:
                if value != INF:
                    raise ValueError("the target bound must be infinite")
            # bool is an int subclass, but True would be written back as "True".
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"non-target bounds must be integers, got {value!r}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, slots=True)
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
    rival pairs in lexicographic order for the transfer rule. A rival y whose
    row maximum, put through the edge test against y's own bound, fails it
    can lower no one, so the scan visits only the other rivals, the sources,
    listed in index order at its start; a candidate that becomes a source
    during the scan joins the list in index order. The rule fires at the
    same pairs, in the same order, as a scan over every pair. Sweeps repeat
    until a transfer scan lowers nothing: the kernel's output is then the
    bound vector, and a kernel run capped at its own output returns it
    unchanged, so another sweep could lower nothing either. Returns the fixed
    point and the number of individual rule applications.
    """
    m = len(graph.candidates)
    _check_index(target, m, "target")
    _check_weight(coalition_weight, "coalition weight", 0)

    weights = graph.weights
    # A row's maximum bounds every edge leaving it, the zero diagonal
    # included, so the largest maximum is the largest pairwise weight (or 0
    # with a single candidate).
    top = list(map(max, weights))
    start = max(top) + coalition_weight
    bounds: list = [start] * m
    bounds[target] = INF
    # Each candidate walks down a value set of at most m*(m-1)+1 entries, so
    # the application count can never pass this budget.
    budget = m * (m * (m - 1) + 1)
    applications = 0
    # Bounds are ints off the target, so the strict COWINNER test edge > bound
    # is edge - 1 >= bound, and one floor serves both modes.
    floor = coalition_weight + (0 if mode is Mode.UNIQUE else 1)
    # y can lower anyone only while strongest[y] >= bounds[y], the transfer
    # test with the edge replaced by its upper bound; as bounds never rise,
    # a source stays a source. The target's INF bound never qualifies.
    strongest = [peak - floor for peak in top]

    while True:
        support = widest_from(weights, target, coalition_weight, bounds)
        # One run saturates: a path through head h has bottleneck <= support[h].
        # The kernel caps each entry at its current bound, so the vector is
        # already the lowered one.
        support[target] = INF
        applications += sum(map(operator.lt, support, bounds))
        bounds = support
        before = applications
        sources = [y for y in range(m) if strongest[y] >= bounds[y]]
        for x in range(m):
            if x == target:
                continue
            bound_x = old = bounds[x]
            # Only bounds[x] moves during x's pass, and x never lowers itself
            # (its stale entry fails the first test), so the local copy reads
            # what the live entry would.
            for y in sources:
                bound_y = bounds[y]
                if bound_y < bound_x and weights[y][x] - floor >= bound_y:
                    bound_x = bound_y
                    applications += 1
            if bound_x < old:
                bounds[x] = bound_x
                # A new source joins in index order, so later rows visit it
                # where the full scan would.
                if bound_x <= strongest[x] < old:
                    bisect.insort(sources, x)
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
    _check_weight(coalition_weight, "coalition weight", 0)
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
    _check_weight(coalition_weight, "coalition weight", 0)
    values = bounds.values
    return tuple(
        tuple(
            y
            for y in range(m)
            if y != x and min(values[x], row[y] + coalition_weight) >= values[y]
        )
        for x, row in enumerate(graph.weights)
    )


def spanning_arborescence(
    out_edges: tuple[tuple[int, ...], ...], root: int
) -> tuple[int | None, ...]:
    """Breadth-first spanning arborescence of the admissible graph, as parents.

    Entry x is x's parent in the tree, and the root's entry is None.
    Neighbors are scanned in ascending index order and the first discovery
    fixes the parent, so the result is deterministic. A neighbour that is not
    an int in 0..m-1, or is a bool, raises ValueError. Every candidate is
    reachable from the root at a rule fixed point; an unreachable candidate
    therefore signals a bug.
    """
    m = len(out_edges)
    _check_index(root, m, "root")
    parents: list[int | None] = [None] * m
    seen = [False] * m
    seen[root] = True
    queue = deque([root])
    try:
        while queue:
            x = queue.popleft()
            for y in out_edges[x]:
                # Indexing seen rejects a non-int or too large y; a negative
                # one would wrap to another candidate, and a bool would pass
                # for candidate 0 or 1.
                if y < 0 or isinstance(y, bool):
                    raise IndexError
                if not seen[y]:
                    seen[y] = True
                    parents[y] = x
                    queue.append(y)
    except (IndexError, TypeError):
        raise ValueError(f"out-neighbours must be ints in 0..{m - 1}") from None
    missing = [x for x in range(m) if not seen[x]]
    if missing:
        raise InternalInvariantError(
            f"candidates {missing} unreachable in the admissible graph"
        )
    return tuple(parents)


def _admissible_tree(
    graph: MajorityGraph, bounds: BoundFunction, coalition_weight: int
) -> tuple[int | None, ...]:
    """The breadth-first spanning tree of the admissible graph, walked from the bounds.

    Returns the parents that spanning_arborescence finds in
    build_admissible_graph's output. The walk pops candidates in
    breadth-first order from the target; a popped x becomes the parent of
    the candidates not yet reached, in ascending index order, that the
    admissible edge rule lets x enter: bound(y) <= bound(x) and weight(x, y)
    >= bound(y) - coalition. The breadth-first search over the built graph
    scans x's out-neighbours in the same order and skips exactly the reached
    ones, so both find the same parents. Only edges toward unreached
    candidates are read, and a pop reads none once every candidate is
    reached. A candidate left unreached raises InternalInvariantError, as in
    spanning_arborescence.
    """
    weights = graph.weights
    values = bounds.values
    target = bounds.target
    m = len(values)
    needs = [value - coalition_weight for value in values]
    parents: list[int | None] = [None] * m
    unseen = [y for y in range(m) if y != target]
    order = [target]
    # The loop visits the candidates order gains while it runs.
    for x in order:
        if not unseen:
            break
        row = weights[x]
        level = values[x]
        hits = [y for y in unseen if row[y] >= needs[y] and values[y] <= level]
        if hits:
            for y in hits:
                parents[y] = x
            order += hits
            unseen = [y for y in unseen if parents[y] is None]
    if unseen:
        raise InternalInvariantError(
            f"candidates {unseen} unreachable in the admissible graph"
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
            _check_index(parent, m, "parent")
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
    # missing parent or on a parent cycle detached from the target. Each
    # candidate is pushed at most once, so m pops give ranks a bijection.
    if rank:
        raise ValueError("tree does not span the candidates from the target")
    return _proven(Ranking, tuple(ranks))


def _tree_certifies_goal(
    graph: MajorityGraph,
    target: int,
    vote: Ranking,
    parents: tuple[int | None, ...],
    coalition_weight: int,
    mode: Mode,
) -> bool:
    """Whether the tree alone proves that the coalition's ballot reaches the goal.

    Entry (x, y) of the final election is weight(x, y) + W when the vote
    ranks x above y and weight(x, y) - W otherwise; the final matrix is
    never built. The tree must give a parent to every candidate but the
    target, and the vote must rank each parent above its child. Following
    parents then climbs the vote to the target, so the tree spans the
    candidates and the target tops the vote: every final entry into the
    target is weight(z, target) - W, and no rival reaches the target with
    more strength than the heaviest of them. Every tree edge is weight(x, y)
    + W, so the target reaches each rival with at least the lightest one.
    The goal holds when that edge beats the heaviest entry into the target,
    strictly in UNIQUE mode. O(m).

    True proves the goal; False only means the tree cannot tell. It needs
    at least one rival, and parents must hold valid candidate indices.
    """
    weights = graph.weights
    ranks = vote.ranks
    lightest = INF
    for child, parent in enumerate(parents):
        if parent is None:
            if child != target:
                return False
        elif ranks[parent] > ranks[child]:
            lightest = min(lightest, weights[parent][child])
        else:
            return False
    entry = max(row[target] for z, row in enumerate(weights) if z != target)
    margin = lightest + 2 * coalition_weight - entry
    return margin > 0 or (margin == 0 and mode is not Mode.UNIQUE)


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

    One candidate: yes, with the one-candidate ballot, even with no
    manipulators. No manipulators: whether the target already holds the
    required status, with no ballot. Otherwise the bound function decides,
    and on yes the constructed ballot is verified against the stated goal
    before being returned; all manipulators cast that same ballot. It folds
    the spanning tree that _admissible_tree walks from the target over the
    bounds, never building the admissible graph. The tree's O(m) certificate
    verifies the ballot first; only when it cannot settle the goal is the
    final election built and its winner status checked in full, and a
    ballot failing that check raises InternalInvariantError.
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
        parents = _admissible_tree(graph, bounds, coalition_weight)
        vote = construct_manipulator_vote(parents, bounds)
        if not _tree_certifies_goal(
            graph, target, vote, parents, coalition_weight, mode
        ):
            final = overlay_identical_manipulators(graph, vote, coalition_weight)
            if not _reaches_goal(final, target, mode):
                raise InternalInvariantError(
                    "constructed ballot failed the final winner check"
                )
    return ManipulationOutcome(decision, vote, bounds, applications)
