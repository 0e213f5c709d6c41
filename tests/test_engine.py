"""Strength computation and winner determination against brute enumeration."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import enumerated_strengths, skew, skew_graphs
from schulze_wcm import (
    INT64_MAX,
    CandidateSet,
    MajorityGraph,
    Ranking,
    WeightedBallot,
    WeightedProfile,
    build_majority_graph,
    is_unique_winner,
    schulze_winners,
    widest_path_strengths,
)
from schulze_wcm import engine
from schulze_wcm.engine import is_schulze_winner, widest_from
from schulze_wcm.oracle import _strengths as oracle_strengths
from schulze_wcm.sampling import random_profile, random_skew_graph

ABC = CandidateSet(("a", "b", "c"))


@st.composite
def arbitrary_matrices(draw, max_m=5, magnitude=5):
    m = draw(st.integers(1, max_m))
    return [
        [draw(st.integers(-magnitude, magnitude)) for _ in range(m)]
        for _ in range(m)
    ]


# ----------------------------------------------------------------- strengths


def test_detour_beats_direct_edge():
    # w(a,b)=4, w(b,c)=2, w(a,c)=-2: the a->b->c detour carries strength 2.
    graph = skew(("a", "b", "c"), [4, -2, 2])
    strength = widest_path_strengths(graph.weights)
    assert strength[0][2] == 2
    assert strength[0][1] == 4
    assert strength[1][2] == 2


def test_strengths_on_two_candidates():
    graph = skew(("a", "b"), [3])
    strength = widest_path_strengths(graph.weights)
    assert strength[0][1] == 3 and strength[1][0] == -3


def test_strengths_single_candidate_trivial():
    graph = MajorityGraph(CandidateSet(("a",)), ((0,),))
    matrix = widest_path_strengths(graph.weights)
    assert len(matrix) == 1  # no off-diagonal entries exist


def test_widest_path_accepts_non_skew_matrices():
    weights = [[0, 5, -1], [2, 0, 3], [4, -2, 0]]
    got = widest_path_strengths(weights)
    want = enumerated_strengths(weights)
    for x in range(3):
        for y in range(3):
            if x != y:
                assert got[x][y] == want[x][y]


@given(arbitrary_matrices())
def test_widest_path_matches_enumeration(weights):
    m = len(weights)
    got = widest_path_strengths(weights)
    want = enumerated_strengths(weights)
    for x in range(m):
        for y in range(m):
            if x != y:
                assert got[x][y] == want[x][y]


def off_diagonal(matrix):
    m = len(matrix)
    return [[matrix[x][y] for y in range(m) if y != x] for x in range(m)]


def oracle_winners(weights):
    s = oracle_strengths([list(row) for row in weights])
    m = len(s)
    return tuple(
        x for x in range(m) if all(s[x][y] >= s[y][x] for y in range(m) if y != x)
    )


@given(
    st.one_of(
        arbitrary_matrices(max_m=8, magnitude=3),
        skew_graphs(max_m=8, magnitude=1).map(lambda graph: graph.weights),
    )
)
def test_widest_path_matches_oracle_copy(weights):
    want = oracle_strengths([list(row) for row in weights])
    assert off_diagonal(widest_path_strengths(weights)) == off_diagonal(want)


def profile_graph(rng, m, count):
    return build_majority_graph(random_profile(rng, m, ballots=(count, count)))


@pytest.mark.parametrize("m", [40, 60])
def test_strengths_and_winners_match_oracle_on_large_graphs(m):
    rng = random.Random(m)
    graphs = [
        random_skew_graph(rng, m, magnitude=magnitude, parity=parity)
        for magnitude in (1, 3, 1000)
        for parity in (0, 1)
    ]
    # Profile-backed graphs need about four times as many reach-extending
    # edges as the skew graphs above, each reaching a few rows: the case the
    # level scan's column index changes most.
    graphs += [profile_graph(rng, m, count) for count in (20, 300)]
    for graph in graphs:
        want = oracle_strengths([list(row) for row in graph.weights])
        got = widest_path_strengths(graph.weights)
        assert off_diagonal(got) == off_diagonal(want)
        assert schulze_winners(graph) == oracle_winners(graph.weights)


@pytest.mark.parametrize("kind", ["profile", "tied"])
def test_all_pairs_rows_and_columns_match_single_source_at_m_150(kind):
    rng = random.Random(150)
    if kind == "profile":
        graph = profile_graph(rng, 150, 20)
    else:
        graph = random_skew_graph(rng, 150, magnitude=3)
    weights = graph.weights
    transposed = tuple(zip(*weights))
    strengths = widest_path_strengths(weights)
    for s in range(150):
        row = widest_from(weights, s)
        column = widest_from(transposed, s)
        row[s] = column[s] = strengths[s][s]
        assert strengths[s] == row
        assert [strengths[y][s] for y in range(150)] == column
    winners = schulze_winners(graph)
    for target in range(150):
        assert is_schulze_winner(graph, target) == (target in winners)


def assert_strengths_match_references(weights):
    """The oracle's copy up to m = 40, every single-source row and column above."""
    m = len(weights)
    got = widest_path_strengths(weights)
    if m <= 40:
        want = oracle_strengths([list(row) for row in weights])
        assert off_diagonal(got) == off_diagonal(want)
        return
    transposed = tuple(zip(*weights))
    for s in range(m):
        row = widest_from(weights, s)
        column = widest_from(transposed, s)
        row[s] = column[s] = got[s][s]
        assert got[s] == row
        assert [got[y][s] for y in range(m)] == column


def bulk_gain_matrix(kind, m):
    """A matrix whose scan gains many columns per row visit.

    On tied and constant matrices most rows gain nearly every column at once,
    and fill with that gain. The others move where the scan can stop: the
    row maxima sit on the diagonal, every entry is negative, or the entries
    sit at the weight cap.
    """
    rng = random.Random(f"{kind}-{m}")
    if kind.startswith("tied-"):
        return random_skew_graph(rng, m, magnitude=int(kind[5:])).weights
    if kind == "constant":
        return [[7] * m for _ in range(m)]
    if kind == "diagonal-maximum":
        return [
            [50 if y == x else rng.randint(-5, 5) for y in range(m)] for x in range(m)
        ]
    if kind == "negative":
        return [[rng.randint(-9, -1) for _ in range(m)] for _ in range(m)]
    assert kind == "weight-cap"
    extremes = (INT64_MAX, 0, -INT64_MAX)
    return [[rng.choice(extremes) for _ in range(m)] for _ in range(m)]


BULK_SIZES = [13, 14, 63, 64, 65, 127, 128, 129]
BULK_KINDS = [
    "tied-1",
    "tied-2",
    "tied-3",
    "constant",
    "diagonal-maximum",
    "negative",
    "weight-cap",
]


@pytest.mark.parametrize("kind", BULK_KINDS)
@pytest.mark.parametrize("m", BULK_SIZES)
def test_strengths_match_references_when_rows_gain_in_bulk(m, kind):
    assert_strengths_match_references(bulk_gain_matrix(kind, m))


def gain_of(m, k):
    """A matrix in which row 0 gains exactly k columns in one visit.

    Background entries are 0. A hub (1) reaches the spokes 2..k at 5, and
    row 0 reaches the hub at 3, so at level 3 row 0 takes the hub and every
    spoke in one visit. When there is room, the last spoke reaches one more
    candidate at 2, which row 0 reaches only through that spoke: its column
    index must already hold row 0.
    """
    weights = [[0] * m for _ in range(m)]
    for spoke in range(2, k + 1):
        weights[1][spoke] = 5
    weights[0][1] = 3
    if k + 1 < m:
        weights[k][k + 1] = 2
    return weights


# Gains of exactly the bulk threshold and of one column more, where a row has
# room for them.
THRESHOLD_GAINS = [
    (m, k)
    for m in BULK_SIZES
    for k in (engine._BULK_GAIN_BITS + m // 24, engine._BULK_GAIN_BITS + m // 24 + 1)
    if k < m
]


@pytest.mark.parametrize("m, k", THRESHOLD_GAINS)
def test_a_gain_at_and_past_the_bulk_threshold(m, k):
    weights = gain_of(m, k)
    strengths = widest_path_strengths(weights)
    assert strengths[0][1 : k + 1] == [3] * k
    assert strengths[1][2 : k + 1] == [5] * (k - 1)
    if k + 1 < m:
        assert strengths[0][k + 1] == 2
    assert_strengths_match_references(weights)


def test_strengths_of_no_candidates():
    assert widest_path_strengths([]) == []


@pytest.mark.parametrize(
    "weights",
    [[[0, 1, 2], [3]], [[0, 1, 2], [3, 4, 5]], [[0, 1], [2]]],
    ids=["long-then-short", "wide", "short-last"],
)
def test_widest_path_rejects_non_square_matrices(weights):
    with pytest.raises(ValueError, match="must be 2x2"):
        widest_path_strengths(weights)


@pytest.mark.parametrize(
    "weights, caps, message",
    [
        ([[0, 1, 2], [3]], None, "must be 2x2"),
        ([[0], [1, 0]], None, "must be 2x2"),
        ([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]], [5], "caps cover 1 candidates"),
        ([[0, 1], [-1, 0]], [5, 5, 5], "caps cover 3 candidates"),
    ],
    ids=["long-then-short", "short-then-long", "few-caps", "many-caps"],
)
def test_widest_from_rejects_mismatched_sizes(weights, caps, message):
    with pytest.raises(ValueError, match=message):
        widest_from(weights, 0, 0, caps)


@given(
    arbitrary_matrices(max_m=6),
    st.lists(st.integers(-(2**64), 2**64), min_size=6, max_size=6),
)
def test_widest_path_ignores_the_diagonal(weights, diagonal):
    changed = [row[:] for row in weights]
    for x in range(len(changed)):
        changed[x][x] = diagonal[x]
    assert off_diagonal(widest_path_strengths(changed)) == off_diagonal(
        widest_path_strengths(weights)
    )


def test_strengths_and_winners_at_the_weight_cap():
    top = INT64_MAX
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 6)
        pairs = m * (m - 1) // 2
        upper = [rng.choice((top, -top, top - 1, 1 - top)) for _ in range(pairs)]
        graph = skew(tuple("abcdef"[:m]), upper)
        weights = graph.weights
        want = enumerated_strengths(weights)
        got = widest_path_strengths(weights)
        assert off_diagonal(got) == off_diagonal(want)
        assert schulze_winners(graph) == oracle_winners(weights)


@given(arbitrary_matrices())
def test_widest_from_matches_all_pairs_row_and_column(weights):
    m = len(weights)
    strengths = widest_path_strengths(weights)
    transposed = [list(column) for column in zip(*weights)]
    for s in range(m):
        row = widest_from(weights, s)
        column = widest_from(transposed, s)
        assert row[s] is None and column[s] is None
        for y in range(m):
            if y != s:
                assert row[y] == strengths[s][y]
                assert column[y] == strengths[y][s]


@given(
    arbitrary_matrices(),
    st.integers(-3, 6),
    st.lists(st.integers(-8, 8), min_size=5, max_size=5),
)
def test_widest_from_with_offset_and_caps_matches_enumeration(weights, offset, caps):
    m = len(weights)
    capped = [
        [min(weights[y][z] + offset, caps[z]) for z in range(m)] for y in range(m)
    ]
    want = enumerated_strengths(capped)
    for s in range(m):
        got = widest_from(weights, s, offset, caps[:m])
        for y in range(m):
            if y != s:
                assert got[y] == want[s][y]


@given(
    arbitrary_matrices(),
    st.integers(-3, 6),
    st.lists(st.integers(-8, 8), min_size=5, max_size=5),
)
def test_widest_from_is_stable_under_its_own_caps(weights, offset, caps):
    # Lowering each cap to the kernel's own output changes nothing, which is
    # why one run per sweep saturates the solver's path rule.
    m = len(weights)
    for s in range(m):
        got = widest_from(weights, s, offset, caps[:m])
        lowered = [caps[z] if z == s else got[z] for z in range(m)]
        assert widest_from(weights, s, offset, lowered) == got


def widest_from_reference(weights, source, offset=0, caps=None):
    """Single-source max-min strengths by relaxing every edge until none improves.

    Edge (y, z) is worth min(weights[y][z] + offset, caps[z]); the source's
    entry is None. A label-correcting loop, independent of the greedy pick
    order the kernel relies on.
    """
    m = len(weights)
    if caps is None:
        caps = [math.inf] * m
    best = [None] * m
    for z in range(m):
        if z != source:
            best[z] = min(weights[source][z] + offset, caps[z])
    changed = True
    while changed:
        changed = False
        for y in range(m):
            if y == source:
                continue
            for z in range(m):
                if z == y or z == source:
                    continue
                value = min(best[y], weights[y][z] + offset, caps[z])
                if value > best[z]:
                    best[z] = value
                    changed = True
    return best


# Entry draws for the reference cases: tie-heavy rows, negative-only rows,
# entries at the signed 64-bit cap, and plain random ones.
ENTRY_DRAWS = {
    "ties": lambda rng: rng.choice((-1, 0, 0, 1)),
    "negative": lambda rng: -rng.randint(1, 4),
    "extreme": lambda rng: rng.choice(
        (INT64_MAX, -INT64_MAX, INT64_MAX - 1, 1 - INT64_MAX, 0)
    ),
    "random": lambda rng: rng.randint(-50, 50),
}


def reference_case_caps(rng, weights, offset, kind):
    """Caps of one kind: none, all INF, one row's own values, or a mix."""
    m = len(weights)
    if kind == "none":
        return None
    if kind == "inf":
        return [math.inf] * m
    row = weights[rng.randrange(m)]
    if kind == "row":
        return [value + offset for value in row]
    return [rng.choice((math.inf, value + offset, value)) for value in row]


@pytest.mark.parametrize("m", [1, 2, 13, 64, 130])
@pytest.mark.parametrize("kind", list(ENTRY_DRAWS))
def test_widest_from_matches_the_reference(m, kind):
    rng = random.Random(f"widest-from-{kind}-{m}")
    draw = ENTRY_DRAWS[kind]
    weights = [[draw(rng) for _ in range(m)] for _ in range(m)]
    offsets = (0, INT64_MAX) if kind == "extreme" else (0, 3, -2)
    sources = range(m) if m <= 13 else rng.sample(range(m), 2)
    for source in sources:
        for offset in offsets:
            for caps_kind in ("none", "inf", "row", "mixed"):
                caps = reference_case_caps(rng, weights, offset, caps_kind)
                got = widest_from(weights, source, offset, caps)
                assert got[source] is None
                assert got == widest_from_reference(weights, source, offset, caps)


def test_widest_from_checks_range():
    with pytest.raises(ValueError):
        widest_from([[0, 1], [-1, 0]], 2)
    with pytest.raises(ValueError):
        widest_from([[0, 1], [-1, 0]], -1)
    with pytest.raises(ValueError, match="must be an int"):
        widest_from([[0, 1], [-1, 0]], 1.0)


@given(skew_graphs())
def test_strength_dominates_direct_edge_and_is_stable(graph):
    m = len(graph.candidates)
    strength = widest_path_strengths(graph.weights)
    for x in range(m):
        for y in range(m):
            if x == y:
                continue
            assert strength[x][y] >= graph.weights[x][y]
            for k in range(m):
                if k in (x, y):
                    continue
                assert strength[x][y] >= min(strength[x][k], strength[k][y])


# ------------------------------------------------------------------- winners


def test_winner_pair_from_cyclic_graph():
    # w(a,b)=4, w(b,c)=2, w(c,a)=2 leaves a and c tied at strength 2.
    graph = skew(("a", "b", "c"), [4, -2, 2])
    assert schulze_winners(graph) == (0, 2)
    assert not is_unique_winner(graph, 0)
    assert not is_unique_winner(graph, 2)


def test_condorcet_winner_is_unique():
    profile = WeightedProfile(ABC, (WeightedBallot(Ranking.from_order([0, 1, 2]), 1),))
    graph = build_majority_graph(profile)
    assert schulze_winners(graph) == (0,)
    assert is_unique_winner(graph, 0)
    assert not is_unique_winner(graph, 1)


def test_all_tied_on_empty_profile():
    graph = build_majority_graph(WeightedProfile(ABC, ()))
    assert schulze_winners(graph) == (0, 1, 2)


def test_single_candidate_wins():
    graph = MajorityGraph(CandidateSet(("a",)), ((0,),))
    assert schulze_winners(graph) == (0,)
    assert is_unique_winner(graph, 0)


def test_is_unique_winner_checks_range():
    graph = skew(("a", "b"), [1])
    with pytest.raises(ValueError):
        is_unique_winner(graph, 2)
    with pytest.raises(ValueError, match="must be an int"):
        is_unique_winner(graph, 1.0)


def test_is_schulze_winner_checks_range():
    graph = skew(("a", "b"), [1])
    with pytest.raises(ValueError):
        is_schulze_winner(graph, -1)


@given(skew_graphs())
def test_winner_set_never_empty(graph):
    assert schulze_winners(graph)


@given(skew_graphs())
def test_unique_winner_agrees_with_singleton_winner_set(graph):
    winners = schulze_winners(graph)
    for target in range(len(graph.candidates)):
        assert is_unique_winner(graph, target) == (winners == (target,))


def assert_status_matches_winner_set(graph):
    winners = schulze_winners(graph)
    for target in range(len(graph.candidates)):
        assert is_schulze_winner(graph, target) == (target in winners)
        assert is_unique_winner(graph, target) == (winners == (target,))


@given(skew_graphs())
def test_target_status_agrees_with_winner_set(graph):
    assert_status_matches_winner_set(graph)


def test_target_status_agrees_with_winner_set_on_tie_heavy_graphs():
    # Magnitude 1 leaves every edge at -1, 0 or 1, so ties are everywhere.
    rng = random.Random(3)
    for _ in range(300):
        graph = random_skew_graph(rng, rng.randint(1, 9), magnitude=1)
        assert_status_matches_winner_set(graph)


@given(skew_graphs(min_m=2, max_m=5), st.randoms(use_true_random=False))
def test_winners_commute_with_relabeling(graph, rng):
    m = len(graph.candidates)
    perm = list(range(m))
    rng.shuffle(perm)
    rows = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            rows[perm[x]][perm[y]] = graph.weights[x][y]
    relabeled = MajorityGraph(graph.candidates, tuple(tuple(r) for r in rows))
    expected = tuple(sorted(perm[w] for w in schulze_winners(graph)))
    assert schulze_winners(relabeled) == expected
