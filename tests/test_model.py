"""Core model: rankings, profiles, majority graphs, overlay."""

import pickle
import random
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schulze_wcm import model, solver

from schulze_wcm import (
    INT64_MAX,
    CandidateSet,
    CapacityError,
    MajorityGraph,
    ManipulationInstance,
    Mode,
    Ranking,
    WeightedBallot,
    WeightedProfile,
    build_majority_graph,
    overlay_identical_manipulators,
    verify_manipulation,
)

AB = CandidateSet(("a", "b"))
ABC = CandidateSet(("a", "b", "c"))


def ballot(order, weight):
    return WeightedBallot(Ranking.from_order(order), weight)


@st.composite
def profiles(
    draw, max_m=4, max_ballots=4, max_weight=4, min_weight=1, min_m=1, min_ballots=0
):
    m = draw(st.integers(min_m, max_m))
    labels = tuple("abcdefghij"[:m])
    count = draw(st.integers(min_ballots, max_ballots))
    ballots = tuple(
        WeightedBallot(
            Ranking(tuple(draw(st.permutations(tuple(range(1, m + 1)))))),
            draw(st.integers(min_weight, max_weight)),
        )
        for _ in range(count)
    )
    return WeightedProfile(CandidateSet(labels), ballots)


def pairwise_reference(profile):
    """Margins summed one ballot and one pair at a time."""
    m = len(profile.candidates)
    rows = [[0] * m for _ in range(m)]
    for ballot in profile.ballots:
        ranks = ballot.ranking.ranks
        for x in range(m):
            for y in range(x + 1, m):
                sign = 1 if ranks[x] > ranks[y] else -1
                rows[x][y] += sign * ballot.weight
                rows[y][x] -= sign * ballot.weight
    return tuple(tuple(row) for row in rows)


def seeded_profile(seed, m, count, max_weight=3):
    """A reproducible random profile with labels c0, c1, ...

    Weights are drawn from 1..max_weight, except that the first ballot
    carries max_weight itself, which fixes the number of weight bit planes.
    """
    rng = random.Random(seed)
    ranks = list(range(1, m + 1))
    ballots = []
    for i in range(count):
        rng.shuffle(ranks)
        weight = max_weight if i == 0 else rng.randint(1, max_weight)
        ballots.append(WeightedBallot(Ranking(tuple(ranks)), weight))
    labels = tuple(f"c{i}" for i in range(m))
    return WeightedProfile(CandidateSet(labels), tuple(ballots))


def tallied(profile):
    """The profile as the layouts take it: rankings, weights and the total."""
    rankings = [ballot.ranking.ranks for ballot in profile.ballots]
    weights = [ballot.weight for ballot in profile.ballots]
    return rankings, weights, profile.total_weight


def assert_layouts_match_reference(profile):
    m = len(profile.candidates)
    columns = tallied(profile)
    expected = [list(row) for row in pairwise_reference(profile)]
    assert model._row_margins(m, *columns) == expected
    assert model._lane_margins(m, *columns) == expected


@st.composite
def votes_for(draw, m):
    return Ranking(tuple(draw(st.permutations(tuple(range(1, m + 1))))))


# ---------------------------------------------------------------- rankings


def test_ranking_roundtrip():
    r = Ranking.from_order([2, 0, 1])
    assert r.ranks == (2, 1, 3)
    assert r.order() == (2, 0, 1)


def test_order_matches_the_sort_by_descending_rank():
    rng = random.Random(40)
    for m in range(1, 41):
        for _ in range(5):
            ranks = rng.sample(range(1, m + 1), m)
            expected = tuple(sorted(range(m), key=lambda i: -ranks[i]))
            assert Ranking(tuple(ranks)).order() == expected


def test_ranking_rejects_non_bijection():
    with pytest.raises(ValueError):
        Ranking((1, 1, 2))
    with pytest.raises(ValueError):
        Ranking((0, 1, 2))
    with pytest.raises(ValueError):
        Ranking.from_order([0, 0, 1])


def test_ranking_rejects_non_int_ranks():
    # Each of these sorts equal to 1..m, so only the type check stops it.
    for ranks in ((1.0, 2.0), (2, 1.0), (1, 2, 3.0), (Fraction(1), 2), (Decimal(1),)):
        with pytest.raises(ValueError, match="ints"):
            Ranking(ranks)
    for order in ((0.0, 1, 2), (1, 0.0), (Fraction(0),), (Decimal(1), 0)):
        with pytest.raises(ValueError, match="ints"):
            Ranking.from_order(order)


@pytest.mark.parametrize("ranks", [(True, 2), (2, True), (3, True, 2)])
def test_ranking_rejects_bool_ranks(ranks):
    # True sorts equal to 1 and sums as an int, but its repr would print True.
    with pytest.raises(ValueError, match="ints"):
        Ranking(ranks)


@pytest.mark.parametrize("order", [(True, False), (False, True), (2, True, 0)])
def test_from_order_rejects_bool_indices(order):
    with pytest.raises(ValueError, match="ints"):
        Ranking.from_order(order)


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        CandidateSet(())
    with pytest.raises(ValueError):
        CandidateSet(("a", "a"))
    with pytest.raises(ValueError):
        CandidateSet(("a", ""))
    with pytest.raises(ValueError, match="non-empty strings"):
        CandidateSet((1, 2))


def test_ballot_and_profile_validation():
    with pytest.raises(ValueError):
        WeightedBallot(Ranking((1, 2)), 0)
    with pytest.raises(ValueError):
        WeightedProfile(ABC, (ballot([0, 1], 1),))  # wrong arity
    for weight in (1.5, 2.0, "1"):
        with pytest.raises(ValueError):
            WeightedBallot(Ranking((1, 2)), weight)


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightedBallot((2, 1), 1),
        lambda: WeightedProfile("ab", ()),
        lambda: WeightedProfile(ABC, (("x",),)),
        lambda: ManipulationInstance(None, (1,), 0),
        lambda: MajorityGraph("abc", ((0, 1, -1), (-1, 0, 1), (1, -1, 0))),
        lambda: overlay_identical_manipulators(
            build_majority_graph(WeightedProfile(ABC, ())), (3, 2, 1), 1
        ),
        lambda: verify_manipulation(
            ManipulationInstance(WeightedProfile(AB, ()), (1,), 0), (1, 2)
        ),
    ],
    ids=[
        "ranking-tuple",
        "candidates-str",
        "ballot-tuple",
        "profile-none",
        "graph-candidates-str",
        "overlay-vote-tuple",
        "verify-vote-tuple",
    ],
)
def test_constructors_reject_wrong_component_types(build):
    with pytest.raises(ValueError, match="must be a"):
        build()


def test_instance_validation():
    profile = WeightedProfile(ABC, (ballot([0, 1, 2], 1),))
    with pytest.raises(ValueError):
        ManipulationInstance(profile, (1,), 3)
    with pytest.raises(ValueError):
        ManipulationInstance(profile, (0,), 1)
    with pytest.raises(ValueError):
        ManipulationInstance(profile, (1,), 1, mode="unique")
    for weight in (2.0, 0.5, "1"):
        with pytest.raises(ValueError):
            ManipulationInstance(profile, (1, weight), 2)
    for target in (1.0, 0.0, "1", None):
        with pytest.raises(ValueError, match="target index"):
            ManipulationInstance(profile, (1,), target)
    inst = ManipulationInstance(profile, (2, 1), 2)
    assert inst.coalition_weight == 3 and inst.mode is Mode.UNIQUE


@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightedBallot(Ranking((1, 2)), True),
        lambda: ManipulationInstance(WeightedProfile(AB, ()), (True,), 0),
        lambda: model._check_weight(True, "coalition weight", 0),
    ],
    ids=["ballot", "manipulators", "coalition"],
)
def test_bool_weights_are_rejected(build):
    # bool is an int subclass, and serialize_election would write a True
    # weight as "True", which the parser rejects.
    with pytest.raises(ValueError, match="int"):
        build()


def test_capacity_caps():
    two = CandidateSet(("a", "b"))
    big = WeightedBallot(Ranking((2, 1)), INT64_MAX)
    WeightedProfile(two, (big,))  # exactly at the cap is fine
    with pytest.raises(CapacityError):
        WeightedProfile(two, (big, WeightedBallot(Ranking((2, 1)), 1)))
    profile = WeightedProfile(two, (big,))
    with pytest.raises(CapacityError):
        ManipulationInstance(profile, (1,), 0)


# ----------------------------------------------------------- value objects


def value_samples():
    """One valid instance of every dataclass in model and solver, with a
    replacement the public checks reject and the error they raise."""
    profile = WeightedProfile(ABC, (ballot([2, 0, 1], 2),))
    instance = ManipulationInstance(profile, (1, 2), 1, Mode.COWINNER)
    bounds = solver.BoundFunction((solver.INF, 3, 1), 0, Mode.UNIQUE)
    return {
        CandidateSet: (ABC, {"labels": ()}, ValueError),
        Ranking: (Ranking((2, 1, 3)), {"ranks": (1, 1, 2)}, ValueError),
        WeightedBallot: (ballot([1, 0], 2), {"weight": 0}, ValueError),
        WeightedProfile: (profile, {"ballots": (ballot([1, 0], 1),)}, ValueError),
        ManipulationInstance: (instance, {"target": 3}, ValueError),
        MajorityGraph: (
            build_majority_graph(profile),
            {"weights": ((0, 1, 0), (1, 0, 0), (0, 0, 0))},
            ValueError,
        ),
        solver.BoundFunction: (bounds, {"target": 3}, ValueError),
        # The outcome checks nothing, so no replacement is rejected.
        solver.ManipulationOutcome: (
            solver.ManipulationOutcome(True, Ranking((3, 1, 2)), bounds, 4),
            None,
            None,
        ),
    }


def test_value_samples_cover_every_dataclass():
    found = {
        value
        for module in (model, solver)
        for value in vars(module).values()
        if isinstance(value, type)
        and is_dataclass(value)
        and value.__module__ == module.__name__
    }
    assert found == set(value_samples())


@pytest.mark.parametrize("cls", list(value_samples()), ids=lambda cls: cls.__name__)
def test_value_objects_are_slotted_frozen_and_checked(cls):
    value, bad, error = value_samples()[cls]
    assert "__slots__" in vars(cls) and not hasattr(value, "__dict__")
    for field in fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
    if bad is not None:
        with pytest.raises(error):
            replace(value, **bad)
    again = replace(value)
    assert again == value and again is not value
    assert hash(again) == hash(value)
    assert hash(value) == hash(tuple(getattr(value, f.name) for f in fields(value)))
    assert pickle.loads(pickle.dumps(value)) == value


# ---------------------------------------------------------- majority graph


def test_majority_graph_validation():
    with pytest.raises(ValueError):
        MajorityGraph(ABC, ((0, 1), (-1, 0)))
    with pytest.raises(ValueError):
        MajorityGraph(CandidateSet(("a", "b")), ((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        MajorityGraph(CandidateSet(("a", "b")), ((0, 1), (1, 0)))
    for big in (2**63, -(2**63)):
        with pytest.raises(CapacityError, match="exceeds the signed 64-bit cap"):
            MajorityGraph(AB, ((0, big), (-big, 0)))
    # A weight that is not an int is refused even when its value is whole.
    for weight in (0.5, 1.0, Fraction(1, 2), Fraction(1), Decimal("0.5")):
        with pytest.raises(ValueError, match="pairwise weights must be ints"):
            MajorityGraph(AB, ((0, weight), (-weight, 0)))
    with pytest.raises(ValueError, match="pairwise weights must be ints"):
        MajorityGraph(AB, ((0, "1"), ("-1", 0)))


def test_build_majority_graph_single_ballot():
    profile = WeightedProfile(ABC, (ballot([0, 1, 2], 2),))
    graph = build_majority_graph(profile)
    assert graph.weights == ((0, 2, 2), (-2, 0, 2), (-2, -2, 0))


def test_build_majority_graph_cancellation():
    profile = WeightedProfile(
        ABC, (ballot([0, 1, 2], 1), ballot([2, 1, 0], 1))
    )
    graph = build_majority_graph(profile)
    assert graph.weights == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_build_majority_graph_empty_profile():
    graph = build_majority_graph(WeightedProfile(ABC, ()))
    assert graph.weights == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_overlay_matches_spelled_out_example():
    # Base: one ballot a > c of weight 1, coalition votes c > a with weight 2.
    two = CandidateSet(("a", "c"))
    base = build_majority_graph(WeightedProfile(two, (ballot([0, 1], 1),)))
    assert base.weights[0][1] == 1
    overlaid = overlay_identical_manipulators(base, Ranking.from_order([1, 0]), 2)
    assert overlaid.weights[1][0] == 1
    assert overlaid.weights[0][1] == -1


def test_overlay_rejects_bad_arguments():
    graph = build_majority_graph(WeightedProfile(ABC, ()))
    with pytest.raises(ValueError):
        overlay_identical_manipulators(graph, Ranking((1, 2)), 1)
    with pytest.raises(ValueError):
        overlay_identical_manipulators(graph, Ranking((1, 2, 3)), -1)
    for weight in (1.5, "3", True):
        with pytest.raises(ValueError, match="must be an int"):
            overlay_identical_manipulators(graph, Ranking((1, 2, 3)), weight)


@given(profiles())
def test_graph_is_skew_symmetric_bounded_and_parity_correct(profile):
    graph = build_majority_graph(profile)
    m = len(profile.candidates)
    total = profile.total_weight
    for x in range(m):
        assert graph.weights[x][x] == 0
        for y in range(m):
            if x == y:
                continue
            assert graph.weights[x][y] == -graph.weights[y][x]
            assert abs(graph.weights[x][y]) <= total
            assert (graph.weights[x][y] - total) % 2 == 0


# Three ballots of 2**60 to 2**61 fill fields past 2**62 yet stay under the cap.
@given(
    st.one_of(
        profiles(), profiles(max_m=6, max_ballots=3, min_weight=2**60, max_weight=2**61)
    )
)
def test_graph_matches_pairwise_reference(profile):
    assert build_majority_graph(profile).weights == pairwise_reference(profile)


def test_repeated_ballots_equal_one_summed_ballot():
    order = [3, 0, 4, 1, 2]
    candidates = CandidateSet(tuple("abcde"))
    copies = WeightedProfile(candidates, (ballot(order, 7),) * 1000)
    summed = WeightedProfile(candidates, (ballot(order, 7000),))
    assert build_majority_graph(copies) == build_majority_graph(summed)
    assert build_majority_graph(summed).weights[3][2] == 7000


def test_graph_at_the_weight_cap():
    two = CandidateSet(("a", "b"))
    single = WeightedProfile(two, (ballot([0, 1], INT64_MAX),))
    graph = build_majority_graph(single)
    assert graph.weights == ((0, INT64_MAX), (-INT64_MAX, 0))
    split = WeightedProfile(two, (ballot([0, 1], 2**62), ballot([1, 0], 2**62 - 1)))
    assert build_majority_graph(split).weights == ((0, 1), (-1, 0))
    four = CandidateSet(tuple("abcd"))
    top = WeightedProfile(four, (ballot([2, 0, 3, 1], INT64_MAX),))
    assert build_majority_graph(top).weights[2][1] == INT64_MAX
    spread = WeightedProfile(
        four,
        (
            ballot([2, 0, 3, 1], 2**62),
            ballot([1, 3, 0, 2], 2**61),
            ballot([3, 2, 1, 0], 2**61 - 1),
        ),
    )
    for profile in (top, spread):
        assert build_majority_graph(profile).weights == pairwise_reference(profile)
    against = Ranking.from_order([1, 0])
    overlaid = overlay_identical_manipulators(graph, against, 2**63 + 5)
    assert overlaid.weights == ((0, -6), (6, 0))
    for weight in (2**64, 2**64 + 3):
        with pytest.raises(CapacityError) as info:
            overlay_identical_manipulators(graph, against, weight)
        assert type(info.value) is CapacityError
        assert "pairwise weight exceeds the signed 64-bit cap" in str(info.value)
    # One more vote for a on the INT64_MAX edge: only the graph's own entry check sees it.
    with pytest.raises(CapacityError, match="pairwise weight exceeds the signed 64-bit cap"):
        overlay_identical_manipulators(graph, Ranking.from_order([0, 1]), 1)
    # One candidate has no pair, so even a coalition of 2**64 breaks no cap.
    one = build_majority_graph(WeightedProfile(CandidateSet(("a",)), ()))
    assert overlay_identical_manipulators(one, Ranking((1,)), 2**64).weights == ((0,),)


@given(profiles(), st.randoms(use_true_random=False))
def test_graph_ignores_ballot_order(profile, rng):
    shuffled = list(profile.ballots)
    rng.shuffle(shuffled)
    reordered = WeightedProfile(profile.candidates, tuple(shuffled))
    assert build_majority_graph(reordered) == build_majority_graph(profile)


@given(st.data())
def test_overlay_equals_appended_ballot(data):
    profile = data.draw(profiles())
    m = len(profile.candidates)
    vote = data.draw(votes_for(m))
    # Near-cap weights too: the profile's total of at most 16 leaves room.
    weight = data.draw(st.one_of(st.integers(1, 5), st.integers(2**32 - 2, 2**62)))
    graph = build_majority_graph(profile)
    overlaid = overlay_identical_manipulators(graph, vote, weight)
    extended = WeightedProfile(
        profile.candidates, profile.ballots + (WeightedBallot(vote, weight),)
    )
    assert overlaid == build_majority_graph(extended)


@given(st.data())
def test_overlay_with_zero_weight_is_identity(data):
    profile = data.draw(profiles())
    vote = data.draw(votes_for(len(profile.candidates)))
    graph = build_majority_graph(profile)
    assert overlay_identical_manipulators(graph, vote, 0) == graph


# ------------------------------------------------- row and lane tally layouts


# Each layout is called directly, whichever one `build_majority_graph` would
# pick. Lanes need a weight to size their planes, so the layouts see one
# ballot or more.
@given(
    st.one_of(
        profiles(max_m=8, max_ballots=60, max_weight=3, min_ballots=1),
        profiles(max_m=8, max_ballots=60, max_weight=2**40, min_ballots=1),
    )
)
def test_layouts_match_pairwise_reference(profile):
    assert_layouts_match_reference(profile)


@pytest.mark.parametrize(
    "m, count", [(127, 30), (100, 1)], ids=["127-30-B", "100-1-B"]
)
def test_layouts_at_lane_width_edges_and_one_ballot(m, count):
    # Rank 127 is the largest a byte lane holds below its top bit.
    assert_layouts_match_reference(seeded_profile(m + count, m, count))


def test_layouts_at_the_weight_cap():
    weights = (2**62, 2**60, 2**60, 2**60, 2**60 - 1)
    assert sum(weights) == INT64_MAX
    orders = ([2, 0, 3, 1], [1, 3, 0, 2], [3, 2, 1, 0], [0, 1, 2, 3], [2, 3, 0, 1])
    profile = WeightedProfile(
        CandidateSet(tuple("abcd")),
        tuple(ballot(order, weight) for order, weight in zip(orders, weights)),
    )
    assert_layouts_match_reference(profile)


# Totals at each signed row field's edge (2**7, 2**15, 2**31) and at each
# unsigned width's edge, with the signed struct code that holds them.
FIELD_EDGES = [
    (2**7 - 1, "b"),
    (2**7, "h"),
    (2**8 - 1, "h"),
    (2**8, "h"),
    (2**15 - 1, "h"),
    (2**15, "i"),
    (2**16 - 1, "i"),
    (2**16, "i"),
    (2**31 - 1, "i"),
    (2**31, "q"),
    (2**32 - 1, "q"),
    (2**32, "q"),
    (INT64_MAX, "q"),
]


@pytest.mark.parametrize("total, code", FIELD_EDGES)
def test_row_fields_at_width_edges(total, code):
    # Candidate a tops every ballot, so each of its fields holds the total.
    assert model._field_code(total) == code
    weights = (total - 2 * (total // 3), total // 3, total // 3)
    orders = ([0, 3, 1, 2, 4], [0, 2, 4, 1, 3], [0, 4, 3, 2, 1])
    profile = WeightedProfile(
        CandidateSet(tuple("abcde")),
        tuple(ballot(order, weight) for order, weight in zip(orders, weights)),
    )
    assert profile.total_weight == total
    expected = [list(row) for row in pairwise_reference(profile)]
    assert model._row_margins(5, *tallied(profile)) == expected


@pytest.mark.parametrize("weight", [total for total, _ in FIELD_EDGES])
def test_overlay_at_row_field_width_edges(weight):
    # The coalition's weight sits at a row field width's edge; the overlay adds
    # it entry by entry and must match the extended profile's tally.
    candidates = CandidateSet(tuple("abcde"))
    base = ()
    if weight < INT64_MAX:
        base = (ballot([1, 0, 2, 3, 4], 3), ballot([4, 3, 2, 1, 0], 1))
    vote = Ranking.from_order([2, 0, 4, 1, 3])
    graph = build_majority_graph(WeightedProfile(candidates, base))
    extended = WeightedProfile(candidates, base + (WeightedBallot(vote, weight),))
    overlaid = overlay_identical_manipulators(graph, vote, weight)
    assert overlaid.weights == pairwise_reference(extended)


@pytest.mark.parametrize(
    "m, count, max_weight, layout",
    [
        (30, 400, 3, "_lane_margins"),  # many ballots, few planes
        (8, 30, 3, "_lane_margins"),  # the smallest count lanes take at 2 planes
        (8, 29, 3, "_row_margins"),
        (100, 123, 3, "_lane_margins"),  # more candidates need more ballots
        (100, 122, 3, "_row_margins"),
        (100, 20, 3, "_row_margins"),  # the benchmark's many-candidate shape
        (30, 1, 3, "_row_margins"),  # one ballot
        (6, 400, 2**20, "_row_margins"),  # too many weight planes
        (30, 400, 2**9 - 1, "_row_margins"),  # 8-bit lanes allow 8 planes
        (30, 400, 2**8 - 1, "_lane_margins"),
        (127, 100, 1, "_lane_margins"),  # the most candidates a byte lane ranks
        (128, 1000, 1, "_row_margins"),  # past it rows take any count
        (200, 380, 2**4 - 1, "_row_margins"),
        (200, 300, 2**3 - 1, "_row_margins"),
    ],
)
def test_margins_picks_a_layout_and_matches_both(
    monkeypatch, m, count, max_weight, layout
):
    profile = seeded_profile(count, m, count, max_weight)
    columns = tallied(profile)
    expected = model._row_margins(m, *columns)
    if m < 128:  # a byte lane holds no rank past 127
        assert model._lane_margins(m, *columns) == expected
    picked = []
    original = getattr(model, layout)

    def spy(*args):
        picked.append(layout)
        return original(*args)

    monkeypatch.setattr(model, layout, spy)
    assert build_majority_graph(profile).weights == tuple(map(tuple, expected))
    assert picked == [layout]


# Large enough that `build_majority_graph` picks the lane layout, before and
# after each change below: 60 or more ballots on at most 6 candidates carry up
# to 4 weight bit planes ((4 + 1) * (8 + 6 // 3) = 50), and weights stay at
# most 15 after scaling by up to 5.
lane_profiles = profiles(min_m=2, max_m=6, min_ballots=60, max_ballots=80, max_weight=3)


@settings(max_examples=40, deadline=None)
@given(lane_profiles, st.integers(1, 3), st.data())
def test_adding_a_ballot_and_its_reverse_changes_nothing(profile, weight, data):
    m = len(profile.candidates)
    vote = data.draw(votes_for(m))
    reverse = Ranking(tuple(m + 1 - rank for rank in vote.ranks))
    extended = WeightedProfile(
        profile.candidates,
        profile.ballots
        + (WeightedBallot(vote, weight), WeightedBallot(reverse, weight)),
    )
    assert build_majority_graph(extended) == build_majority_graph(profile)


@settings(max_examples=40, deadline=None)
@given(lane_profiles, st.integers(1, 5))
def test_scaling_every_weight_scales_every_entry(profile, k):
    scaled = WeightedProfile(
        profile.candidates,
        tuple(WeightedBallot(b.ranking, k * b.weight) for b in profile.ballots),
    )
    weights = build_majority_graph(profile).weights
    expected = tuple(tuple(k * entry for entry in row) for row in weights)
    assert build_majority_graph(scaled).weights == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabelling_permutes_rows_and_columns(data):
    profile = data.draw(lane_profiles)
    m = len(profile.candidates)
    # Candidate x of the profile is candidate new[x] of the relabelled one.
    new = data.draw(st.permutations(range(m)))
    labels = [None] * m
    for x in range(m):
        labels[new[x]] = profile.candidates.labels[x]

    def moved(ranks):
        out = [0] * m
        for x in range(m):
            out[new[x]] = ranks[x]
        return Ranking(tuple(out))

    relabelled = WeightedProfile(
        CandidateSet(tuple(labels)),
        tuple(
            WeightedBallot(moved(b.ranking.ranks), b.weight) for b in profile.ballots
        ),
    )
    weights = build_majority_graph(profile).weights
    permuted = build_majority_graph(relabelled).weights
    for x in range(m):
        for y in range(m):
            assert permuted[new[x]][new[y]] == weights[x][y]
