"""Producers that skip the public checks must still hand out valid values.

The parser, the CLI's instance loader, the tally, the overlay,
`Ranking.from_order` and `construct_manipulator_vote` build their results
without running the constructors' checks, because each has proved those
facts already. These tests pass every such result back through the public
constructors, nested values first, and require an equal object, so a
producer that breaks an invariant fails here rather than somewhere
downstream.
"""

import dataclasses
import random
from dataclasses import fields, is_dataclass

import pytest

from schulze_wcm import cli, model
from schulze_wcm.ballots import (
    ParseError,
    parse_election_file,
    parse_vote,
    serialize_election,
)
from schulze_wcm.model import (
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
)
from schulze_wcm.sampling import random_instance, random_profile, random_skew_graph
from schulze_wcm.solver import (
    build_admissible_graph,
    compute_bound_function,
    construct_manipulator_vote,
    spanning_arborescence,
)

from test_model import FIELD_EDGES


def reproved(value):
    """value rebuilt through the public constructors, nested values first."""
    if is_dataclass(value):
        return type(value)(*(reproved(getattr(value, f.name)) for f in fields(value)))
    if type(value) is tuple:
        return tuple(map(reproved, value))
    return value


def assert_proven(value):
    # A list where a tuple is due makes the rebuilt value compare unequal.
    assert reproved(value) == value


def random_weights(rng, count):
    """count ballot weights, spread from 1 up to a total at the cap."""
    if not count:
        return []
    total = rng.choice([count, 3 * count, 2**rng.randint(8, 62), INT64_MAX])
    cuts = sorted(rng.sample(range(1, total), count - 1)) if count > 1 else []
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def profile_of(rng, m, weights):
    ranks = list(range(1, m + 1))
    ballots = []
    for weight in weights:
        rng.shuffle(ranks)
        ballots.append(WeightedBallot(Ranking(tuple(ranks)), weight))
    labels = tuple(f"c{i}" for i in range(m))
    return WeightedProfile(CandidateSet(labels), tuple(ballots))


def lane_profile(rng):
    # Enough ballots of weight 1-3 on few candidates that lanes are taken.
    m = rng.randint(2, 10)
    return profile_of(rng, m, [rng.randint(1, 3) for _ in range(rng.randint(60, 90))])


def row_profile(rng):
    m = rng.randint(1, 12)
    return profile_of(rng, m, random_weights(rng, rng.randint(0, 6)))


def field_edge_profiles(rng):
    # Totals at each row field width's edge, split over three ballots.
    for total, _ in FIELD_EDGES:
        third = total // 3
        yield profile_of(rng, rng.randint(2, 7), [total - 2 * third, third, third])


@pytest.mark.parametrize(
    "layout, draw",
    [("_lane_margins", lane_profile), ("_row_margins", row_profile)],
)
def test_tally_keeps_the_graph_invariants(monkeypatch, layout, draw):
    rng = random.Random(layout)
    picked = []
    original = getattr(model, layout)

    def spy(*args):
        picked.append(layout)
        return original(*args)

    monkeypatch.setattr(model, layout, spy)
    profiles = [draw(rng) for _ in range(150)]
    if layout == "_row_margins":
        profiles += list(field_edge_profiles(rng))
    for profile in profiles:
        assert_proven(build_majority_graph(profile))
    assert len(picked) == len(profiles)


def settle(build):
    """What build returns, or CapacityError when it raises one."""
    try:
        return build()
    except CapacityError:
        return CapacityError


def spelled_out_overlay(graph, vote, weight):
    ranks = vote.ranks
    return MajorityGraph(
        graph.candidates,
        tuple(
            tuple(
                0 if x == y else entry + (weight if ranks[x] > ranks[y] else -weight)
                for y, entry in enumerate(row)
            )
            for x, row in enumerate(graph.weights)
        ),
    )


def test_overlay_keeps_the_graph_invariants_at_field_width_edges():
    rng = random.Random(5)
    edges = [total for total, _ in FIELD_EDGES]
    coalitions = [0, 1, *edges, INT64_MAX + 1, 2**64 - 1, 2**64]
    bases = list(field_edge_profiles(rng))
    bases += [profile_of(rng, 3, [INT64_MAX]), profile_of(rng, 1, [])]
    for _ in range(20):
        bases.append(profile_of(rng, rng.randint(2, 6), random_weights(rng, 3)))
    overlays = 0
    for profile in bases:
        graph = build_majority_graph(profile)
        m = len(profile.candidates)
        for weight in coalitions:
            for vote in (Ranking.from_order(rng.sample(range(m), m)) for _ in range(3)):
                got = settle(
                    lambda: overlay_identical_manipulators(graph, vote, weight)
                )
                # The overlay breaks the cap exactly when the public check says so.
                assert got == settle(lambda: spelled_out_overlay(graph, vote, weight))
                if got is not CapacityError:
                    overlays += 1
                    assert_proven(got)
    assert overlays > len(bases) * 3


SEPARATORS = [" > ", ">", " >", "> ", "  >  ", "\t>\t"]


def election_texts(rng):
    """Serialized random elections, with each separator, plus faulty rankings."""
    for _ in range(80):
        m = rng.randint(1, 8)
        profile = random_profile(rng, m, ballots=(0, 6))
        election = profile
        if rng.random() < 0.7:
            weights = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
            election = ManipulationInstance(profile, weights, rng.randrange(m))
        text = serialize_election(election)
        for separator in SEPARATORS:
            yield text.replace(" > ", separator)
        # Canonical text that repeats one label and drops another.
        labels = profile.candidates.labels
        if m > 1:
            repeated = [rng.choice(labels) for _ in range(m)]
            yield f"candidates: {' '.join(labels)}\nballot 1: {' > '.join(repeated)}\n"


def test_parser_output_keeps_the_model_invariants():
    rng = random.Random(11)
    parsed = rejected = 0
    for text in election_texts(rng):
        try:
            election = parse_election_file(text)
        except ParseError:
            rejected += 1
            continue
        parsed += 1
        assert_proven(election)
    assert parsed > 400 and rejected > 10
    labels = CandidateSet(tuple("abcdef"))
    for _ in range(500):
        words = [rng.choice(labels.labels) for _ in range(rng.randint(1, 7))]
        try:
            vote = parse_vote(rng.choice(SEPARATORS).join(words), labels)
        except ParseError:
            continue
        assert_proven(vote)


@pytest.mark.parametrize("mode", ["unique", "cowinner"])
def test_cli_instance_equals_the_public_replace(tmp_path, mode):
    rng = random.Random(mode)
    for i in range(30):
        path = tmp_path / f"{i}.elect"
        path.write_text(serialize_election(random_instance(rng)), encoding="utf-8")
        loaded = cli._load_instance(str(path), mode)
        parsed = parse_election_file(path.read_text(encoding="utf-8"))
        assert loaded == dataclasses.replace(parsed, mode=Mode(mode))
        assert loaded.mode is Mode(mode)
        assert_proven(loaded)
    with pytest.raises(ValueError):
        cli._load_instance(str(path), "sole")


def test_from_order_keeps_the_ranking_invariants():
    rng = random.Random(3)
    for m in range(1, 40):
        order = rng.sample(range(m), m)
        ranking = Ranking.from_order(order)
        assert_proven(ranking)
        assert ranking.order() == tuple(order)


def test_constructed_vote_keeps_the_ranking_invariants():
    rng = random.Random(7)
    votes = 0
    for _ in range(300):
        m = rng.randint(1, 9)
        graph = random_skew_graph(rng, m, magnitude=rng.randint(1, 6))
        target = rng.randrange(m)
        weight = rng.randint(0, 8)
        mode = rng.choice(list(Mode))
        bounds, _ = compute_bound_function(graph, target, weight, mode)
        parents = spanning_arborescence(
            build_admissible_graph(graph, bounds, weight), target
        )
        vote = construct_manipulator_vote(parents, bounds)
        assert_proven(vote)
        votes += 1
        # Arbitrary parent functions: rejected, or a valid ballot all the same.
        arbitrary = [rng.choice([None, *range(m)]) for _ in range(m)]
        arbitrary[target] = None
        try:
            vote = construct_manipulator_vote(tuple(arbitrary), bounds)
        except ValueError:
            continue
        assert_proven(vote)
        votes += 1
    assert votes > 300
