"""Bound computation, decision, vote construction, and their certificates."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    applicable_rule,
    bound_value_set,
    finite_bounds,
    floyd_warshall_strengths,
    reachable,
)
from schulze_wcm import engine, solver
from schulze_wcm.engine import widest_path_strengths
from schulze_wcm import (
    INF,
    BoundFunction,
    CandidateSet,
    InternalInvariantError,
    MajorityGraph,
    ManipulationInstance,
    Mode,
    Ranking,
    WeightedBallot,
    WeightedProfile,
    brute_force_wcm,
    build_admissible_graph,
    build_majority_graph,
    compute_bound_function,
    construct_manipulator_vote,
    decide_manipulable,
    format_vote,
    overlay_identical_manipulators,
    solve_wcm,
    spanning_arborescence,
    verify_manipulation,
)
from schulze_wcm.sampling import random_instance, random_profile

AC = CandidateSet(("a", "c"))
CXY = CandidateSet(("c", "x", "y"))


def ballot(order, weight):
    return WeightedBallot(Ranking.from_order(order), weight)


def two_candidate_instance(margin, coalition, mode=Mode.UNIQUE):
    """One ballot a > c with the given weight, target c."""
    profile = WeightedProfile(AC, (ballot([0, 1], margin),))
    return ManipulationInstance(profile, (coalition,), 1, mode)


# ------------------------------------------------------------------ infinity


def test_infinity_ordering():
    assert INF > 10**30 and INF >= 10**30
    assert not INF < 10**30 and not INF <= 10**30
    assert 5 < INF and 5 <= INF
    assert INF == INF and INF >= INF and not INF > INF
    assert min(INF, 7) == 7 and min(7, INF) == 7
    assert max(INF, 7) == INF
    assert repr(INF) == "inf"


def test_bound_function_validation():
    BoundFunction((INF, 3), 0, Mode.UNIQUE)
    with pytest.raises(ValueError):
        BoundFunction((3, INF), 0, Mode.UNIQUE)  # target bound must be infinite
    with pytest.raises(ValueError):
        BoundFunction((INF, INF), 0, Mode.UNIQUE)
    with pytest.raises(ValueError):
        BoundFunction((INF, 3), 2, Mode.UNIQUE)
    with pytest.raises(ValueError):
        BoundFunction((INF, 3), 0, "unique")


# ---------------------------------------------------------- bound computation


def test_bound_two_candidates_lowered_once():
    # Edge a -> c of weight 1 against coalition weight 2: the coalition can
    # hold a down to strength 1, one application.
    graph = build_majority_graph(WeightedProfile(AC, (ballot([0, 1], 1),)))
    bounds, applications = compute_bound_function(graph, 1, 2, Mode.UNIQUE)
    assert bounds.values == (1, INF)
    assert applications == 1


def test_bound_sweep_runs_the_kernel_once(monkeypatch):
    # One sweep lowers a, a second changes nothing: two kernel runs in all.
    calls = []

    def counting_widest_from(*args):
        calls.append(args)
        return engine.widest_from(*args)

    monkeypatch.setattr(solver, "widest_from", counting_widest_from)
    graph = build_majority_graph(WeightedProfile(AC, (ballot([0, 1], 1),)))
    bounds, applications = compute_bound_function(graph, 1, 2, Mode.UNIQUE)
    assert (bounds.values, applications) == ((1, INF), 1)
    assert len(calls) == 2


def test_bound_two_candidates_negative_value():
    graph = build_majority_graph(WeightedProfile(AC, (ballot([0, 1], 3),)))
    bounds, applications = compute_bound_function(graph, 1, 1, Mode.UNIQUE)
    assert bounds.values == (-2, INF)
    assert applications == 1


def test_bound_transfer_rule_chain():
    # w(c,x)=10, w(c,y)=-10, w(y,x)=10, coalition weight 1: the path rule
    # drags y down to -9, then the transfer rule drags x down after it.
    graph = MajorityGraph(CXY, ((0, 10, -10), (-10, 0, -10), (10, 10, 0)))
    bounds, applications = compute_bound_function(graph, 0, 1, Mode.UNIQUE)
    assert bounds.values == (INF, -9, -9)
    assert applications == 2


def test_bound_fixed_point_without_any_application():
    graph = build_majority_graph(
        WeightedProfile(CXY, (ballot([0, 1, 2], 1),))
    )
    bounds, applications = compute_bound_function(graph, 0, 2, Mode.UNIQUE)
    assert bounds.values == (INF, 3, 3)
    assert applications == 0


@pytest.mark.parametrize("coalition_weight", [0, 5])
@pytest.mark.parametrize("mode", list(Mode))
def test_bound_single_candidate(mode, coalition_weight):
    graph = MajorityGraph(CandidateSet(("c",)), ((0,),))
    bounds, applications = compute_bound_function(graph, 0, coalition_weight, mode)
    assert bounds.values == (INF,) and applications == 0
    assert bounds.mode is mode


def test_bound_rejects_bad_arguments():
    graph = MajorityGraph(AC, ((0, 1), (-1, 0)))
    with pytest.raises(ValueError):
        compute_bound_function(graph, 5, 1, Mode.UNIQUE)
    with pytest.raises(ValueError):
        compute_bound_function(graph, 0, -1, Mode.UNIQUE)
    with pytest.raises(ValueError):
        compute_bound_function(graph, 1, 1, "unique")


# -------------------------------------------------------------------- decide


def test_decide_two_candidate_yes():
    graph = build_majority_graph(WeightedProfile(AC, (ballot([0, 1], 1),)))
    bounds, _ = compute_bound_function(graph, 1, 2, Mode.UNIQUE)
    assert decide_manipulable(graph, bounds, 2)


def test_decide_two_candidate_no():
    graph = build_majority_graph(WeightedProfile(AC, (ballot([0, 1], 3),)))
    bounds, _ = compute_bound_function(graph, 1, 1, Mode.UNIQUE)
    assert not decide_manipulable(graph, bounds, 1)


@pytest.mark.parametrize("mode", list(Mode))
def test_decide_single_candidate(mode):
    graph = MajorityGraph(CandidateSet(("c",)), ((0,),))
    assert decide_manipulable(graph, BoundFunction((INF,), 0, mode), 1)


def test_decide_mode_split_on_exact_tie():
    # Margin 1 against coalition weight 1 ends tied: enough for co-winner,
    # not for unique winner.
    graph = build_majority_graph(WeightedProfile(AC, (ballot([0, 1], 1),)))
    unique_bounds, _ = compute_bound_function(graph, 1, 1, Mode.UNIQUE)
    co_bounds, _ = compute_bound_function(graph, 1, 1, Mode.COWINNER)
    assert unique_bounds.values == (0, INF)
    assert not decide_manipulable(graph, unique_bounds, 1)
    assert decide_manipulable(graph, co_bounds, 1)


@pytest.mark.parametrize("values", [(INF, 3), (INF, 3, 3, 3)])
def test_decide_rejects_bounds_of_another_size(values):
    graph = build_majority_graph(WeightedProfile(CXY, ()))
    with pytest.raises(ValueError, match="graph spans 3 candidates, bounds"):
        decide_manipulable(graph, BoundFunction(values, 0, Mode.UNIQUE), 1)


# ---------------------------------------------------------- admissible graph


def test_admissible_graph_two_candidates():
    graph = build_majority_graph(WeightedProfile(AC, (ballot([0, 1], 1),)))
    bounds, _ = compute_bound_function(graph, 1, 2, Mode.UNIQUE)
    assert build_admissible_graph(graph, bounds, 2) == ((), (0,))


def test_admissible_graph_triangle():
    graph = build_majority_graph(
        WeightedProfile(CXY, (ballot([0, 1, 2], 1),))
    )
    bounds, _ = compute_bound_function(graph, 0, 2, Mode.UNIQUE)
    assert build_admissible_graph(graph, bounds, 2) == ((1, 2), (2,), ())


def test_admissible_graph_single_candidate():
    graph = MajorityGraph(CandidateSet(("c",)), ((0,),))
    bounds = BoundFunction((INF,), 0, Mode.UNIQUE)
    assert build_admissible_graph(graph, bounds, 1) == ((),)


@pytest.mark.parametrize("values", [(INF, 3), (INF, 3, 3, 3)])
def test_admissible_graph_rejects_bounds_of_another_size(values):
    graph = build_majority_graph(WeightedProfile(CXY, ()))
    with pytest.raises(ValueError, match="graph spans 3 candidates, bounds"):
        build_admissible_graph(graph, BoundFunction(values, 0, Mode.UNIQUE), 1)


def test_target_never_has_incoming_admissible_edges():
    rng = random.Random(4242)
    for _ in range(50):
        instance = random_instance(rng)
        graph = build_majority_graph(instance.profile)
        bounds, _ = compute_bound_function(
            graph, instance.target, instance.coalition_weight, instance.mode
        )
        admissible = build_admissible_graph(
            graph, bounds, instance.coalition_weight
        )
        for row in admissible:
            assert instance.target not in row


# ------------------------------------------------------------- arborescence


def test_arborescence_star():
    tree = spanning_arborescence(((1, 2, 3), (), (), ()), 0)
    assert tree == (None, 0, 0, 0)


def test_arborescence_prefers_first_discovery():
    # Both (c,y) and (x,y) exist; breadth-first from c reaches y directly
    # before the x edge is ever considered.
    tree = spanning_arborescence(((1, 2), (2,), ()), 0)
    assert tree == (None, 0, 0)


def test_arborescence_chain():
    tree = spanning_arborescence(((1,), (2,), ()), 0)
    assert tree == (None, 0, 1)


def test_arborescence_unreachable_is_an_internal_error():
    with pytest.raises(InternalInvariantError):
        spanning_arborescence(((1,), (), ()), 0)


@pytest.mark.parametrize("root", [3, 5, -1])
def test_arborescence_rejects_root_out_of_range(root):
    with pytest.raises(ValueError, match="root index"):
        spanning_arborescence(((1,), (2,), ()), root)


# ---------------------------------------------------------- vote construction


@pytest.mark.parametrize(
    "parents, message",
    [
        ((1, None), "rooted at"),
        ((1, 0), "rooted at"),
        ((None, None), "does not span"),
        ((None, 5), "out of range"),
        ((None, -1), "out of range"),
        ((None, 0.0), "must be an int"),
    ],
    ids=[
        "target-has-parent",
        "no-root",
        "missing-parent",
        "parent-too-large",
        "negative-parent",
        "float-parent",
    ],
)
def test_vote_rejects_malformed_tree(parents, message):
    bounds = BoundFunction((INF, 1), 0, Mode.UNIQUE)
    with pytest.raises(ValueError, match=message):
        construct_manipulator_vote(parents, bounds)


def test_vote_orders_equal_bounds_by_index():
    tree = (None, 0, 0)
    bounds = BoundFunction((INF, 3, 3), 0, Mode.UNIQUE)
    vote = construct_manipulator_vote(tree, bounds)
    assert vote.ranks == (3, 2, 1)


def test_vote_respects_tree_edge_inside_equal_group():
    tree = (None, 2, 0)  # c -> y -> x with equal bounds
    bounds = BoundFunction((INF, 5, 5), 0, Mode.UNIQUE)
    vote = construct_manipulator_vote(tree, bounds)
    assert vote.order() == (0, 2, 1)


def test_vote_follows_descending_bounds():
    tree = (None, 0, 1)
    bounds = BoundFunction((INF, 7, 4), 0, Mode.UNIQUE)
    vote = construct_manipulator_vote(tree, bounds)
    assert vote.order() == (0, 1, 2)
    assert vote.ranks[0] == 3  # target on top


def test_vote_rejects_ascending_tree_edge():
    tree = (None, 2, 0)
    bounds = BoundFunction((INF, 9, 4), 0, Mode.UNIQUE)  # parent below child
    with pytest.raises(ValueError, match="ascends"):
        construct_manipulator_vote(tree, bounds)


@pytest.mark.parametrize("parents", [(None, 0), (None, 0, 0, 0)])
def test_vote_rejects_tree_of_another_size(parents):
    bounds = BoundFunction((INF, 1, 1), 0, Mode.UNIQUE)
    with pytest.raises(ValueError):
        construct_manipulator_vote(parents, bounds)


@pytest.mark.parametrize("tree", [(1, None, 1), (2, 2, None)])
def test_vote_rejects_tree_rooted_off_the_target(tree):
    bounds = BoundFunction((INF, 3, 3), 0, Mode.UNIQUE)
    with pytest.raises(ValueError, match="rooted at"):
        construct_manipulator_vote(tree, bounds)


@pytest.mark.parametrize("mode", [Mode.UNIQUE, Mode.COWINNER])
def test_vote_is_written_as_ranks(monkeypatch, mode):
    # The heap pass pops each candidate once; it must not hand the order to
    # Ranking.from_order to be proved again.
    profile = WeightedProfile(CXY, (ballot([0, 1, 2], 1),))
    instance = ManipulationInstance(profile, (2,), 0, mode)
    expected = solve_wcm(instance)

    def refuse(order):
        raise AssertionError("Ranking.from_order called")

    monkeypatch.setattr(Ranking, "from_order", refuse)
    outcome = solve_wcm(instance)
    assert outcome.decision and outcome.vote is not None
    assert outcome == expected


def test_vote_rejects_cycle_detached_from_root():
    tree = (None, 2, 1)  # x and y parent each other
    bounds = BoundFunction((INF, 5, 5), 0, Mode.UNIQUE)
    with pytest.raises(ValueError, match="does not span"):
        construct_manipulator_vote(tree, bounds)


# ----------------------------------------------------------------- solve_wcm


def test_solve_triangle_yes_with_vote():
    profile = WeightedProfile(CXY, (ballot([0, 1, 2], 1),))
    outcome = solve_wcm(ManipulationInstance(profile, (2,), 0))
    assert outcome.decision
    assert format_vote(outcome.vote, CXY) == "c > x > y"
    assert outcome.bounds.values == (INF, 3, 3)


def test_solve_two_candidate_no():
    outcome = solve_wcm(two_candidate_instance(3, 1))
    assert not outcome.decision and outcome.vote is None
    assert outcome.bounds.values == (-2, INF)


def test_solve_empty_profile_single_manipulator():
    profile = WeightedProfile(AC, ())
    outcome = solve_wcm(ManipulationInstance(profile, (1,), 1))
    assert outcome.decision
    assert format_vote(outcome.vote, AC) == "c > a"


def test_solve_single_candidate():
    profile = WeightedProfile(CandidateSet(("c",)), ())
    outcome = solve_wcm(ManipulationInstance(profile, (), 0))
    assert outcome.decision and outcome.vote == Ranking((1,))
    outcome = solve_wcm(ManipulationInstance(profile, (3,), 0))
    assert outcome.decision and outcome.vote == Ranking((1,))


def test_solve_without_manipulators_reports_current_status():
    abc = CandidateSet(("a", "b", "c"))
    profile = WeightedProfile(abc, (ballot([0, 1, 2], 1),))
    already = solve_wcm(ManipulationInstance(profile, (), 0))
    assert already.decision and already.vote is None
    blocked = solve_wcm(ManipulationInstance(profile, (), 2))
    assert not blocked.decision and blocked.vote is None
    # On an empty profile everyone ties: co-winner holds, unique does not.
    tied = WeightedProfile(abc, ())
    co = solve_wcm(ManipulationInstance(tied, (), 1, Mode.COWINNER))
    un = solve_wcm(ManipulationInstance(tied, (), 1, Mode.UNIQUE))
    assert co.decision and not un.decision


def test_solve_builds_the_majority_graph_once(monkeypatch):
    calls = []

    def counting_build(profile):
        calls.append(profile)
        return build_majority_graph(profile)

    monkeypatch.setattr(solver, "build_majority_graph", counting_build)
    profile = WeightedProfile(CXY, (ballot([0, 1, 2], 1),))
    outcome = solve_wcm(ManipulationInstance(profile, (2,), 0))
    assert outcome.decision and outcome.vote is not None
    assert len(calls) == 1
    calls.clear()
    outcome = solve_wcm(ManipulationInstance(profile, (), 0))
    assert outcome.decision and outcome.vote is None
    assert len(calls) == 1


@pytest.mark.parametrize(
    "mode, attr, failing",
    [
        (Mode.UNIQUE, "is_unique_winner", lambda graph, target: False),
        (Mode.COWINNER, "is_schulze_winner", lambda graph, target: False),
    ],
    ids=["unique", "cowinner"],
)
def test_self_check_guards_every_yes_answer(monkeypatch, mode, attr, failing):
    profile = WeightedProfile(CXY, (ballot([0, 1, 2], 1),))
    instance = ManipulationInstance(profile, (2,), 0, mode)
    assert solve_wcm(instance).decision
    monkeypatch.setattr(solver, attr, failing)
    with pytest.raises(InternalInvariantError):
        solve_wcm(instance)


def test_status_checks_never_compute_all_pairs(monkeypatch):
    def all_pairs(weights):
        raise AssertionError("all-pairs strengths computed")

    monkeypatch.setattr(engine, "widest_path_strengths", all_pairs)
    profile = WeightedProfile(CXY, (ballot([1, 2, 0], 2),))
    for mode in Mode:
        outcome = solve_wcm(ManipulationInstance(profile, (3,), 0, mode))
        assert outcome.decision and outcome.vote is not None
        current = solve_wcm(ManipulationInstance(profile, (), 1, mode))
        assert current.decision and current.vote is None
    instance = ManipulationInstance(profile, (3,), 0)
    assert verify_manipulation(instance, Ranking.from_order([0, 2, 1]))
    assert not verify_manipulation(instance, Ranking.from_order([1, 2, 0]))


def test_verify_manipulation_examples():
    instance = two_candidate_instance(1, 2)
    assert verify_manipulation(instance, Ranking.from_order([1, 0]))
    assert not verify_manipulation(instance, Ranking.from_order([0, 1]))
    lost = two_candidate_instance(3, 1)
    assert not verify_manipulation(lost, Ranking.from_order([1, 0]))
    single = ManipulationInstance(
        WeightedProfile(CandidateSet(("c",)), ()), (1,), 0
    )
    assert verify_manipulation(single, Ranking((1,)))
    with pytest.raises(ValueError):
        verify_manipulation(instance, Ranking((1, 2, 3)))


# ------------------------------------------------------ randomized properties


def solved_records(count, seed):
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        base = random_instance(rng)
        for mode in (Mode.UNIQUE, Mode.COWINNER):
            instance = dataclasses.replace(base, mode=mode)
            records.append((instance, solve_wcm(instance)))
    return records


RECORDS = solved_records(120, seed=0xBEEF)


def test_fixed_point_audit_on_random_instances():
    for instance, outcome in RECORDS:
        graph = build_majority_graph(instance.profile)
        bounds = list(outcome.bounds.values)
        verdict = applicable_rule(
            graph.weights,
            bounds,
            instance.target,
            instance.coalition_weight,
            instance.mode,
        )
        assert verdict is None, verdict


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("m", [30, 45, 60])
def test_fixed_point_audit_at_many_candidates(m, mode):
    rng = random.Random(m)
    for _ in range(4):
        profile = random_profile(rng, m, ballots=(1, 12))
        weights = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        instance = ManipulationInstance(profile, weights, rng.randrange(m), mode)
        outcome = solve_wcm(instance)
        verdict = applicable_rule(
            build_majority_graph(profile).weights,
            list(outcome.bounds.values),
            instance.target,
            instance.coalition_weight,
            mode,
            strengths_of=floyd_warshall_strengths,
        )
        assert verdict is None, verdict


def test_rule_application_counter_within_budget():
    for instance, outcome in RECORDS:
        m = len(instance.profile.candidates)
        assert 0 <= outcome.rule_applications <= m * (m * (m - 1) + 1)


def test_bound_values_come_from_the_value_set():
    for instance, outcome in RECORDS:
        graph = build_majority_graph(instance.profile)
        allowed = bound_value_set(graph.weights, instance.coalition_weight)
        for x, value in finite_bounds(outcome.bounds).items():
            assert value in allowed


def test_every_candidate_reachable_in_admissible_graph():
    for instance, outcome in RECORDS:
        graph = build_majority_graph(instance.profile)
        admissible = build_admissible_graph(
            graph, outcome.bounds, instance.coalition_weight
        )
        m = len(instance.profile.candidates)
        assert reachable(admissible, instance.target) == set(range(m))


def test_witnesses_are_sound_and_certified():
    checked = 0
    for instance, outcome in RECORDS:
        if not outcome.decision:
            continue
        checked += 1
        assert outcome.vote is not None
        assert verify_manipulation(instance, outcome.vote)
        graph = build_majority_graph(instance.profile)
        overlaid = overlay_identical_manipulators(
            graph, outcome.vote, instance.coalition_weight
        )
        strength = widest_path_strengths(overlaid.weights)
        target = instance.target
        for x, value in finite_bounds(outcome.bounds).items():
            assert strength[target][x] >= value
            if instance.mode is Mode.UNIQUE:
                assert value > strength[x][target]
    assert checked > 0


def test_decisions_match_brute_force():
    for instance, outcome in RECORDS:
        expected, witness = brute_force_wcm(instance)
        assert outcome.decision == expected
        if expected:
            assert witness is not None


def test_unique_success_implies_cowinner_success():
    by_key = {}
    for instance, outcome in RECORDS:
        key = (
            instance.profile,
            instance.manipulator_weights,
            instance.target,
        )
        by_key.setdefault(key, {})[instance.mode] = outcome.decision
    assert by_key
    for decisions in by_key.values():
        if decisions[Mode.UNIQUE]:
            assert decisions[Mode.COWINNER]


def test_solver_is_deterministic():
    rng = random.Random(31337)
    for _ in range(40):
        instance = random_instance(rng)
        again = dataclasses.replace(instance)
        assert solve_wcm(instance) == solve_wcm(again)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hypothesis_instances_agree_with_oracle(data):
    m = data.draw(st.integers(1, 4))
    labels = tuple("abcd"[:m])
    count = data.draw(st.integers(0, 3))
    ballots = tuple(
        WeightedBallot(
            Ranking(tuple(data.draw(st.permutations(tuple(range(1, m + 1)))))),
            data.draw(st.integers(1, 3)),
        )
        for _ in range(count)
    )
    profile = WeightedProfile(CandidateSet(labels), ballots)
    weights = tuple(
        data.draw(st.integers(1, 3)) for _ in range(data.draw(st.integers(0, 2)))
    )
    target = data.draw(st.integers(0, m - 1))
    mode = data.draw(st.sampled_from((Mode.UNIQUE, Mode.COWINNER)))
    instance = ManipulationInstance(profile, weights, target, mode)
    outcome = solve_wcm(instance)
    expected, _ = brute_force_wcm(instance)
    assert outcome.decision == expected


def regime_instances(regime, count, seed):
    """Instances at m = 2-4 in one hard regime, each posed in both modes.

    "even-ties": even weights, each ranking often joined by its reverse, so
    many margins are zero; "heavy-coalition": the coalition outweighs every
    honest voter together; "near-cap": every weight within 2 of 2**60.
    """
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 4)
        target = rng.randrange(m)
        coalition = rng.randint(1, 2)
        ballots = []
        for _ in range(rng.randint(0, 3)):
            ranks = tuple(rng.sample(range(1, m + 1), m))
            if regime == "near-cap":
                ballots.append(WeightedBallot(Ranking(ranks), 2**60 + rng.randint(-2, 2)))
                continue
            weight = 2 * rng.randint(1, 2) if regime == "even-ties" else rng.randint(1, 3)
            ballots.append(WeightedBallot(Ranking(ranks), weight))
            if regime == "even-ties" and rng.random() < 0.5:
                reverse = tuple(m + 1 - rank for rank in ranks)
                ballots.append(WeightedBallot(Ranking(reverse), weight))
        if regime == "even-ties":
            weights = tuple(2 * rng.randint(1, 2) for _ in range(coalition))
        elif regime == "heavy-coalition":
            honest = sum(b.weight for b in ballots)
            weights = tuple(
                rng.randint(honest // coalition + 1, honest + 3) for _ in range(coalition)
            )
        else:
            weights = tuple(2**60 + rng.randint(-2, 2) for _ in range(coalition))
        profile = WeightedProfile(CandidateSet(tuple("abcd"[:m])), tuple(ballots))
        for mode in Mode:
            yield ManipulationInstance(profile, weights, target, mode)


# The coalition that outweighs everyone ranks the target first and beats
# every rival head to head, so that regime only has yes answers.
@pytest.mark.parametrize(
    "regime, answers",
    [
        ("even-ties", {False, True}),
        ("heavy-coalition", {True}),
        ("near-cap", {False, True}),
    ],
    ids=["even-ties", "heavy-coalition", "near-cap"],
)
def test_hard_regimes_agree_with_oracle(regime, answers):
    decisions = set()
    for instance in regime_instances(regime, 100, seed=5):
        outcome = solve_wcm(instance)
        assert outcome.decision == brute_force_wcm(instance)[0]
        if outcome.decision:
            assert verify_manipulation(instance, outcome.vote)
        decisions.add(outcome.decision)
    assert decisions == answers


def test_identical_ballot_oracle_agrees_at_five_and_six_candidates():
    # Past m = 4 only the identical-ballot search stays small (m! <= 720),
    # and one ballot for the whole coalition is what the solver builds.
    rng = random.Random(56)
    answers = set()
    for _ in range(30):
        m = rng.randint(5, 6)
        profile = random_profile(rng, m, ballots=(2, 6))
        weights = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        target = rng.randrange(m)
        for mode in Mode:
            instance = ManipulationInstance(profile, weights, target, mode)
            expected, _ = brute_force_wcm(instance, identical_only=True)
            assert solve_wcm(instance).decision == expected
            answers.add(expected)
    assert answers == {False, True}


# ------------------------------------------------------ metamorphic properties


def metamorphic_instances(count, seed):
    """Instances at m = 2-9 with 0-6 ballots, each posed in both modes."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 9)
        profile = random_profile(rng, m, ballots=(0, 6))
        weights = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        target = rng.randrange(m)
        for mode in Mode:
            yield rng, ManipulationInstance(profile, weights, target, mode)


@pytest.mark.parametrize("k", [2, 7])
def test_scaling_every_weight_scales_only_the_bounds(k):
    for _, instance in metamorphic_instances(150, seed=k):
        profile = instance.profile
        scaled = ManipulationInstance(
            WeightedProfile(
                profile.candidates,
                tuple(WeightedBallot(b.ranking, k * b.weight) for b in profile.ballots),
            ),
            tuple(k * weight for weight in instance.manipulator_weights),
            instance.target,
            instance.mode,
        )
        want, got = solve_wcm(instance), solve_wcm(scaled)
        assert got.decision == want.decision
        assert got.vote == want.vote
        assert got.rule_applications == want.rule_applications
        assert got.bounds.values == tuple(
            value if value == INF else k * value for value in want.bounds.values
        )


def test_adding_a_ballot_and_its_reverse_leaves_the_outcome():
    for rng, instance in metamorphic_instances(150, seed=11):
        profile = instance.profile
        m = len(profile.candidates)
        ranks = list(range(1, m + 1))
        rng.shuffle(ranks)
        vote = Ranking(tuple(ranks))
        reverse = Ranking(tuple(m + 1 - rank for rank in ranks))
        weight = rng.randint(1, 5)
        padded = dataclasses.replace(
            instance,
            profile=WeightedProfile(
                profile.candidates,
                profile.ballots
                + (WeightedBallot(vote, weight), WeightedBallot(reverse, weight)),
            ),
        )
        assert solve_wcm(padded) == solve_wcm(instance)


def test_relabelling_permutes_the_bounds_and_keeps_the_decision():
    for rng, instance in metamorphic_instances(150, seed=12):
        profile = instance.profile
        m = len(profile.candidates)
        # Candidate x of the instance is candidate new[x] of the relabelled one.
        new = list(range(m))
        rng.shuffle(new)

        def relabel(ranking):
            ranks = [0] * m
            for x, rank in enumerate(ranking.ranks):
                ranks[new[x]] = rank
            return Ranking(tuple(ranks))

        relabelled = ManipulationInstance(
            WeightedProfile(
                profile.candidates,
                tuple(
                    WeightedBallot(relabel(b.ranking), b.weight) for b in profile.ballots
                ),
            ),
            instance.manipulator_weights,
            new[instance.target],
            instance.mode,
        )
        want, got = solve_wcm(instance), solve_wcm(relabelled)
        # rule_applications may differ: the transfer scan visits rival pairs
        # in index order, so relabelling can change how many descents it takes.
        assert got.decision == want.decision
        for x in range(m):
            assert got.bounds.values[new[x]] == want.bounds.values[x]
        if got.decision:
            assert verify_manipulation(relabelled, got.vote)


def test_decision_never_falls_as_the_coalition_grows():
    # A heavier coalition raises every finite start value and the path rule's
    # offset, and makes the transfer test harder to meet, so no bound falls
    # and the decision can only move from NO to YES.
    rng = random.Random(11)
    flips_to_yes = 0
    for _ in range(330):
        m = rng.randint(2, 4)
        profile = random_profile(rng, m, ballots=(0, 5))
        target = rng.randrange(m)
        for mode in Mode:
            previous = False
            for weight in range(1, 12):
                instance = ManipulationInstance(profile, (weight,), target, mode)
                decision = solve_wcm(instance).decision
                assert decision == brute_force_wcm(instance)[0]
                assert decision or not previous, (instance, weight)
                flips_to_yes += decision and not previous
                previous = decision
    assert flips_to_yes > 0
