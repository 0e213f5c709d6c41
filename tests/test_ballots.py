"""Election file grammar: parsing, diagnostics, serialization round trips."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schulze_wcm import (
    INT64_MAX,
    CandidateSet,
    ManipulationInstance,
    Mode,
    ParseError,
    Ranking,
    WeightedProfile,
    format_vote,
    parse_election_file,
    parse_vote,
    serialize_election,
)
from schulze_wcm import ballots
from schulze_wcm.cli import run_cli
from schulze_wcm.sampling import random_instance, random_profile

DATA = Path(__file__).parent / "data"

INSTANCE_TEXT = """\
candidates: a c
ballot 1: a > c
manipulators: 2
target: c
"""


def test_parse_manipulation_instance():
    parsed = parse_election_file(INSTANCE_TEXT)
    assert isinstance(parsed, ManipulationInstance)
    assert parsed.profile.candidates.labels == ("a", "c")
    assert parsed.profile.ballots[0].weight == 1
    assert parsed.profile.ballots[0].ranking == Ranking.from_order([0, 1])
    assert parsed.manipulator_weights == (2,)
    assert parsed.target == 1
    assert parsed.mode is Mode.UNIQUE


def test_parse_profile_only():
    parsed = parse_election_file("candidates: a b c\nballot 2: b > a > c\n")
    assert isinstance(parsed, WeightedProfile)
    assert parsed.ballots[0].ranking.order() == (1, 0, 2)
    assert parsed.ballots[0].weight == 2


def test_parse_comments_and_blank_lines():
    text = """
    # full-line comment
    candidates: a b  # trailing comment

    ballot 3: b > a
    """
    parsed = parse_election_file(text)
    assert isinstance(parsed, WeightedProfile)
    assert parsed.ballots[0].weight == 3


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("candidates: a b\nballot 1: a > z\n", 2, "unknown candidate"),
        ("candidates: a b b\n", 1, "duplicate label"),
        ("candidates: a b\nballot 1: a\n", 2, "covers 1 of 2"),
        ("candidates: a b\nballot 1: a > a\n", 2, "ranked twice"),
        ("candidates: a b\nballot 0: a > b\n", 2, "must be >= 1"),
        ("candidates: a b\nballot x: a > b\n", 2, "not a decimal integer"),
        ("candidates: a b\nmanipulators: 1 0\ntarget: a\n", 2, "must be >= 1"),
        ("candidates: a b\ntarget: a\n", 2, "without manipulators"),
        ("candidates: a b\nmanipulators: 1\n", 2, "without target"),
        ("candidates: a b\ncandidates: a b\n", 2, "duplicate candidates"),
        ("candidates: a b\nmanipulators: 1\nmanipulators: 1\ntarget: a\n", 3, "duplicate manipulators"),
        ("candidates: a b\nwinner: a\n", 2, "unrecognized directive"),
        ("candidates: a b\nmanipulators:\ntarget: a\n", 2, "no weights"),
        ("candidates: a*b c\n", 1, "malformed label"),
        ("ballot 1: a > b\n", 1, "must precede"),
        ("candidates: a b\nballot 1: a >  > b\n", 2, "empty entry"),
        ("candidates: a b\nballot \u00b2: a > b\n", 2, "not a decimal integer"),
        ("candidates: a b\nmanipulators: \u00b9\ntarget: a\n", 2, "not a decimal integer"),
        pytest.param(
            "candidates: a b\nballot " + "9" * 5000 + ": a > b\n", 2, "64-bit cap",
            id="ballot-weight-of-5000-digits",
        ),
        pytest.param(
            "candidates: a b\nmanipulators: " + "1" * 5000 + "\ntarget: a\n", 2, "64-bit cap",
            id="manipulator-weight-of-5000-digits",
        ),
        pytest.param(
            "candidates: a b\nballot 9223372036854775807: a > b\nballot 1: b > a\n"
            "ballot 1: a > b\n",
            3,
            "total ballot weight exceeds the signed 64-bit cap",
            id="ballot-total-over-the-cap",
        ),
        pytest.param(
            "candidates: a b\nmanipulators: 2 3\nballot 9223372036854775803: a > b\n"
            "target: a\n",
            2,
            "total election weight exceeds the signed 64-bit cap",
            id="ballots-plus-coalition-over-the-cap",
        ),
        ("candidates: a b c\nballot 1: a > a > z\n", 2, "ranked twice"),
        ("candidates: a b c\nballot 1: z > a > a\n", 2, "unknown candidate label 'z'"),
        ("candidates: a b c\nballot 1: a > b*c\n", 2, "malformed label 'b*c'"),
        ("candidates: a b c\nballot 1: a >\n", 2, "empty entry"),
        ("candidates: a b\nballot 1: a > b > a\n", 2, "ranked twice"),
        ("candidates: a a b*c\n", 1, "malformed label 'b*c'"),
        ("candidates: a b\nballot: a > b\n", 2, "malformed ballot line"),
        ("candidates: a b\nballots 1: a > b\n", 2, "malformed ballot line"),
        ("candidates: a b\nmanipulators: 1\ntarget: a\ntarget: b\n", 4, "duplicate target line"),
        ("candidates: a b\nmanipulators: 1\ntarget: a b\n", 3, "must name exactly one candidate"),
        ("candidates: a b\nmanipulators: 1\ntarget:\n", 3, "must name exactly one candidate"),
    ],
)
def test_parse_diagnostics_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as info:
        parse_election_file(text)
    assert info.value.line == line
    assert fragment in str(info.value)


def test_parser_writes_ranks_itself(monkeypatch):
    # The parse loop already proves each line a permutation; it must not
    # hand the order to Ranking.from_order to be proved again.
    texts = [path.read_text() for path in sorted(DATA.glob("*.elect"))]
    profile = random_profile(random.Random(7), 30, ballots=(1500, 1500))
    texts.append(serialize_election(profile))
    expected = [parse_election_file(text) for text in texts]

    def refuse(order):
        raise AssertionError("Ranking.from_order called")

    monkeypatch.setattr(Ranking, "from_order", refuse)
    assert [parse_election_file(text) for text in texts] == expected
    assert expected[-1] == profile
    assert parse_vote("c > a > b", CandidateSet(("a", "b", "c"))).ranks == (2, 1, 3)


def test_missing_candidates_line():
    with pytest.raises(ParseError) as info:
        parse_election_file("# nothing here\n")
    assert info.value.line is None
    assert "missing candidates" in str(info.value)


def test_parse_vote_and_format_vote():
    candidates = CandidateSet(("a", "b", "c"))
    vote = parse_vote("c > a > b", candidates)
    assert vote.order() == (2, 0, 1)
    assert format_vote(vote, candidates) == "c > a > b"
    with pytest.raises(ParseError):
        parse_vote("c > a", candidates)
    with pytest.raises(ParseError):
        parse_vote("c > a > a", candidates)


def test_serialize_instance_round_trip_text():
    parsed = parse_election_file(INSTANCE_TEXT)
    assert serialize_election(parsed) == INSTANCE_TEXT
    assert parse_election_file(serialize_election(parsed)) == parsed


@pytest.mark.parametrize(
    "labels, bad",
    [(("a#", "b"), "a#"), (("b", "a b", "c*"), "a b"), (("a\n", "b"), "a\n")],
    ids=["comment-sign", "space", "trailing-newline"],
)
def test_serialize_rejects_labels_the_grammar_cannot_carry(labels, bad):
    profile = WeightedProfile(CandidateSet(labels), ())
    with pytest.raises(ValueError) as info:
        serialize_election(profile)
    assert repr(bad) in str(info.value)


def test_random_round_trips():
    rng = random.Random(515)
    for _ in range(100):
        instance = random_instance(rng)
        assert parse_election_file(serialize_election(instance)) == instance
    for _ in range(50):
        profile = random_profile(rng, rng.randint(1, 5))
        assert parse_election_file(serialize_election(profile)) == profile


@given(st.randoms(use_true_random=False))
def test_round_trip_is_stable_after_one_hop(rng):
    instance = random_instance(rng)
    once = serialize_election(instance)
    assert serialize_election(parse_election_file(once)) == once


# A well-formed file over a, b, c with weights up to the cap, into which up
# to two noise lines are spliced: odd weights, unknown or malformed labels,
# short rankings, repeated directives and free text.
_FUZZ_WEIGHTS = st.one_of(
    st.integers(1, 3), st.integers(INT64_MAX // 2, INT64_MAX)
).map(str)
_FUZZ_LABELS = st.sampled_from(("a", "b", "c", "z", "a*b", ""))
# The canonical separator first; the others always take the diagnosing loop.
_SEPARATORS = (" > ", ">", "  >\t", " >  ")
_FUZZ_NOISE = st.one_of(
    st.tuples(
        st.sampled_from(("0", "x", "\u00b2", "9" * 30, str(INT64_MAX + 1), "2")),
        st.lists(_FUZZ_LABELS, max_size=4),
        st.sampled_from(_SEPARATORS),
    ).map(lambda noise: f"ballot {noise[0]}: " + noise[2].join(noise[1])),
    st.lists(_FUZZ_WEIGHTS, max_size=2).map(lambda ws: "manipulators: " + " ".join(ws)),
    _FUZZ_LABELS.map(lambda label: "target: " + label),
    st.lists(_FUZZ_LABELS, max_size=3).map(lambda ls: "candidates: " + " ".join(ls)),
    st.text(max_size=12),
)


@st.composite
def near_grammar_texts(draw):
    lines = ["candidates: a b c"]
    for _ in range(draw(st.integers(0, 4))):
        order = draw(st.permutations("abc"))
        lines.append(f"ballot {draw(_FUZZ_WEIGHTS)}: " + " > ".join(order))
    if draw(st.booleans()):
        weights = draw(st.lists(_FUZZ_WEIGHTS, min_size=1, max_size=3))
        lines.append("manipulators: " + " ".join(weights))
        lines.append("target: " + draw(st.sampled_from("abc")))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_FUZZ_NOISE))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(near_grammar_texts())
def test_fuzzed_text_parses_or_raises_parse_error(tmp_path_factory, text):
    try:
        parse_election_file(text)
    except ParseError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzz.elect"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["manipulate", str(path)]) != 1


def _outcome(parse, *args):
    """The parse result, or the diagnostic's text and line."""
    try:
        return parse(*args)
    except ParseError as error:
        return str(error), error.line


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.permutations("abcd"),
        st.lists(_FUZZ_LABELS | st.sampled_from("abcd"), max_size=7),
    )
)
def test_canonical_accept_path_matches_the_diagnosing_loop(tokens):
    index = {label: i for i, label in enumerate("abcd")}
    expected = None
    for separator in _SEPARATORS:
        text = separator.join(tokens)
        outcome = (
            _outcome(ballots._parse_ranking, text, index, 4, 2),
            _outcome(parse_election_file, f"candidates: a b c d\nballot 1: {text}\n"),
        )
        if expected is None:
            expected = outcome
        assert outcome == expected, (separator, tokens)


def test_canonical_profile_takes_the_accept_path(monkeypatch):
    profile = random_profile(random.Random(11), 30, ballots=(1500, 1500))
    text = serialize_election(profile)
    expected = parse_election_file(text)

    def refuse(label, index, line):
        raise AssertionError("diagnosing loop ran on canonical text")

    with monkeypatch.context() as patch:
        patch.setattr(ballots, "_lookup", refuse)
        assert parse_election_file(text) == expected
    assert expected == profile
    assert parse_election_file(text.replace(" > ", ">")) == expected
