"""Election file parsing and serialization.

Grammar, one directive per line ('#' starts a comment, blank lines are
skipped):

    candidates: <label> <label> ...
    ballot <weight>: <label> > <label> > ... > <label>
    manipulators: <weight> <weight> ...
    target: <label>

Labels match [A-Za-z0-9_-]+ and weights are decimal integers from 1 to
2**63 - 1 (the signed 64-bit cap). A ballot line ranks every candidate
exactly once, most preferred first. The candidates line is mandatory and
must precede ballot and target lines. A file carrying both a manipulators
and a target line parses to a ManipulationInstance (in UNIQUE mode by
default), a file carrying neither parses to a WeightedProfile, and anything
in between is rejected.

Canonical text, as serialize_election and format_vote write it, skips work
the diagnosing code needs only for other spellings:

* once the candidates line is read, a raw line that opens with
  "ballot <weight>: " and a label character, with a weight of 1 to 19
  digits, no leading zero and no more than the cap, skips the comment
  split, the strip and the directive chain: its text before any '#',
  stripped at the right, is the ranking text the chain would read. Any
  other line, a weight past the cap included, takes the chain.
* a ranking written with the ' > ' separator, from either kind of line, is
  accepted in bulk with one label-map pass that returns the ranks tuple.
  Text that misses, repeats or pads a candidate goes to the diagnosing loop,
  which reports the first fault in order.

Both skips accept only text the diagnosing code accepts, with the same result.
Each ballot line's ranks and weight are then proved, so model._proven_ballot
builds its Ranking and WeightedBallot without the constructors' checks.
"""

from __future__ import annotations

import re

from .model import (
    INT64_MAX,
    CandidateSet,
    ManipulationInstance,
    Mode,
    Ranking,
    WeightedBallot,
    WeightedProfile,
    _proven,
    _proven_ballot,
)

_LABEL = re.compile(r"^[A-Za-z0-9_-]+\Z")
_BALLOT = re.compile(r"^ballot\s+(\S+)\s*:\s*(.*)$")
# The start of a ballot line as serialize_election writes it, for match: a
# weight with no leading zero and a ranking that opens with a label
# character. The ranking group stops at a comment and never backtracks.
_CANONICAL_BALLOT = re.compile(r"ballot ([1-9][0-9]{0,18}): ([A-Za-z0-9_-][^#]*)")


class ParseError(ValueError):
    """Input text rejected; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _parse_weight(token: str, what: str, line: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"{what} weight {token!r} is not a decimal integer", line)
    digits = token.lstrip("0") or "0"
    # Test the length first: int() refuses strings past 4300 digits.
    weight = int(digits) if len(digits) <= 19 else INT64_MAX + 1
    if weight > INT64_MAX:
        raise ParseError(f"{what} weight exceeds the signed 64-bit cap", line)
    if weight < 1:
        raise ParseError(f"{what} weight must be >= 1, got {weight}", line)
    return weight


def _accept(
    text: str, index: dict[str, int], descending: range
) -> tuple[int, ...] | None:
    """The ranks canonical text spells, or None for the diagnosing loop.

    A label in the map holds no whitespace and no '>', so accepted text is
    exactly " > ".join(labels), which the loop accepts with the same ranks;
    a repeat leaves a 0. descending is range(m, 0, -1).
    """
    labels = text.split(" > ")
    if len(labels) != len(descending):
        return None
    ranks = [0] * len(labels)
    try:
        for rank, label in zip(descending, labels):
            ranks[index[label]] = rank
    except KeyError:
        return None
    return tuple(ranks) if all(ranks) else None


def _parse_ranking(
    text: str, index: dict[str, int], m: int, line: int | None = None
) -> Ranking:
    parts = [part.strip() for part in text.split(">")]
    if any(not part for part in parts):
        raise ParseError("empty entry in ranking", line)
    # A rank written is m - position >= 1, so 0 marks an unranked candidate;
    # past m parts, the first repeat is reported before a rank of 0 is written.
    ranks = [0] * m
    for position, label in enumerate(parts):
        candidate = _lookup(label, index, line)
        if ranks[candidate]:
            raise ParseError(f"candidate {label!r} ranked twice", line)
        ranks[candidate] = m - position
    if len(parts) != m:
        raise ParseError(f"ranking covers {len(parts)} of {m} candidates", line)
    return _proven(Ranking, tuple(ranks))


def _lookup(label: str, index: dict[str, int], line: int | None) -> int:
    position = index.get(label)
    if position is None:
        # The map holds only well-formed labels, so a hit needs no regex.
        if not _LABEL.match(label):
            raise ParseError(f"malformed label {label!r}", line)
        raise ParseError(f"unknown candidate label {label!r}", line)
    return position


def parse_election_file(text: str) -> ManipulationInstance | WeightedProfile:
    """Parse election text; all diagnostics carry 1-based line numbers."""
    candidates: CandidateSet | None = None
    index: dict[str, int] = {}
    descending = range(0)
    ballots: list[WeightedBallot] = []
    total = 0
    manipulators: tuple[int, ...] | None = None
    manipulators_line: int | None = None
    target: int | None = None
    target_line: int | None = None

    for number, raw in enumerate(text.splitlines(), start=1):
        # A ballot line that opens canonically, with a weight within the cap,
        # skips the directive chain: its text before any comment, stripped at
        # the right, is the ranking text the chain would read.
        canonical = _CANONICAL_BALLOT.match(raw) if candidates is not None else None
        if canonical is not None and (weight := int(canonical[1])) <= INT64_MAX:
            spelled = canonical[2].rstrip()
        else:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("candidates:"):
                if candidates is not None:
                    raise ParseError("duplicate candidates line", number)
                labels = line[len("candidates:") :].split()
                if not labels:
                    raise ParseError("candidates line lists no labels", number)
                for label in labels:
                    if not _LABEL.match(label):
                        raise ParseError(f"malformed label {label!r}", number)
                for position, label in enumerate(labels):
                    if label in index:
                        raise ParseError(f"duplicate label {label!r}", number)
                    index[label] = position
                candidates = CandidateSet(tuple(labels))
                descending = range(len(labels), 0, -1)
                continue
            if line.startswith("manipulators:"):
                if manipulators is not None:
                    raise ParseError("duplicate manipulators line", number)
                tokens = line[len("manipulators:") :].split()
                if not tokens:
                    raise ParseError("manipulators line lists no weights", number)
                manipulators = tuple(
                    _parse_weight(token, "manipulator", number) for token in tokens
                )
                manipulators_line = number
                continue
            if line.startswith("target:"):
                if target is not None:
                    raise ParseError("duplicate target line", number)
                if candidates is None:
                    raise ParseError("candidates line must precede target", number)
                token = line[len("target:") :].strip()
                if not token or len(token.split()) != 1:
                    raise ParseError(
                        "target line must name exactly one candidate", number
                    )
                target = _lookup(token, index, number)
                target_line = number
                continue
            if not line.startswith("ballot"):
                raise ParseError(f"unrecognized directive {line.split()[0]!r}", number)
            match = _BALLOT.match(line)
            if match is None:
                raise ParseError("malformed ballot line", number)
            if candidates is None:
                raise ParseError("candidates line must precede ballots", number)
            weight = _parse_weight(match.group(1), "ballot", number)
            spelled = match.group(2)
        ranks = _accept(spelled, index, descending)
        if ranks is None:
            ranks = _parse_ranking(spelled, index, len(index), number).ranks
        ballots.append(_proven_ballot(ranks, weight))
        total += weight
        if total > INT64_MAX:
            raise ParseError(
                "total ballot weight exceeds the signed 64-bit cap", number
            )

    if candidates is None:
        raise ParseError("missing candidates line")
    if target is not None and manipulators is None:
        raise ParseError("target given without manipulators", target_line)
    if manipulators is not None and target is None:
        raise ParseError("manipulators given without target", manipulators_line)
    if manipulators is not None and total + sum(manipulators) > INT64_MAX:
        raise ParseError(
            "total election weight exceeds the signed 64-bit cap", manipulators_line
        )

    # The checks above prove what the constructors would check again.
    profile = _proven(WeightedProfile, candidates, tuple(ballots))
    if manipulators is None:
        return profile
    assert target is not None
    return _proven(ManipulationInstance, profile, manipulators, target, Mode.UNIQUE)


def parse_vote(text: str, candidates: CandidateSet) -> Ranking:
    """Parse a standalone ranking such as "c > a > b"."""
    # Well-formed labels only, so `_lookup` reports a malformed one as such.
    index = {
        label: i for i, label in enumerate(candidates.labels) if _LABEL.match(label)
    }
    return _parse_ranking(text, index, len(candidates))


def format_vote(vote: Ranking, candidates: CandidateSet) -> str:
    """Render a ranking as labels joined by ' > ', most preferred first."""
    if len(vote) != len(candidates):
        raise ValueError(
            f"vote ranks {len(vote)} candidates, the set has {len(candidates)}"
        )
    return " > ".join(map(candidates.labels.__getitem__, vote.order()))


def serialize_election(
    election: ManipulationInstance | WeightedProfile,
) -> str:
    """Render an election back into the file grammar.

    The output parses back to an equal object (instances come back in the
    default UNIQUE mode, which the file grammar does not record). A label
    the grammar cannot carry raises ValueError.
    """
    if isinstance(election, ManipulationInstance):
        profile = election.profile
    else:
        profile = election
    candidates = profile.candidates
    for label in candidates.labels:
        if not _LABEL.match(label):
            raise ValueError(f"label {label!r} does not fit the file grammar")
    lines = ["candidates: " + " ".join(candidates.labels)]
    for ballot in profile.ballots:
        lines.append(
            f"ballot {ballot.weight}: " + format_vote(ballot.ranking, candidates)
        )
    if isinstance(election, ManipulationInstance):
        lines.append(
            "manipulators: "
            + " ".join(str(weight) for weight in election.manipulator_weights)
        )
        lines.append("target: " + candidates.labels[election.target])
    return "\n".join(lines) + "\n"
