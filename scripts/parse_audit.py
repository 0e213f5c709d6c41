"""Check the parser's bulk ranking accept against its diagnosing loop.

`parse_election_file` reads a ranking written with the ' > ' separator in
bulk (`ballots._accept`), with one pass over its labels. Any text the bulk
path refuses goes to the diagnosing loop (`ballots._parse_ranking`). This
script writes seeded instances with `serialize_election` at m = 2, 30 and
400 and parses each text twice: as the parser runs, and with `_accept`
stubbed to return None so that every ranking takes the diagnosing loop. The
texts are the file as written and the file with one ballot line perturbed
in each of a fixed list of ways (a repeated, unknown, missing, extra, padded
or malformed label, another separator, a comment, an odd weight). Both
parses must give equal results, or the same ParseError message and line.
The file as written must also parse back to the instance it was written
from, each ranking's ranks a tuple of ints. It needs only the standard
library, so it runs on Python versions that have no pytest.

A difference is printed, and the script exits nonzero.

Usage: python3 scripts/parse_audit.py [--files N] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

# Run against this checkout's sources, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schulze_wcm import ballots  # noqa: E402
from schulze_wcm.ballots import (  # noqa: E402
    ParseError,
    parse_election_file,
    serialize_election,
)
from schulze_wcm.model import ManipulationInstance  # noqa: E402
from schulze_wcm.sampling import random_profile  # noqa: E402

SIZES = (2, 30, 400)


def _at(labels, i, *spelled):
    """The ranking text with the label at position i spelled otherwise."""
    return " > ".join([*labels[:i], *spelled, *labels[i + 1 :]])


def _swapped(labels, i):
    labels = labels[:]
    labels[i - 1], labels[i] = labels[i], labels[i - 1]
    return " > ".join(labels)


# Each maps a line's labels, most preferred first, and a position in them
# to the ranking text.
RANKINGS = {
    "repeat-first": lambda labels, i: " > ".join([labels[-1], *labels[1:]]),
    "repeat-last": lambda labels, i: " > ".join([*labels[:-1], labels[0]]),
    "repeat-anywhere": lambda labels, i: _at(labels, i, labels[i - 1]),
    "unknown": lambda labels, i: _at(labels, i, "zz"),
    "malformed": lambda labels, i: _at(labels, i, "a*b"),
    "empty": lambda labels, i: _at(labels, i, ""),
    "padded": lambda labels, i: _at(labels, i, f" {labels[i]} "),
    "one-short": lambda labels, i: _at(labels, i),
    "one-extra": lambda labels, i: _at(labels, i, labels[i], labels[i - 1]),
    "swapped": _swapped,
    "glued": lambda labels, i: ">".join(labels),
    "tabbed": lambda labels, i: " >\t".join(labels),
    "commented": lambda labels, i: " > ".join(labels) + "  # note",
}
# Each maps a line's weight and ranking text to the whole line.
LINES = {
    "leading-zero": lambda weight, ranking: f"ballot 0{weight}: {ranking}",
    "weight-zero": lambda weight, ranking: f"ballot 0: {ranking}",
    "past-cap": lambda weight, ranking: f"ballot {2**63}: {ranking}",
    "indented": lambda weight, ranking: f"  ballot {weight} : {ranking}",
}


def _outcome(text):
    """The parse result, or the diagnostic's text and line."""
    try:
        return parse_election_file(text)
    except ParseError as error:
        return str(error), error.line


def _by_the_loop(text):
    """_outcome with every ranking sent to the diagnosing loop."""
    accept = ballots._accept
    ballots._accept = lambda *args: None
    try:
        return _outcome(text)
    finally:
        ballots._accept = accept


def _brief(outcome):
    return outcome if isinstance(outcome, tuple) else "an election"


def _ints_only(election):
    return all(
        type(ballot.ranking.ranks) is tuple
        and all(type(rank) is int for rank in ballot.ranking.ranks)
        for ballot in election.profile.ballots
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    texts = 0
    refused = 0
    differences = 0
    start = time.perf_counter()
    for m in SIZES:
        for _ in range(args.files):
            profile = random_profile(rng, m, ballots=(5, 40))
            weights = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            instance = ManipulationInstance(profile, weights, rng.randrange(m))
            lines = serialize_election(instance).splitlines()
            parsed = parse_election_file("\n".join(lines))
            if parsed != instance or not _ints_only(parsed):
                differences += 1
                print(f"m = {m}: the file as written parses to another election")
            # Line 0 lists the candidates, the last two the coalition.
            at = rng.randrange(1, len(lines) - 2)
            weight, ranking = lines[at][len("ballot ") :].split(": ", 1)
            order = ranking.split(" > ")
            variants = {"as-written": lines[at]}
            for name, perturb in RANKINGS.items():
                spelled = perturb(order, rng.randrange(m))
                variants[name] = f"ballot {weight}: {spelled}"
            for name, spell in LINES.items():
                variants[name] = spell(weight, ranking)
            for name, line in variants.items():
                text = "\n".join([*lines[:at], line, *lines[at + 1 :]]) + "\n"
                got, want = _outcome(text), _by_the_loop(text)
                texts += 1
                refused += isinstance(want, tuple)
                if got != want:
                    differences += 1
                    print(
                        f"m = {m}, {name} on line {at + 1}: the parser gives"
                        f" {_brief(got)}, the diagnosing loop {_brief(want)}"
                    )
    elapsed = time.perf_counter() - start

    print(
        f"{texts} texts at m = {', '.join(map(str, SIZES))} parsed twice in"
        f" {elapsed:.2f}s: {texts - refused} parsed, {refused} refused,"
        f" {differences} differences"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
