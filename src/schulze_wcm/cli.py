"""Command-line front end.

Subcommands: winners, manipulate, verify, oracle-check. Exit codes: 0 for
success (and yes decisions), 3 for a no decision or failed verification,
2 for unreadable or invalid input, 4 for a solver/oracle mismatch, 1 for an
internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

from .ballots import ParseError, format_vote, parse_election_file, parse_vote
from .engine import _winners_from, schulze_winners, widest_path_strengths
from .model import (
    ManipulationInstance,
    Mode,
    WeightedProfile,
    _proven,
    build_majority_graph,
)
from .oracle import brute_force_wcm
from .solver import INF, BoundFunction, solve_wcm, verify_manipulation

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_MISMATCH = 4


def _load(path: str) -> ManipulationInstance | WeightedProfile:
    text = Path(path).read_text(encoding="utf-8")
    return parse_election_file(text)


def _load_instance(path: str, mode: str) -> ManipulationInstance:
    parsed = _load(path)
    if not isinstance(parsed, ManipulationInstance):
        raise ValueError(f"{path} carries no manipulators/target lines")
    # The parser proved every other field, and Mode() checks the mode.
    return _proven(
        ManipulationInstance,
        parsed.profile,
        parsed.manipulator_weights,
        parsed.target,
        Mode(mode),
    )


def _bound_json(value: int | float) -> int | str:
    return "inf" if value == INF else int(value)


def _bound_line(bounds: BoundFunction, labels: tuple[str, ...]) -> str:
    return "U: " + " ".join(
        f"{label}={bounds.values[i]}" for i, label in enumerate(labels)
    )


def _cmd_winners(args: argparse.Namespace) -> int:
    parsed = _load(args.file)
    profile = parsed.profile if isinstance(parsed, ManipulationInstance) else parsed
    graph = build_majority_graph(profile)
    labels = profile.candidates.labels
    if args.strengths:
        strength = widest_path_strengths(graph.weights)
        winners = _winners_from(strength)
    else:
        winners = schulze_winners(graph)
    print("winners: " + " ".join(labels[i] for i in winners))
    if args.strengths:
        print("strengths:")
        for x, label in enumerate(labels):
            cells = " ".join(
                "." if y == x else str(strength[x][y]) for y in range(len(labels))
            )
            print(f"{label}: {cells}")
    return EXIT_OK


def _cmd_manipulate(args: argparse.Namespace) -> int:
    instance = _load_instance(args.file, args.mode)
    outcome = solve_wcm(instance)
    labels = instance.profile.candidates.labels
    if args.json:
        payload = {
            "mode": outcome.bounds.mode.value,
            "manipulable": outcome.decision,
            "vote": (
                None
                if outcome.vote is None
                else [labels[i] for i in outcome.vote.order()]
            ),
            "U": {
                label: _bound_json(outcome.bounds.values[i])
                for i, label in enumerate(labels)
            },
            "ruleApplications": outcome.rule_applications,
        }
        print(json.dumps(payload, indent=2))
    else:
        print("MANIPULABLE" if outcome.decision else "NOT MANIPULABLE")
        if outcome.vote is not None:
            print("vote: " + format_vote(outcome.vote, instance.profile.candidates))
        print(_bound_line(outcome.bounds, labels))
    return EXIT_OK if outcome.decision else EXIT_NEGATIVE


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.file, args.mode)
    vote = parse_vote(args.vote, instance.profile.candidates)
    achieved = verify_manipulation(instance, vote)
    print("VOTE SUCCEEDS" if achieved else "VOTE FAILS")
    return EXIT_OK if achieved else EXIT_NEGATIVE


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    instance = _load_instance(args.file, args.mode)
    outcome = solve_wcm(instance)
    oracle_decision, _ = brute_force_wcm(instance, identical_only=args.identical_only)
    print("solver: " + ("MANIPULABLE" if outcome.decision else "NOT MANIPULABLE"))
    print("oracle: " + ("MANIPULABLE" if oracle_decision else "NOT MANIPULABLE"))
    if outcome.decision == oracle_decision:
        print("AGREEMENT")
        return EXIT_OK
    print("MISMATCH")
    return EXIT_MISMATCH


# Built once per process; parse_args keeps no state between calls.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schulze-wcm",
        description="Schulze winners and weighted coalitional manipulation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    instance_file = argparse.ArgumentParser(add_help=False)
    instance_file.add_argument("file", help="election file with manipulators and target")
    instance_file.add_argument(
        "--mode", choices=[m.value for m in Mode], default=Mode.UNIQUE.value
    )

    winners = commands.add_parser("winners", help="print the Schulze winner set")
    winners.add_argument("file", help="election file")
    winners.add_argument(
        "--strengths", action="store_true", help="also print the strength matrix"
    )
    winners.set_defaults(func=_cmd_winners)

    manipulate = commands.add_parser(
        "manipulate", parents=[instance_file], help="solve the manipulation instance"
    )
    manipulate.add_argument("--json", action="store_true", help="machine readable output")
    manipulate.set_defaults(func=_cmd_manipulate)

    verify = commands.add_parser(
        "verify", parents=[instance_file], help="check a proposed coalition ballot"
    )
    verify.add_argument("--vote", required=True, help='ranking such as "c > a > b"')
    verify.set_defaults(func=_cmd_verify)

    oracle_check = commands.add_parser(
        "oracle-check",
        parents=[instance_file],
        help="cross-check the solver against brute force",
    )
    oracle_check.add_argument(
        "--identical-only",
        action="store_true",
        help="restrict the oracle to identical manipulator ballots",
    )
    oracle_check.set_defaults(func=_cmd_oracle_check)
    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, never raises
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
