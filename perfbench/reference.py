"""Independent checks for the benchmark's outputs.

Nothing here imports schulze_wcm: the election files are read with a small
reader of their own, the majority margins are summed from the ballots, and
path strengths come from a separate widest-path loop, so a wrong answer from
the library cannot also pass its own check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Election:
    """One election file: labels, (weight, order) ballots, coalition, target."""

    labels: tuple[str, ...]
    ballots: tuple[tuple[int, tuple[int, ...]], ...]
    coalition_weight: int
    target: int


def read_election(path: str | Path) -> Election:
    """Read a generated election file (the grammar of schulze_wcm.ballots)."""
    labels: tuple[str, ...] = ()
    index: dict[str, int] = {}
    ballots = []
    coalition_weight = 0
    target = -1
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("candidates:"):
            labels = tuple(line[len("candidates:") :].split())
            index = {label: i for i, label in enumerate(labels)}
        elif line.startswith("ballot"):
            head, body = line[len("ballot") :].split(":", 1)
            order = tuple(index[part.strip()] for part in body.split(">"))
            ballots.append((int(head), order))
        elif line.startswith("manipulators:"):
            coalition_weight = sum(int(t) for t in line[len("manipulators:") :].split())
        elif line.startswith("target:"):
            target = index[line[len("target:") :].strip()]
    return Election(labels, tuple(ballots), coalition_weight, target)


def cast(rows: list[list[int]], order: tuple[int, ...], weight: int) -> None:
    """Add one ballot (most preferred first) to the pairwise margins."""
    for i, x in enumerate(order):
        row_x = rows[x]
        for y in order[i + 1 :]:
            row_x[y] += weight
            rows[y][x] -= weight


def margins(election: Election) -> list[list[int]]:
    m = len(election.labels)
    rows = [[0] * m for _ in range(m)]
    for weight, order in election.ballots:
        cast(rows, order, weight)
    return rows


def widest_paths(rows: list[list[int]] | tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """All-pairs max-min path strengths; diagonal entries are not meaningful."""
    m = len(rows)
    s = [list(row) for row in rows]
    for k in range(m):
        row_k = s[k]
        for i in range(m):
            if i == k:
                continue
            cap = s[i][k]
            s[i] = [
                (a if a >= b else b) if b <= cap else (a if a >= cap else cap)
                for a, b in zip(s[i], row_k)
            ]
    return s


def winners(rows: list[list[int]] | tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    s = widest_paths(rows)
    m = len(rows)
    return tuple(
        x for x in range(m) if all(s[x][y] >= s[y][x] for y in range(m) if y != x)
    )


def reaches_goal(rows: list[list[int]], target: int, unique: bool) -> bool:
    s = widest_paths(rows)
    others = [y for y in range(len(rows)) if y != target]
    if unique:
        return all(s[target][y] > s[y][target] for y in others)
    return all(s[target][y] >= s[y][target] for y in others)


def check_manipulate(election: Election, mode: str, rc: int, text: str) -> str | None:
    """Return why a `manipulate --json` result is wrong, or None when it holds.

    Every YES ballot is re-checked: the whole coalition casts it on top of
    the honest ballots, and the target must then reach the mode's goal.
    """
    if rc not in (0, 3):
        return f"exit code {rc}"
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    labels = election.labels
    if payload.get("mode") != mode:
        return f"mode {payload.get('mode')!r}, asked for {mode!r}"
    if payload.get("manipulable") is not (rc == 0):
        return "answer disagrees with the exit code"
    bounds = payload.get("U")
    if not isinstance(bounds, dict) or list(bounds) != list(labels):
        return "U does not list every candidate in order"
    if bounds[labels[election.target]] != "inf":
        return "the target's bound is not inf"
    vote = payload.get("vote")
    if rc == 3:
        return None if vote is None else "a NO answer carries a ballot"
    if not isinstance(vote, list) or sorted(vote) != sorted(labels):
        return "the ballot does not rank every candidate once"
    position = {label: i for i, label in enumerate(labels)}
    rows = margins(election)
    cast(rows, tuple(position[label] for label in vote), election.coalition_weight)
    if not reaches_goal(rows, election.target, unique=mode == "unique"):
        return "the coalition ballot does not reach the goal"
    return None


def check_winners(rows: tuple[tuple[int, ...], ...], text: str) -> str | None:
    """Return why a winner set (space-separated indices) is wrong, or None."""
    expected = " ".join(map(str, winners(rows)))
    return None if text == expected else f"winners {text!r}, expected {expected!r}"
