"""The benchmark's workloads: seeded inputs, one operation, one output check.

Inputs come only from the seed. The program under test sees only what the
set-up hands it: election files on disk for the CLI workloads, majority
graphs for `winners_tied`.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

from schulze_wcm import cli, engine
from schulze_wcm.ballots import serialize_election
from schulze_wcm.model import MajorityGraph, ManipulationInstance
from schulze_wcm.sampling import random_profile, random_skew_graph

import reference

MODES = ("unique", "cowinner")
# Skew magnitude of the `winners_tied` graphs.
SKEW_MAGNITUDE = 3


@dataclass(frozen=True)
class CliShape:
    """Size of each generated manipulation instance and of the pool."""

    m: int
    ballots: int
    manipulators: int
    pool: int
    manipulator_weights: tuple[int, int] = (1, 5)


@dataclass(frozen=True)
class CliItem:
    path: str
    mode: str


class CliWorkload:
    """`run_cli(["manipulate", file, "--json", "--mode", ...])`, stdout to a buffer.

    Instances alternate between unique and cowinner mode.
    """

    root_span = "cli.run_cli"

    def __init__(self, name: str, shape: CliShape):
        self.name = name
        self.shape = shape

    def setup(self, seed: int, workdir: Path) -> list[CliItem]:
        shape = self.shape
        rng = random.Random(f"{self.name}-{seed}")
        items = []
        for i in range(shape.pool):
            profile = random_profile(rng, shape.m, ballots=(shape.ballots, shape.ballots))
            weights = tuple(
                rng.randint(*shape.manipulator_weights)
                for _ in range(shape.manipulators)
            )
            instance = ManipulationInstance(profile, weights, rng.randrange(shape.m))
            path = workdir / f"{self.name}-{i:03d}.elect"
            path.write_text(serialize_election(instance), encoding="utf-8")
            items.append(CliItem(str(path), MODES[i % 2]))
        return items

    def run(self, item: CliItem) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run_cli(["manipulate", item.path, "--json", "--mode", item.mode])
        return rc, out.getvalue()

    def check(self, item: CliItem, rc: int, text: str) -> str | None:
        election = reference.read_election(item.path)
        return reference.check_manipulate(election, item.mode, rc, text)


@dataclass(frozen=True)
class TiedShape:
    m: int
    pool: int


class TiedWorkload:
    """The public `schulze_winners` on `random_skew_graph` graphs built at set-up."""

    root_span = None

    def __init__(self, name: str, shape: TiedShape):
        self.name = name
        self.shape = shape

    def setup(self, seed: int, workdir: Path) -> list[MajorityGraph]:
        rng = random.Random(f"{self.name}-{seed}")
        return [
            random_skew_graph(rng, self.shape.m, magnitude=SKEW_MAGNITUDE)
            for _ in range(self.shape.pool)
        ]

    def run(self, graph: MajorityGraph) -> tuple[int, str]:
        try:
            found = engine.schulze_winners(graph)
        except Exception:  # noqa: BLE001 - an exception is a failed operation
            return 1, ""
        return 0, " ".join(map(str, found))

    def check(self, graph: MajorityGraph, rc: int, text: str) -> str | None:
        if rc != 0:
            return "schulze_winners raised"
        return reference.check_winners(graph.weights, text)


# Pool sizes keep the seed-to-seed mix of YES and NO answers narrow: a YES on
# `tall` costs a second graph build, so its share moves the latency figures.
WORKLOADS = {
    "wide": CliWorkload("wide", CliShape(m=100, ballots=20, manipulators=5, pool=40)),
    "tall": CliWorkload("tall", CliShape(m=30, ballots=1500, manipulators=14, pool=40)),
    "winners_tied": TiedWorkload("winners_tied", TiedShape(m=120, pool=12)),
}
