"""Acceptance gate for the package.

Each test covers one release criterion and prints a single summary line
(run with -s to see them alongside the pytest verdicts). The shared corpus
is built once per module: 500 random base instances, each solved and
oracle-checked in both decision modes, with every tolerance pinned in the
assertions below.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from schulze_wcm.ballots import parse_election_file, serialize_election
from schulze_wcm.cli import run_cli
from schulze_wcm.engine import is_unique_winner, schulze_winners, widest_path_strengths
from schulze_wcm.model import (
    ManipulationInstance,
    Mode,
    Ranking,
    build_majority_graph,
    overlay_identical_manipulators,
)
from schulze_wcm.oracle import brute_force_wcm
from schulze_wcm.sampling import random_instance, random_profile, random_skew_graph
from schulze_wcm.solver import (
    ManipulationOutcome,
    build_admissible_graph,
    solve_wcm,
    verify_manipulation,
)

from conftest import (
    applicable_rule,
    bound_value_set,
    enumerated_strengths,
    finite_bounds,
    reachable,
)

BASES = 500
CORPUS_SEED = 20250816
CORPUS_BUDGET_SECONDS = 60.0
DATA = Path(__file__).parent / "data"


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status} ({detail})")
    assert ok, f"acceptance {num} {name}: {detail}"


@dataclass(frozen=True)
class CorpusRecord:
    instance: ManipulationInstance
    outcome: ManipulationOutcome
    oracle_decision: bool
    oracle_witness: tuple[Ranking, ...] | None
    identical_decision: bool
    identical_witness: tuple[Ranking, ...] | None


@dataclass(frozen=True)
class Corpus:
    records: tuple[CorpusRecord, ...]
    mode_pairs: tuple[tuple[CorpusRecord, CorpusRecord], ...]
    elapsed: float


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    rng = random.Random(CORPUS_SEED)
    records: list[CorpusRecord] = []
    mode_pairs: list[tuple[CorpusRecord, CorpusRecord]] = []
    start = time.perf_counter()
    for _ in range(BASES):
        base = random_instance(rng)
        pair = []
        for mode in (Mode.UNIQUE, Mode.COWINNER):
            instance = dataclasses.replace(base, mode=mode)
            decision, witness = brute_force_wcm(instance)
            same_decision, same_witness = brute_force_wcm(
                instance, identical_only=True
            )
            pair.append(
                CorpusRecord(
                    instance,
                    solve_wcm(instance),
                    decision,
                    witness,
                    same_decision,
                    same_witness,
                )
            )
        records.extend(pair)
        mode_pairs.append((pair[0], pair[1]))
    elapsed = time.perf_counter() - start
    return Corpus(tuple(records), tuple(mode_pairs), elapsed)


def test_01_oracle_equivalence(corpus: Corpus) -> None:
    disagreements = sum(
        1
        for rec in corpus.records
        if rec.outcome.decision != rec.oracle_decision
    )
    total = len(corpus.records)
    ok = disagreements == 0 and corpus.elapsed < CORPUS_BUDGET_SECONDS
    _check(
        1,
        "oracle equivalence",
        ok,
        f"{total - disagreements}/{total} decisions match the exhaustive"
        f" oracle, corpus solved and cross-checked in {corpus.elapsed:.1f}s",
    )


def test_02_identical_vote_sufficiency(corpus: Corpus) -> None:
    disagreements = sum(
        1
        for rec in corpus.records
        if rec.identical_decision != rec.oracle_decision
    )
    total = len(corpus.records)
    _check(
        2,
        "identical-vote sufficiency",
        disagreements == 0,
        f"{total - disagreements}/{total} identical-only searches agree"
        " with the unrestricted search",
    )


def test_03_witness_soundness(corpus: Corpus) -> None:
    yes = 0
    violations = 0
    for rec in corpus.records:
        if not rec.outcome.decision:
            continue
        yes += 1
        instance = rec.instance
        vote = rec.outcome.vote
        if vote is None or not verify_manipulation(instance, vote):
            violations += 1
            continue
        base = build_majority_graph(instance.profile)
        after = overlay_identical_manipulators(
            base, vote, instance.coalition_weight
        )
        strengths = enumerated_strengths(after.weights)
        target = instance.target
        values = rec.outcome.bounds.values
        for x in range(len(values)):
            if x == target:
                continue
            if strengths[target][x] < values[x]:
                violations += 1
                break
            if (
                instance.mode is Mode.UNIQUE
                and not values[x] > strengths[x][target]
            ):
                violations += 1
                break
    _check(
        3,
        "witness soundness",
        violations == 0,
        f"all {yes} constructed ballots re-verified with the required"
        f" strength margins, {violations} violations",
    )


def test_04_fixed_point_audit(corpus: Corpus) -> None:
    violations = 0
    for rec in corpus.records:
        instance = rec.instance
        weights = build_majority_graph(instance.profile).weights
        m = len(weights)
        coalition = instance.coalition_weight
        bounds = rec.outcome.bounds
        if (
            applicable_rule(
                weights, bounds.values, instance.target, coalition, instance.mode
            )
            is not None
        ):
            violations += 1
            continue
        if rec.outcome.rule_applications > m * (m * (m - 1) + 1):
            violations += 1
            continue
        legal = bound_value_set(weights, coalition)
        if any(v not in legal for v in finite_bounds(bounds).values()):
            violations += 1
    _check(
        4,
        "fixed-point audit",
        violations == 0,
        f"no applicable rule, counter within m(m(m-1)+1), and all finite"
        f" bounds in the legal value set on {len(corpus.records)} outcomes,"
        f" {violations} violations",
    )


def test_05_admissible_reachability(corpus: Corpus) -> None:
    violations = 0
    for rec in corpus.records:
        instance = rec.instance
        base = build_majority_graph(instance.profile)
        admissible = build_admissible_graph(
            base, rec.outcome.bounds, instance.coalition_weight
        )
        m = len(base.candidates)
        if reachable(admissible, instance.target) != set(range(m)):
            violations += 1
    _check(
        5,
        "admissible-graph reachability",
        violations == 0,
        f"every candidate reachable from the target on all"
        f" {len(corpus.records)} outcomes, {violations} violations",
    )


def test_06_winner_determination() -> None:
    rng = random.Random(0xACCE55)
    graphs = 1000
    compared = 0
    violations = 0
    for _ in range(graphs):
        m = rng.randint(1, 6)
        graph = random_skew_graph(rng, m)
        winners = schulze_winners(graph)
        if not winners:
            violations += 1
            continue
        for c in range(m):
            if is_unique_winner(graph, c) != (winners == (c,)):
                violations += 1
                break
        if m <= 5:
            compared += 1
            strengths = widest_path_strengths(graph.weights)
            expected = enumerated_strengths(graph.weights)
            for x in range(m):
                for y in range(m):
                    if x != y and strengths[x][y] != expected[x][y]:
                        violations += 1
                        break
    _check(
        6,
        "winner determination",
        violations == 0,
        f"{graphs} random skew graphs: winners nonempty, unique-winner"
        f" test consistent, strengths match path enumeration on"
        f" {compared} graphs, {violations} violations",
    )


def test_07_mode_implication(corpus: Corpus) -> None:
    violations = sum(
        1
        for unique_rec, cowinner_rec in corpus.mode_pairs
        if unique_rec.outcome.decision and not cowinner_rec.outcome.decision
    )
    _check(
        7,
        "mode implication",
        violations == 0,
        f"strict-winner manipulability implies co-winner manipulability"
        f" on all {len(corpus.mode_pairs)} bases, {violations} violations",
    )


def test_08_scaling_smoke() -> None:
    rng = random.Random(0x5CA1E)
    timings = []
    for m, budget in ((50, 5.0), (100, 60.0)):
        profile = random_profile(rng, m, ballots=(20, 20))
        weights = tuple(rng.randint(1, 3) for _ in range(5))
        instance = ManipulationInstance(profile, weights, rng.randrange(m))
        start = time.perf_counter()
        solve_wcm(instance)
        elapsed = time.perf_counter() - start
        timings.append((m, elapsed, budget))
    ok = all(elapsed < budget for _, elapsed, budget in timings)
    detail = ", ".join(
        f"m={m} solved in {elapsed:.2f}s (budget {budget:.0f}s)"
        for m, elapsed, budget in timings
    )
    _check(8, "scaling smoke", ok, detail)


def test_09_cli_contract(capsys: pytest.CaptureFixture[str]) -> None:
    failures = []

    expected = [
        (
            ["manipulate", str(DATA / "two.elect"), "--mode", "unique"],
            0,
            "MANIPULABLE\nvote: c > a\nU: a=1 c=inf\n",
        ),
        (
            ["manipulate", str(DATA / "blocked.elect"), "--mode", "unique"],
            3,
            "NOT MANIPULABLE\nU: a=-2 c=inf\n",
        ),
        (["winners", str(DATA / "trivial.elect")], 0, "winners: a\n"),
    ]
    for argv, want_code, want_out in expected:
        code = run_cli(argv)
        captured = capsys.readouterr()
        if code != want_code or captured.out != want_out:
            failures.append(" ".join(argv))

    rng = random.Random(814)
    round_trips = 100
    for _ in range(round_trips):
        instance = random_instance(rng)
        text = serialize_election(instance)
        parsed = parse_election_file(text)
        if parsed != instance or serialize_election(parsed) != text:
            failures.append("round trip")
            break

    _check(
        9,
        "CLI contract",
        not failures,
        f"3 golden transcripts byte-exact, {round_trips} parse/serialize"
        f" round trips identical"
        + (f"; failures: {failures}" if failures else ""),
    )
