"""Self-test of the benchmark at tiny sizes (m <= 6).

    python3 perfbench/selftest.py

Checks that
  * the output checks pass the library's answers and reject corrupted ones:
    a coalition ballot with the target moved to last place (the check must
    agree with the library's own `verify_manipulation`, and reject at least
    one), a ballot that leaves out a candidate, an answer that disagrees with
    its exit code, a failed exit code, and a wrong winner set;
  * every decision matches `brute_force_wcm(identical_only=True)`;
  * two runs with one seed give the same digest, traced or not, and another
    seed gives another digest.
Exits 0 when all of them hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import run

run.bootstrap()

from schulze_wcm.ballots import parse_election_file  # noqa: E402
from schulze_wcm.model import Mode, Ranking  # noqa: E402
from schulze_wcm.oracle import brute_force_wcm  # noqa: E402
from schulze_wcm.solver import verify_manipulation  # noqa: E402

from workloads import CliShape, CliWorkload, TiedShape, TiedWorkload  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def tiny_cli(m: int, pool: int) -> CliWorkload:
    shape = CliShape(m=m, ballots=3, manipulators=2, pool=pool, manipulator_weights=(1, 3))
    return CliWorkload(f"tiny{m}", shape)


def load_instance(item):
    instance = parse_election_file(Path(item.path).read_text(encoding="utf-8"))
    return dataclasses.replace(instance, mode=Mode(item.mode))


def check_cli(workdir: Path) -> None:
    answers = {True: 0, False: 0}
    oracle_mismatches = []
    check_problems = []
    corrupted = agreed = rejected = 0
    other_rejections = []
    for m, pool in ((3, 40), (4, 40), (5, 30), (6, 10)):
        workload = tiny_cli(m, pool)
        for item in workload.setup(seed=m, workdir=workdir):
            rc, text = workload.run(item)
            problem = workload.check(item, rc, text)
            if problem is not None:
                check_problems.append(f"{item.path}: {problem}")
                continue
            instance = load_instance(item)
            decision = rc == 0
            answers[decision] += 1
            if decision != brute_force_wcm(instance, identical_only=True)[0]:
                oracle_mismatches.append(item.path)
            if not decision:
                continue
            payload = json.loads(text)
            labels = instance.profile.candidates.labels
            target = labels[instance.target]
            moved = [label for label in payload["vote"] if label != target] + [target]
            verdict = workload.check(item, rc, json.dumps({**payload, "vote": moved})) is None
            library = verify_manipulation(
                instance, Ranking.from_order([labels.index(label) for label in moved])
            )
            corrupted += 1
            agreed += verdict == library
            rejected += not verdict
            other_rejections += [
                workload.check(item, rc, json.dumps({**payload, "vote": payload["vote"][:-1]})),
                workload.check(item, rc, json.dumps({**payload, "manipulable": False})),
                workload.check(item, 1, text),
            ]
    expect(not check_problems, f"library answers pass the output check ({check_problems[:3]})")
    expect(answers[True] > 0 and answers[False] > 0, f"both answers occur ({answers})")
    expect(
        not oracle_mismatches,
        f"decisions match brute_force_wcm(identical_only=True) on {sum(answers.values())}"
        f" instances ({oracle_mismatches[:3]})",
    )
    expect(
        corrupted > 0 and agreed == corrupted and rejected > 0,
        f"target-last ballots: the check agrees with verify_manipulation on {agreed} of"
        f" {corrupted} and rejects {rejected}",
    )
    expect(
        all(problem is not None for problem in other_rejections),
        f"{len(other_rejections)} malformed outputs are all rejected",
    )


def check_winners(workdir: Path) -> None:
    workload = TiedWorkload("tiny_tied", TiedShape(m=6, pool=40))
    passed = rejected = 0
    for graph in workload.setup(seed=1, workdir=workdir):
        rc, text = workload.run(graph)
        passed += workload.check(graph, rc, text) is None
        found = [int(x) for x in text.split()]
        others = [x for x in range(6) if x not in found]
        wrong = found[:-1] if len(found) > 1 else found + others[:1]
        rejected += workload.check(graph, rc, " ".join(map(str, wrong))) is not None
    expect(passed == 40, f"winner sets pass the output check ({passed} of 40)")
    expect(rejected == 40, f"corrupted winner sets are rejected ({rejected} of 40)")


def check_digests(workdir: Path) -> None:
    workload = tiny_cli(5, 12)
    first = run.run_workload(workload, 7, 0.3, False, workdir)
    second = run.run_workload(workload, 7, 0.3, False, workdir)
    traced = run.run_workload(workload, 7, 0.3, True, workdir)
    other = run.run_workload(workload, 8, 0.3, False, workdir)
    expect(first.failed == 0 and traced.failed == 0, "tiny runs have no failed operation")
    expect(first.digest == second.digest == traced.digest, "one seed gives one digest, traced or not")
    expect(first.digest != other.digest, "another seed gives another digest")


def main() -> int:
    workdir = run.WORK_DIR / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        check_cli(workdir)
        check_winners(workdir)
        check_digests(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
