"""Benchmark of schulze-wcm: the CLI solve path end to end, plus per-layer spans.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 35 --trace 0

Run from the repository root; the library is imported from `src/`. One
process, one thread, a closed loop with one client: the next operation
starts when the previous one returns. Inputs come from `--seed` only.

`--trace 0` measures the end-to-end metrics. `--trace 1` alternates traced
and untraced operations over the same inputs and reports the per-layer
metrics, including the tracing overhead. Every output is checked against
the independent reference in `reference.py` after the timed loop. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. The metric names and units are those declared in `BENCHMARK.json`.
Lines before it give every metric by name and unit, the output digest and
the environment. A JSON record with the raw spans is written to
`.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"
# Set-up is repeated and its median reported, so that one slow repetition
# does not move setup_s.
SETUP_REPS = 3
# The timed loop runs past --seconds until it holds this many untraced
# operations, so that latency_p90_ms always rests on enough samples.
MIN_OPS = 100
# Per-layer metrics derived from input sizes at each call, not counted
# inside the layer.
COMPUTED = {"engine.relaxations_per_op", "model.pair_updates_per_op"}


def bootstrap() -> None:
    """Put the checkout's `src/` first on the import path, or stop."""
    src = ROOT / "src"
    if not (src / "schulze_wcm" / "__init__.py").is_file():
        raise SystemExit(f"error: no schulze_wcm sources under {src}")
    sys.path.insert(0, str(src))


def digest(outputs: list[tuple[int, str]]) -> str:
    """sha256 over every pool input's exit code and output, in pool order."""
    h = hashlib.sha256()
    for index, (rc, text) in enumerate(outputs):
        h.update(f"{index}\t{rc}\t{text}\n".encode())
    return h.hexdigest()


@dataclass
class Measurement:
    """What one run of one workload produced."""

    setup_times: list[float]
    elapsed: float
    latencies: list[float]  # untraced operations
    traced_latencies: list[float]
    outputs: list[tuple[int, str]]  # first output of each pool input
    problems: dict[int, str]  # pool input -> why its output is wrong
    attempted: int
    failed: int
    peak_rss_mb: float
    traced_output_bytes: int
    tracer: object  # the Tracer of a traced run, else None

    @property
    def digest(self) -> str:
        return digest(self.outputs)


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Measurement:
    """Set up, run the timed closed loop, then check every output."""
    from tracing import Tracer

    setup_times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        items = workload.setup(seed, workdir)
        for item in items[:2]:  # warm-up; on the CLI workloads, one per mode
            workload.run(item)
        setup_times.append(perf_counter() - start)

    n = len(items)
    tracer = Tracer() if trace else None
    first: list = [None] * n
    ops: list[tuple[int, bool]] = []  # (pool index, output equals the first one)
    latencies: list[float] = []
    traced_latencies: list[float] = []
    traced_bytes = 0
    k = 0
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline or len(latencies) < MIN_OPS:
        if tracer is None:
            index, traced = k % n, False
        else:
            # Each input runs once untraced, then once traced, back to back.
            index, traced = (k // 2) % n, k % 2 == 1
        item = items[index]
        if traced:
            t0 = perf_counter()
            with tracer.operation(workload.root_span):
                result = workload.run(item)
            traced_latencies.append(perf_counter() - t0)
            if workload.root_span is not None:
                traced_bytes += len(result[1].encode())
        else:
            t0 = perf_counter()
            result = workload.run(item)
            latencies.append(perf_counter() - t0)
        if first[index] is None:
            first[index] = result
        ops.append((index, result == first[index]))
        k += 1
    elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Inputs the timed loop did not reach run once more, untimed, so that the
    # digest always covers the whole pool.
    for index in range(n):
        if first[index] is None:
            first[index] = workload.run(items[index])
            ops.append((index, True))
    problems = {}
    for index in range(n):
        problem = workload.check(items[index], *first[index])
        if problem is not None:
            problems[index] = problem
    failed = sum(1 for index, same in ops if index in problems or not same)
    return Measurement(
        setup_times=setup_times,
        elapsed=elapsed,
        latencies=latencies,
        traced_latencies=traced_latencies,
        outputs=first,
        problems=problems,
        attempted=len(ops),
        failed=failed,
        peak_rss_mb=peak_rss_mb,
        traced_output_bytes=traced_bytes,
        tracer=tracer,
    )


def end_to_end_metrics(run: Measurement) -> dict[str, float]:
    lat = run.latencies
    return {
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "throughput_ops_s": len(lat) / run.elapsed,
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": run.peak_rss_mb,
    }


def layer_metrics(run: Measurement) -> dict[str, float]:
    """Per-layer figures from the traced operations; 0 for a layer not called."""
    tracer = run.tracer
    own, calls = tracer.self_times()
    ops = tracer.ops
    counts = tracer.counts

    def self_ms(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names) * 1e3 / ops

    def share(layer: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(layer + ".")) / sum(own.values())

    builds = calls["model.build_majority_graph"]
    solves = calls["solver.solve_wcm"]
    untraced_rate = len(run.latencies) / sum(run.latencies)
    traced_rate = len(run.traced_latencies) / sum(run.traced_latencies)
    return {
        "engine.widest_path_self_ms_per_op": self_ms("engine.widest_path_strengths"),
        "engine.widest_path_calls_per_op": calls["engine.widest_path_strengths"] / ops,
        "engine.relaxations_per_op": counts["relaxations"] / ops,
        "engine.winners_self_ms_per_op": self_ms("engine.schulze_winners"),
        "engine.unique_winner_self_ms_per_op": self_ms("engine.is_unique_winner"),
        "model.build_graph_self_ms_per_op": self_ms("model.build_majority_graph"),
        "model.build_graph_calls_per_op": builds / ops,
        "model.graph_reuse_ratio": tracer.distinct_profiles / builds if builds else 0.0,
        "model.overlay_self_ms_per_op": self_ms("model.overlay_identical_manipulators"),
        "model.pair_updates_per_op": counts["pair_updates"] / ops,
        "ballots.parse_self_ms_per_op": self_ms("ballots.parse_election_file"),
        "ballots.lines_per_op": counts["lines"] / ops,
        "solver.solve_self_ms_per_op": self_ms("solver.solve_wcm"),
        "solver.bounds_self_ms_per_op": self_ms("solver.compute_bound_function"),
        "solver.rule_applications_per_op": counts["rule_applications"] / ops,
        "solver.construct_self_ms_per_op": self_ms(
            "solver.build_admissible_graph",
            "solver.spanning_arborescence",
            "solver.construct_manipulator_vote",
        ),
        "solver.decide_self_ms_per_op": self_ms("solver.decide_manipulable"),
        "solver.verify_self_ms_per_op": self_ms("solver.verify_manipulation"),
        "solver.yes_share": counts["yes"] / solves if solves else 0.0,
        "cli.self_ms_per_op": self_ms("cli.run_cli"),
        "cli.output_bytes_per_op": run.traced_output_bytes / ops,
        "ballots.self_share": share("ballots"),
        "model.self_share": share("model"),
        "engine.self_share": share("engine"),
        "solver.self_share": share("solver"),
        "cli.self_share": share("cli"),
        "trace.overhead_ratio": traced_rate / untraced_rate,
    }


def git_commit() -> str:
    """The checked-out commit, read from `.git` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    bootstrap()
    import digests
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=digests.DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        values, names = layer_metrics(run), declared["per_layer"]
    else:
        values, names = end_to_end_metrics(run), declared["end_to_end"]
    if set(values) != {m["name"] for m in names}:
        raise RuntimeError("computed metrics differ from those in BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": len(run.latencies) + len(run.traced_latencies),
        "traced_ops": len(run.traced_latencies),
        "pool": len(run.outputs),
    }
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, metric in metrics.items():
        note = " (computed from sizes)" if name in COMPUTED else ""
        print(f"  {name:38s} {metric['value']:14.6f} {metric['unit']}{note}")
    error_rate = run.failed / run.attempted
    print(f"  {'error_rate':38s} {error_rate:14.6f} ratio ({run.failed} of {run.attempted})")
    if args.trace:
        own, calls = run.tracer.self_times()
        total = sum(own.values())
        print("  span self time:")
        for name in sorted(own, key=own.get, reverse=True):
            print(
                f"    {name:38s} {own[name] / total:7.2%}"
                f"  {own[name] * 1e3 / run.tracer.ops:10.3f} ms/op"
                f"  {calls[name] / run.tracer.ops:7.3f} calls/op"
            )
    for index, problem in sorted(run.problems.items()):
        print(f"  WRONG output for pool input {index}: {problem}")
    stored = digests.stored_digests().get(args.workload)
    verdict = ""
    if args.seed == digests.DIGEST_SEED and stored is not None:
        verdict = " (matches the stored digest)" if stored == run.digest else " (DIFFERS from the stored digest)"
    print(f"  digest {run.digest}{verdict}")
    print("  env " + json.dumps(env))

    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "error_rate": error_rate, "digest": run.digest}
    if args.trace:
        origin = run.tracer.spans[0][1] if run.tracer.spans else 0.0
        record["spans"] = [
            [name, start - origin, end - origin, parent]
            for name, start, end, parent in run.tracer.spans
        ]
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
