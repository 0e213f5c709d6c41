"""Spans around the library's public functions, recorded from outside.

Each public function is wrapped at the module attribute its caller looks it
up by (`cli.solve_wcm`, `solver.build_majority_graph`, ...), so nothing in
the library changes. Wrappers are installed for a traced operation only and
removed right after it. Spans stay in memory as (name, start, end, parent)
and self time is computed from them when the run ends.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

from schulze_wcm import cli, engine, solver


def _widest_path(tracer: "Tracer", args: tuple, result: object) -> None:
    # Computed from the size, not counted: the kernel relaxes m^3 pairs.
    tracer.counts["relaxations"] += len(args[0]) ** 3


def _build_graph(tracer: "Tracer", args: tuple, result: object) -> None:
    profile = args[0]
    m = len(profile.candidates)
    tracer.counts["pair_updates"] += len(profile.ballots) * m * (m - 1) // 2
    tracer.op_profiles.add(id(profile))


def _overlay(tracer: "Tracer", args: tuple, result: object) -> None:
    m = len(args[0].candidates)
    tracer.counts["pair_updates"] += m * (m - 1) // 2


def _parse(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["lines"] += args[0].count("\n")


def _solve(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["yes"] += bool(result.decision)


def _bounds(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["rule_applications"] += result[1]


# (module, attribute, span name, observer). The span name is the layer that
# defines the function, so both bindings of one function share a name.
TARGETS = (
    (cli, "parse_election_file", "ballots.parse_election_file", _parse),
    (cli, "solve_wcm", "solver.solve_wcm", _solve),
    (cli, "build_majority_graph", "model.build_majority_graph", _build_graph),
    (cli, "schulze_winners", "engine.schulze_winners", None),
    (solver, "build_majority_graph", "model.build_majority_graph", _build_graph),
    (solver, "overlay_identical_manipulators", "model.overlay_identical_manipulators", _overlay),
    (solver, "compute_bound_function", "solver.compute_bound_function", _bounds),
    (solver, "decide_manipulable", "solver.decide_manipulable", None),
    (solver, "build_admissible_graph", "solver.build_admissible_graph", None),
    (solver, "spanning_arborescence", "solver.spanning_arborescence", None),
    (solver, "construct_manipulator_vote", "solver.construct_manipulator_vote", None),
    (solver, "verify_manipulation", "solver.verify_manipulation", None),
    (solver, "is_unique_winner", "engine.is_unique_winner", None),
    (solver, "schulze_winners", "engine.schulze_winners", None),
    (engine, "widest_path_strengths", "engine.widest_path_strengths", _widest_path),
    # What the winners_tied operation itself calls.
    (engine, "schulze_winners", "engine.schulze_winners", None),
)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self.ops = 0
        self.distinct_profiles = 0
        self.op_profiles: set[int] = set()
        self._stack: list[int] = []
        self._wrapped = [
            (module, attr, self._wrap(getattr(module, attr), name, observe))
            for module, attr, name, observe in TARGETS
        ]
        self._originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, perf_counter(), 0.0, parent])
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, root_span: str | None):
        """Trace one operation: wrappers in place, optional root span around it."""
        self.op_profiles = set()
        for module, attr, traced in self._wrapped:
            setattr(module, attr, traced)
        index = self._open(root_span) if root_span else None
        try:
            yield
        finally:
            if index is not None:
                self._close(index)
            for module, attr, original in self._originals:
                setattr(module, attr, original)
            self.ops += 1
            self.distinct_profiles += len(self.op_profiles)

    def self_times(self) -> tuple[dict[str, float], Counter[str]]:
        """Self seconds and call counts per span name."""
        own: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for name, start, end, parent in self.spans:
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own), calls
