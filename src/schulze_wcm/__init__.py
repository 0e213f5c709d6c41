"""Schulze winner determination and constructive weighted coalitional manipulation."""

from .ballots import (
    ParseError,
    format_vote,
    parse_election_file,
    parse_vote,
    serialize_election,
)
from .engine import (
    is_unique_winner,
    schulze_winners,
    widest_path_strengths,
)
from .model import (
    INT64_MAX,
    CandidateSet,
    CapacityError,
    InternalInvariantError,
    MajorityGraph,
    ManipulationInstance,
    Mode,
    Ranking,
    WeightedBallot,
    WeightedProfile,
    build_majority_graph,
    overlay_identical_manipulators,
)
from .oracle import brute_force_wcm
from .solver import (
    INF,
    BoundFunction,
    ManipulationOutcome,
    build_admissible_graph,
    compute_bound_function,
    construct_manipulator_vote,
    decide_manipulable,
    solve_wcm,
    spanning_arborescence,
    verify_manipulation,
)

__version__ = "0.1.0"

__all__ = [
    "BoundFunction",
    "CandidateSet",
    "CapacityError",
    "INF",
    "INT64_MAX",
    "InternalInvariantError",
    "MajorityGraph",
    "ManipulationInstance",
    "ManipulationOutcome",
    "Mode",
    "ParseError",
    "Ranking",
    "WeightedBallot",
    "WeightedProfile",
    "brute_force_wcm",
    "build_admissible_graph",
    "build_majority_graph",
    "compute_bound_function",
    "construct_manipulator_vote",
    "decide_manipulable",
    "format_vote",
    "is_unique_winner",
    "overlay_identical_manipulators",
    "parse_election_file",
    "parse_vote",
    "schulze_winners",
    "serialize_election",
    "solve_wcm",
    "spanning_arborescence",
    "verify_manipulation",
    "widest_path_strengths",
]
