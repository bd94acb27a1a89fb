"""Query model and workload generation.

This subpackage defines the selection operator used by the paper — the
distance-near-neighbour (dNN) query ``D(x, theta)`` — together with the Lp
geometry it relies on, the query/answer containers, and generators for the
random query workloads used in the evaluation (Section VI-A).
"""

from .geometry import (
    lp_distance,
    lp_norm,
    ball_volume,
    balls_overlap,
    overlap_degree,
    pairwise_lp_distance,
    points_within_ball,
)
from .query import Query, QueryAnswer, QueryResultPair, query_distance
from .workload import QueryWorkloadGenerator, RadiusDistribution, WorkloadSpec
from .stream import LabelledWorkload, QueryLog

__all__ = [
    "lp_distance",
    "lp_norm",
    "ball_volume",
    "balls_overlap",
    "overlap_degree",
    "pairwise_lp_distance",
    "points_within_ball",
    "Query",
    "QueryAnswer",
    "QueryResultPair",
    "query_distance",
    "QueryWorkloadGenerator",
    "RadiusDistribution",
    "WorkloadSpec",
    "LabelledWorkload",
    "QueryLog",
]
