"""Deterministic synchronized community detection for directed weighted graphs.

Public surface: the graph container and edge-list IO, modularity and gain
kernels, the hierarchical detector, a planted-partition benchmark generator
with NMI scoring, and a small performance harness.
"""

from .bench import BenchSpec, PlantedGraph, generate, nmi, write_benchmark
from .detector import (
    Hierarchy,
    RunConfig,
    RunResult,
    RunStats,
    find_assignment,
    maximal_correction,
    positive_correction,
    run,
)
from .forest import AssignmentForest, extract_components, reverse_assignment
from .graph import (
    Graph,
    GraphFormatError,
    Strengths,
    aggregate,
    canonicalize_labels,
    compose_labels,
    dump_edge_list,
    load_edge_list,
    read_partition,
    strengths,
    write_partition,
)
from .perf import (
    DeterminismError,
    RunRecord,
    SpeedupCurve,
    amdahl,
    curve_from_records,
    emit_plot_data,
    measure,
    write_csv,
)
from .quality import (
    CommunityAggregates,
    gain_insert,
    gain_switch,
    local_gain,
    local_gains,
    score,
)

__all__ = [
    "AssignmentForest",
    "BenchSpec",
    "CommunityAggregates",
    "DeterminismError",
    "Graph",
    "GraphFormatError",
    "Hierarchy",
    "PlantedGraph",
    "RunConfig",
    "RunRecord",
    "RunResult",
    "RunStats",
    "SpeedupCurve",
    "Strengths",
    "aggregate",
    "amdahl",
    "canonicalize_labels",
    "compose_labels",
    "curve_from_records",
    "dump_edge_list",
    "emit_plot_data",
    "extract_components",
    "find_assignment",
    "gain_insert",
    "gain_switch",
    "generate",
    "load_edge_list",
    "local_gain",
    "local_gains",
    "maximal_correction",
    "measure",
    "nmi",
    "positive_correction",
    "read_partition",
    "reverse_assignment",
    "run",
    "score",
    "strengths",
    "write_benchmark",
    "write_csv",
    "write_partition",
]
