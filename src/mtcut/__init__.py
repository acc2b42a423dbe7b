"""Exact and heuristic minimum multiterminal cut solver."""

from .graph import (
    BoundState,
    ContractableGraph,
    EdgeNotFound,
    GraphError,
    InfeasibleAssignment,
    IncompleteSolution,
    InvalidContraction,
    FlowResult,
    Problem,
    cut_value,
)
from .flow import isolating_bounds, max_flow_st
from .reductions import ReductionReport, isolating_cuts, run_reduction_loop
from .localsearch import refine
from .solver import SolveResult, SolverConfig, solve, solve_prepared
from .graphio import GraphParseError, parse_graph, parse_graph_file, write_graph
from .bench import (
    InstanceSpec,
    ProfilePoint,
    generate_terminals,
    grow_terminal_blocks,
    performance_profile,
    run_experiment,
)

__all__ = [
    "BoundState",
    "ContractableGraph",
    "EdgeNotFound",
    "FlowResult",
    "GraphError",
    "GraphParseError",
    "InfeasibleAssignment",
    "IncompleteSolution",
    "InstanceSpec",
    "InvalidContraction",
    "Problem",
    "ProfilePoint",
    "ReductionReport",
    "SolveResult",
    "SolverConfig",
    "cut_value",
    "generate_terminals",
    "grow_terminal_blocks",
    "isolating_bounds",
    "isolating_cuts",
    "max_flow_st",
    "parse_graph",
    "parse_graph_file",
    "performance_profile",
    "refine",
    "run_experiment",
    "run_reduction_loop",
    "solve",
    "solve_prepared",
    "write_graph",
]
