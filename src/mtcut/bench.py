"""Instance generation and the experiment harness.

Terminals are spread by repeated farthest-point BFS; around each terminal
a bounded block of vertices is grown and pre-assigned, which turns the
instance into the labelling of the boundary regions between well separated
clusters. Results across solvers are compared with performance profiles.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

try:
    import numpy as np
    from scipy.sparse.csgraph import breadth_first_order
except ImportError:  # pragma: no cover; large_view then returns None
    pass

from .graph import ArrayView, ContractableGraph, GraphError, Problem, large_view
from .graphio import parse_graph_file
from .solver import SolverConfig, require_integers, require_numbers, solve_prepared


@dataclass
class InstanceSpec:
    graph: str
    k: int
    fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.graph, str):
            raise ValueError(f"graph must be a path string, got {self.graph!r}")
        require_integers(self, "k", "seed")
        require_numbers(self, "fraction")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("fraction must lie in [0, 1)")

    def name(self) -> str:
        return f"{self.graph}:k{self.k}:f{self.fraction}:s{self.seed}"


@dataclass
class ProfilePoint:
    tau: float
    fraction: float


def _bfs_order(nbrs: dict[int, list[int]], sources: Sequence[int]) -> list[int]:
    """BFS visit order from the sources, which start the queue ascending;
    ``nbrs`` maps each vertex to its neighbors, ascending."""
    order = sorted(sources)
    seen = set(order)
    for v in order:  # the loop reaches the vertices appended behind it
        for x in nbrs[v]:
            if x not in seen:
                seen.add(x)
                order.append(x)
    return order


def _bfs_order_on_view(view: ArrayView, sources: Sequence[int]) -> np.ndarray:
    """:func:`_bfs_order` by scipy's ``breadth_first_order`` from a virtual
    root that lists the sources' indices ascending (:meth:`ArrayView.rooted`)."""
    roots = np.sort(view.index[list(sources)])
    order = breadth_first_order(view.rooted(roots), len(view.ids), directed=True,
                                return_predecessors=False)
    return view.ids[order[1:]]


def generate_terminals(g: ContractableGraph, k: int, seed: int = 0) -> list[int]:
    """Pick k pairwise distant vertices by repeated farthest BFS.

    The first terminal is the last vertex of a BFS from a seeded random
    start; each further terminal is the last vertex of a BFS from all
    terminals picked so far. Every BFS explores neighbors in ascending id
    order. Requires a connected graph.

    When :func:`~mtcut.graph.large_view` gives the graph's array view, each
    BFS is one scipy call on it (:func:`_bfs_order_on_view`); otherwise the
    neighbor lists are sorted once and every BFS walks them in Python. Both
    visit the vertices in the same order.
    """
    n = g.num_vertices
    if not 1 <= k <= n:
        raise GraphError(f"cannot place {k} terminals on {n} vertices")
    pick = random.Random(seed).randrange(n)
    view = large_view(g)
    if view is None:
        nbrs = {v: sorted(g.neighbors(v)) for v in g.live_vertices()}
        start = list(nbrs)[pick]
        bfs = partial(_bfs_order, nbrs)
    else:
        start = int(view.ids[pick])
        bfs = partial(_bfs_order_on_view, view)
    order = bfs([start])
    if len(order) != n:
        raise GraphError("terminal generation requires a connected graph")
    terminals = [int(order[-1])]
    while len(terminals) < k:
        # the terminals open the order and some vertex is not one, so the
        # last vertex is the farthest non-terminal
        terminals.append(int(bfs(terminals)[-1]))
    return terminals


def grow_terminal_blocks(g: ContractableGraph, terminals: Sequence[int],
                         fraction: float, seed: int = 0) -> Problem:
    """Pre-assign a fraction of the vertices to the terminals.

    Round-robin over the terminals, each expanding one BFS layer per turn
    and claiming still-unclaimed vertices, until ``floor(fraction * n)``
    extra vertices are claimed in total; the claimed vertices are then
    contracted into their terminals. The contracted graph is the instance:
    the grown blocks are committed, and reported cut values count their
    boundaries. Deterministic for fixed inputs (the seed is accepted for
    interface symmetry). When ``g`` holds an array view, as terminal
    placement leaves a large graph, the instance graph's first view is
    derived from it (:meth:`~mtcut.graph.ContractableGraph.derive_view`).
    """
    del seed
    quota = math.floor(fraction * g.num_vertices)
    claimed = {t: i for i, t in enumerate(terminals)}
    frontiers = [[t] for t in terminals]
    blocks: list[list[int]] = [[] for _ in terminals]
    while quota > 0 and any(frontiers):
        for i in range(len(terminals)):
            if quota <= 0:
                break
            layer = frontiers[i]
            nxt = []
            for v in layer:
                for x in sorted(g.neighbors(v)):
                    if x in claimed:
                        continue
                    claimed[x] = i
                    blocks[i].append(x)
                    nxt.append(x)
                    quota -= 1
                    if quota <= 0:
                        break
                if quota <= 0:
                    break
            frontiers[i] = nxt
    work = g.copy()
    for i, t in enumerate(terminals):
        if blocks[i]:
            work.contract_vertices(blocks[i] + [t], t)
    work.derive_view(g)
    return Problem.from_instance(work, terminals)


def prepare_instance(spec: InstanceSpec) -> Problem:
    """Parse the graph, place the terminals and grow their blocks."""
    g = parse_graph_file(spec.graph)
    terminals = generate_terminals(g, spec.k, spec.seed)
    return grow_terminal_blocks(g, terminals, spec.fraction, spec.seed)


def performance_profile(results: dict[str, Sequence[float | None]],
                        taus: Sequence[float]) -> dict[str, list[ProfilePoint]]:
    """Fraction of instances within factor tau of the best, per algorithm.

    A missing result never scores. Requires every objective to be >= 1 and
    at least one finite result per instance.
    """
    algs = sorted(results)
    counts = {len(results[a]) for a in algs}
    if len(counts) != 1:
        raise ValueError("algorithms must cover the same instances")
    n_inst = counts.pop()
    if n_inst == 0:
        raise ValueError("no instances")
    best = []
    for i in range(n_inst):
        finite = [results[a][i] for a in algs if results[a][i] is not None]
        if not finite:
            raise ValueError(f"instance {i} has no finite result")
        if min(finite) < 1:
            raise ValueError("objectives must be at least 1")
        best.append(min(finite))
    profiles: dict[str, list[ProfilePoint]] = {}
    for a in algs:
        points = []
        for tau in taus:
            if tau < 1:
                raise ValueError("tau must be at least 1")
            hits = sum(1 for i in range(n_inst)
                       if results[a][i] is not None and results[a][i] <= tau * best[i])
            points.append(ProfilePoint(tau, hits / n_inst))
        profiles[a] = points
    return profiles


def geometric_mean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("no values")
    if any(v < 0 for v in vals):
        raise ValueError("negative values")
    if any(v == 0 for v in vals):
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


DEFAULT_TAUS = (1.0, 1.01, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0)


def run_experiment(specs: Sequence[InstanceSpec],
                   algorithms: dict[str, SolverConfig],
                   taus: Sequence[float] = DEFAULT_TAUS):
    """Solve every instance with every configured algorithm.

    Returns (rows, profiles, summary): one result row per (instance,
    algorithm) pair, performance profiles over the completed objectives,
    and per-algorithm aggregates including the geometric mean value.
    Per-instance failures are recorded and the run continues.
    """
    rows: list[dict] = []
    objectives: dict[str, list[float | None]] = {a: [] for a in algorithms}
    for spec in specs:
        try:
            problem = prepare_instance(spec)
        except Exception as exc:  # noqa: BLE001 - recorded per instance
            for name in algorithms:
                rows.append({"instance": spec.name(), "algorithm": name,
                             "error": str(exc)})
                objectives[name].append(None)
            continue
        for name, config in algorithms.items():
            started = time.monotonic()
            try:
                result = solve_prepared(problem.copy(), config)
            except Exception as exc:  # noqa: BLE001
                rows.append({"instance": spec.name(), "algorithm": name,
                             "error": str(exc)})
                objectives[name].append(None)
                continue
            rows.append({
                "instance": spec.name(),
                "algorithm": name,
                "value": result.value,
                "optimal": result.optimal,
                "stop_reason": result.stop_reason,
                "lower_bound": result.lower_bound,
                "gap": result.gap,
                "wall_time": round(time.monotonic() - started, 6),
                "kernel_vertices": result.root_kernel_vertices,
                "kernel_edges": result.root_kernel_edges,
                "nodes": result.nodes,
            })
            objectives[name].append(result.value)
    valid = {a: v for a, v in objectives.items()
             if any(x is not None for x in v)}
    profiles = performance_profile(valid, taus) if valid else {}
    summary = {}
    for name in algorithms:
        vals = [v for v in objectives[name] if v is not None]
        summary[name] = {
            "solved": len(vals),
            "geometric_mean": geometric_mean(vals) if vals else None,
        }
    return rows, profiles, summary


def write_results_jsonl(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_profile_csv(path: str, profiles: dict[str, list[ProfilePoint]]) -> None:
    with open(path, "w") as fh:
        fh.write("algorithm,tau,fraction\n")
        for name in sorted(profiles):
            for pt in profiles[name]:
                fh.write(f"{name},{pt.tau},{pt.fraction:.6f}\n")
