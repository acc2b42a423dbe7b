"""Branch-and-reduce driver: problem queue, branching, bounds, ILP dispatch.

Subproblems live in a best-first priority queue keyed by lower bound; a
popped problem is reduced to a fixpoint, closed if solved or dominated,
handed to the external MILP solver when small enough, and branched
otherwise. The root is reduced with all nine rules of
:data:`~mtcut.reductions.DEFAULT_ORDER`; the nodes below it run the five of
:data:`~mtcut.reductions.NODE_ORDER`. A child differs from its parent's
fixpoint only by its branch (and, in inexact mode, the parent's shrinking).
The inter-terminal deletions and the isolating cuts keep its bounds and
its fixpoint sound, the low-degree and heavy-edge contractions act around
the branch vertex, and the connectivity certificate reads an incumbent that
falls during the search. The heavy triangles, articulation points, equal
neighborhoods and non-terminal flows (:data:`~mtcut.reductions.ROOT_ONLY`)
run at the root only: below it they hardly ever fire, and each call scans
the whole kernel. At the root they get a turn only in a pass in which the
other rules have changed nothing yet; the last pass changes nothing, so the
root still reaches the fixpoint of all nine rules. A node below the root
stops reducing as soon as its bound, less the weight it deleted between a
terminal and a non-terminal, meets the incumbent: it will be discarded, and
nothing it could still offer scores below that (see
:func:`~mtcut.reductions.run_reduction_loop`). The root reduces to its
fixpoint, whose kernel the result reports. Every incumbent is scored on the
original graph before it is offered. A solved leaf or an ILP solution that
improves the incumbent is then polished by local search; the trivial start
and the isolating-cut heuristic are not. The search runs in the calling
thread: under the GIL, worker threads only added contention.
"""

from __future__ import annotations

import heapq
import math
import os
import time
from dataclasses import dataclass
from typing import Sequence

from . import ilp
from .graph import BoundState, ContractableGraph, GraphError, Problem
from .localsearch import expired, refine
from .reductions import DEFAULT_ORDER, NEIGHBORHOOD_LIMIT, NODE_ORDER, run_reduction_loop


class ReductionIncomplete(GraphError):
    """Internal error: branching was asked for a fully reduced problem."""


def require_integers(obj, *names: str) -> None:
    """Raise ValueError unless every named attribute of ``obj`` is an int."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_numbers(obj, *names: str) -> None:
    """Raise ValueError unless every named attribute of ``obj`` is an int or
    a float (a bool is neither)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass
class SolverConfig:
    """All tunables of the solver.

    The defaults mirror the method's standard operating point: shrink
    factor 0.1 and branching cap 5 for the inexact mode, neighborhood
    limit 5 for the twin reduction, and the 50000-edge / 60-second
    dispatch rule for the external ILP solver. The twin reduction runs at
    the root only, so ``neighborhood_limit`` acts there only.
    ``thread_count`` is kept for callers that pass it; the search is
    single-threaded, so it must be 1.
    """

    mode: str = "exact"
    time_limit: float | None = None
    thread_count: int = 1
    ilp_edge_limit: int = 50000
    ilp_timeout_seconds: float = 60.0
    delta: float = 0.1
    beta: int = 5
    seed: int = 0
    branch_rule: str = "vertex"
    neighborhood_limit: int = NEIGHBORHOOD_LIMIT
    local_search: bool = True
    ilp_command: str | None = None

    def __post_init__(self):
        require_integers(self, "thread_count", "ilp_edge_limit", "beta", "seed",
                         "neighborhood_limit")
        require_numbers(self, "ilp_timeout_seconds", "delta")
        if self.time_limit is not None:
            require_numbers(self, "time_limit")
        if not isinstance(self.local_search, bool):
            raise ValueError(f"local_search must be a bool, got {self.local_search!r}")
        if self.ilp_command is not None and not isinstance(self.ilp_command, str):
            raise ValueError(f"ilp_command must be a string or None, got {self.ilp_command!r}")
        if self.mode not in ("exact", "inexact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.branch_rule not in ("vertex", "edge"):
            raise ValueError(f"unknown branch rule {self.branch_rule!r}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if self.beta < 1:
            raise ValueError("beta must be at least 1")
        if self.thread_count != 1:
            raise ValueError("thread_count must be 1: the search is single-threaded")
        if self.time_limit is not None and not self.time_limit > 0:  # NaN too
            raise ValueError("time_limit must be positive")
        if self.ilp_edge_limit < 0 or self.ilp_timeout_seconds < 0:
            raise ValueError("ILP limits must be non-negative")
        if not math.isfinite(self.ilp_timeout_seconds):
            raise ValueError("ilp_timeout_seconds must be finite")
        if self.neighborhood_limit < 0:
            raise ValueError("neighborhood_limit must be non-negative")


@dataclass
class SolveResult:
    labels: list[int]
    value: int
    optimal: bool
    events: list[tuple[float, int]]
    root_kernel_vertices: int
    root_kernel_edges: int
    nodes: int
    wall_time: float
    # "time_limit" when the deadline stopped the search, else "exhausted"
    stop_reason: str = "exhausted"


def save_events(path: str, events: Sequence[tuple[float, int]]) -> None:
    """Write the (time, best value) progress log as CSV."""
    with open(path, "w") as fh:
        fh.write("time_seconds,best_value\n")
        for t, v in events:
            fh.write(f"{t:.6f},{v}\n")


# ---------------------------------------------------------------------------
# branching


def select_branch_vertex(p: Problem) -> int:
    """Highest weighted-degree non-terminal adjacent to an active terminal."""
    g = p.graph
    troots = p.block_of
    best = None
    for r in p.active_terminals():
        for x in g.neighbors(r):
            if x in troots:
                continue
            key = (-g.weighted_degree(x), x)
            if best is None or key < best:
                best = key
    if best is None:
        raise ReductionIncomplete("no branch vertex: reductions should have solved this")
    return best[1]


def _child(p: Problem, x: int, cut: Sequence[int], join: int | None = None) -> Problem:
    """Branch child: merge x into ``join``, then delete the edges from x to ``cut``.

    The merge comes first so that, with a ``join``, each deletion is between
    two terminals: it keeps the other terminals' isolating cuts and adds no
    loose weight. ``p`` is at
    a fixpoint, so ``join`` has no edge to a terminal of ``cut``, and the
    child's graph and deleted weight are those of deleting first.
    """
    c = p.copy()
    if join is not None:
        c.contract_set((x,), join)
        x = join
    for r in cut:
        c.delete_edge(x, r)
    c.lower_bound = max(p.lower_bound, c.deleted_weight)
    return c


def branch_vertex(p: Problem, x: int, best_value: float,
                  beta: int | None = None) -> list[Problem]:
    """Split on the block of x, one child per viable adjacent terminal.

    A terminal whose edge to x plus all of x's non-terminal weight cannot
    beat x's heaviest terminal edge is pruned: assigning x there is never
    strictly better than the heaviest block. An extra child assigns x to
    no adjacent terminal when its non-terminal weight alone dominates.
    With ``beta`` set, only the beta heaviest surviving children are kept.
    Ties go to the lower block: ``active_terminals`` is in block order, and
    ``max`` and ``sorted`` keep the first of equal keys.
    """
    g = p.graph
    adj = g.neighbors(x)
    adj_terms = [r for r in p.active_terminals() if r in adj]
    if not adj_terms:
        raise ReductionIncomplete(f"vertex {x} is not terminal-adjacent")
    w_max = max(adj[r] for r in adj_terms)
    w_nonterm = g.weighted_degree(x) - sum(adj[r] for r in adj_terms)

    surviving = [r for r in adj_terms if adj[r] + w_nonterm > w_max]
    if beta is not None and len(surviving) > beta:
        kept = set(sorted(surviving, key=lambda r: -adj[r])[:beta])
        surviving = [r for r in surviving if r in kept]

    def assign(r: int) -> Problem:
        return _child(p, x, [r2 for r2 in adj_terms if r2 != r], r)

    children = [assign(r) for r in surviving]
    if w_nonterm > w_max and len(adj_terms) < p.active_count():
        children.append(_child(p, x, adj_terms))
    if not children:
        # every candidate block was pruned; the heaviest-edge block is never
        # worse than any of them, so keep exactly that one
        children.append(assign(max(adj_terms, key=adj.get)))
    return [c for c in children if c.lower_bound < best_value]


def branch_edge(p: Problem, x: int, best_value: float) -> list[Problem]:
    """Two-way split on the heaviest edge from x to a terminal."""
    g = p.graph
    adj = g.neighbors(x)
    adj_terms = [r for r in p.active_terminals() if r in adj]
    if not adj_terms:
        raise ReductionIncomplete(f"vertex {x} is not terminal-adjacent")
    r = max(adj_terms, key=adj.get)  # of equal weights, max keeps the lowest block
    children = [_child(p, x, [], r), _child(p, x, [r])]
    return [c for c in children if c.lower_bound < best_value]


def shrink_terminals(p: Problem, delta: float) -> int:
    """Heuristic shrinking applied before each branch in inexact mode.

    Deletes all edges around the ceil(delta * |active|) lowest
    weighted-degree terminals (committing their weight to the cut) and
    absorbs into the heaviest terminal every vertex adjacent to it and to
    no other terminal. Returns the number of changes.
    """
    g = p.graph
    actives = p.active_terminals()
    count = math.ceil(delta * len(actives))
    if count == 0 or len(actives) < 2:
        return 0
    changed = 0
    # sorted and max keep block order among ties
    victims = sorted(actives, key=g.weighted_degree)[:count]
    for r in victims:
        for x in sorted(g.neighbors(r)):
            p.delete_edge(r, x)
            changed += 1
    p.refresh_active()
    remaining = p.active_terminals()
    if len(remaining) < 2:
        return changed
    h_root = max(remaining, key=g.weighted_degree)
    other_roots = set(remaining) - {h_root}
    grab = [v for v in sorted(g.neighbors(h_root))
            if v not in p.block_of and not other_roots & set(g.neighbors(v))]
    if grab:
        changed += p.contract_set(grab, h_root)
    return changed


# ---------------------------------------------------------------------------
# the search loop


class _Search:
    def __init__(self, root: Problem, config: SolverConfig, bound: BoundState,
                 deadline: float | None):
        self.config = config
        self.bound = bound
        self.deadline = deadline
        self.heap: list[tuple[int, int, Problem]] = []
        self.seq = 0
        self.stopped = False
        self.nodes = 0
        self.refines = 0
        self.root_kernel: tuple[int, int] | None = None
        command = config.ilp_command or os.environ.get(ilp.ENV_COMMAND)
        self.ilp_command = command
        self.ilp_enabled = bool(command)
        self._push(root)

    def _push(self, p: Problem) -> None:
        heapq.heappush(self.heap, (p.lower_bound, self.seq, p))
        self.seq += 1

    def publish(self, p: Problem, labels: list[int]) -> None:
        """Offer ``labels`` at their cut on the original graph; polish if new."""
        value = p.solution_value(labels)
        improved = self.bound.improve(value, labels, now=time.monotonic())
        if not improved or not self.config.local_search:
            return
        seed = self.config.seed * 1000003 + self.refines
        self.refines += 1
        anchors = p.anchor_sets()
        better, better_value = refine(p.original, p.terminal_vertices, labels,
                                      anchors, seed=seed, deadline=self.deadline)
        if better_value < value:
            self.bound.improve(better_value, better, now=time.monotonic())

    def close(self, p: Problem) -> list[Problem]:
        """Publish a solved leaf; it has no children."""
        self.publish(p, p.solved_labels())
        return []

    def process(self, p: Problem, is_root: bool) -> list[Problem]:
        cfg = self.config
        order = DEFAULT_ORDER if is_root else NODE_ORDER
        report = run_reduction_loop(p, self.bound, cfg, self.deadline, order,
                                    stop_when_dominated=not is_root)
        if is_root:
            self.root_kernel = (report.vertices_after, report.edges_after)
        if report.solved:
            return self.close(p)
        if p.lower_bound >= self.bound.best_value:
            return []
        if expired(self.deadline):
            self.stopped = True
            return [p]

        if (self.ilp_enabled and p.active_count() >= 2
                and 1 <= p.graph.num_edges < cfg.ilp_edge_limit):
            budget = cfg.ilp_timeout_seconds
            if self.deadline is not None:
                budget = min(budget, self.deadline - time.monotonic())
            out = ilp.solve_problem(p, self.ilp_command, budget)
            if out.status == ilp.SOLVED:
                self.publish(p, out.labels)
                return []
            if out.status == ilp.UNAVAILABLE:
                self.ilp_enabled = False

        if cfg.mode == "inexact":
            shrink_terminals(p, cfg.delta)
            p.refresh_active()
            if p.is_solved():
                return self.close(p)

        best = self.bound.best_value
        x = select_branch_vertex(p)
        if cfg.branch_rule == "edge":
            return branch_edge(p, x, best)
        beta = cfg.beta if cfg.mode == "inexact" else None
        return branch_vertex(p, x, best, beta)

    def run(self) -> None:
        """Best-first loop: pop the lowest bound, prune, process, push."""
        while self.heap and not self.stopped:
            lb, seq, p = heapq.heappop(self.heap)
            if lb >= self.bound.best_value:
                continue
            if expired(self.deadline):
                self.stopped = True
                self._push(p)  # the heap keeps every unresolved subproblem
                return
            self.nodes += 1
            for c in self.process(p, is_root=seq == 0):
                self._push(c)


def solve(graph: ContractableGraph, terminals: Sequence[int],
          config: SolverConfig | None = None) -> SolveResult:
    """Minimum multiterminal cut of ``graph`` for the given terminals.

    Returns the best assignment found, its value, and whether the search
    tree was exhausted in exact mode (which certifies optimality). Soft
    limits are honored between operations: on timeout the best incumbent
    is returned with the optimality flag cleared.
    """
    return solve_prepared(Problem.from_instance(graph, terminals), config)


def solve_prepared(root: Problem, config: SolverConfig | None = None) -> SolveResult:
    """Run the search on an existing root problem (which it consumes).

    Used for instances whose terminals already absorbed a grown block of
    vertices; values and assignments still refer to the problem's original
    graph.
    """
    if config is None:
        config = SolverConfig()
    t0 = time.monotonic()
    bound = BoundState(t0)
    trivial = root.project(fill=0)
    bound.improve(root.solution_value(trivial), trivial, now=t0)
    deadline = None if config.time_limit is None else t0 + config.time_limit
    search = _Search(root, config, bound, deadline)
    search.run()

    kernel_v, kernel_e = search.root_kernel or (root.graph.num_vertices,
                                                root.graph.num_edges)
    stop_reason = "time_limit" if search.stopped else "exhausted"
    optimal = stop_reason == "exhausted" and config.mode == "exact"
    nodes = search.nodes
    # free the open subproblems before reading the clock, so that wall_time
    # is what the caller waits for
    del search
    return SolveResult(
        labels=bound.best_labels,
        value=int(bound.best_value),
        optimal=optimal,
        events=list(bound.events),
        root_kernel_vertices=kernel_v,
        root_kernel_edges=kernel_e,
        nodes=nodes,
        wall_time=time.monotonic() - t0,
        stop_reason=stop_reason,
    )
