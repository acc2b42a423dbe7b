"""Independent oracles, consistency checks and instance generators shared
by the test suite.

Everything here is deliberately brute force: enumeration over assignments,
cut enumeration over subsets, remove-and-check articulation points, a full
rescan of a graph's adjacency. These stay independent of the solver's own
code paths.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from mtcut import (BoundState, ContractableGraph, FlowResult, GraphError, Problem, ReductionReport,
                   SolverConfig)
from mtcut.bench import generate_terminals, grow_terminal_blocks
from mtcut.flow import FlowNetwork, max_flow_st
from mtcut.graph import SCIPY_MIN_VERTICES, ArrayView
from mtcut.localsearch import GainTable
import mtcut.reductions


# F1 path, F2 unit triangle, F3 star, F4 path plus pendant cycle, F5 twin
# square. Tuples: (n, edges, terminals, optimum).
FIXTURES = {
    "F1": (3, [(0, 1, 2), (1, 2, 1)], (0, 2), 1),
    "F2": (3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], (0, 1, 2), 3),
    "F3": (4, [(0, 1, 3), (0, 2, 1), (0, 3, 1)], (1, 2, 3), 2),
    "F4": (5, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1), (4, 1, 1)], (0, 2), 1),
    "F5": (4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)], (0, 1), 2),
}


# the four search modes the cross-checks solve every instance in
SOLVER_MODES = [SolverConfig(), SolverConfig(branch_rule="edge"),
                SolverConfig(mode="inexact", delta=0.5, beta=2),
                SolverConfig(mode="inexact", branch_rule="edge")]


def fixture_graph(name: str) -> ContractableGraph:
    n, edges, _, _ = FIXTURES[name]
    return ContractableGraph.from_edge_list(n, edges)


def fixture_problem(name: str) -> Problem:
    n, edges, terminals, _ = FIXTURES[name]
    return Problem.from_instance(ContractableGraph.from_edge_list(n, edges), terminals)


def check_consistency(g: ContractableGraph) -> None:
    """Raise GraphError unless adjacency, degrees, counters and find agree."""
    n_live = 0
    m = 0
    for v in g.live_vertices():
        n_live += 1
        wsum = 0
        for x, w in g.neighbors(v).items():
            if x == v:
                raise GraphError(f"self-loop at {v}")
            if not g.is_live(x) or g.neighbors(x).get(v) != w:
                raise GraphError(f"asymmetric edge ({v},{x})")
            if w < 1:
                raise GraphError(f"non-positive weight on ({v},{x})")
            wsum += w
            m += 1
        if wsum != g.weighted_degree(v):
            raise GraphError(f"stale weighted degree at {v}")
    if n_live != g.num_vertices or m != 2 * g.num_edges:
        raise GraphError("stale vertex/edge counters")
    for v in range(g.n_original):
        if not g.is_live(g.find(v)):
            raise GraphError(f"vertex {v} maps to a dead representative")


def total_contracted(report: ReductionReport) -> int:
    """Vertices a reduction run merged away, summed over its rules."""
    return sum(report.contracted.values())


# DEFAULT_ORDER name -> its function in mtcut.reductions
RULE_FUNCTIONS = {
    "inter_terminal": "delete_inter_terminal_edges",
    "isolating_cuts": "contract_isolating_cuts",
    "low_degree": "reduce_low_degree",
    "heavy_edge": "reduce_heavy_edge",
    "heavy_triangle": "reduce_heavy_triangle",
    "connectivity": "reduce_connectivity",
    "articulation": "reduce_articulation_points",
    "equal_neighborhoods": "reduce_equal_neighborhoods",
    "non_terminal_flows": "reduce_non_terminal_flows",
}


def record_rule_calls(monkeypatch, bound: BoundState | None = None) -> list:
    """Wrap every rule; each call appends (rule, state before, result, state after).

    A state is the graph's version and the incumbent's value, or ``None``
    for the value when no ``bound`` is given.
    """
    log = []

    def state(p):
        return p.graph.version(), None if bound is None else bound.best_value

    for name, func in RULE_FUNCTIONS.items():
        def wrapped(p, *args, _name=name, _real=getattr(mtcut.reductions, func)):
            before = state(p)
            res = _real(p, *args)
            log.append((_name, before, res, state(p)))
            return res
        monkeypatch.setattr(mtcut.reductions, func, wrapped)
    return log


def count_calls(monkeypatch, name: str, module=mtcut.reductions) -> list:
    """Wrap ``module.<name>``; each call appends its arguments."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_view_builds(monkeypatch) -> tuple[list, list]:
    """Spy on the array view's two makers: each build from the dicts
    appends its graph to the first list, each derivation from an earlier
    view appends its graph to the second."""
    built, derived = [], []
    build, derive = ArrayView.__init__, ArrayView.derived.__func__

    def building(self, g):
        built.append(g)
        build(self, g)

    def deriving(cls, base, g):
        derived.append(g)
        return derive(cls, base, g)

    monkeypatch.setattr(ArrayView, "__init__", building)
    monkeypatch.setattr(ArrayView, "derived", classmethod(deriving))
    return built, derived


def assert_same_view(got, want):
    """Two views are equal: the version, and every array with its dtype,
    byte for byte."""
    assert got.version == want.version
    for view in (got, want):
        assert view.matrix.has_sorted_indices
    arrays = [(view.ids, view.index, view.matrix.indptr, view.matrix.indices,
               view.matrix.data, view.labels, view.sizes, view.degree, view.wdeg, view.rows)
              for view in (got, want)]
    for a, b in zip(*arrays):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def fresh_isolating_cut(p: Problem, t: int) -> FlowResult:
    """Terminal t's largest minimum isolating cut against the other active
    terminals, from one flow on a fresh network of the current graph."""
    return max_flow_st(FlowNetwork(p.graph), t, [r for r in p.active_terminals() if r != t])


def stale_kept_cuts(p: Problem) -> list[int]:
    """Active terminals whose kept isolating cut differs from a fresh flow,
    by value or by source side mapped through ``find``."""
    stale = []
    if p.active_count() < 2:
        return stale
    for t, kept in p.kept_cuts().items():
        if not p.active[p.block_of[t]]:
            continue
        fresh = fresh_isolating_cut(p, t)
        if kept.value != fresh.value or \
                {p.graph.find(x) for x in kept.source_side} != fresh.source_side:
            stale.append(t)
    return stale


def gains_from_scratch(table: GainTable) -> dict[int, tuple[int, int]]:
    """Every vertex's best move, from a table rebuilt from the labels."""
    fresh = GainTable(table.graph, list(table.labels), table.num_blocks)
    return {v: fresh.best_move(v) for v in range(table.graph.n_original)}


def brute_force_opt(n, edges, terminals):
    """Minimum multiterminal cut by enumeration of all assignments."""
    k = len(terminals)
    free = [v for v in range(n) if v not in set(terminals)]
    base = np.zeros(n, dtype=np.int64)
    for i, t in enumerate(terminals):
        base[t] = i
    if not free:
        value = sum(w for u, v, w in edges if base[u] != base[v])
        return int(value), base.tolist()
    count = k ** len(free)
    labs = np.tile(base, (count, 1))
    idx = np.arange(count)
    for j, v in enumerate(free):
        labs[:, v] = (idx // (k ** j)) % k
    totals = np.zeros(count, dtype=np.int64)
    for u, v, w in edges:
        totals += w * (labs[:, u] != labs[:, v])
    best = int(totals.argmin())
    return int(totals[best]), labs[best].tolist()


def brute_force_block_opt(edges, vertices, fixed_blocks):
    """Minimum cut over assignments of ``vertices`` to the fixed block ids.

    ``fixed_blocks`` maps some vertices to their immovable block; every
    other vertex ranges over the same block ids. Used to score reduced
    kernels, whose vertex ids and block ids are arbitrary.
    """
    blocks = sorted(set(fixed_blocks.values()))
    if len(blocks) <= 1:
        return 0
    free = [v for v in vertices if v not in fixed_blocks]
    count = len(blocks) ** len(free)
    pos = {v: i for i, v in enumerate(vertices)}
    base = np.zeros(len(vertices), dtype=np.int64)
    for v, b in fixed_blocks.items():
        base[pos[v]] = b
    labs = np.tile(base, (count, 1))
    idx = np.arange(count)
    for j, v in enumerate(free):
        labs[:, pos[v]] = np.asarray(blocks)[(idx // (len(blocks) ** j)) % len(blocks)]
    totals = np.zeros(count, dtype=np.int64)
    for u, v, w in edges:
        totals += w * (labs[:, pos[u]] != labs[:, pos[v]])
    return int(totals.min())


def kernel_opt(p: Problem) -> int:
    """Brute-force optimum of a problem's kernel (active terminals only)."""
    g = p.graph
    live = sorted(g.live_vertices())
    edges = list(g.edges())
    fixed = {r: p.block_of[r] for r in p.active_terminals()}
    return brute_force_block_opt(edges, live, fixed)


def brute_force_min_st_cut(n, edges, s, sinks):
    """Minimum s-T cut value by enumeration of source sides."""
    sinks = set(sinks)
    rest = [v for v in range(n) if v != s and v not in sinks]
    best = None
    for mask in range(1 << len(rest)):
        side = {s} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        w = sum(w for u, v, w in edges if (u in side) != (v in side))
        if best is None or w < best:
            best = w
    return best


def naive_articulation_points(n, edges):
    """Remove-and-check articulation points on the live vertex set."""
    adj = {v: set() for v in range(n)}
    for u, v, _ in edges:
        adj[u].add(v)
        adj[v].add(u)

    def components(skip):
        seen = set()
        comps = 0
        for v in range(n):
            if v == skip or v in seen:
                continue
            comps += 1
            stack = [v]
            seen.add(v)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y != skip and y not in seen:
                        seen.add(y)
                        stack.append(y)
        return comps

    base = components(None)
    return {v for v in range(n) if components(v) > base - (0 if adj[v] else 1)}


def naive_twin_pairs(g: ContractableGraph, excluded, limit):
    """All-pairs equal-neighborhood scan restricted to small neighborhoods."""
    live = [v for v in g.live_vertices() if v not in excluded and g.degree(v) <= limit]
    pairs = set()
    for a, b in itertools.combinations(live, 2):
        na = {x: w for x, w in g.neighbors(a).items() if x != b}
        nb = {x: w for x, w in g.neighbors(b).items() if x != a}
        if na == nb:
            pairs.add(frozenset((a, b)))
    return pairs


def random_connected_graph(rng: random.Random, n_min=5, n_max=12, m_max=30, w_max=10):
    n = rng.randint(n_min, n_max)
    edges = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = rng.randint(1, w_max)
    budget = min(m_max, n * (n - 1) // 2) - (n - 1)
    extra = rng.randint(0, max(0, budget))
    while extra > 0:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, w_max)
            extra -= 1
    return n, [(u, v, w) for (u, v), w in sorted(edges.items())]


def random_instance(rng: random.Random, n_min=5, n_max=12, m_max=30, w_max=10,
                    ks=(3, 4)):
    n, edges = random_connected_graph(rng, n_min, n_max, m_max, w_max)
    k = rng.choice([k for k in ks if k <= n])
    terminals = sorted(rng.sample(range(n), k))
    return n, edges, terminals


def twin_rich_instance(rng: random.Random, n_min=4, n_max=9, m_max=16, w_max=2,
                       ks=(2, 3)):
    """A random instance in which some vertices have clones.

    A clone of ``v`` gets ``v``'s weighted neighborhood in the random graph,
    and half of the clones also an edge to ``v``; the clones are added after
    all neighborhoods are read. Terminals are drawn from every vertex.
    """
    n, edges = random_connected_graph(rng, n_min, n_max, m_max, w_max)
    nbrs: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for u, v, w in edges:
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    originals = rng.sample(range(n), rng.randint(1, max(1, n // 3)))
    for c, v in enumerate(originals, start=n):
        edges += [(x, c, w) for x, w in nbrs[v]]
        if rng.random() < 0.5:
            edges.append((v, c, rng.randint(1, w_max)))
    n_all = n + len(originals)
    k = rng.choice([k for k in ks if k <= n_all])
    return n_all, edges, sorted(rng.sample(range(n_all), k))


def random_nm_edges(rng, n, m, w_max=10):
    """A random spanning tree plus random edges, m edges in all."""
    edges = {(rng.randrange(v), v): rng.randint(1, w_max) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), rng.randint(1, w_max))
    return [(u, v, w) for (u, v), w in edges.items()]


def torus_graph(width, height):
    """Unit-weight torus grid with width*height vertices."""
    def vid(x, y):
        return (y % height) * width + (x % width)

    edges = []
    for y in range(height):
        for x in range(width):
            edges.append((vid(x, y), vid(x + 1, y), 1))
            edges.append((vid(x, y), vid(x, y + 1), 1))
    dedup = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        dedup[key] = w
    return ContractableGraph.from_edge_list(
        width * height, [(u, v, w) for (u, v), w in dedup.items()])


def hanging_tree_graph(rng: random.Random, n: int, parts: int, w_max=5) -> ContractableGraph:
    """``n`` vertices in ``parts`` components, numbered in random order.

    Each component's first half is a core, a random tree with as many extra
    edges again, and each later vertex hangs off an earlier one by a single
    edge, so trees hang off the core. A component of one vertex is
    isolated.
    """
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    edges = {}
    for lo, hi in zip([0] + cuts, cuts + [n]):
        part = order[lo:hi]
        core = max(1, len(part) // 2)
        for i in range(1, len(part)):
            u, v = sorted((part[rng.randrange(i)], part[i]))
            edges[(u, v)] = rng.randint(1, w_max)
        for _ in range(core if core > 2 else 0):
            u, v = sorted(rng.sample(part[:core], 2))
            edges.setdefault((u, v), rng.randint(1, w_max))
    return ContractableGraph.from_edge_list(n, [(u, v, w) for (u, v), w in edges.items()])


def adjacency_and_find(g: ContractableGraph) -> tuple[list, list[int]]:
    """Each live vertex's adjacency items in dict order, and the find map."""
    return ([(v, list(g.neighbors(v).items())) for v in g.live_vertices()],
            [g.find(v) for v in range(g.n_original)])


def large_contraction_graphs(rng: random.Random) -> list[tuple[ContractableGraph, list[int]]]:
    """(graph, terminals) pairs with at least SCIPY_MIN_VERTICES live
    vertices: two tori, random graphs with m = 2n and m = 3n, the instance
    graphs of a grown torus and a grown random graph (tombstones), and a
    graph of three components, one of them small."""
    n = SCIPY_MIN_VERTICES
    graphs = [torus_graph(25, 20), torus_graph(31, 23)]
    for factor in (2, 3):
        size = rng.randint(n, n + 200)
        graphs.append(ContractableGraph.from_edge_list(
            size, random_nm_edges(rng, size, factor * size, 9)))
    out = [(g, generate_terminals(g, rng.randint(2, 8), 0)) for g in graphs]
    for g in (torus_graph(30, 30), ContractableGraph.from_edge_list(
            n + 300, random_nm_edges(rng, n + 300, 3 * (n + 300), 5))):
        grown = grow_terminal_blocks(g, generate_terminals(g, 8, 0), 0.2)
        out.append((grown.graph, list(grown.terminal_vertices)))
    edges = [(u, v, w) for u, v, w in hanging_tree_graph(rng, n + 40, 2).edges()]
    edges += [(u + n + 40, v + n + 40, w) for u, v, w in hanging_tree_graph(rng, 30, 1).edges()]
    g = ContractableGraph.from_edge_list(n + 70, edges)
    out.append((g, rng.sample(range(n + 40), 4)))
    return out


def contract_randomly(rng: random.Random, g: ContractableGraph, protected=()) -> None:
    """One random contraction of live vertices, none of them in
    ``protected`` but the target: a vertex with some or all of its
    neighbors, or a scattered set of vertices, adjacent or not."""
    live = [v for v in g.live_vertices() if v not in protected]
    u = rng.choice(live)
    kind = rng.random()
    if kind < 0.5:
        nbrs = [x for x in g.neighbors(u) if x not in protected]
        members = nbrs if kind < 0.15 else nbrs[:rng.randint(1, 3)]
    else:
        members = rng.sample(live, rng.randint(2, 5))
    g.contract_vertices(members + [u], u)
