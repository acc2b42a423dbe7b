"""Instance generators of the benchmark, independent of the test suite.

Every instance is produced as graph text and goes through the program's
own parser, terminal placement and block growth, which is the path the
command line takes. The generators here only produce edge lists; the
timed set-up (``prepare``) is what the program does with them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Parameters of the three workloads. Why each was chosen is in BENCHMARK.json.
ORACLE_BASE_SEED = 20240102
ORACLE_COUNT = 500
ORACLE_N = (5, 12)
ORACLE_M_MAX = 30
ORACLE_W_MAX = 10
ORACLE_KS = (3, 4)

# The grown corpus is fixed, renumberings too; the seed only orders it
# (see grown_specs). Larger graphs (n=80, m=240) mostly run out of any
# budget that fits a run: 5-6 of 16 were certified within 5 s each.
GROWN_BASE_SEED = 20240101
GROWN_RENUMBER_SEED = 20240103
GROWN_BASE_COUNT = 16
GROWN_COPIES = 6
GROWN_N = 35
GROWN_M = 105
GROWN_W_MAX = 10
GROWN_K = 5
GROWN_FRACTION = 0.2

# At 200x200 one kernelization plus one solve took ~20 s, so a 30 s run
# held a single pass. 100x100 (10k vertices) keeps the O(n) flow set-up
# dominant and fits five to seven passes, whose medians damp the host's drift.
TORUS_SIDE = 100
TORUS_K = 8
TORUS_FRACTION = 0.1
TORUS_TERMINAL_SEED = 1


@dataclass
class Spec:
    """One instance before set-up: an edge list plus how to place terminals.

    ``terminals`` is either a fixed list (the oracle corpus draws them at
    random) or None, in which case the program's ``generate_terminals``
    places ``k`` of them on ``placement_edges`` (the graph before
    renumbering) and they are mapped through ``relabel``.
    """

    name: str
    group: int  # instances of one group are copies of one graph
    n: int
    edges: list[tuple[int, int, int]]
    k: int
    fraction: float = 0.0
    terminals: list[int] | None = None
    terminal_seed: int = 0
    relabel: list[int] | None = None
    placement_edges: list[tuple[int, int, int]] | None = field(default=None, repr=False)


def random_connected_graph(rng: random.Random, n_min: int, n_max: int, m_max: int,
                           w_max: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Random spanning tree plus a random number of extra edges (at most m_max)."""
    n = rng.randint(n_min, n_max)
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = rng.randint(1, w_max)
    budget = min(m_max, n * (n - 1) // 2) - (n - 1)
    extra = rng.randint(0, max(0, budget))
    while extra > 0:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, w_max)
            extra -= 1
    return n, [(u, v, w) for (u, v), w in sorted(edges.items())]


def random_graph_nm(rng: random.Random, n: int, m: int,
                    w_max: int) -> list[tuple[int, int, int]]:
    """Random connected graph with exactly n vertices and m edges."""
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = rng.randint(1, w_max)
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, w_max)
    return [(u, v, w) for (u, v), w in sorted(edges.items())]


def torus_edges(width: int, height: int) -> list[tuple[int, int, int]]:
    """Unit-weight torus grid; vertex (x, y) has id y * width + x."""
    edges = set()
    for y in range(height):
        for x in range(width):
            v = y * width + x
            for u in (y * width + (x + 1) % width, ((y + 1) % height) * width + x):
                edges.add((min(u, v), max(u, v)))
    return [(u, v, 1) for u, v in sorted(edges)]


def oracle_specs(seed: int, count: int = ORACLE_COUNT) -> list[Spec]:
    """The oracle corpus: renumbered copies of fixed small random graphs.

    The graphs, weights and terminals are drawn once, from
    ORACLE_BASE_SEED; the seed draws a vertex renumbering of each, as for
    the grown corpus. With fresh graphs per seed, the median solve time of
    a pass moved by a fifth between seeds on the same host.
    """
    base = random.Random(ORACLE_BASE_SEED)
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        n, edges = random_connected_graph(base, *ORACLE_N, ORACLE_M_MAX, ORACLE_W_MAX)
        k = base.choice([k for k in ORACLE_KS if k <= n])
        terminals = base.sample(range(n), k)
        perm = list(range(n))
        rng.shuffle(perm)
        renamed = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                         for u, v, w in edges)
        specs.append(Spec(f"oracle{i}", i, n, renamed, k,
                          terminals=sorted(perm[t] for t in terminals)))
    return specs


def grown_specs(seed: int, base_count: int = GROWN_BASE_COUNT,
                copies: int = GROWN_COPIES) -> list[Spec]:
    """Renumbered copies of a fixed corpus of random graphs with grown
    blocks, in an order drawn from the seed.

    Every base graph comes in ``copies`` random vertex renumberings, on
    which the program grows the blocks and searches with other tie-breaks
    and another search order. The renumberings are fixed as well: drawn
    afresh per seed, they grew or shrank a pass's search trees by a sixth
    (1718-1994 nodes over five seeds), and its solve time with them.
    """
    base = random.Random(GROWN_BASE_SEED)
    rng = random.Random(GROWN_RENUMBER_SEED)
    specs = []
    for b in range(base_count):
        edges = random_graph_nm(base, GROWN_N, GROWN_M, GROWN_W_MAX)
        for c in range(copies):
            perm = list(range(GROWN_N))
            rng.shuffle(perm)
            renamed = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                             for u, v, w in edges)
            specs.append(Spec(f"grown{b}.{c}", b, GROWN_N, renamed, GROWN_K,
                              fraction=GROWN_FRACTION, terminal_seed=b,
                              relabel=perm, placement_edges=edges))
    random.Random(seed).shuffle(specs)
    return specs


def torus_specs(seed: int, side: int = TORUS_SIDE) -> list[Spec]:
    """One unit torus; the seed shifts where its terminals lie.

    The terminals are placed once, with TORUS_TERMINAL_SEED, and the seed
    draws a translation of the torus that moves them. A translation maps
    the torus onto itself, so every seed solves the same instance under
    other vertex ids. Placing the terminals afresh per seed changes their
    pattern, which moved the kernelization time by a seventh between seeds.
    """
    rng = random.Random(seed)
    dx, dy = rng.randrange(side), rng.randrange(side)
    shift = [((y + dy) % side) * side + (x + dx) % side
             for y in range(side) for x in range(side)]
    edges = torus_edges(side, side)
    return [Spec(f"torus{side}x{side}", 0, side * side, edges, TORUS_K,
                 fraction=TORUS_FRACTION, terminal_seed=TORUS_TERMINAL_SEED,
                 relabel=shift, placement_edges=edges)]


@dataclass
class Prepared:
    """An instance after set-up: its terminals and the root problem."""

    spec: Spec
    terminals: list[int]
    problem: object


def prepare(spec: Spec, mtcut) -> Prepared:
    """Instance text -> parse_graph -> terminals -> grown root problem.

    Program functions are looked up on their modules at call time, so a
    tracer that replaced them sees these calls.
    """
    text = mtcut.graphio.write_graph(
        mtcut.graph.ContractableGraph.from_edge_list(spec.n, spec.edges))
    g = mtcut.graphio.parse_graph(text)
    if spec.terminals is not None:
        terminals = list(spec.terminals)
    else:
        placement = g
        if spec.placement_edges is not None:
            placement = mtcut.graph.ContractableGraph.from_edge_list(
                spec.n, spec.placement_edges)
        terminals = mtcut.bench.generate_terminals(placement, spec.k, spec.terminal_seed)
        if spec.relabel is not None:
            terminals = [spec.relabel[t] for t in terminals]
    if spec.fraction > 0:
        problem = mtcut.bench.grow_terminal_blocks(g, terminals, spec.fraction)
    else:
        problem = mtcut.graph.Problem.from_instance(g, terminals)
    return Prepared(spec, terminals, problem)
