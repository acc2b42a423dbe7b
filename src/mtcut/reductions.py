"""Safety-preserving contraction and deletion rules, applied to fixpoint.

Every rule shrinks a :class:`~mtcut.graph.Problem` without changing the
optimal cut value of the original instance once the accumulated deleted
weight is added back. The rules range from purely local tests (vertex
degree, heavy edges, triangles) to global ones backed by maximum flows,
articulation points and the CAPFOREST connectivity certificate.

Four rules first ask, in one pass over the live vertices, whether any
edge or vertex pair can pass their test, and return ``(0, 0)`` when none
can. Three read the vertex degrees:

- ``reduce_heavy_edge`` needs a non-terminal whose heaviest edge carries at
  least half of its weighted degree;
- ``reduce_heavy_triangle`` needs two adjacent non-terminals of degree two
  or more whose heaviest edge twice plus the second heaviest reach their
  weighted degree, since the triangle test sums two distinct edges of each
  end of the tested edge;
- ``reduce_connectivity`` needs two vertices whose weighted degree exceeds
  its threshold, since a certificate never exceeds either end's weighted
  degree.

The fourth, ``reduce_equal_neighborhoods``, needs two non-terminals of
degree at most its limit that share their neighbor ids, without or with
themselves (twins that are not or are adjacent); it compares the ids'
count, minimum, maximum and sum.

Each gate is exact. Until a scan contracts, the graph stays as the gate
read it, and whatever the scan would contract passes the gate, so a closed
gate skips only scans that would contract nothing.

Where :func:`~mtcut.graph.large_view` gives the graph's array view (at
least ``SCIPY_MIN_VERTICES`` live vertices, weights that sum exactly in
float64, scipy present), the rules read it
(:meth:`~mtcut.graph.ContractableGraph.array_view`), one view per graph
version, shared by every rule and flow until the graph changes:

- the flows of ``contract_isolating_cuts`` and ``reduce_non_terminal_flows``
  take their large components from it (see :mod:`mtcut.flow`), and
  ``reduce_non_terminal_flows``' sources share one flow from a
  super-source that bounds each one's side, so that most of them need a
  flow on a few vertices or none (:func:`~mtcut.flow.source_regions`);
- ``reduce_articulation_points`` takes its DFS from scipy's
  ``depth_first_order`` on it;
- the four gates above, the first queue of ``reduce_low_degree`` and the
  ranking of ``reduce_non_terminal_flows``' sources, hop distances
  included, are numpy passes over the view's degrees and weighted
  degrees, which the view computes once; a scan adds at most its mask of
  the non-terminals.

Each gives the results of the dict-walking code it replaces there, which
every other graph keeps. Each reader makes the view if the current version
has none: after contractions alone it is derived from the last view in
numpy, at a fraction of the cost of a build from the dicts (see
:meth:`~mtcut.graph.ContractableGraph.array_view`).
"""

from __future__ import annotations

import heapq
import math
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

try:
    import numpy as np
    from scipy.sparse.csgraph import depth_first_order, dijkstra
except ImportError:  # pragma: no cover; large_view then returns None
    pass

from .flow import (
    FlowNetwork,
    FlowResult,
    isolating_bounds,
    max_flow_st,
    region_flow,
    source_regions,
)
from .graph import ArrayView, BoundState, ContractableGraph, GraphError, Problem, large_view
from .localsearch import expired

# SolverConfig.neighborhood_limit starts from this default
NEIGHBORHOOD_LIMIT = 5  # largest degree reduce_equal_neighborhoods compares
FLOW_CANDIDATES = 5  # reduce_non_terminal_flows' sources per kind


@dataclass
class ReductionReport:
    """Per-rule contraction/deletion counters for one reduction run."""

    contracted: Counter = field(default_factory=Counter)
    deleted: Counter = field(default_factory=Counter)
    passes: int = 0
    solved: bool = False
    fixpoint: bool = False
    vertices_before: int = 0
    vertices_after: int = 0
    edges_before: int = 0
    edges_after: int = 0

    def to_dict(self) -> dict:
        return {
            "contracted": dict(self.contracted),
            "deleted": dict(self.deleted),
            "passes": self.passes,
            "solved": self.solved,
            "fixpoint": self.fixpoint,
            "vertices_before": self.vertices_before,
            "vertices_after": self.vertices_after,
            "edges_before": self.edges_before,
            "edges_after": self.edges_after,
        }


# ---------------------------------------------------------------------------
# edge deletions


def delete_inter_terminal_edges(p: Problem) -> tuple[int, int]:
    """Delete every edge joining two terminals; it must be in any cut."""
    roots = p.block_of
    deleted = 0
    for r in sorted(roots):
        for x in sorted(p.graph.neighbors(r)):
            if x in roots and r < x:
                p.delete_edge(r, x)
                deleted += 1
    return 0, deleted


# ---------------------------------------------------------------------------
# isolating cuts


def _flows(g: ContractableGraph, sources: Sequence[int], sinks: Sequence[int],
           deadline: float | None = None) -> list[FlowResult]:
    """Minimum cut from each source to every sink but itself.

    All flows run on one :class:`FlowNetwork` snapshot of ``g``. The deadline
    is checked before each flow, so the cuts may cover a prefix of ``sources``.
    The first source's component is built before the first check, so the
    stretch up to the second check holds one flow, not a build and a flow.

    :func:`~mtcut.flow.source_regions` decides whether the sources first
    share one flow, and gives the sources it bounds a region each. A source
    with a region runs its flow on the region alone
    (:func:`~mtcut.flow.region_flow`), or none when the region is itself;
    any other runs its full flow. Each gives the cut its full flow gives,
    so no result changes. The deadline is checked before the shared flow
    too; where none is shared, that check answers as the first flow's.
    """
    net = FlowNetwork(g)
    if sources:
        net.component(sources[0])
    if expired(deadline):
        return []
    regions = source_regions(net, sources, sinks)
    flows = []
    for s in sources:
        region = regions.get(s)
        if region is not None:
            if len(region) > 1 and expired(deadline):
                break
            flows.append(region_flow(g, s, region))
            continue
        if expired(deadline):
            break
        flows.append(max_flow_st(net, s, [t for t in sinks if t != s]))
    return flows


def isolating_cuts(g: ContractableGraph, terminals: Sequence[int],
                   deadline: float | None = None) -> list[FlowResult]:
    """Minimum isolating cut of each terminal against all the others.

    Once the deadline passes no flow starts, so the cuts may cover a prefix
    of ``terminals``.
    """
    if len(terminals) < 2:
        raise GraphError("isolating cuts need at least two terminals")
    return _flows(g, terminals, terminals, deadline)


def _contract_source_sides(p: Problem, sources: Sequence[int],
                           flows: Sequence[FlowResult]) -> int:
    """Contract each flow's source side into its source's representative.

    The sides are mapped through ``find`` and applied in order. A side
    keeps out every terminal but the source's own, so no two terminals
    ever merge. A side of one vertex, most of them below the root, maps to
    at most one vertex and is skipped.
    """
    g = p.graph
    troots = p.block_of
    contracted = 0
    for source, res in zip(sources, flows):
        if len(res.source_side) < 2:
            continue
        root = g.find(source)
        own = troots.get(root)
        side = {x for x in map(g.find, res.source_side) if troots.get(x, own) == own}
        if len(side) > 1:
            contracted += p.contract_set(side, root)
    return contracted


def contract_isolating_cuts(p: Problem, bound_state: BoundState | None = None,
                            deadline: float | None = None) -> tuple[int, int]:
    """Contract each terminal's largest minimum isolating cut source side.

    Also derives the isolating-cut bounds: the lower bound tightens the
    problem's own bound, and the upper bound (sum minus the heaviest cut,
    realized by sending every leftover vertex to the terminal with the
    heaviest cut) is offered to the shared incumbent.

    Only the terminals with no cut in :meth:`Problem.kept_cuts` run a flow,
    in block order, on one snapshot of the graph; the kept cuts are those
    no mutation since their flow could have changed. The new cuts join the
    map before the sides are contracted, in block order, so that each
    contraction drops the cuts it splits.
    """
    actives = p.active_terminals()
    if len(actives) < 2:
        return 0, 0
    cuts = p.kept_cuts()
    missing = [t for t in actives if t not in cuts]
    if missing:
        cuts.update(zip(missing, _flows(p.graph, missing, actives, deadline)))
    sources = [t for t in actives if t in cuts]
    flows = [cuts[t] for t in sources]
    contracted = _contract_source_sides(p, sources, flows)

    if len(flows) == len(actives):
        lower, upper = isolating_bounds(flows)
        p.lower_bound = max(p.lower_bound, p.deleted_weight + lower)
        if bound_state is not None and p.deleted_weight + upper < bound_state.best_value:
            top = max(res.value for res in flows)
            heaviest = min(p.block_of[r] for r, res in zip(sources, flows) if res.value == top)
            labels = p.project(fill=heaviest)
            bound_state.improve(p.solution_value(labels), labels, now=time.monotonic())
    return contracted, 0


def share_sibling_cuts(p: Problem, x: int, joined: dict[int, Problem], cut_all: Problem,
                       deadline: float | None = None) -> None:
    """Give the branch child ``cut_all`` the isolating cut of each terminal
    r of ``joined`` from the one flow its joined sibling needs anyway.

    ``p`` was branched on ``x``; ``cut_all`` is its child that deleted every
    edge from x to a terminal, and ``joined[r]`` its child that merged x
    into r. ``joined[r]`` runs and keeps its flow from r, and ``cut_all``
    keeps the cut derived from that flow and p's kept cut of r, which a
    fresh flow would give; :func:`~mtcut.solver.branch_vertex` states why,
    and when a terminal is skipped. Once ``deadline`` passes no flow starts
    and no later terminal is shared.
    """
    kept = p.kept_cuts()
    shared = cut_all.kept_cuts()
    adj = p.graph.neighbors(x)
    for r, child in joined.items():
        k_r = kept.get(r)
        if k_r is None or x in k_r.source_side or r in shared:
            continue
        flows = _flows(child.graph, [r], child.active_terminals(), deadline)
        if not flows:
            return
        j_r = child.kept_cuts()[r] = flows[0]
        outside = k_r.value - adj[r]
        side = k_r.source_side
        if j_r.value <= outside:
            union = j_r.source_side | {x}
            if j_r.value == outside:
                union |= side
            if j_r.value < outside or _reaches(cut_all.graph, x, r, union):
                side = union
        shared[r] = FlowResult(min(outside, j_r.value), side)


def _reaches(g: ContractableGraph, a: int, b: int, inside: frozenset[int]) -> bool:
    """Whether live vertex ``a`` reaches ``b`` in ``g`` through live
    vertices of ``inside``."""
    seen = {a}
    stack = [a]
    while stack:
        for y in g.neighbors(stack.pop()):
            if y == b:
                return True
            if y in inside and y not in seen:
                seen.add(y)
                stack.append(y)
    return False


# ---------------------------------------------------------------------------
# scans on the array view


def _non_terminals(view: ArrayView, troots: dict[int, int]) -> np.ndarray:
    """Per index of ``view``, whether its vertex is not a terminal."""
    free = np.ones(len(view.ids), dtype=bool)
    free[view.index[list(troots)]] = False
    return free


def _repeats(keys) -> bool:
    """Whether two columns of the integer array ``keys`` are equal."""
    if keys.shape[1] < 2:
        return False
    ordered = keys[:, np.lexsort(keys)]
    return bool(np.any(np.all(ordered[:, 1:] == ordered[:, :-1], axis=0)))


# ---------------------------------------------------------------------------
# local rules


def _current_edges(p: Problem,
                   scanned: list[tuple[int, int, int]]) -> Iterator[tuple[int, int, int]]:
    """Re-read scanned edges ``(u, v, _)`` on the graph as it is now.

    Yields ``(a, b, w)``: the ends' current representatives and their edge
    weight, skipping ends that have merged or are both terminals. It is lazy,
    so each edge sees the contractions made for the edges before it. The ends
    stay adjacent until they merge, because the rules using it delete no edge.
    """
    g = p.graph
    troots = p.block_of
    for u, v, _ in scanned:
        a, b = g.find(u), g.find(v)
        if a != b and not (a in troots and b in troots):
            yield a, b, g.neighbors(a)[b]


def reduce_low_degree(p: Problem) -> tuple[int, int]:
    """Absorb non-terminal vertices of degree one and two.

    A degree-1 vertex joins its only neighbor. For a degree-2 vertex the
    heavier incident edge is contracted (ties to the lower neighbor id):
    siding with the stronger neighbor is never worse than any other
    placement of the vertex.

    The first queue holds such non-terminals in ascending id order. On a
    graph with a :func:`~mtcut.graph.large_view` it is read off the view's
    degrees.
    """
    g = p.graph
    troots = p.block_of
    view = large_view(g)
    if view is None:
        queue = deque(v for v in g.live_vertices()
                      if v not in troots and 1 <= g.degree(v) <= 2)
    else:
        seed = _non_terminals(view, troots) & (view.degree >= 1) & (view.degree <= 2)
        queue = deque(view.ids[seed].tolist())
    contracted = 0
    while queue:
        v = queue.popleft()
        if not g.is_live(v) or v in troots:
            continue
        nbrs = g.neighbors(v)
        if not 1 <= len(nbrs) <= 2:
            continue
        u = min(nbrs, key=lambda x: (-nbrs[x], x))
        affected = [x for x in nbrs if x != u] + [u]
        p.contract_set((u, v), u)
        contracted += 1
        for x in affected:
            if g.is_live(x) and x not in troots and 1 <= g.degree(x) <= 2:
                queue.append(x)
    return contracted, 0


def _heavy_edge_gate(p: Problem) -> bool:
    """Whether some non-terminal's heaviest edge is at least half its
    weighted degree; on a graph with a :func:`~mtcut.graph.large_view`, from
    the view's row maxima."""
    view = large_view(p.graph)
    if view is not None:
        top = view.per_row(np.maximum, view.matrix.data)
        free = _non_terminals(view, p.block_of)
        return bool(np.any(free & (view.degree > 0) & (2 * top >= view.wdeg)))
    g = p.graph
    troots = p.block_of
    for v in g.live_vertices():
        nbrs = g.neighbors(v)
        if nbrs and v not in troots and 2 * max(nbrs.values()) >= g.weighted_degree(v):
            return True
    return False


def reduce_heavy_edge(p: Problem) -> tuple[int, int]:
    """Contract edges carrying at least half of an endpoint's weight.

    The qualifying endpoint must be a non-terminal: the justification is
    that this endpoint can always side with its dominant neighbor, and
    terminals cannot move.

    The scan runs only if some non-terminal's heaviest edge weighs at
    least half its weighted degree; otherwise no edge can pass the test.
    """
    if not _heavy_edge_gate(p):
        return 0, 0
    g = p.graph
    troots = p.block_of
    contracted = 0
    for a, b, w in _current_edges(p, list(g.edges())):
        if (a not in troots and 2 * w >= g.weighted_degree(a)) or \
           (b not in troots and 2 * w >= g.weighted_degree(b)):
            contracted += p.contract_set((a, b), min(a, b))
    return contracted, 0


def _two_or_more(items: Iterator[int]) -> bool:
    """Whether ``items`` yields twice; it stops at the second item."""
    return next(items, None) is not None and next(items, None) is not None


def _triangle_end(g: ContractableGraph, v: int) -> bool:
    """Whether v's two heaviest edges pass v's half of the triangle test."""
    nbrs = g.neighbors(v)
    if len(nbrs) < 2:
        return False
    top1 = top2 = 0
    for w in nbrs.values():
        if w > top1:
            top1, top2 = w, top1
        elif w > top2:
            top2 = w
    return 2 * top1 + top2 >= g.weighted_degree(v)


def _heavy_triangle_gate(p: Problem) -> bool:
    """Whether two adjacent non-terminals pass :func:`_triangle_end`.

    On a graph with a :func:`~mtcut.graph.large_view`, ``top1`` is a row's
    maximum and ``top2`` the maximum of the row with the first entry of
    ``top1`` set to 0, which is what :func:`_triangle_end` computes for a
    row of two or more entries; then one pass over the matrix entries looks
    for an edge with two passing ends.
    """
    view = large_view(p.graph)
    if view is not None:
        matrix = view.matrix
        data = matrix.data
        row_of = np.repeat(np.arange(len(view.degree)), view.degree)
        top1 = view.per_row(np.maximum, data)
        at_top = np.flatnonzero(data == top1[row_of])
        first = at_top[np.concatenate(([True], row_of[at_top[1:]] != row_of[at_top[:-1]]))]
        rest = data.copy()
        rest[first] = 0
        top2 = view.per_row(np.maximum, rest)
        ends = (_non_terminals(view, p.block_of) & (view.degree >= 2)
                & (2 * top1 + top2 >= view.wdeg))
        return bool(np.any(ends[row_of] & ends[matrix.indices]))
    g = p.graph
    troots = p.block_of
    ends = {v for v in g.live_vertices() if v not in troots and _triangle_end(g, v)}
    return any(not ends.isdisjoint(g.neighbors(v)) for v in ends)


def reduce_heavy_triangle(p: Problem) -> tuple[int, int]:
    """Contract triangle edges whose endpoints are dominated by the triangle.

    An edge (a, b) in a triangle (a, b, x) is contracted when
    ``w(a,b) + 2*w(a,x) >= wdeg(a)`` and ``w(a,b) + 2*w(b,x) >= wdeg(b)``.
    Both edge endpoints must be non-terminals (the exchange argument moves
    either of them depending on where x sits); the apex x is unrestricted.

    ``w(a,b)`` and ``w(a,x)`` are two distinct edges of a, so the test at a
    needs ``2*top1 + top2 >= wdeg(a)``, where top1 and top2 are a's two
    heaviest edge weights. The scan runs only if two adjacent non-terminals
    pass that, as the two ends of a hit must; otherwise no edge can pass.
    """
    if not _heavy_triangle_gate(p):
        return 0, 0
    g = p.graph
    troots = p.block_of
    contracted = 0
    for a, b, w in _current_edges(p, list(g.edges())):
        if a in troots or b in troots:
            continue
        na, nb = g.neighbors(a), g.neighbors(b)
        small, other = (na, nb) if len(na) <= len(nb) else (nb, na)
        hit = False
        for x in small:  # the apex x is a common neighbor, so neither a nor b
            if x in other and w + 2 * na[x] >= g.weighted_degree(a) \
                    and w + 2 * nb[x] >= g.weighted_degree(b):
                hit = True
                break
        if hit:
            contracted += p.contract_set((a, b), min(a, b))
    return contracted, 0


# ---------------------------------------------------------------------------
# connectivity certificate


def capforest_bounds(g: ContractableGraph) -> dict[tuple[int, int], int]:
    """Per-edge lower bounds on pairwise connectivity (forest scan).

    Scans vertices in order of decreasing attachment to the already
    scanned set; the attachment value of the far endpoint at scan time is
    a lower bound on the connectivity of the edge's endpoints.
    """
    r = {v: 0 for v in g.live_vertices()}
    q: dict[tuple[int, int], int] = {}
    scanned: set[int] = set()
    heap = [(0, v) for v in r]  # ascending, so already a heap
    while heap:
        negr, x = heapq.heappop(heap)
        if x in scanned or -negr != r[x]:
            continue
        scanned.add(x)
        for y, w in g.neighbors(x).items():
            if y in scanned:
                continue
            r[y] += w
            q[(x, y) if x < y else (y, x)] = r[y]
            heapq.heappush(heap, (-r[y], y))
    return q


def _connectivity_gate(p: Problem, best_value: float) -> bool:
    """Whether two vertices' weighted degrees exceed the connectivity
    threshold; never, for an infinite ``best_value``, which it returns at
    once. On a graph with a :func:`~mtcut.graph.large_view` it counts the
    view's weighted degrees."""
    threshold = best_value - p.deleted_weight
    if threshold == math.inf:
        return False
    view = large_view(p.graph)
    if view is not None:
        return int(np.count_nonzero(view.wdeg > threshold)) >= 2
    g = p.graph
    return _two_or_more(v for v in g.live_vertices() if g.weighted_degree(v) > threshold)


def reduce_connectivity(p: Problem, best_value: float) -> tuple[int, int]:
    """Contract edges whose endpoints cannot be separated by a better cut.

    An edge with connectivity certificate strictly above
    ``best_value - deleted_weight`` cannot be cut by any solution improving
    on the incumbent, so merging its endpoints loses nothing.

    A certificate is a lower bound on the connectivity of its ends, which
    is at most either end's weighted degree. So the CAPFOREST scan runs
    only if two vertices have a weighted degree above the threshold.
    """
    if not _connectivity_gate(p, best_value):
        return 0, 0
    threshold = best_value - p.deleted_weight
    scanned = sorted((u, v, qe) for (u, v), qe in capforest_bounds(p.graph).items()
                     if qe > threshold)
    contracted = 0
    for a, b, _ in _current_edges(p, scanned):
        contracted += p.contract_set((a, b), min(a, b))
    return contracted, 0


# ---------------------------------------------------------------------------
# articulation points


def _dfs_tree(g: ContractableGraph):
    """Iterative DFS over all live vertices.

    Returns (order, tin, tout, low, parent) where order is entry order and
    a vertex's subtree is the slice order[tin[v]:tout[v]].
    """
    tin: dict[int, int] = {}
    tout: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    order: list[int] = []
    for root in g.live_vertices():
        if root in tin:
            continue
        parent[root] = None
        tin[root] = low[root] = len(order)
        order.append(root)
        stack: list[tuple[int, list[int], int]] = [(root, sorted(g.neighbors(root)), 0)]
        while stack:
            v, nbrs, i = stack[-1]
            advanced = False
            while i < len(nbrs):
                x = nbrs[i]
                i += 1
                if x not in tin:
                    parent[x] = v
                    tin[x] = low[x] = len(order)
                    order.append(x)
                    stack[-1] = (v, nbrs, i)
                    stack.append((x, sorted(g.neighbors(x)), 0))
                    advanced = True
                    break
                elif x != parent[v]:
                    if tin[x] < low[v]:
                        low[v] = tin[x]
            if advanced:
                continue
            stack.pop()
            tout[v] = len(order)
            if stack:
                pv = stack[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
    return order, tin, tout, low, parent


def articulation_points(g: ContractableGraph) -> set[int]:
    """Vertices whose removal disconnects their component."""
    order, tin, tout, low, parent = _dfs_tree(g)
    aps: set[int] = set()
    children = Counter()
    for v in order:
        pv = parent[v]
        if pv is None:
            continue
        children[pv] += 1
        if parent[pv] is None:
            continue
        if low[v] >= tin[pv]:
            aps.add(pv)
    for v in order:
        if parent[v] is None and children[v] >= 2:
            aps.add(v)
    return aps


def _hanging_subtrees(g: ContractableGraph, troots: dict[int, int]
                      ) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The DFS preorder of :func:`_dfs_tree`, and ``(start, end, parent)``
    for each terminal-free subtree ``order[start:end]`` whose root ``v`` has
    ``low(v) >= tin(parent)``, in preorder of ``v``."""
    order, tin, tout, low, parent = _dfs_tree(g)
    is_term = [1 if v in troots else 0 for v in order]
    prefix = [0]
    for t in is_term:
        prefix.append(prefix[-1] + t)
    hanging = []
    for v in order:
        pv = parent[v]
        if pv is None or low[v] < tin[pv]:
            continue
        if prefix[tout[v]] - prefix[tin[v]] > 0:
            continue
        hanging.append((tin[v], tout[v], pv))
    return order, hanging


def _min_table(a):
    """Sparse table of ``a``: entry ``k`` holds ``min(a[i:i + 2**k])`` at ``i``."""
    table = [a]
    step = 1
    while 2 * step <= len(a):
        prev = table[-1]
        table.append(np.minimum(prev[:-step], prev[step:]))
        step *= 2
    return table


def _hanging_subtrees_on_view(view: ArrayView, troots: dict[int, int]
                              ) -> tuple[list[int], list[tuple[int, int, int]]]:
    """:func:`_hanging_subtrees` with scipy's DFS and array passes.

    ``depth_first_order`` runs once from a virtual root
    (:meth:`ArrayView.rooted`) that lists each component's lowest index in
    ascending order. On the view's sorted rows it visits the vertices in
    the order of :func:`_dfs_tree`, with the same parents. Then, by
    preorder position:

    - ``par``: the parent's position, -1 for a component's root;
    - ``end``: where the subtree ends, the first later position whose
      parent lies before the subtree's root, found by binary lifting on a
      minimum table of ``par``;
    - ``low``: the lowest position among a vertex and its neighbors,
      minimized over the subtree with a second table.

    Unlike :func:`_dfs_tree`, ``low`` counts the tree edge to the parent.
    That lowers ``low(v)`` to ``tin(parent)`` at most, and leaves
    ``low(v) >= tin(parent)`` as it was.
    """
    matrix = view.matrix
    n = len(view.ids)
    _, first = np.unique(view.labels, return_index=True)
    roots = np.sort(first).astype(np.int32)
    order, pred = depth_first_order(view.rooted(roots), n, directed=True,
                                    return_predecessors=True)
    order = order[1:]
    pos = np.empty(n + 1, dtype=np.int64)
    pos[order] = np.arange(n)
    pos[n] = -1
    par = pos[pred[order]]

    own = pos[:n].copy()
    rows = view.rows
    if len(rows):
        own[rows] = np.minimum(own[rows],
                               np.minimum.reduceat(pos[matrix.indices], matrix.indptr[rows]))
    own = own[order]

    start = np.arange(n)
    end = start + 1  # par[start + 1:end] >= start throughout
    table = _min_table(par)
    for k in reversed(range(len(table))):
        step = 1 << k
        idx = np.flatnonzero(end <= n - step)
        idx = idx[table[k][end[idx]] >= idx]
        end[idx] += step
    size_log = np.frexp(end - start)[1] - 1  # floor(log2(subtree size))
    table = _min_table(own)
    low = np.empty(n, dtype=np.int64)
    for k in np.unique(size_log).tolist():
        idx = np.flatnonzero(size_log == k)
        low[idx] = np.minimum(table[k][idx], table[k][end[idx] - (1 << k)])

    terms = np.zeros(n + 1, dtype=np.int64)
    terms[pos[view.index[list(troots)]] + 1] = 1
    np.cumsum(terms, out=terms)
    hit = np.flatnonzero((par >= 0) & (low >= par) & (terms[end] == terms[:n]))
    if not len(hit):
        return [], []
    ids = view.ids[order].tolist()
    return ids, [(j, e, ids[pv]) for j, e, pv in
                 zip(hit.tolist(), end[hit].tolist(), par[hit].tolist())]


def reduce_articulation_points(p: Problem) -> tuple[int, int]:
    """Collapse terminal-free components hanging off articulation points.

    For a DFS tree edge (parent, v) with ``low(v) >= tin(parent)`` the
    subtree of v is one component of the graph minus the parent; when it
    holds no terminal, all of it can share the parent's block. Each
    component's DFS starts at its lowest id and takes neighbors in
    ascending id order. Subtrees are contracted in preorder of their roots,
    as the DFS found them.

    On a graph with a :func:`~mtcut.graph.large_view` the DFS is scipy's,
    on the view, and ``tin``, ``low`` and the subtree ends are array passes
    (:func:`_hanging_subtrees_on_view`); it visits the same tree in the
    same order, so it contracts the same sets.
    """
    g = p.graph
    view = large_view(g)
    if view is None:
        order, hanging = _hanging_subtrees(g, p.block_of)
    else:
        order, hanging = _hanging_subtrees_on_view(view, p.block_of)
    contracted = 0
    for start, end, pv in hanging:
        members = set(order[start:end])
        members.add(pv)
        contracted += p.contract_set(members, pv)
    return contracted, 0


# ---------------------------------------------------------------------------
# equal neighborhoods


def _twin_key(g: ContractableGraph, v: int) -> tuple:
    return tuple(sorted(g.neighbors(v).items()))


def _adjacent_twins(g: ContractableGraph, u: int, v: int) -> bool:
    nu, nv = g.neighbors(u), g.neighbors(v)
    if len(nu) != len(nv):
        return False
    for x, w in nu.items():
        if x == v:
            continue
        if nv.get(x) != w:
            return False
    return True


def _twin_gate(p: Problem, limit: int) -> bool:
    """Whether two non-terminals of degree at most ``limit`` may share their
    open or their closed neighborhood.

    Each vertex is keyed by its neighbor ids' count, minimum, maximum and
    sum, once for its open neighborhood and once with itself added for its
    closed one. Equal id sets give equal keys, so vertices with no shared
    key have no shared id set; a shared key may also come from two distinct
    sets.

    On a graph with a :func:`~mtcut.graph.large_view` the keys are array
    columns: the rows are sorted and the ids ascend with the index, so a
    row's first and last entries give the minimum and maximum. An isolated
    vertex's open key is all zeros and its closed key ``(0, v, v, v)``, so
    the keys match exactly when the dict keys do. Equal keys are found by
    ``lexsort`` and a compare of neighboring columns.
    """
    view = large_view(p.graph)
    if view is not None:
        return _twin_gate_on_view(view, _non_terminals(view, p.block_of), limit)
    g = p.graph
    troots = p.block_of
    neighbors = g.neighbors
    open_keys: set[tuple] = set()
    closed_keys: set[tuple] = set()
    for v in g.live_vertices():
        nbrs = neighbors(v)
        d = len(nbrs)
        if d > limit or v in troots:
            continue
        if d:
            lo, hi, total = min(nbrs), max(nbrs), sum(nbrs)
            key = (d, lo, hi, total)
            closed = (d, lo if lo < v else v, hi if hi > v else v, total + v)
        else:  # every isolated vertex has the empty open neighborhood
            key, closed = (0,), (0, v)
        if key in open_keys or closed in closed_keys:
            return True
        open_keys.add(key)
        closed_keys.add(closed)
    return False


def _twin_gate_on_view(view: ArrayView, free: np.ndarray, limit: int) -> bool:
    """:func:`_twin_gate` on the view, ``free`` marking its non-terminals."""
    ids, indices, indptr = view.ids, view.matrix.indices, view.matrix.indptr
    cand = np.flatnonzero(free & (view.degree <= limit))
    d = view.degree[cand]
    v = ids[cand]
    total = view.per_row(np.add, ids[indices])[cand]
    has = np.flatnonzero(d)
    lo, hi = v.copy(), v.copy()
    lo[has] = ids[indices[indptr[cand[has]]]]
    hi[has] = ids[indices[indptr[cand[has] + 1] - 1]]
    open_keys = np.stack((d, np.where(d > 0, lo, 0), np.where(d > 0, hi, 0), total))
    closed_keys = np.stack((d, np.minimum(lo, v), np.maximum(hi, v), total + v))
    return _repeats(open_keys) or _repeats(closed_keys)


def reduce_equal_neighborhoods(p: Problem, limit: int = NEIGHBORHOOD_LIMIT) -> tuple[int, int]:
    """Merge non-terminal vertices with identical weighted neighborhoods.

    Only non-terminals of degree at most ``limit`` are compared. A first
    scan contracts adjacent twins, whose neighborhoods agree but for each
    other; a second groups the rest by their weighted neighborhoods.

    Both scans run only if :func:`_twin_gate` finds two such vertices that
    may share an id set. Adjacent twins share their closed neighborhoods
    (each plus itself), and non-adjacent twins their open ones, so twins of
    either kind open the gate. Until the first scan contracts, the graph is
    as the gate read it; if it contracts nothing, the second scan reads the
    same graph. So a closed gate skips only scans that would change nothing.
    """
    if not _twin_gate(p, limit):
        return 0, 0
    g = p.graph
    troots = p.block_of
    contracted = 0
    # adjacent twins, re-verified right before each contraction
    for u, v, _ in list(g.edges()):
        if u in troots or v in troots:
            continue
        if not (g.is_live(u) and g.is_live(v)) or not g.has_edge(u, v):
            continue
        if g.degree(u) > limit or g.degree(v) > limit:
            continue
        if _adjacent_twins(g, u, v):
            p.contract_set((u, v), min(u, v))
            contracted += 1
    # non-adjacent twins, grouped on the (post-adjacent-scan) neighborhoods
    groups: dict[tuple, list[int]] = {}
    for v in g.live_vertices():
        if v in troots or g.degree(v) > limit:
            continue
        groups.setdefault(_twin_key(g, v), []).append(v)
    for key in sorted(groups):
        members = groups[key]
        if len(members) < 2:
            continue
        # earlier merges may have touched a shared neighbor; regroup freshly
        fresh: dict[tuple, list[int]] = {}
        for v in members:
            if g.is_live(v):
                fresh.setdefault(_twin_key(g, v), []).append(v)
        for sub in fresh.values():
            if len(sub) >= 2:
                contracted += p.contract_set(sub, sub[0])
    return contracted, 0


# ---------------------------------------------------------------------------
# flows from non-terminal vertices


def hop_distances(g: ContractableGraph, sources: Sequence[int]) -> dict[int, int]:
    """BFS hop distance from the nearest source to every vertex reached.

    :func:`reduce_non_terminal_flows` calls it on graphs without a
    :func:`~mtcut.graph.large_view` only.
    """
    dist = {s: 0 for s in sources}
    queue = deque(sorted(sources))
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for x in g.neighbors(v):
            if x not in dist:
                dist[x] = d
                queue.append(x)
    return dist


def reduce_non_terminal_flows(p: Problem, per_kind: int = FLOW_CANDIDATES,
                              deadline: float | None = None) -> tuple[int, int]:
    """Contract isolating-cut source sides of promising non-terminals.

    Runs one flow per candidate: the highest weighted-degree non-terminal
    vertices plus the ones farthest (hop distance) from every active
    terminal, each ranked with ties to the lower id; a vertex no terminal
    reaches ranks as if at distance ``n_original + 1``. The flow problems
    are independent and run on one snapshot of the graph; their source
    sides are applied in sequence after the last flow. Flows stop at the
    deadline; the sides already computed are still contracted.

    On a graph with a :func:`~mtcut.graph.large_view` both rankings are
    stable sorts of the view's arrays, and the hop distances come from one
    scipy search from a virtual root over the active terminals
    (:meth:`~mtcut.graph.ArrayView.rooted`).

    On a graph with an array view the candidates share one flow, from a
    super-source over all of them to the active terminals, which bounds
    each candidate's side by a region around it; on the torus those hold a
    few vertices. :func:`~mtcut.flow.source_regions` decides when, and
    states why the bound holds; :func:`_flows` runs each candidate's flow
    on its region.
    """
    g = p.graph
    actives = p.active_terminals()
    if not actives:
        return 0, 0
    view = large_view(g)
    candidates = (_flow_candidates(p, actives, per_kind) if view is None
                  else _flow_candidates_on_view(view, _non_terminals(view, p.block_of),
                                                actives, per_kind))
    if not candidates:
        return 0, 0
    flows = _flows(g, candidates, actives, deadline)
    return _contract_source_sides(p, candidates, flows), 0


def _flow_candidates(p: Problem, actives: list[int], per_kind: int) -> list[int]:
    """:func:`reduce_non_terminal_flows`' sources, ascending."""
    g = p.graph
    troots = p.block_of
    nonterms = [v for v in g.live_vertices() if v not in troots]
    if not nonterms:
        return []
    by_degree = sorted(nonterms, key=lambda v: (-g.weighted_degree(v), v))[:per_kind]
    dist = hop_distances(g, actives)
    unreachable = g.n_original + 1
    by_distance = sorted(nonterms, key=lambda v: (-dist.get(v, unreachable), v))[:per_kind]
    return sorted(set(by_degree) | set(by_distance))


def _flow_candidates_on_view(view: ArrayView, free: np.ndarray, actives: list[int],
                             per_kind: int) -> list[int]:
    """:func:`_flow_candidates` on the view, ``free`` marking its non-terminals."""
    nonterms = np.flatnonzero(free)
    if not len(nonterms):
        return []
    n = len(view.ids)
    roots = np.sort(view.index[actives])
    hops = dijkstra(view.rooted(roots), directed=True, indices=n, unweighted=True)[:n] - 1
    hops[np.isinf(hops)] = len(view.index) + 1  # n_original + 1, as in _flow_candidates
    by_degree = nonterms[np.argsort(-view.wdeg[nonterms], kind="stable")[:per_kind]]
    by_distance = nonterms[np.argsort(-hops[nonterms], kind="stable")[:per_kind]]
    return view.ids[np.union1d(by_degree, by_distance)].tolist()


# ---------------------------------------------------------------------------
# the driver


DEFAULT_ORDER: tuple[str, ...] = (
    "inter_terminal",
    "isolating_cuts",
    "low_degree",
    "heavy_edge",
    "heavy_triangle",
    "connectivity",
    "articulation",
    "equal_neighborhoods",
    "non_terminal_flows",
)

# The rules the solver runs at the root only: below it they hardly ever
# fire, and each call scans the whole kernel. Even at the root they wait for
# a pass in which the rules before them changed nothing.
ROOT_ONLY: frozenset[str] = frozenset(
    {"heavy_triangle", "articulation", "equal_neighborhoods", "non_terminal_flows"})

# The rules of every node below the root, in DEFAULT_ORDER's order.
NODE_ORDER: tuple[str, ...] = tuple(r for r in DEFAULT_ORDER if r not in ROOT_ONLY)


def _cleanup(p: Problem, report: ReductionReport) -> None:
    """Deactivate isolated terminals and absorb isolated non-terminals."""
    p.refresh_active()
    actives = p.active_terminals()
    if not actives:
        return
    isolated = [v for v in p.graph.isolated_vertices() if v not in p.block_of]
    if isolated:
        report.contracted["isolated"] += p.contract_set(isolated, actives[0])


def run_reduction_loop(p: Problem, bound_state: BoundState | None = None,
                       config=None, deadline: float | None = None,
                       order: Sequence[str] = DEFAULT_ORDER,
                       stop_when_dominated: bool = False) -> ReductionReport:
    """Apply the rules named in ``order`` in passes until none of them fires.

    ``order`` defaults to all nine rules, which the solver's root and
    ``mtcut kernelize`` run. The solver's nodes below the root pass
    :data:`NODE_ORDER`, which leaves out the rules of :data:`ROOT_ONLY`,
    the heavy triangles, articulation points, equal neighborhoods and
    non-terminal flows: on a child of a fixpoint they hardly ever fire, and
    each scans the whole kernel. Each pass offers the rules a turn, in
    order, but a rule of :data:`ROOT_ONLY` only while no earlier rule of
    the pass has changed the graph; a pass that changed something skips the
    rest of them without marking them idle, and the next pass offers them
    again. The loop stops after a pass in which nothing changed, and such a
    pass offers every rule its turn, so a fixpoint is still one at which all
    the rules of ``order`` are idle; and since each rule is safe in any
    order, the kernel keeps the optimum. A rule that changed nothing is
    skipped until the graph's
    :meth:`~ContractableGraph.version` or the incumbent's value moves: the
    rules are deterministic, so on a state one has already seen it would
    change nothing again. The incumbent is part of that state because
    ``reduce_connectivity`` reads it, and the isolating-cut heuristic can
    lower it without changing the graph. ``report.fixpoint`` is set only by
    a pass that changed nothing and that neither the deadline nor the stop
    below cut short.

    With ``stop_when_dominated``, which the solver passes below the root,
    the loop stops after the first rule call that leaves
    ``max(p.lower_bound, p.deleted_weight) - p.loose_weight`` at or above
    the incumbent, unless that call solved the problem. The solver then
    discards the node, as it would have after a full loop. What the node
    could still offer, the isolating-cut heuristic's labels or a solved
    leaf, scores at least that much on the original graph, and the
    incumbent takes only strictly better values, so no result changes.
    ``p.loose_weight`` is subtracted because such labels may leave uncut an
    edge deleted between a terminal and a non-terminal, and so score below
    the node's own bound. The root and ``mtcut kernelize`` reduce to the
    fixpoint.

    Terminals isolated along the way are deactivated; once at most one
    active terminal remains the subproblem is solved and its value is the
    accumulated deleted weight.
    """
    report = ReductionReport()
    report.vertices_before = p.graph.num_vertices
    report.edges_before = p.graph.num_edges

    nbhd_limit = NEIGHBORHOOD_LIMIT if config is None else config.neighborhood_limit

    def best_value() -> float:
        return bound_state.best_value if bound_state is not None else math.inf

    def state() -> tuple:
        return p.graph.version(), best_value()

    def dominated() -> bool:
        return (stop_when_dominated
                and max(p.lower_bound, p.deleted_weight) - p.loose_weight >= best_value())

    rules: dict[str, Callable[[], tuple[int, int]]] = {
        "inter_terminal": lambda: delete_inter_terminal_edges(p),
        "isolating_cuts": lambda: contract_isolating_cuts(p, bound_state, deadline),
        "low_degree": lambda: reduce_low_degree(p),
        "heavy_edge": lambda: reduce_heavy_edge(p),
        "heavy_triangle": lambda: reduce_heavy_triangle(p),
        "connectivity": lambda: reduce_connectivity(p, best_value()),
        "articulation": lambda: reduce_articulation_points(p),
        "equal_neighborhoods": lambda: reduce_equal_neighborhoods(p, nbhd_limit),
        "non_terminal_flows": lambda: reduce_non_terminal_flows(p, FLOW_CANDIDATES, deadline),
    }
    idle: dict[str, tuple] = {}  # rule -> the state on which it last changed nothing

    _cleanup(p, report)
    while not p.is_solved():
        if expired(deadline):
            break
        changed = 0
        for name in order:
            if expired(deadline):
                break
            if changed and name in ROOT_ONLY:
                continue  # not idle: the next pass offers it again
            if idle.get(name) == state():
                continue
            nc, nd = rules[name]()
            report.contracted[name] += nc
            report.deleted[name] += nd
            if nc + nd == 0:  # an unchanged graph gives _cleanup nothing to do
                idle[name] = state()
            else:
                changed += nc + nd
                _cleanup(p, report)
                if p.is_solved():
                    break
            if dominated():
                break
        else:  # every rule ran or was idle, none cut short
            report.fixpoint = changed == 0
        report.passes += 1
        if p.is_solved() or changed == 0 or dominated():
            break

    report.solved = p.is_solved()
    p.lower_bound = max(p.lower_bound, p.deleted_weight)
    report.vertices_after = p.graph.num_vertices
    report.edges_after = p.graph.num_edges
    return report
