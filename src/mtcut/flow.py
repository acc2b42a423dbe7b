"""Maximum s-T-flow, and the bounds derived from isolating cut values.

Flows run on a :class:`FlowNetwork`, a snapshot of the graph: the first
flow that needs a component relabels it, and every later flow in that
component reuses it. A rule that runs several flows on one unchanged graph
builds one network for all of them; passing a graph to :func:`max_flow_st`
builds a one-shot network.

A component is relabeled in one of two ways. On a graph with at least
``SCIPY_MIN_VERTICES`` live vertices, with scipy present, a component of
at least that size is taken from the graph's array view
(:meth:`~mtcut.graph.ContractableGraph.array_view`, built once per graph
version and shared by every network and rule on it): its vertices in
ascending id order, and as capacities the view's weight matrix, or its
rows and columns of the component when the graph has several. Any other
component, and one whose capacities pass int32, is relabeled by one BFS
over the adjacency dicts, which fills the pure-Python flow's residual
network as it numbers the vertices; the scipy matrix of such a component
is derived from that network if a flow asks for it.

The implementation is picked per flow. Components with fewer than
``SCIPY_MIN_VERTICES`` vertices run a pure-Python blocking flow, whose
per-call cost is below scipy's fixed overhead at that size; larger ones run
scipy's C implementation. The pure-Python flow also runs at any size when
scipy is missing or the capacities (super-sink included) exceed int32,
scipy's integer type.

The pure-Python flow keeps its residual network in per-vertex dicts and
neighbor bitmasks, and its levels are distances to the nearest sink, found
by one backward search from all sinks at once. scipy needs a single sink,
so for it a super-sink is attached with unsaturable edges (capacity
``inf``, one more than the total edge weight, which no finite cut can
reach); the int32 dispatch reads the same ``inf``. Each component keeps
one sorted CSR capacity matrix for scipy, and a flow copies it with the
sink arcs inserted. The vertices that can still reach a sink are then
found by one search from the super-sink along reversed residual arcs,
whose capacities the kept matrix plus the flow matrix give directly.

Both extract the same canonical source side: the complement, within the
source's component, of the vertices that can still reach a sink in the
residual network. That set is the unique largest source side among all
minimum cuts, which is the side the contraction rules need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .graph import ArrayView, ContractableGraph, GraphError

try:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order
    from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False

_INT32_MAX = 2**31 - 1

# Components with fewer vertices run the pure-Python flow, larger ones scipy;
# graphs with fewer live vertices build no array view. Per flow with 2-8
# sinks, counting a fresh build (2-vCPU x86 host, scipy 1.17), the
# pure-Python flow on its one-pass BFS build breaks even with scipy on a view
# build near 400 vertices on random graphs with m = 3n and near 450-500 on
# tori; at 1000 vertices its build (about 2 ms) still costs more than its
# flow (about 1.3 ms). No benchmark graph lies between 35 and 8001 vertices,
# so the value stays. On a network built once, as a rule's later flows find
# it, the pure-Python flow is still faster at 1000 vertices. Terminal
# placement (bench.generate_terminals, k = 5-8) runs its BFS on the view from
# the same size on: counting the view build, that breaks even near 200-300
# vertices on random m = 3n graphs and on tori, and is 4-5x slower than the
# Python BFS on grown-exact's 35-vertex graphs (0.3 against 0.07 ms).
SCIPY_MIN_VERTICES = 500


@dataclass(frozen=True)
class FlowResult:
    value: int
    source_side: frozenset[int]


class _ArrayIndex:
    """Vertex id → component index over an ``n_original``-long array, -1
    outside the component; it answers ``in`` and ``[]`` as the BFS build's
    dict does, with Python ints."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = array

    def __contains__(self, v: int) -> bool:
        return self.array[v] >= 0

    def __getitem__(self, v: int) -> int:
        i = int(self.array[v])
        if i < 0:
            raise KeyError(v)
        return i


class _Component:
    """One connected component relabeled to indices ``0..n-1``.

    Holds the vertex list and its index (vertex id → index). A component
    built by :meth:`__init__`, a BFS over the adjacency dicts, fills the
    pure-Python flow's residual network (:meth:`arcs`) in that same pass;
    scipy's matrix (:meth:`arrays`) is derived from it on first use. A
    large component is taken from the graph's array view instead
    (:meth:`from_view`): its vertices are in ascending id order and it
    holds only the scipy arrays, so it runs only scipy's flow.
    """

    __slots__ = ("vertices", "index", "inf", "_arcs", "_arrays")

    def __init__(self, g: ContractableGraph, source: int):
        # one BFS from the source numbers the vertices in visit order and
        # fills the residual network; the vertex list doubles as the queue
        self.vertices = vertices = [source]
        self.index = index = {source: 0}
        res: list[dict[int, int]] = []
        masks: list[int] = []
        total = 0
        iv = 0
        while iv < len(vertices):
            v = vertices[iv]
            row = {}
            mask = 0
            for x, w in g.neighbors(v).items():
                ix = index.get(x)
                if ix is None:
                    ix = index[x] = len(vertices)
                    vertices.append(x)
                row[ix] = w
                mask |= 1 << ix
                total += w
            res.append(row)
            masks.append(mask)
            iv += 1
        self.inf = total // 2 + 1  # each edge was counted from both ends
        self._arcs = (res, masks)
        self._arrays = None

    @classmethod
    def from_view(cls, view: ArrayView, label: int) -> "_Component | None":
        """Component ``label`` of ``view``, indexed in ascending id order, or
        None when its capacities pass int32, which scipy cannot hold.

        The capacity matrix is the view's whole matrix when the graph is
        connected, else its rows of the component, whose columns are all
        in the component too; renumbering them by ascending id keeps each
        row sorted. Its weights sum exactly in float64 up to 2**53, and any
        larger sum fails the int32 test anyway.
        """
        matrix = view.matrix
        if len(view.sizes) == 1:
            ids, index = view.ids, view.index
        else:
            rows = np.flatnonzero(view.labels == label)
            ids = view.ids[rows]
            index = np.full(len(view.index), -1, dtype=np.int32)
            index[ids] = np.arange(len(ids), dtype=np.int32)
            sub = matrix[rows]
            matrix = csr_matrix((sub.data, index[view.ids[sub.indices]], sub.indptr),
                                shape=(len(ids), len(ids)))
        total = matrix.data.sum()  # each edge twice
        if total / 2 + 1 > _INT32_MAX:
            return None
        comp = cls.__new__(cls)
        comp.vertices = ids.tolist()
        comp.index = _ArrayIndex(index)
        comp.inf = int(total) // 2 + 1
        comp._arcs = None
        comp._arrays = (matrix.indptr, matrix.indices, matrix.data.astype(np.int32))
        return comp

    def arcs(self) -> tuple[list[dict[int, int]], list[int]] | None:
        """Residual capacities (per vertex, neighbor index → capacity) and
        neighbor bitmasks (bit ``u`` of entry ``v`` is set when ``u`` and
        ``v`` are adjacent), both at zero flow, as the BFS build filled
        them; None for a component from the view. Never changed; each flow
        copies them."""
        return self._arcs

    def arrays(self):
        """The component's capacity matrix in CSR form, both arc directions:
        ``(indptr, indices, caps)``, int32, each row sorted by column, in the
        component's own index order. A component from the view has them
        from its build, sliced from the view's matrix; a BFS-built one
        derives them from its residual dicts on first use. Never changed;
        each scipy flow copies them."""
        if self._arrays is None:
            res = self._arcs[0]
            n = len(res)
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.fromiter(map(len, res), dtype=np.int32, count=n), out=indptr[1:])
            nnz = int(indptr[-1])
            cols = np.fromiter(chain.from_iterable(res), dtype=np.int32, count=nnz)
            caps = np.fromiter(chain.from_iterable(map(dict.values, res)),
                               dtype=np.int32, count=nnz)
            # sort each row by column: rows first, then columns within a row
            order = np.lexsort((cols, np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))))
            self._arrays = (indptr, cols[order], caps[order])
        return self._arrays


def large_view(g: ContractableGraph) -> ArrayView | None:
    """``g``'s array view if scipy is present and ``g`` has at least
    ``SCIPY_MIN_VERTICES`` live vertices, else None."""
    if HAVE_SCIPY and g.num_vertices >= SCIPY_MIN_VERTICES:
        return g.array_view()
    return None


class FlowNetwork:
    """Snapshot of a graph for many flows, relabeled one component at a time.

    The graph must not change while the network is in use: a flow on a
    network whose graph's :meth:`~ContractableGraph.version` moved raises
    :class:`GraphError`.
    """

    def __init__(self, g: ContractableGraph):
        self.graph = g
        self._version = g.version()
        self._components: list[_Component] = []

    def component(self, v: int) -> _Component:
        """The relabeled component holding live vertex ``v``."""
        g = self.graph
        if g.version() != self._version:
            raise GraphError("graph changed since the flow network was built")
        for comp in self._components:
            if v in comp.index:
                return comp
        comp = None
        view = large_view(g)
        if view is not None:
            label = view.labels[view.index[v]]
            if view.sizes[label] >= SCIPY_MIN_VERTICES:
                comp = _Component.from_view(view, label)
        if comp is None:
            comp = _Component(g, v)
        self._components.append(comp)
        return comp


def max_flow_st(g: ContractableGraph | FlowNetwork, source: int,
                sinks: Iterable[int]) -> FlowResult:
    """Minimum cut separating ``source`` from every vertex in ``sinks``.

    ``g`` is a graph or a :class:`FlowNetwork` built on one. Returns the cut
    value and the largest source side. A source that cannot reach any sink
    yields value 0 with its whole component as source side.
    """
    net = g if isinstance(g, FlowNetwork) else FlowNetwork(g)
    graph = net.graph
    sink_set = set(sinks)
    if not sink_set:
        raise GraphError("need at least one sink")
    if source in sink_set:
        raise GraphError("source must not be a sink")
    if not graph.is_live(source):
        raise GraphError(f"source {source} is not live")
    for t in sink_set:
        if not graph.is_live(t):
            raise GraphError(f"sink {t} is not live")

    comp = net.component(source)
    index = comp.index
    sink_ids = sorted(index[t] for t in sink_set if t in index)
    if not sink_ids:
        return FlowResult(0, frozenset(comp.vertices))
    use_scipy = (HAVE_SCIPY and len(comp.vertices) >= SCIPY_MIN_VERTICES
                 and comp.inf <= _INT32_MAX)
    flow = _scipy_flow if use_scipy else _dinic
    value, side = flow(comp, index[source], sink_ids)
    return FlowResult(value, frozenset(map(comp.vertices.__getitem__, side)))


def _dinic(comp: _Component, s: int, sinks: list[int]) -> tuple[int, list[int]]:
    """Blocking-flow max flow on bitmasks; returns (value, source-side indices).

    ``out[v]`` and ``inn[v]`` hold the vertices that ``v`` has a residual arc
    to and from. Each phase numbers the vertices by their residual distance
    to the nearest sink, one mask per distance, with a backward search from
    all sinks at once; it stops at the source's distance. The depth-first
    search then walks from the source down one distance per arc: from ``v``
    at distance ``d`` it takes the lowest bit of ``out[v] & levels[d - 1]``,
    and it drops a dead end from its level's mask. When the search cannot reach the source, the vertices it
    reached are exactly those that can still reach a sink. A path ends at
    the first sink it meets, so no super-sink is attached.
    """
    res0, masks = comp.arcs()
    res = [r.copy() for r in res0]
    out = list(masks)
    inn = list(masks)
    sbit = 1 << s
    sink_mask = 0
    for t in sinks:
        sink_mask |= 1 << t

    flow = 0
    while True:
        # backward search: levels[d] holds the vertices at distance d
        levels = [sink_mask]
        seen = frontier = sink_mask
        while frontier and not seen & sbit:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= inn[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen
            seen |= frontier
            levels.append(frontier)
        if not seen & sbit:
            side = ~seen & ((1 << len(res)) - 1)
            return flow, [i for i, bit in enumerate(reversed(bin(side))) if bit == "1"]
        top = len(levels) - 1
        levels[top] = sbit
        # path[i] sits at distance top - i
        path = [s]
        while path:
            v = path[-1]
            d = top - len(path)
            cand = out[v] & levels[d]
            if not cand:
                levels[d + 1] ^= 1 << v  # a dead end for this phase
                path.pop()
                continue
            path.append((cand & -cand).bit_length() - 1)
            if d:
                continue
            bott = min([res[a][b] for a, b in zip(path, path[1:])])
            flow += bott
            first_sat = -1
            for i in range(top):
                a, b = path[i], path[i + 1]
                c = res[a][b] - bott
                res[a][b] = c
                if not c:
                    out[a] ^= 1 << b
                    inn[b] ^= 1 << a
                    if first_sat < 0:
                        first_sat = i
                r = res[b][a]
                if not r:
                    out[b] |= 1 << a
                    inn[a] |= 1 << b
                res[b][a] = r + bott
            # back up to the tail of the first saturated arc
            del path[first_sat + 1:]


def _scipy_flow(comp: _Component, s: int, sinks: list[int]) -> tuple[int, list[int]]:
    """scipy's max flow; returns (value, source-side indices). ``sinks``
    must be ascending.

    The capacity matrix is the component's kept one (:meth:`_Component.arrays`)
    plus an arc of capacity ``comp.inf`` from each sink to the super-sink
    ``ss``, the last column, inserted at the end of the sink's row so that
    every row stays sorted.

    The vertices that can still reach ``ss`` are those that a search from
    ``ss`` reaches along reversed residual arcs: ``j`` leads to ``i`` when
    ``cap(i, j) - flow(i, j)`` is positive. scipy's flow matrix is
    antisymmetric, so that is ``capT(j, i) + flow(j, i)``, summed in int64
    since it can pass int32. ``capT`` is the kept matrix, whose arcs come in
    both directions with equal capacities, plus a row ``ss`` that holds
    every sink, so the search reaches every sink, even one that got no
    flow. scipy lays out the flow matrix's rows below ``ss`` on the capacity
    matrix's pattern; then the flow is added in place, leaving out the sink
    arcs, which lead only back to ``ss``. Any other layout is aligned by
    sparse addition.
    """
    indptr, indices, caps = comp.arrays()
    ss = len(comp.vertices)
    k = len(sinks)
    t = np.asarray(sinks, dtype=np.int32)
    ends = indptr[t + 1]  # where each sink's row ends
    bump = np.zeros(ss + 2, dtype=np.int32)
    bump[t + 1] = 1
    cap = csr_matrix((np.insert(caps, ends, comp.inf), np.insert(indices, ends, ss),
                      np.append(indptr, indptr[-1]) + np.cumsum(bump, dtype=np.int32)),
                     shape=(ss + 1, ss + 1))
    res = _scipy_maximum_flow(cap, s, ss)

    flow = res.flow
    cols = np.concatenate((indices, t))
    back = csr_matrix((np.concatenate((caps, np.full(k, comp.inf, dtype=np.int64))), cols,
                       np.append(indptr, len(cols))), shape=(ss + 1, ss + 1))
    n_cap = len(cap.indices)
    if (np.array_equal(flow.indptr[:ss + 1], cap.indptr[:ss + 1])
            and np.array_equal(flow.indices[:n_cap], cap.indices)):
        back.data[:-k] += np.delete(flow.data[:n_cap], ends + np.arange(k))
        back.eliminate_zeros()
    else:
        back = back + flow  # drops the zero sums
    order = breadth_first_order(back, ss, directed=True, return_predecessors=False)
    reach = np.zeros(ss + 1, dtype=bool)
    reach[order] = True
    return int(res.flow_value), np.flatnonzero(~reach[:ss]).tolist()


def isolating_bounds(results: Sequence[FlowResult]) -> tuple[int, int]:
    """(lower, upper) bounds from isolating cut values.

    Any k-1 isolating cuts together separate all terminals, so the sum
    minus the heaviest is an upper bound. Each cut edge of an optimal
    solution is counted at most twice across all isolating cuts, so half
    the sum, rounded up to the next integer, is a lower bound.
    """
    values = [r.value for r in results]
    upper = sum(values) - max(values)
    lower = (sum(values) + 1) // 2
    return lower, upper
