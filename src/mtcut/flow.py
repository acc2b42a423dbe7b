"""Maximum s-T-flow, and the bounds derived from isolating cut values.

Flows run on a :class:`FlowNetwork`, a snapshot of the graph: the first
flow that needs a component relabels it, and every later flow in that
component reuses it. A rule that runs several flows on one unchanged graph
builds one network for all of them; passing a graph to :func:`max_flow_st`
builds a one-shot network.

Each component's flow implementation is fixed when the network builds it.
Where :func:`~mtcut.graph.large_view` gives the graph's array view
(:meth:`~mtcut.graph.ContractableGraph.array_view`, made once per graph
version and shared by every network and rule on it), a component of at
least ``SCIPY_MIN_VERTICES`` vertices is taken from the view, unless its
capacities, super-sink included, pass int32, scipy's integer type: its
vertices in ascending id order, and as capacities the view's weight
matrix, or its rows and columns of the component when the graph has
several. Such a component holds only scipy's CSR arrays and runs scipy's
C implementation. Every other component is relabeled by one BFS over the
adjacency dicts, which fills the pure-Python flow's residual network as it
numbers the vertices, and runs the pure-Python blocking flow. Below that
size its per-call cost is below scipy's fixed overhead; above it, it runs
only when scipy is missing, the graph's weights are not exact, or the
capacities pass int32.

The pure-Python flow keeps its residual network in per-vertex dicts and
neighbor bitmasks, and its levels are distances to the nearest sink, found
by one backward search from all sinks at once. Before its first level phase
it pushes flow greedily along every residual path of at most three arcs
from the source to a sink, the opening that max-flow codes for vision
graphs use (Boykov and Kolmogorov, TPAMI 2004): most flows of a branch node
end at the trivial cut {s}, and those short paths carry most of their flow.
The phases then finish from that flow. scipy needs a single sink,
so for it a super-sink is attached with unsaturable edges (capacity
``inf``, one more than the total edge weight, which no finite cut can
reach); the int32 test of a view's component reads the same ``inf``.
Each such component keeps one sorted CSR capacity matrix, and a flow
copies it with the sink arcs inserted. The vertices that can still reach
a sink are then found by one search from the super-sink along reversed
residual arcs, whose capacities the kept matrix plus the flow matrix give
directly.

Both extract the same canonical source side: the complement, within the
source's component, of the vertices that can still reach a sink in the
residual network. That set is the unique largest source side among all
minimum cuts, which is the side the contraction rules need. It is the same
for every maximum flow, as is the value, so neither depends on the flow a
search starts from or on the paths it takes.

Sources that share one sink set can share one flow, and
:func:`source_regions` alone decides when they do, and states why its
bound holds. Each source's flow then runs on its region alone, with the
rest of the graph merged into one sink (:func:`region_flow`), or none runs
when the region is the source itself; the value and side are the full
flow's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import SCIPY_MIN_VERTICES, ArrayView, ContractableGraph, GraphError, large_view
from .graph import HAVE_SCIPY  # noqa: F401 - callers ask this module which flow runs

try:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components
    from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow
except ImportError:  # pragma: no cover; large_view then returns None
    pass

_INT32_MAX = 2**31 - 1


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

    Holds the vertex list and its index (vertex id → index), and the
    network of the one flow implementation that runs on it, the other
    field None; neither is ever changed, and each flow copies it:

    - ``arcs``: the pure-Python flow's residual capacities (per vertex,
      neighbor index → capacity) and neighbor bitmasks (bit ``u`` of entry
      ``v`` is set when ``u`` and ``v`` are adjacent), both at zero flow.
      A component or a region built by :meth:`__init__`, one BFS over the
      adjacency dicts, fills them in that same pass.
    - ``arrays``: scipy's capacity matrix in CSR form, both arc
      directions, ``(indptr, indices, caps)``, int32, each row sorted by
      column, with ``inf`` its super-sink capacity. A component taken from
      the graph's array view (:meth:`from_view`) has them, sliced from the
      view's matrix, and its vertices are in ascending id order.
    """

    __slots__ = ("vertices", "index", "inf", "arcs", "arrays")

    def __init__(self, g: ContractableGraph, source: int, inside: set[int] | None = None):
        """``source``'s component, or with ``inside`` given a region: the
        connected vertex set ``inside``, which holds ``source``, with every
        vertex outside it merged into one sink, the last index.

        One BFS from the source numbers the vertices in visit order and
        fills the residual network; the vertex list doubles as the queue.
        A neighbor outside ``inside`` is never numbered: its weight joins
        its tail's arc to the sink, and the sink's row is appended after
        the BFS. A cut that keeps the sink out weighs what it weighs in the
        graph, so a region's minimum cuts between the source and the sink
        are the graph's minimum cuts between the source and everything
        outside ``inside`` whose source side lies in it.
        """
        self.vertices = vertices = [source]
        self.index = index = {source: 0}
        res: list[dict[int, int]] = []
        masks: list[int] = []
        away: dict[int, int] = {}  # a tail's index -> its weight to the sink
        iv = 0
        while iv < len(vertices):
            v = vertices[iv]
            row = {}
            mask = 0
            for x, w in g.neighbors(v).items():
                ix = index.get(x)
                if ix is None:
                    if inside is not None and x not in inside:
                        away[iv] = away.get(iv, 0) + w
                        continue
                    ix = index[x] = len(vertices)
                    vertices.append(x)
                row[ix] = w
                mask |= 1 << ix
            res.append(row)
            masks.append(mask)
            iv += 1
        if inside is not None:
            if iv != len(inside):
                raise GraphError("a region must be connected")
            sink_mask = 0
            for i, w in away.items():
                res[i][iv] = w
                masks[i] |= 1 << iv
                sink_mask |= 1 << i
            res.append(away)
            masks.append(sink_mask)
        self.arcs = (res, masks)
        self.arrays = None

    @classmethod
    def from_view(cls, view: ArrayView, label: int) -> "_Component | None":
        """Component ``label`` of ``view``, indexed in ascending id order, or
        None when its capacities pass int32, which scipy cannot hold.

        The capacity matrix is the view's whole matrix when the graph is
        connected, else its rows of the component, whose columns are all
        in the component too; renumbering them by ascending id keeps each
        row sorted. The view's weights sum exactly in float64.
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
        comp.arcs = None
        comp.arrays = (matrix.indptr, matrix.indices, matrix.data.astype(np.int32))
        return comp


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
        """The relabeled component holding live vertex ``v``, built on first
        use: from the graph's :func:`large_view` when it has one, the
        component has ``SCIPY_MIN_VERTICES`` vertices or more and its
        capacities fit int32 (:meth:`_Component.from_view`), else by BFS.
        That choice fixes the flow implementation of every flow on it."""
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
    yields value 0 with its whole component as source side. The flow is
    scipy's on a component that holds scipy's arrays, else the pure-Python
    one (see :meth:`FlowNetwork.component`).
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
    flow = _dinic if comp.arrays is None else _scipy_flow
    value, side = flow(comp, index[source], sink_ids)
    return FlowResult(value, frozenset(map(comp.vertices.__getitem__, side)))


def source_regions(net: FlowNetwork, sources: Sequence[int],
                   sinks: Iterable[int]) -> dict[int, list[int]]:
    """A region around each of ``sources`` that holds the source side of
    every minimum cut between it and the sinks, for the sources that get
    one; :func:`region_flow` then gives each of those the cut of its full
    flow. This is the one place that decides whether sources share a flow.

    None does, and the map is empty, unless the network's graph has a
    :func:`~mtcut.graph.large_view`, two or more sources are given and
    none of them is a sink; that is settled before any source is grouped.
    Smaller graphs keep one flow per source: on the branching workload's
    graphs of about 25 vertices the regions averaged 15 of them, so the
    shared flow would not pay. On the torus the non-terminal flows'
    sources lie in regions of a few vertices.

    Otherwise the sources are grouped by component. A component that runs
    scipy's flow and holds two or more sources and a sink gets one flow,
    from a super-source over its sources to the sinks (:func:`_scipy_flow`).
    Its side C*, what cannot reach a sink, is the largest source side of
    the minimum cuts between all those sources and the sinks, and source
    ``v``'s region ``U_v`` is ``v``'s connected component of the subgraph
    that C* induces. A source whose region has ``SCIPY_MIN_VERTICES``
    vertices or more gets none, as do the sources of any other component:
    a region that large would run the pure-Python flow, which costs more
    there than the source's full flow on scipy.

    Why ``U_v`` holds ``v``'s largest minimum side ``S_v``, and with it
    every minimum side: ``S_v ∩ C*`` separates ``v`` from the sinks, and
    ``S_v ∪ C*`` separates all the sources from them. The cut function is
    submodular, ``f(S_v ∩ C*) + f(S_v ∪ C*) <= f(S_v) + f(C*)``, and
    neither term on the left is below its minimum on the right, so
    ``S_v ∪ C*`` is a minimum cut of the sources, and C* being the largest
    gives ``S_v ⊆ C*``. ``S_v`` is connected, as a part away from ``v``
    would have an edge leaving it, and dropping it would give a lighter
    cut. This is the submodularity step of the isolating-cuts lemma (Li
    and Panigrahi, FOCS 2020).
    """
    if len(sources) < 2 or large_view(net.graph) is None:
        return {}
    sink_set = set(sinks)
    if not sink_set.isdisjoint(sources):
        return {}
    groups: dict[int, tuple[_Component, list[int]]] = {}
    for v in sources:
        comp = net.component(v)
        groups.setdefault(id(comp), (comp, []))[1].append(v)
    regions = {}
    for comp, group in groups.values():
        if len(group) < 2 or comp.arrays is None:
            continue
        index = comp.index
        sink_ids = sorted(index[t] for t in sink_set if t in index)
        if not sink_ids:
            continue
        starts = [index[v] for v in group]
        side = np.asarray(_scipy_flow(comp, starts, sink_ids)[1])  # ascending
        indptr, indices, caps = comp.arrays
        n = len(comp.vertices)
        inner = csr_matrix((caps, indices, indptr), shape=(n, n))[side][:, side]
        _, labels = connected_components(inner, directed=False)
        sizes = np.bincount(labels)
        for v, label in zip(group, labels[np.searchsorted(side, starts)].tolist()):
            if sizes[label] < SCIPY_MIN_VERTICES:
                regions[v] = list(map(comp.vertices.__getitem__, side[labels == label].tolist()))
    return regions


def region_flow(g: ContractableGraph, source: int, region: Sequence[int]) -> FlowResult:
    """:func:`max_flow_st` from ``source`` to the sinks, given ``source``'s
    region from :func:`source_regions`.

    The region holds every minimum side, so the minimum cuts between the
    source and everything outside the region, with their sides in it, are
    those between the source and the sinks. They run on the pure-Python
    flow, on the region with the rest of the graph merged into one sink
    (:class:`_Component` given ``inside``). A region of the source alone
    needs no flow: its one cut is the source's own edges.
    """
    if len(region) == 1:
        return FlowResult(g.weighted_degree(source), frozenset(region))
    comp = _Component(g, source, set(region))
    value, side = _dinic(comp, 0, [len(region)])
    return FlowResult(value, frozenset(map(comp.vertices.__getitem__, side)))


def _dinic(comp: _Component, s: int, sinks: list[int]) -> tuple[int, list[int]]:
    """Blocking-flow max flow on bitmasks; returns (value, source-side indices).

    ``out[v]`` and ``inn[v]`` hold the vertices that ``v`` has a residual arc
    to and from. A pre-flow first visits each residual arc s→u in ascending
    ``u``: it saturates an arc straight to a sink, and otherwise sends what
    it can from ``u`` over its sink arcs, then over paths u→y→t with ``y``
    neither a sink nor ``s``, every push read from and written back to the
    residual dicts and masks. Any feasible flow is a valid start: the phases
    augment it to a maximum flow, and every maximum flow has the same value
    and leaves the same vertices able to reach a sink.

    Each phase numbers the vertices by their residual distance to the
    nearest sink, one mask per distance, with a backward search from all
    sinks at once; it stops at the source's distance. The depth-first
    search then walks from the source down one distance per arc: from ``v``
    at distance ``d`` it takes the lowest bit of ``out[v] & levels[d - 1]``,
    and it drops a dead end from its level's mask. When the search cannot
    reach the source, the vertices it reached are exactly those that can
    still reach a sink. A path ends at the first sink it meets, so no
    super-sink is attached.
    """
    res0, masks = comp.arcs
    res = [r.copy() for r in res0]
    out = list(masks)
    inn = list(masks)
    sbit = 1 << s
    sink_mask = 0
    for t in sinks:
        sink_mask |= 1 << t

    def push(a, b, x):
        # x units along the residual arc a→b
        c = res[a][b] - x
        res[a][b] = c
        if not c:
            out[a] ^= 1 << b
            inn[b] ^= 1 << a
        r = res[b][a]
        if not r:
            out[b] |= 1 << a
            inn[a] |= 1 << b
        res[b][a] = r + x

    # pre-flow along s→t, s→u→t and s→u→y→t, t a sink
    flow = 0
    row = res[s]
    m = out[s]
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        c = row[u]
        if low & sink_mask:
            push(s, u, c)
            flow += c
            continue
        ru = res[u]
        sent = 0
        ts = out[u] & sink_mask
        while ts and c:
            lt = ts & -ts
            ts ^= lt
            t = lt.bit_length() - 1
            x = min(c, ru[t])
            push(u, t, x)
            sent += x
            c -= x
        ys = out[u] & ~(sink_mask | sbit)
        while ys and c:
            ly = ys & -ys
            ys ^= ly
            y = ly.bit_length() - 1
            ry = res[y]
            ts = out[y] & sink_mask
            while ts and c:
                lt = ts & -ts
                ts ^= lt
                t = lt.bit_length() - 1
                x = min(c, ru[y], ry[t])
                push(u, y, x)
                push(y, t, x)
                sent += x
                c -= x
                if not ru[y]:
                    break
        if sent:
            push(s, u, sent)
            flow += sent

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


def _scipy_flow(comp: _Component, s: int | Sequence[int],
                sinks: list[int]) -> tuple[int, list[int]]:
    """scipy's max flow; returns (value, source-side indices). ``s`` is one
    source index or a list of several, none of them a sink; ``sinks`` must
    be ascending.

    The capacity matrix is the component's kept one (``_Component.arrays``)
    plus an arc of capacity ``comp.inf`` from each sink to the super-sink
    ``ss``, the column after the component's, inserted at the end of the
    sink's row so that every row stays sorted. Several sources are joined
    through a super-source, the row after ``ss``, with arcs of capacity
    ``comp.inf`` to and from each source, inserted the same way; the arcs
    into it carry no flow, and they keep the matrix's rows below ``ss``
    symmetric in pattern, so scipy adds no entry to them. The value is then
    the minimum cut between all the sources and the sinks, and the side
    the largest source side of such a cut.

    The vertices that can still reach ``ss`` are those that a search from
    ``ss`` reaches along reversed residual arcs: ``j`` leads to ``i`` when
    ``cap(i, j) - flow(i, j)`` is positive. scipy's flow matrix is
    antisymmetric, so that is ``capT(j, i) + flow(j, i)``, summed in int64
    since it can pass int32. ``capT`` is the kept matrix, whose arcs come in
    both directions with equal capacities, plus a row ``ss`` that holds
    every sink, so the search reaches every sink, even one that got no
    flow. scipy lays out the flow matrix's rows below ``ss`` on the capacity
    matrix's pattern; then the flow is added in place, leaving out the
    inserted arcs: a sink arc leads only back to ``ss``, and no source,
    so not the super-source, can reach a sink once the flow is maximum.
    Any other layout is aligned by sparse addition.
    """
    indptr, indices, caps = comp.arrays
    ss = len(comp.vertices)
    k = len(sinks)
    t = np.asarray(sinks, dtype=np.int32)
    if np.ndim(s) == 0:
        source, size = s, ss + 1
        tails, heads = t, ss
    else:
        sources = np.sort(np.asarray(s, dtype=np.int32))
        source, size = ss + 1, ss + 2
        tails = np.concatenate((t, sources))
        order = np.argsort(tails, kind="stable")
        tails = tails[order]
        heads = np.repeat(np.array([ss, ss + 1], dtype=np.int32), (k, len(sources)))[order]
    ends = indptr[tails + 1]  # where each row with an inserted arc ends
    bump = np.zeros(ss + 2, dtype=np.int32)
    bump[tails + 1] = 1
    data = np.insert(caps, ends, comp.inf)
    cols = np.insert(indices, ends, heads)
    rows = np.append(indptr, indptr[-1]) + np.cumsum(bump, dtype=np.int32)
    if source > ss:
        data = np.append(data, np.full(len(sources), comp.inf, dtype=np.int32))
        cols = np.append(cols, sources)
        rows = np.append(rows, rows[-1] + len(sources))
    cap = csr_matrix((data, cols, rows), shape=(size, size))
    res = _scipy_maximum_flow(cap, source, ss)

    flow = res.flow
    cols = np.concatenate((indices, t))
    back = csr_matrix((np.concatenate((caps, np.full(k, comp.inf, dtype=np.int64))), cols,
                       np.append(indptr, len(cols))), shape=(ss + 1, ss + 1))
    below = int(cap.indptr[ss])  # the entries of the rows below ss
    if (np.array_equal(flow.indptr[:ss + 1], cap.indptr[:ss + 1])
            and np.array_equal(flow.indices[:below], cap.indices[:below])):
        back.data[:-k] += np.delete(flow.data[:below], ends + np.arange(len(ends)))
        back.eliminate_zeros()
    else:
        back = back + flow[:ss + 1, :ss + 1]  # drops the zero sums
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
