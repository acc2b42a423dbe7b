"""Maximum s-T-flow, and the bounds derived from isolating cut values.

A flow from a source to a set of sinks is reduced to a single-sink problem
by attaching a super-sink with unsaturable edges (capacity one more than
the total edge weight, which no finite cut can reach).

Flows run on a :class:`FlowNetwork`, a snapshot of the graph: the first
flow that needs a component relabels it into index lists of tails, heads
and capacities, and every later flow in that component reuses them and
adds only its own super-sink arcs. A rule that runs several flows on one
unchanged graph builds one network for all of them; passing a graph to
:func:`max_flow_st` builds a one-shot network.

The implementation is picked per flow. Components with fewer than
``SCIPY_MIN_VERTICES`` vertices run a pure-Python blocking flow, whose
per-call cost is far below scipy's fixed overhead at that size; larger ones
run scipy's C implementation. The pure-Python flow also runs at any size
when scipy is missing or the capacities (super-sink included) exceed
int32, scipy's integer type.

Both extract the same canonical source side: the complement, within the
source's component, of the vertices that can still reach a sink in the
residual network. That set is the unique largest source side among all
minimum cuts, which is the side the contraction rules need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import ContractableGraph, GraphError

try:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order
    from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False

_INT32_MAX = 2**31 - 1

# Components with fewer vertices run the pure-Python flow, larger ones scipy.
# Per flow on a built network (2-vCPU x86 host, scipy 1.17), the two break
# even near 160 vertices on random graphs with m = 3n and near 250 on tori;
# below that scipy's fixed cost of 0.5-0.8 ms per call dominates, and at 10k
# vertices scipy is 7x (random) and 11x (torus) faster.
SCIPY_MIN_VERTICES = 200


@dataclass(frozen=True)
class FlowResult:
    value: int
    source_side: frozenset[int]


class _Component:
    """One connected component relabeled to indices ``0..n-1``.

    Holds the vertex list, its index and the edge list (each edge once, as
    parallel tails, heads and capacities). The arc arrays of each flow
    implementation are built from the edge list on first use.
    """

    __slots__ = ("vertices", "index", "tails", "heads", "caps", "inf", "_arcs", "_arrays")

    def __init__(self, g: ContractableGraph, source: int):
        # one BFS from the source numbers the vertices in visit order and
        # collects the edges; the vertex list doubles as the queue
        self.vertices = vertices = [source]
        self.index = index = {source: 0}
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.caps: list[int] = []
        tails, heads, caps = self.tails, self.heads, self.caps
        iv = 0
        while iv < len(vertices):
            v = vertices[iv]
            for x, w in g.neighbors(v).items():
                ix = index.get(x)
                if ix is None:
                    ix = index[x] = len(vertices)
                    vertices.append(x)
                if v < x:
                    tails.append(iv)
                    heads.append(ix)
                    caps.append(w)
            iv += 1
        self.inf = sum(caps) + 1
        self._arcs = None
        self._arrays = None

    def arcs(self) -> tuple[list[int], list[int], list[list[int]]]:
        """Residual arcs (head, capacity, per-vertex arc ids); arc ``a ^ 1``
        is the reverse of arc ``a``."""
        if self._arcs is None:
            m = len(self.tails)
            to = [0] * (2 * m)
            to[0::2] = self.heads
            to[1::2] = self.tails
            cap = [0] * (2 * m)
            cap[0::2] = self.caps
            cap[1::2] = self.caps
            adj: list[list[int]] = [[] for _ in self.vertices]
            for i, (a, b) in enumerate(zip(self.tails, self.heads)):
                adj[a].append(2 * i)
                adj[b].append(2 * i + 1)
            self._arcs = (to, cap, adj)
        return self._arcs

    def arrays(self):
        """Coordinate arrays (rows, cols, capacities) of both arc directions."""
        if self._arrays is None:
            self._arrays = (np.asarray(self.tails + self.heads, dtype=np.int32),
                            np.asarray(self.heads + self.tails, dtype=np.int32),
                            np.asarray(self.caps + self.caps, dtype=np.int32))
        return self._arrays


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
    """Blocking-flow max flow; returns (value, source-side indices)."""
    ss = len(comp.vertices)
    size = ss + 1
    to0, cap0, adj0 = comp.arcs()
    # the super-sink arcs go after the component's arcs; only the sinks'
    # arc lists change, so the others are shared with the network
    base = len(to0)
    to = to0 + [x for t in sinks for x in (ss, t)]
    cap = cap0 + [comp.inf, 0] * len(sinks)
    adj = list(adj0)
    for j, t in enumerate(sinks):
        adj[t] = adj[t] + [base + 2 * j]
    adj.append([base + 2 * j + 1 for j in range(len(sinks))])

    flow = 0
    while True:
        level = [-1] * size
        level[s] = 0
        queue = [s]  # a list grows under its own iterator: a FIFO queue
        for v in queue:
            lv = level[v] + 1
            for a in adj[v]:
                if cap[a] > 0:
                    u = to[a]
                    if level[u] < 0:
                        level[u] = lv
                        queue.append(u)
        if level[ss] < 0:
            break
        it = [0] * size
        # iterative blocking-flow DFS: path holds the arc trail from s
        path: list[int] = []
        v = s
        while True:
            if v == ss:
                bott = min([cap[a] for a in path])
                flow += bott
                # back up to the first saturated arc and resume from there
                first_sat = -1
                for i, a in enumerate(path):
                    c = cap[a] - bott
                    cap[a] = c
                    cap[a ^ 1] += bott
                    if c == 0 and first_sat < 0:
                        first_sat = i
                del path[first_sat:]
                v = to[path[-1]] if path else s
                continue
            arcs = adj[v]
            n_arcs = len(arcs)
            i = it[v]
            nxt = level[v] + 1
            while i < n_arcs:
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == nxt:
                    break
                i += 1
            it[v] = i
            if i < n_arcs:
                path.append(a)
                v = to[a]
                continue
            level[v] = -1
            if not path:
                break
            path.pop()
            v = to[path[-1]] if path else s

    # vertices that can still reach the super-sink in the residual network
    reach = [False] * size
    reach[ss] = True
    stack = [ss]
    while stack:
        v = stack.pop()
        for a in adj[v]:
            u = to[a]
            if not reach[u] and cap[a ^ 1] > 0:
                reach[u] = True
                stack.append(u)
    return flow, [i for i in range(ss) if not reach[i]]


def _scipy_flow(comp: _Component, s: int, sinks: list[int]) -> tuple[int, list[int]]:
    """scipy's max flow; returns (value, source-side indices)."""
    ss = len(comp.vertices)
    size = ss + 1
    rows, cols, data = comp.arrays()
    k = len(sinks)
    rows = np.concatenate((rows, np.asarray(sinks, dtype=np.int32)))
    cols = np.concatenate((cols, np.full(k, ss, dtype=np.int32)))
    data = np.concatenate((data, np.full(k, comp.inf, dtype=np.int32)))
    cap = csr_matrix((data, (rows, cols)), shape=(size, size))
    res = _scipy_maximum_flow(cap, s, ss)
    residual = cap - res.flow
    residual.data = np.maximum(residual.data, 0)
    residual.eliminate_zeros()
    # reverse reachability to the super-sink along positive residual arcs
    order = breadth_first_order(residual.transpose().tocsr(), ss, directed=True,
                                return_predecessors=False)
    reach = np.zeros(size, dtype=bool)
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
