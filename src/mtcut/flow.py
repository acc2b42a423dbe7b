"""Maximum s-T-flow, minimum isolating cuts and the derived bounds.

A flow from a source to a set of sinks is reduced to a single-sink problem
by attaching a super-sink with unsaturable edges (capacity one more than
the total edge weight, which no finite cut can reach). Each flow collects
the source component's edges once, as parallel lists of tails, heads and
capacities, and hands them to one of two implementations: scipy's C
implementation, or a pure-Python blocking flow when scipy is missing or the
capacities (super-sink included) exceed int32, scipy's integer type.
Both extract the same canonical source side: the complement, within the
source's component, of the vertices that can still reach a sink in the
residual network. That set is the unique largest source side among all
minimum cuts, which is the side the contraction rules need.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import ContractableGraph, GraphError

try:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow as _scipy_maximum_flow

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False

_INT32_MAX = 2**31 - 1


@dataclass
class FlowResult:
    value: int
    source_side: frozenset[int]


def hop_distances(g: ContractableGraph, sources: Sequence[int]) -> dict[int, int]:
    """BFS hop distance from the nearest source to every vertex reached.

    The keys are in visit order, so for one source they list its component.
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


def max_flow_st(g: ContractableGraph, source: int, sinks: Iterable[int]) -> FlowResult:
    """Minimum cut separating ``source`` from every vertex in ``sinks``.

    Returns the cut value and the largest source side. A source that cannot
    reach any sink yields value 0 with its whole component as source side.
    """
    sink_set = set(sinks)
    if not sink_set:
        raise GraphError("need at least one sink")
    if source in sink_set:
        raise GraphError("source must not be a sink")
    if not g.is_live(source):
        raise GraphError(f"source {source} is not live")
    for t in sink_set:
        if not g.is_live(t):
            raise GraphError(f"sink {t} is not live")

    comp = list(hop_distances(g, [source]))
    index = {v: i for i, v in enumerate(comp)}
    sink_ids = sorted(index[t] for t in sink_set if t in index)
    if not sink_ids:
        return FlowResult(0, frozenset(comp))

    tails: list[int] = []
    heads: list[int] = []
    caps: list[int] = []
    for v in comp:
        iv = index[v]
        for x, w in g.neighbors(v).items():
            if v < x:
                tails.append(iv)
                heads.append(index[x])
                caps.append(w)
    inf = sum(caps) + 1
    flow = _scipy_flow if HAVE_SCIPY and inf <= _INT32_MAX else _dinic
    value, reaches_sink = flow(len(comp), tails, heads, caps, index[source], sink_ids, inf)
    return FlowResult(value, frozenset(v for v, r in zip(comp, reaches_sink) if not r))


def _dinic(n: int, tails: list[int], heads: list[int], caps: list[int], s: int,
           sinks: list[int], inf: int) -> tuple[int, list[bool]]:
    """Blocking-flow max flow; returns (value, residual sink-reaching flags)."""
    ss = n
    size = n + 1
    to: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(size)]

    def add_arc(a, b, cab, cba):
        adj[a].append(len(to))
        to.append(b)
        cap.append(cab)
        adj[b].append(len(to))
        to.append(a)
        cap.append(cba)

    for a, b, w in zip(tails, heads, caps):
        add_arc(a, b, w, w)
    for t in sinks:
        add_arc(t, ss, inf, 0)

    level = [-1] * size
    it = [0] * size
    flow = 0
    while True:
        for i in range(size):
            level[i] = -1
        level[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for a in adj[v]:
                if cap[a] > 0 and level[to[a]] < 0:
                    level[to[a]] = level[v] + 1
                    queue.append(to[a])
        if level[ss] < 0:
            break
        for i in range(size):
            it[i] = 0
        # iterative blocking-flow DFS: path holds the arc trail from s
        path: list[int] = []
        v = s
        while True:
            if v == ss:
                bott = min(cap[a] for a in path)
                flow += bott
                for a in path:
                    cap[a] -= bott
                    cap[a ^ 1] += bott
                # back up to the first saturated arc and resume from there
                first_sat = next(i for i, a in enumerate(path) if cap[a] == 0)
                del path[first_sat:]
                v = s if not path else to[path[-1]]
                continue
            advanced = False
            while it[v] < len(adj[v]):
                a = adj[v][it[v]]
                if cap[a] > 0 and level[to[a]] == level[v] + 1:
                    path.append(a)
                    v = to[a]
                    advanced = True
                    break
                it[v] += 1
            if advanced:
                continue
            level[v] = -1
            if not path:
                break
            a = path.pop()
            v = s if not path else to[path[-1]]

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
    return flow, reach


def _scipy_flow(n: int, tails: list[int], heads: list[int], caps: list[int], s: int,
                sinks: list[int], inf: int) -> tuple[int, list[bool]]:
    """scipy's max flow; returns (value, residual sink-reaching flags)."""
    ss = n
    size = n + 1
    rows = np.asarray(tails + heads + sinks)
    cols = np.asarray(heads + tails + [ss] * len(sinks))
    data = np.asarray(caps + caps + [inf] * len(sinks), dtype=np.int32)
    cap = csr_matrix((data, (rows, cols)), shape=(size, size))
    res = _scipy_maximum_flow(cap, s, ss)
    residual = cap - res.flow
    residual.data = np.maximum(residual.data, 0)
    residual.eliminate_zeros()
    # reverse reachability to the super-sink along positive residual arcs
    rev = residual.transpose().tocsr()
    indptr, indices = rev.indptr.tolist(), rev.indices.tolist()
    reach = [False] * size
    reach[ss] = True
    stack = [ss]
    while stack:
        v = stack.pop()
        for u in indices[indptr[v]:indptr[v + 1]]:
            if not reach[u]:
                reach[u] = True
                stack.append(u)
    return int(res.flow_value), reach


def isolating_cuts(p_graph: ContractableGraph,
                   terminals: Sequence[int]) -> list[FlowResult]:
    """Minimum isolating cut of each terminal against all the others.

    The flow problems are independent of each other (they could run in
    parallel); they are all computed against the same input graph.
    """
    if len(terminals) < 2:
        raise GraphError("isolating cuts need at least two terminals")
    results = []
    term_set = set(terminals)
    for t in terminals:
        results.append(max_flow_st(p_graph, t, term_set - {t}))
    return results


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
