"""Mutable weighted graph with contraction, plus the subproblem containers.

The solver spends most of its time contracting vertices, so the adjacency
is a per-vertex dict mapping neighbor id to weight: merging one vertex into
another moves its dict in O(deg) and coalesces parallel edges on the fly.
``ContractableGraph.contract_vertices`` is the one merge, one such move per
member. Original vertex ids are mapped to their surviving representative
through a union-find, which is what lets a solution found on a heavily
contracted graph be projected back to the input graph.

Every terminal is its own live representative: ``Problem.contract_set`` is
the one guarded merge, and it never joins two terminals and always keeps
the terminal's vertex. ``Problem.block_of`` maps each terminal vertex to
its block, and terminal lookups need no ``find``.

A ``Problem`` also keeps, per terminal, the largest minimum isolating cut
it last computed (:meth:`Problem.kept_cuts`), so that the isolating-cut
rule re-runs only the flows a mutation could have changed. The map is
maintained at the two guarded mutations. A contraction keeps a terminal's
cut when the merged set lies wholly inside or wholly outside its source
side: that only removes cuts, and the kept side is still the largest
minimum one. Deleting an edge between two terminals lowers both ends' cut
values by its weight, since every isolating cut of either end crosses it
and no other terminal's cut does; any other deletion empties the map. The
map is stamped with the graph's ``version()``, so a mutation made on the
graph directly empties it too.

:meth:`ContractableGraph.array_view` gives the live vertices as arrays
(:class:`ArrayView`) for scipy's graph routines, built on first use and
stamped with the ``version()`` in the same way; a copy starts without one.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

try:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
except ImportError:  # pragma: no cover; array_view then cannot run
    pass

if TYPE_CHECKING:
    from .flow import FlowResult


class GraphError(Exception):
    pass


class InvalidContraction(GraphError):
    """Raised when a contraction would merge two distinct terminals."""


class EdgeNotFound(GraphError):
    pass


class InfeasibleAssignment(GraphError):
    """Raised when an assignment mislabels a terminal or misses a vertex."""


class IncompleteSolution(GraphError):
    """Raised when a live vertex has no label during projection."""


class ContractableGraph:
    """Undirected graph with positive integer edge weights.

    Vertices are dense integer ids ``0..n_original-1``. Contracting merges
    a set of vertices into one of them; each dead vertex keeps its slot
    (tombstone) so ids stay stable, and ``find`` maps any original id to its
    live representative. Parallel edges are merged by weight summation and
    self-loops are discarded, so the graph stays simple at all times.
    """

    __slots__ = ("n_original", "num_vertices", "num_edges", "_adj", "_wdeg", "_parent", "_view")

    def __init__(self, n: int):
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        self.n_original = n
        self.num_vertices = n
        self.num_edges = 0
        self._adj: list[dict[int, int] | None] = [dict() for _ in range(n)]
        self._wdeg = [0] * n
        self._parent = list(range(n))
        self._view: ArrayView | None = None

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "ContractableGraph":
        """Build a graph from ``(u, v, w)`` triples, merging duplicates.

        Rejects self-loops and non-positive weights.
        """
        g = cls(n)
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if w < 1:
                raise GraphError(f"edge ({u},{v}) has non-positive weight {w}")
            g._add_weight(u, v, w)
        return g

    def _add_weight(self, u: int, v: int, w: int) -> None:
        au = self._adj[u]
        av = self._adj[v]
        if v in au:
            au[v] += w
            av[u] += w
        else:
            au[v] = w
            av[u] = w
            self.num_edges += 1
        self._wdeg[u] += w
        self._wdeg[v] += w

    def copy(self) -> "ContractableGraph":
        g = ContractableGraph.__new__(ContractableGraph)
        g.n_original = self.n_original
        g.num_vertices = self.num_vertices
        g.num_edges = self.num_edges
        g._adj = [None if a is None else dict(a) for a in self._adj]
        g._wdeg = list(self._wdeg)
        g._parent = list(self._parent)
        g._view = None
        return g

    # -- queries ---------------------------------------------------------

    def find(self, v: int) -> int:
        """Live representative of an original (or live) vertex id."""
        parent = self._parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def version(self) -> tuple[int, int]:
        """``(num_vertices, num_edges)``, which every mutation changes.

        A contraction lowers the vertex count and an edge deletion the edge
        count, and once built nothing raises either. So a graph whose
        version is the same as before has not been changed since.
        """
        return self.num_vertices, self.num_edges

    def array_view(self) -> "ArrayView":
        """The live vertices as arrays; needs numpy and scipy.

        Built on first use and kept until the graph's :meth:`version`
        moves, so every caller on one graph version shares one build.
        """
        view = self._view
        if view is None or view.version != self.version():
            view = self._view = ArrayView(self)
        return view

    def is_live(self, v: int) -> bool:
        return self._adj[v] is not None

    def live_vertices(self) -> Iterator[int]:
        for v, a in enumerate(self._adj):
            if a is not None:
                yield v

    def neighbors(self, v: int) -> dict[int, int]:
        a = self._adj[v]
        if a is None:
            raise GraphError(f"vertex {v} is not live")
        return a

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def weighted_degree(self, v: int) -> int:
        if self._adj[v] is None:
            raise GraphError(f"vertex {v} is not live")
        return self._wdeg[v]

    def has_edge(self, u: int, v: int) -> bool:
        a = self._adj[u]
        return a is not None and v in a

    def edge_weight(self, u: int, v: int) -> int:
        a = self._adj[u]
        if a is None or v not in a:
            raise EdgeNotFound(f"no edge ({u},{v})")
        return a[v]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All live edges as (u, v, w) with u < v, ascending."""
        for u, a in enumerate(self._adj):
            if a is None:
                continue
            for v in sorted(a):
                if u < v:
                    yield u, v, a[v]

    def cut_value(self, labels: Sequence[int] | dict) -> int:
        """Weight of live edges whose endpoints carry different labels."""
        total = 0
        for u, a in enumerate(self._adj):  # unsorted: a sum needs no order
            if not a:
                continue
            lu = labels[u]
            for v, w in a.items():
                if u < v and labels[v] != lu:
                    total += w
        return total

    # -- mutation --------------------------------------------------------

    def delete_edge(self, u: int, v: int) -> int:
        """Remove edge (u, v); returns its weight."""
        a = self._adj[u]
        if a is None or v not in a:
            raise EdgeNotFound(f"no edge ({u},{v})")
        w = a.pop(v)
        self._adj[v].pop(u)
        self._wdeg[u] -= w
        self._wdeg[v] -= w
        self.num_edges -= 1
        return w

    def contract_vertices(self, vertices: Iterable[int], into: int) -> int:
        """Merge every vertex of the set into ``into``; returns merge count.

        The set does not need to be connected: members with no edge to
        ``into`` are merged by relabeling, which the reduction rules rely on
        when they contract scattered vertex sets.
        """
        target = self.find(into)
        members = sorted({self.find(x) for x in vertices} - {target})
        for v in members:
            self._absorb(target, v)
        return len(members)

    def _absorb(self, u: int, v: int) -> None:
        """Move v's edges onto u, coalescing parallel edges, and tombstone v.

        An edge between u and v would become a self-loop, so it is dropped
        with its weight.
        """
        au = self._adj[u]
        av = self._adj[v]
        w_uv = au.pop(v, None)
        if w_uv is not None:
            del av[u]
            self._wdeg[u] -= w_uv
            self.num_edges -= 1
        for x, w in av.items():
            ax = self._adj[x]
            del ax[v]
            if x in au:
                au[x] += w
                ax[u] += w
                self.num_edges -= 1
            else:
                au[x] = w
                ax[u] = w
            self._wdeg[u] += w
        self._adj[v] = None
        self._wdeg[v] = 0
        self._parent[v] = u
        self.num_vertices -= 1


class ArrayView:
    """One version of a graph's live vertices as arrays, never changed.

    - ``ids``: the live vertex ids, ascending; a vertex's position here is
      its index in the other arrays.
    - ``index``: ``n_original`` long, each live id's index, -1 for a
      tombstone.
    - ``matrix``: the weight matrix over the indices in CSR form, int32
      indices, each edge in both directions and each row sorted by column.
      The weights are float64, as scipy's graph routines read them, and
      exact below 2**53; if one is past float range, all read as ``inf``,
      so that no flow takes them.
    - ``labels`` and ``sizes``: each index's connected component, numbered
      from 0, and each component's vertex count.
    - ``version``: the graph's :meth:`~ContractableGraph.version` it shows.

    The arrays are filled with ``np.fromiter`` over the adjacency dicts.
    """

    __slots__ = ("version", "ids", "index", "matrix", "labels", "sizes")

    def __init__(self, g: ContractableGraph):
        self.version = g.version()
        adj = g._adj
        live = np.fromiter(map(operator.is_not, adj, repeat(None)), dtype=bool, count=len(adj))
        self.ids = ids = np.flatnonzero(live)
        n = len(ids)
        self.index = index = np.full(len(adj), -1, dtype=np.int32)
        index[ids] = np.arange(n, dtype=np.int32)
        rows = [adj[v] for v in ids.tolist()]
        nnz = 2 * g.num_edges
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.fromiter(map(len, rows), dtype=np.int32, count=n), out=indptr[1:])
        cols = index[np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=nnz)]
        try:
            weights = np.fromiter(chain.from_iterable(map(dict.values, rows)),
                                  dtype=np.float64, count=nnz)
        except OverflowError:
            weights = np.full(nnz, np.inf)
        self.matrix = matrix = csr_matrix((weights, cols, indptr), shape=(n, n))
        matrix.sort_indices()
        _, self.labels = connected_components(matrix, directed=False)
        self.sizes = np.bincount(self.labels)


def cut_value(graph: ContractableGraph, terminal_vertices: Sequence[int], labels: Sequence[int]) -> int:
    """Cut weight of a feasible assignment on an (uncontracted) graph.

    Every terminal must carry its own block label and every label must be a
    valid block index; violations raise :class:`InfeasibleAssignment`.
    """
    k = len(terminal_vertices)
    if len(labels) != graph.n_original:
        raise InfeasibleAssignment("assignment does not cover every vertex")
    for i, t in enumerate(terminal_vertices):
        if labels[t] != i:
            raise InfeasibleAssignment(f"terminal {t} labeled {labels[t]}, expected {i}")
    for v, b in enumerate(labels):
        if not (0 <= b < k):
            raise InfeasibleAssignment(f"vertex {v} has label {b} outside [0,{k})")
    return graph.cut_value(labels)


class Problem:
    """One subproblem of the branch tree.

    Owns a working graph plus the bookkeeping that relates it back to the
    root instance: the fixed terminal vertices (original ids, list position
    is the block index, ``block_of`` the inverse map), which of them are
    still active, and the weight of edges already committed to the cut.
    Any feasible cut of the subproblem plus ``deleted_weight`` is a feasible
    cut value of the original.

    Every terminal is its own live representative; :meth:`contract_set` is
    the one guarded merge, so the working graph is only ever contracted
    through it.

    :meth:`kept_cuts` maps terminals to their largest minimum isolating cut
    on the current graph (value and source side, the side in the vertex ids
    of the graph it was computed on). Invariant: each entry equals what a
    fresh flow from that terminal to the other active terminals would
    return, its side mapped through ``find``. :meth:`contract_set` and
    :meth:`delete_edge` keep it, and the map is stamped with the graph's
    ``version()`` so that a mutation behind the problem's back empties it.
    Copies share the entries, which are immutable.
    """

    __slots__ = ("graph", "terminal_vertices", "block_of", "active", "deleted_weight",
                 "lower_bound", "original", "_cuts", "_cuts_version")

    def __init__(self, graph, terminal_vertices, active, deleted_weight, lower_bound, original):
        self.graph: ContractableGraph = graph
        self.terminal_vertices: tuple[int, ...] = terminal_vertices
        self.block_of: dict[int, int] = {t: i for i, t in enumerate(terminal_vertices)}
        self.active: list[bool] = active
        self.deleted_weight: int = deleted_weight
        self.lower_bound: int = lower_bound
        self.original: ContractableGraph = original
        self._cuts: dict[int, FlowResult] = {}
        self._cuts_version = graph.version()

    @classmethod
    def from_instance(cls, graph: ContractableGraph, terminals: Sequence[int]) -> "Problem":
        terms = tuple(terminals)
        if len(terms) < 2:
            raise GraphError("need at least two terminals")
        if len(set(terms)) != len(terms):
            raise GraphError("terminals must be distinct")
        for t in terms:
            if not (0 <= t < graph.n_original) or not graph.is_live(t):
                raise GraphError(f"terminal {t} is not a live vertex")
        return cls(graph.copy(), terms, [True] * len(terms), 0, 0, graph)

    @property
    def k(self) -> int:
        return len(self.terminal_vertices)

    def copy(self) -> "Problem":
        c = Problem(self.graph.copy(), self.terminal_vertices, list(self.active),
                    self.deleted_weight, self.lower_bound, self.original)
        c._cuts = dict(self.kept_cuts())
        return c

    def kept_cuts(self) -> dict[int, FlowResult]:
        """Terminal -> its kept largest minimum isolating cut (see the class).

        Emptied first if the graph was mutated other than through this
        problem. Callers may add entries computed on the current graph.
        """
        version = self.graph.version()
        if self._cuts_version != version:
            self._cuts = {}
            self._cuts_version = version
        return self._cuts

    def active_terminals(self) -> list[int]:
        """The active terminal vertices, in block order."""
        return [t for t, a in zip(self.terminal_vertices, self.active) if a]

    def active_count(self) -> int:
        return sum(self.active)

    def refresh_active(self) -> int:
        """Deactivate terminals that have become isolated; returns count."""
        dropped = 0
        for i, t in enumerate(self.terminal_vertices):
            if self.active[i] and self.graph.degree(t) == 0:
                self.active[i] = False
                dropped += 1
        return dropped

    def is_solved(self) -> bool:
        return self.active_count() <= 1

    # -- guarded mutation --------------------------------------------------

    def delete_edge(self, u: int, v: int) -> int:
        """Delete edge (u, v) and commit its weight to the cut.

        Between two terminals, the edge lowers both ends' kept cuts by its
        weight and leaves the others; any other deletion empties the map.
        """
        cuts = self.kept_cuts()
        w = self.graph.delete_edge(u, v)
        self.deleted_weight += w
        if u in self.block_of and v in self.block_of:
            for t in (u, v):
                res = cuts.get(t)
                if res is not None:  # a FlowResult: flow imports graph, not the reverse
                    cuts[t] = type(res)(res.value - w, res.source_side)
        else:
            cuts.clear()
        self._cuts_version = self.graph.version()
        return w

    def contract_set(self, vertices: Iterable[int], into: int) -> int:
        """Merge ``into`` and ``vertices`` into one vertex; returns merge count.

        A terminal in the set survives the merge, otherwise ``into`` does.
        A set holding two terminals raises :class:`InvalidContraction`.
        A kept isolating cut stays when the set lies wholly inside or wholly
        outside its source side. A live vertex is in the stored side exactly
        when it is in the side mapped through ``find`` (every contraction
        since the flow kept the side whole), so the test needs no ``find``.
        """
        g = self.graph
        cuts = self.kept_cuts()
        members = {g.find(x) for x in vertices}
        target = g.find(into)
        members.add(target)
        terms = [t for t in self.terminal_vertices if t in members]
        if len(terms) > 1:
            raise InvalidContraction(f"set joins terminals {terms}")
        merged = g.contract_vertices(members, terms[0] if terms else target)
        split = [t for t, res in cuts.items()
                 if not (members <= res.source_side or members.isdisjoint(res.source_side))]
        for t in split:
            del cuts[t]
        self._cuts_version = g.version()
        return merged

    # -- solution plumbing --------------------------------------------------

    def project(self, kernel_labels: dict[int, int] | None = None,
                fill: int | None = None) -> list[int]:
        """Lift a labeling of the live vertices to all original vertices.

        A terminal's representative keeps its terminal's block; any other
        live vertex takes its ``kernel_labels`` entry, else ``fill``.
        """
        g = self.graph
        roots = self.block_of
        kernel = kernel_labels or {}
        out = []
        for v in range(g.n_original):
            r = g.find(v)
            b = roots.get(r)
            if b is None:
                b = kernel.get(r, fill)
            if b is None:
                raise IncompleteSolution(f"live vertex {r} has no label")
            out.append(b)
        return out

    def solved_labels(self) -> list[int]:
        """Labels of a solved subproblem (at most one active terminal left).

        Every non-terminal joins the active terminal's block, or block 0
        when none is active; inactive terminals are isolated, so this adds
        no cut edge.
        """
        return self.project(fill=next((i for i, a in enumerate(self.active) if a), 0))

    def solution_value(self, labels: Sequence[int]) -> int:
        """Cut value of a full assignment, checked feasible, on the root graph."""
        return cut_value(self.original, self.terminal_vertices, labels)

    def anchor_sets(self) -> list[list[int]]:
        """Original vertices merged into each terminal, including itself."""
        g = self.graph
        roots = self.block_of
        out: list[list[int]] = [[] for _ in self.terminal_vertices]
        for v in range(g.n_original):
            i = roots.get(g.find(v))
            if i is not None:
                out[i].append(v)
        return out


class BoundState:
    """Best-known solution of one search, owned by the thread that runs it.

    ``best_value`` only ever decreases. Every source offers its labels at
    their :meth:`Problem.solution_value`, so it equals the cut value of
    ``best_labels``. Each improvement is stamped with its time since ``t0``.
    """

    def __init__(self, t0: float | None = None):
        self.best_value: float = math.inf
        self.best_labels: list[int] | None = None
        self.events: list[tuple[float, int]] = []
        self._t0 = t0

    def improve(self, value: int, labels: Sequence[int], now: float | None = None) -> bool:
        if value >= self.best_value:
            return False
        self.best_value = value
        self.best_labels = list(labels)
        stamp = 0.0
        if now is not None and self._t0 is not None:
            stamp = max(0.0, now - self._t0)
        self.events.append((stamp, value))
        return True
