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

A graph is built once from finished neighbor dicts by its constructor:
``ContractableGraph.from_edge_list`` fills them edge by edge, and
``graphio.parse_graph`` from the lines of a graph file.

A ``Problem`` also keeps, per terminal, the largest minimum isolating cut
it last computed (:meth:`Problem.kept_cuts`), so that the isolating-cut
rule re-runs only the flows a mutation could have changed. The map is
maintained at the two guarded mutations. A contraction keeps a terminal's
cut when the merged set lies wholly inside or wholly outside its source
side: that only removes cuts, and the kept side is still the largest
minimum one. A deletion keeps each cut whose source side the edge
crosses, its value lowered by the edge's weight: the new minimum cuts are
the old ones that cross the edge, all inside the kept side. An edge
between two terminals lies outside every other terminal's cuts and leaves
them as they are; any other cut the deletion does not cross is dropped.
The map is stamped with the graph's ``version()``, so a mutation made on
the graph directly empties it too. A vertex branch also fills the maps of
its children, from one flow per joined child and the parent's cuts.

:meth:`ContractableGraph.array_view` gives the live vertices as arrays
(:class:`ArrayView`) for scipy's graph routines, built on first use and
stamped with the ``version()`` in the same way. Only a graph whose weights
sum exactly in float64 has one (``ContractableGraph.exact``); that is
decided once, when the graph is built, since no mutation raises the total.
When only contractions happened since the last view, the next one is
derived from it in numpy (:meth:`ArrayView.derived`): its rows and columns
are mapped through one vectorized ``find``
(:meth:`ContractableGraph.find_all`), which equals the quotient the merges
made of the dicts. A large graph's views form one lineage, rooted at the
instance graph: :meth:`Problem.from_instance` links its working graph to
the instance graph, which never changes, and a copy keeps the link. Such a
graph's first view is the instance graph's own, built there once, shared
while nothing changed and derived from after contractions. A deletion
drops the last view and the link, and the next view is built from the
dicts again, as is a graph's that has no link. A view also carries the
degrees and weighted degrees that the reduction rules' scans read.

One test picks the arrays over the dicts, everywhere, and it lives here,
beside the view: :func:`large_view` gives the view of a graph with at
least ``SCIPY_MIN_VERTICES`` live vertices and exact weights, scipy
present, and None for any other graph, which keeps the dict code. The
flows, the reduction rules and terminal placement import it from here, so
this module imports nothing from :mod:`mtcut.flow`. Where it gives one,
:meth:`Problem.project` and :func:`cut_value` (so every incumbent's score)
run on arrays: the labels are lifted through ``find_all``, and the cut is
summed on the original graph's view: the root of the lineage, built once
and shared with the working graph's first view.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

try:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover; large_view then returns None
    HAVE_SCIPY = False

# Components with fewer vertices run the pure-Python flow, larger ones scipy;
# graphs with fewer live vertices build no array view. Per flow with 2-8
# sinks, counting a fresh build (2-vCPU x86 host, scipy 1.17), the
# pure-Python flow on its one-pass BFS build breaks even with scipy on a view
# build near 400-450 vertices on random graphs with m = 3n and near 450-500
# on tori, with the pre-flow as without it: with so few sinks it finds few
# short paths. At 1000 vertices its build (about 1.8 ms) still costs more
# than its flow (about 1.2 ms). No benchmark graph lies between 35 and 8001
# vertices, so the value stays. On a network built once, as a rule's later
# flows find it, the pure-Python flow is still faster at 1000 vertices.
# Terminal placement (bench.generate_terminals, k = 5-8) runs its BFS on the
# view from the same size on: counting the view build, that breaks even near
# 200-300 vertices on random m = 3n graphs and on tori, and is 4-5x slower
# than the Python BFS on grown-exact's 35-vertex graphs (0.3 against 0.07 ms).
SCIPY_MIN_VERTICES = 500


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

    ``exact`` tells whether the weights, each edge counted from both ends,
    sum below 2**53, so that every sum of them is exact in float64. It is
    set once, by the constructor, and copies inherit it: a contraction
    drops twice the weight of the edge it merges and a deletion twice the
    weight it deletes, so the total never rises.
    """

    __slots__ = ("n_original", "num_vertices", "num_edges", "exact", "_adj", "_wdeg", "_parent",
                 "_view", "_lineage")

    def __init__(self, adj: list[dict[int, int]]):
        """The graph whose vertex ``v`` has neighbor dict ``adj[v]``, taken
        as is: the rows must be symmetric, with positive weights and no
        self-loop. :meth:`from_edge_list` builds them from edges."""
        if not adj:
            raise GraphError("graph needs at least one vertex")
        self.n_original = self.num_vertices = len(adj)
        self.num_edges = sum(map(len, adj)) // 2
        self._adj: list[dict[int, int] | None] = adj
        self._wdeg = list(map(sum, map(dict.values, adj)))
        self.exact = sum(self._wdeg) < 2**53
        self._parent = list(range(len(adj)))
        self._view: ArrayView | None = None
        # (instance graph, its version) whose view this graph's first view
        # starts from; see array_view
        self._lineage: tuple[ContractableGraph, tuple[int, int]] | None = None

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int, int]]) -> "ContractableGraph":
        """Build a graph from ``(u, v, w)`` triples, merging duplicates.

        Rejects self-loops and non-positive weights. Each vertex's neighbors
        are kept in the order of their first edge.
        """
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        # with no vertex the constructor rejects the graph and no edge is read
        for u, v, w in edges if adj else ():
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if w < 1:
                raise GraphError(f"edge ({u},{v}) has non-positive weight {w}")
            au = adj[u]
            if v in au:
                au[v] += w
                adj[v][u] += w
            else:
                au[v] = w
                adj[v][u] = w
        return cls(adj)

    def copy(self) -> "ContractableGraph":
        """An independent graph equal to this one. It starts without a view
        and keeps this graph's link to its instance graph, so its first
        view comes from there (see :meth:`array_view`)."""
        g = ContractableGraph.__new__(ContractableGraph)
        g.n_original = self.n_original
        g.num_vertices = self.num_vertices
        g.num_edges = self.num_edges
        g.exact = self.exact
        g._adj = [None if a is None else dict(a) for a in self._adj]
        g._wdeg = list(self._wdeg)
        g._parent = list(self._parent)
        g._view = None
        g._lineage = self._lineage
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

    def find_all(self) -> "np.ndarray":
        """Every original id's live representative, as :meth:`find` gives
        it, in one array; needs numpy.

        Pointer jumping over the parent links: each round replaces every
        link by its parent's, so a chain of length d settles in about
        log2(d) rounds.
        """
        root = np.array(self._parent, dtype=np.intp)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                return root
            root = up

    def version(self) -> tuple[int, int]:
        """``(num_vertices, num_edges)``, which every mutation changes.

        A contraction lowers the vertex count and an edge deletion the edge
        count, and once built nothing raises either. So a graph whose
        version is the same as before has not been changed since.
        """
        return self.num_vertices, self.num_edges

    def array_view(self) -> "ArrayView":
        """The live vertices as arrays; needs numpy and scipy, and a graph
        with :attr:`exact` weights: any other raises :class:`GraphError`.

        Made on first use and kept until the graph's :meth:`version`
        moves, so every caller on one graph version shares one view. The
        last view is the base of the next: only contractions can have
        happened since it was made (:meth:`delete_edge` drops it), so the
        next is derived from it (:meth:`ArrayView.derived`). A graph
        without a view of its own takes its base from the instance graph it
        is linked to (:meth:`Problem.from_instance` links the working
        graph, :meth:`copy` keeps the link and :meth:`delete_edge` drops
        it), while that graph still has the version it was linked at: the
        instance graph's own view, built there once, which this graph shares
        at the same version and derives from after contractions. Any other
        graph builds from the dicts.
        """
        view = self._view
        version = self.version()
        if view is None or view.version != version:
            if not self.exact:
                raise GraphError("weights past 2**53 in total have no array view")
            if view is None and self._lineage is not None:
                instance, linked = self._lineage
                if instance.version() == linked:
                    view = instance.array_view()
            if view is None:
                view = ArrayView(self)
            elif view.version != version:
                view = ArrayView.derived(view, self)
            self._view = view
        return view

    def derive_view(self, base: "ContractableGraph") -> None:
        """Make this graph's first view from ``base``'s, if ``base`` holds a
        view of its current version; else do nothing, so a graph without a
        view builds none here. This graph must be ``base`` as it is now,
        copied and then only contracted (:meth:`ArrayView.derived`)."""
        view = base._view
        if self._view is None and view is not None and view.version == base.version():
            self._view = ArrayView.derived(view, self)

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

    def isolated_vertices(self) -> list[int]:
        """The live vertices without a neighbor, ascending."""
        return [v for v, a in enumerate(self._adj) if not a and a is not None]

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
        self._view = self._lineage = None  # a view is derived only across contractions
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


def large_view(g: ContractableGraph) -> ArrayView | None:
    """``g``'s array view if scipy is present, ``g`` has at least
    ``SCIPY_MIN_VERTICES`` live vertices and its weights are exact
    (:attr:`ContractableGraph.exact`), else None.

    This is the one test between the arrays and the dicts: every array
    path, in the flows, the rules, terminal placement and scoring, runs
    where it gives a view, and the dict code it replaces everywhere else.
    """
    if HAVE_SCIPY and g.exact and g.num_vertices >= SCIPY_MIN_VERTICES:
        return g.array_view()
    return None


class ArrayView:
    """One version of a graph's live vertices as arrays, never changed.

    - ``ids``: the live vertex ids, ascending; a vertex's position here is
      its index in the other arrays.
    - ``index``: ``n_original`` long, each live id's index, -1 for a
      tombstone.
    - ``matrix``: the weight matrix over the indices in CSR form, int32
      indices, each edge in both directions and each row sorted by column.
      The weights are float64, as scipy's graph routines read them; a view
      is made only of a graph with exact weights
      (:attr:`ContractableGraph.exact`), so every sum of them is exact.
    - ``labels`` and ``sizes``: each index's connected component, numbered
      from 0, and each component's vertex count.
    - ``degree`` and ``wdeg``: each index's degree and weighted degree;
      ``rows``: the indices with a neighbor, ascending. The rules' scans
      read them, and :meth:`per_row` reduces other per-entry values. Each
      is computed on first use, once per view, since many views are never
      scanned.
    - ``version``: the graph's :meth:`~ContractableGraph.version` it shows.

    The constructor fills the arrays with ``np.fromiter`` over the
    adjacency dicts; :meth:`derived` makes the same arrays from an earlier
    view of the graph. :meth:`rooted` adds a virtual root for scipy's
    searches from several vertices at once: terminal placement's BFS and
    the articulation rule's DFS.
    """

    def __init__(self, g: ContractableGraph):
        adj = g._adj
        live = np.fromiter(map(operator.is_not, adj, repeat(None)), dtype=bool, count=len(adj))
        ids = np.flatnonzero(live)
        n = len(ids)
        index = self._indexed(g, ids)
        rows = [adj[v] for v in ids.tolist()]
        nnz = 2 * g.num_edges
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.fromiter(map(len, rows), dtype=np.int32, count=n), out=indptr[1:])
        cols = index[np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=nnz)]
        weights = np.fromiter(chain.from_iterable(map(dict.values, rows)),
                              dtype=np.float64, count=nnz)
        matrix = csr_matrix((weights, cols, indptr), shape=(n, n))
        matrix.sort_indices()
        self._finish(matrix)

    @classmethod
    def derived(cls, base: "ArrayView", g: ContractableGraph) -> "ArrayView":
        """The view of ``g``, made from ``base``, an earlier view of it or
        of the instance graph it was copied from.

        Only contractions may have happened since ``base``. Each of its
        indices is mapped to its vertex's representative's new index; the
        entries that became self-loops are dropped, and scipy sums the ones
        that became parallel, as the merges summed them in the dicts. Every
        sum is exact, so the arrays equal a fresh build's, byte for byte.
        """
        view = cls.__new__(cls)
        root = g.find_all()
        ids = np.flatnonzero(root == np.arange(g.n_original))
        n = len(ids)
        index = view._indexed(g, ids)
        old = base.matrix
        to_new = index[root[base.ids]]  # each base index's new index
        rows = np.repeat(to_new, np.diff(old.indptr))
        cols = to_new[old.indices]
        kept = rows != cols
        view._finish(csr_matrix((old.data[kept], (rows[kept], cols[kept])), shape=(n, n)))
        return view

    def _indexed(self, g: ContractableGraph, ids: np.ndarray) -> np.ndarray:
        """Set ``version``, ``ids`` and ``index`` for ``g``'s live ``ids``;
        returns ``index``."""
        self.version = g.version()
        self.ids = ids
        self.index = index = np.full(g.n_original, -1, dtype=np.int32)
        index[ids] = np.arange(len(ids), dtype=np.int32)
        return index

    def _finish(self, matrix: csr_matrix) -> None:
        """Set ``matrix`` and the components read off it."""
        self.matrix = matrix
        _, self.labels = connected_components(matrix, directed=False)
        self.sizes = np.bincount(self.labels)

    @cached_property
    def degree(self) -> np.ndarray:
        return np.diff(self.matrix.indptr)

    @cached_property
    def rows(self) -> np.ndarray:
        return np.flatnonzero(self.degree)

    @cached_property
    def wdeg(self) -> np.ndarray:
        return self.per_row(np.add, self.matrix.data)

    def per_row(self, ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc`` reduced over each row's entries of ``values`` (one per
        stored matrix entry); 0 for a row with no neighbor."""
        out = np.zeros(len(self.degree), dtype=values.dtype)
        if len(self.rows):
            out[self.rows] = ufunc.reduceat(values, self.matrix.indptr[self.rows])
        return out

    def rooted(self, roots: np.ndarray) -> csr_matrix:
        """The matrix's pattern plus a virtual root, index ``n``, whose row
        lists the indices ``roots`` in their given order; all weights 1.

        No row lists the virtual root, so scipy's ``breadth_first_order``
        or ``depth_first_order`` from it, ``directed=True``, starts at each
        root in that order. The view's rows are sorted, so every vertex's
        neighbors are explored in ascending id order, as a Python search
        over sorted neighbor lists explores them.
        """
        n = len(self.ids)
        matrix = self.matrix
        indptr = np.append(matrix.indptr, matrix.indptr[-1] + len(roots))
        indices = np.concatenate((matrix.indices, roots))
        return csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))


def cut_value(graph: ContractableGraph, terminal_vertices: Sequence[int], labels: Sequence[int]) -> int:
    """Cut weight of a feasible assignment on an (uncontracted) graph.

    Every terminal must carry its own block label and every label must be a
    valid block index; violations raise :class:`InfeasibleAssignment`.

    Where :func:`large_view` gives the graph's view, integer
    labels are checked and the cut summed in numpy passes over it, with the
    same exceptions and value.
    """
    k = len(terminal_vertices)
    if len(labels) != graph.n_original:
        raise InfeasibleAssignment("assignment does not cover every vertex")
    view = large_view(graph)
    given = None if view is None else np.asarray(labels)
    if given is None or given.dtype.kind not in "iu":
        for i, t in enumerate(terminal_vertices):
            if labels[t] != i:
                raise InfeasibleAssignment(f"terminal {t} labeled {labels[t]}, expected {i}")
        for v, b in enumerate(labels):
            if not (0 <= b < k):
                raise InfeasibleAssignment(f"vertex {v} has label {b} outside [0,{k})")
        return graph.cut_value(labels)
    wrong = np.flatnonzero(given[list(terminal_vertices)] != np.arange(k))
    if len(wrong):
        i = int(wrong[0])
        t = terminal_vertices[i]
        raise InfeasibleAssignment(f"terminal {t} labeled {labels[t]}, expected {i}")
    outside = np.flatnonzero((given < 0) | (given >= k))
    if len(outside):
        v = int(outside[0])
        raise InfeasibleAssignment(f"vertex {v} has label {labels[v]} outside [0,{k})")
    own = given[view.ids]
    matrix = view.matrix
    crossing = np.repeat(own, np.diff(matrix.indptr)) != own[matrix.indices]
    return int(matrix.data[crossing].sum()) // 2  # each edge counted from both ends


class Problem:
    """One subproblem of the branch tree.

    Owns a working graph plus the bookkeeping that relates it back to the
    root instance: the fixed terminal vertices (original ids, list position
    is the block index, ``block_of`` the inverse map), which of them are
    still active, and the weight of edges already committed to the cut.
    Any feasible cut of the subproblem plus ``deleted_weight`` is a feasible
    cut value of the original. ``loose_weight`` is the part of
    ``deleted_weight`` not deleted between two terminals: a labeling lifted
    from the subproblem may leave such an edge uncut, when its non-terminal
    end later joins the terminal at its other end, and then scores up to
    that much below the subproblem's bounds on the original graph.

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
    Copies share the entries, which are immutable. Entries come from the
    problem's own flows and from a vertex branch
    (:func:`~mtcut.solver.branch_vertex`): a joined child keeps the flow
    it runs there, and the cut-all child keeps cuts derived from its
    parent's and that flow, each equal to a fresh flow's.
    """

    __slots__ = ("graph", "terminal_vertices", "block_of", "active", "deleted_weight",
                 "loose_weight", "lower_bound", "original", "_cuts", "_cuts_version")

    def __init__(self, graph, terminal_vertices, active, deleted_weight, lower_bound, original):
        self.graph: ContractableGraph = graph
        self.terminal_vertices: tuple[int, ...] = terminal_vertices
        self.block_of: dict[int, int] = {t: i for i, t in enumerate(terminal_vertices)}
        self.active: list[bool] = active
        self.deleted_weight: int = deleted_weight
        self.loose_weight: int = 0
        self.lower_bound: int = lower_bound
        self.original: ContractableGraph = original
        self._cuts: dict = {}  # terminal -> mtcut.flow.FlowResult
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
        work = graph.copy()
        work._lineage = (graph, graph.version())
        return cls(work, terms, [True] * len(terms), 0, 0, graph)

    @property
    def k(self) -> int:
        return len(self.terminal_vertices)

    def copy(self) -> "Problem":
        c = Problem(self.graph.copy(), self.terminal_vertices, list(self.active),
                    self.deleted_weight, self.lower_bound, self.original)
        c.loose_weight = self.loose_weight
        c._cuts = dict(self.kept_cuts())
        return c

    def kept_cuts(self) -> dict:
        """Terminal -> its kept largest minimum isolating cut, a
        :class:`~mtcut.flow.FlowResult` (see the class).

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

        A kept cut whose stored side the edge crosses stays, its value
        lowered by the edge's weight: every isolating cut loses at most
        that weight, so the minimum ones are now exactly the old minimum
        ones that cross the edge, and the stored side, which holds all of
        those, is still the largest. An edge between two terminals crosses
        only its ends' cuts and lies outside every other terminal's, whose
        cuts it leaves as they are. Any other cut is dropped. ``u`` and
        ``v`` are live, so the stored side answers for them without
        ``find``, as in :meth:`contract_set`.
        """
        cuts = self.kept_cuts()
        w = self.graph.delete_edge(u, v)
        self.deleted_weight += w
        between_terminals = u in self.block_of and v in self.block_of
        if not between_terminals:
            self.loose_weight += w
        for t, res in list(cuts.items()):
            side = res.source_side
            if (u in side) != (v in side):
                # a FlowResult: flow imports graph, not the reverse
                cuts[t] = type(res)(res.value - w, side)
            elif not between_terminals:
                del cuts[t]
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

        Where :func:`large_view` gives the original graph's
        view, on which :meth:`solution_value` then scores the labels, this
        runs on arrays: one label per vertex id, looked up at every id's
        representative from :meth:`ContractableGraph.find_all`.
        """
        g = self.graph
        roots = self.block_of
        kernel = kernel_labels or {}
        if large_view(self.original) is not None:
            label = np.zeros(g.n_original, dtype=np.int64)
            known = np.zeros(g.n_original, dtype=bool)
            for given in (kernel, roots):  # the terminals' blocks last, so they win
                at = np.fromiter(given.keys(), dtype=np.intp, count=len(given))
                label[at] = np.fromiter(given.values(), dtype=np.int64, count=len(given))
                known[at] = True
            rep = g.find_all()
            out = label[rep]
            missing = ~known[rep]
            if missing.any():
                if fill is None:
                    raise IncompleteSolution(f"live vertex {rep[missing.argmax()]} has no label")
                out[missing] = fill
            return out.tolist()
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
