"""Greedy improvement of a feasible assignment.

Two alternating mechanisms: gain-driven vertex moves (single moves with
non-negative gain plus coupled pair moves of negative-gain neighbors), and
exact re-partitioning of pairs of adjacent blocks with a maximum flow. Both
are monotone: the cut value never increases, and terminals never move.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Sequence

from .flow import max_flow_st
from .graph import ContractableGraph, cut_value


def expired(deadline: float | None) -> bool:
    """Whether the monotonic clock has reached ``deadline`` (None: never).

    Every deadline check reads the clock through the ``time`` module of
    this module, :mod:`mtcut.reductions` or :mod:`mtcut.solver`, and
    :mod:`mtcut.flow` and :mod:`mtcut.graph` read none. The benchmark's
    ``overshoot_s``, the longest stretch between two clock reads, is
    measured by replacing ``time`` in exactly those three modules, so a
    check moved elsewhere would leave the measurement and lengthen the
    gaps it reports.
    """
    return deadline is not None and time.monotonic() >= deadline


class GainTable:
    """Per-vertex weights towards each block, maintained across moves.

    The gain of a vertex is the weight to its best other block minus the
    weight to its own block; applying a move updates the affected entries
    of the moved vertex's neighbors only.
    """

    def __init__(self, graph: ContractableGraph, labels: list[int], num_blocks: int):
        self.graph = graph
        self.labels = labels
        self.num_blocks = num_blocks
        self.to_block: list[dict[int, int]] = [{} for _ in range(graph.n_original)]
        for u, v, w in graph.edges():
            bu, bv = labels[u], labels[v]
            tu = self.to_block[u]
            tv = self.to_block[v]
            tu[bv] = tu.get(bv, 0) + w
            tv[bu] = tv.get(bu, 0) + w

    def is_boundary(self, v: int) -> bool:
        own = self.labels[v]
        return any(b != own and w > 0 for b, w in self.to_block[v].items())

    def best_move(self, v: int) -> tuple[int, int]:
        """(gain, target block) of the best relocation of v; ties go to the
        lowest block index."""
        own = self.labels[v]
        w_own = self.to_block[v].get(own, 0)
        best_gain = None
        best_block = -1
        for b in range(self.num_blocks):
            if b == own:
                continue
            gain = self.to_block[v].get(b, 0) - w_own
            if best_gain is None or gain > best_gain:
                best_gain = gain
                best_block = b
        return best_gain, best_block

    def move(self, v: int, block: int) -> None:
        old = self.labels[v]
        if old == block:
            return
        self.labels[v] = block
        for x, w in self.graph.neighbors(v).items():
            tx = self.to_block[x]
            tx[old] -= w
            if tx[old] == 0:
                del tx[old]
            tx[block] = tx.get(block, 0) + w


def kl_pass(table: GainTable, terminal_set: set[int]) -> int:
    """One sweep of single and pair moves; returns the total gain applied.

    Every vertex is touched at most once per sweep, which keeps zero-gain
    moves from oscillating within the sweep.
    """
    g = table.graph
    moved: set[int] = set()
    total = 0
    for v in range(g.n_original):
        if v in terminal_set or v in moved or not g.is_live(v):
            continue
        if not table.is_boundary(v):
            continue
        gain, target = table.best_move(v)
        if target < 0:
            continue
        if gain >= 0:
            table.move(v, target)
            moved.add(v)
            total += gain
            continue
        for u in sorted(g.neighbors(v)):
            if u in terminal_set or u in moved or table.labels[u] != table.labels[v]:
                continue
            gain_u, target_u = table.best_move(u)
            if gain_u >= 0 or target_u != target:
                continue
            coupled = gain + gain_u + 2 * g.neighbors(v)[u]
            if coupled > 0:
                table.move(v, target)
                table.move(u, target)
                moved.add(v)
                moved.add(u)
                total += coupled
                break
    return total


def _pair_weights(graph: ContractableGraph, labels: Sequence[int]) -> dict[tuple[int, int], int]:
    weights: dict[tuple[int, int], int] = {}
    for u, v, w in graph.edges():
        bu, bv = labels[u], labels[v]
        if bu != bv:
            key = (bu, bv) if bu < bv else (bv, bu)
            weights[key] = weights.get(key, 0) + w
    return weights


def pairwise_flow_refine(graph: ContractableGraph, terminal_vertices: Sequence[int],
                         labels: list[int], i: int, j: int,
                         anchors: Sequence[Sequence[int]] | None = None) -> bool:
    """Re-partition blocks i and j along a minimum cut between them.

    The subgraph induced by the two blocks is extracted, the anchored
    vertices (those committed to a terminal, intersected with the block
    they currently sit in) are merged into their terminals, and the two
    blocks are relabeled along a minimum cut between the terminal nodes.
    Other blocks are untouched and the cut value cannot increase. Returns
    whether any label changed.
    """
    if anchors is None:
        anchors = [[t] for t in terminal_vertices]
    anchor_i = {v for v in anchors[i] if labels[v] == i} | {terminal_vertices[i]}
    anchor_j = {v for v in anchors[j] if labels[v] == j} | {terminal_vertices[j]}

    node_of: dict[int, int] = {}
    members: list[int] = []
    for v in range(graph.n_original):
        # a contracted-away vertex keeps its terminal's label, which never moves
        if not graph.is_live(v):
            continue
        if labels[v] == i:
            node_of[v] = 0 if v in anchor_i else -1
        elif labels[v] == j:
            node_of[v] = 1 if v in anchor_j else -1
        else:
            continue
        members.append(v)
    free = [v for v in members if node_of[v] == -1]
    for idx, v in enumerate(free):
        node_of[v] = 2 + idx

    merged: dict[tuple[int, int], int] = {}
    cross = 0
    for v in members:
        for x, w in graph.neighbors(v).items():
            if x <= v or x not in node_of:
                continue
            if (labels[v] == i) != (labels[x] == i):
                cross += w
            a, b = node_of[v], node_of[x]
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            merged[key] = merged.get(key, 0) + w
    if cross == 0:
        return False

    sub = ContractableGraph.from_edge_list(2 + len(free),
                                           [(a, b, w) for (a, b), w in merged.items()])
    res = max_flow_st(sub, 0, {1})
    changed = False
    for v in free:
        new = i if node_of[v] in res.source_side else j
        if labels[v] != new:
            labels[v] = new
            changed = True
    return changed


def refine(graph: ContractableGraph, terminal_vertices: Sequence[int],
           labels: Sequence[int], anchors: Sequence[Sequence[int]] | None = None,
           seed: int = 0, deadline: float | None = None) -> tuple[list[int], int]:
    """Full local search: move sweeps, then pairwise flows, then sweeps.

    Returns an improved feasible assignment and its cut value; the value
    never exceeds the input's.
    """
    labels = list(labels)
    k = len(terminal_vertices)
    cut_value(graph, terminal_vertices, labels)  # feasibility check up front
    terminal_set = set(terminal_vertices)

    def kl_rounds() -> None:
        table = GainTable(graph, labels, k)
        while not expired(deadline):
            if kl_pass(table, terminal_set) <= 0:
                break

    kl_rounds()

    rng = random.Random(seed)
    pairs = sorted(_pair_weights(graph, labels))
    rng.shuffle(pairs)
    queue = deque(pairs)
    queued = set(pairs)
    last_seen: dict[tuple[int, int], int] = {}
    budget = 20 * max(1, len(pairs))
    while queue and budget > 0 and not expired(deadline):
        pair = queue.popleft()
        queued.discard(pair)
        current = _pair_weights(graph, labels)
        w = current.get(pair, 0)
        if w == 0 or last_seen.get(pair) == w:
            last_seen[pair] = w
            continue
        budget -= 1
        changed = pairwise_flow_refine(graph, terminal_vertices, labels,
                                       pair[0], pair[1], anchors)
        after = _pair_weights(graph, labels)
        last_seen[pair] = after.get(pair, 0)
        if changed:
            for other in sorted(set(after) | set(last_seen)):
                if other == pair or other in queued:
                    continue
                if pair[0] in other or pair[1] in other:
                    if last_seen.get(other) != after.get(other, 0):
                        queue.append(other)
                        queued.add(other)
    kl_rounds()
    return labels, cut_value(graph, terminal_vertices, labels)
