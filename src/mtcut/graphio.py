"""Reader and writer for the adjacency-list graph format used by the
common partitioning tool chains: a header line ``n m [fmt]`` followed by
one whitespace-separated neighbor list per vertex, 1-indexed, every edge
listed from both endpoints. A ``1`` in the format's ones digit means each
neighbor id is followed by the edge weight, and ``0`` that it is not; any
other format, vertex weights included, is rejected. After the header a
blank line is the neighbor list of an isolated vertex; ``%`` lines are
comments. Files are read as UTF-8.

A malformed input raises a :class:`GraphParseError` with the line of its
first error: lines are checked in order, and an edge is matched with its
reverse only once every line has passed.
"""

from __future__ import annotations

from itertools import repeat

from .graph import ContractableGraph


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph(text: str) -> ContractableGraph:
    """Parse graph text into a graph whose neighbor dicts are each in
    ascending id order; raises :class:`GraphParseError` with a line number
    (see the module docstring for the order of the checks)."""
    numbered = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    rows = [(no, line) for no, line in numbered if not line.startswith("%")]
    start = next((j for j, (_, line) in enumerate(rows) if line), None)
    if start is None:
        raise GraphParseError("empty graph file", 1)
    header_no, header = rows[start]
    fields = header.split()
    if len(fields) not in (2, 3):
        raise GraphParseError("header must be 'n m [fmt]'", header_no)
    try:
        n, m = int(fields[0]), int(fields[1])
        fmt = int(fields[2]) if len(fields) == 3 else 0
    except ValueError:
        raise GraphParseError("non-numeric header", header_no)
    if n < 1 or m < 0:
        raise GraphParseError("invalid vertex or edge count", header_no)
    if fmt < 0 or fmt % 10 > 1:
        raise GraphParseError(f"unsupported format {fmt}", header_no)
    if fmt // 10:
        raise GraphParseError(f"unsupported format {fmt}: vertex weights", header_no)
    weighted = fmt % 10 == 1

    body = rows[start + 1:]
    while len(body) > n and not body[-1][1]:  # trailing blank lines
        body.pop()
    if len(body) != n:
        raise GraphParseError(f"expected {n} vertex lines, found {len(body)}",
                              body[-1][0] if body else header_no)

    adj = [_parse_row(v, no, line, n, weighted) for v, (no, line) in enumerate(body)]
    for u, row in enumerate(adj, 1):
        for x, w in row.items():
            back = adj[x - 1].get(u)
            if back != w:
                no = body[u - 1][0]
                if back is None:
                    raise GraphParseError(f"edge {u}-{x} not listed from {x}", no)
                raise GraphParseError(
                    f"edge {u}-{x} has weight {w} one way and {back} the other", no)
    listed = sum(map(len, adj)) // 2
    if listed != m:
        raise GraphParseError(f"header declares {m} edges but adjacency lists {listed}",
                              header_no)
    # transposed into 0-based rows, which come out in ascending id order
    nbrs: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for u, row in enumerate(adj):
        for x, w in row.items():
            nbrs[x][u] = w
    del nbrs[0]
    return ContractableGraph(nbrs)


def _parse_row(v: int, no: int, line: str, n: int, weighted: bool) -> dict[int, int]:
    """Vertex ``v``'s line as a dict from 1-based neighbor id to weight, in
    order of first appearance, repeated neighbors summed."""
    try:
        nums = list(map(int, line.split()))
    except ValueError:
        raise GraphParseError("non-numeric entry", no)
    if weighted:
        if len(nums) % 2 != 0:
            raise GraphParseError("weighted line needs (neighbor, weight) pairs", no)
        ids, weights = nums[::2], nums[1::2]
        row = dict(zip(ids, weights))
    else:
        ids, weights = nums, repeat(1)
        row = dict.fromkeys(ids, 1)
    if ids and (min(ids) < 1 or max(ids) > n or v + 1 in row
                or (weighted and min(weights) < 1)):
        for x, w in zip(ids, weights):  # name the first bad pair
            if not 1 <= x <= n:
                raise GraphParseError(f"neighbor {x} out of range 1..{n}", no)
            if x == v + 1:
                raise GraphParseError(f"self-loop at vertex {v + 1}", no)
            if w < 1:
                raise GraphParseError(f"non-positive edge weight {w}", no)
    if len(row) < len(ids):
        row = {}
        for x, w in zip(ids, weights):
            row[x] = row.get(x, 0) + w
    return row


def parse_graph_file(path: str) -> ContractableGraph:
    """Read a UTF-8 graph file; a byte that does not decode is a
    :class:`GraphParseError` naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        line = len((before + "x").splitlines())  # lines up to the bad byte's own
        raise GraphParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", line) from None
    return parse_graph(text)


def write_graph(g: ContractableGraph) -> str:
    """Serialize the live part of a graph back to the adjacency format."""
    live = list(g.live_vertices())
    index = {v: i + 1 for i, v in enumerate(live)}
    # weights are positive, so all are 1 exactly when each vertex's
    # weighted degree is its degree
    weighted = any(g.weighted_degree(v) != g.degree(v) for v in live)
    header = f"{len(live)} {g.num_edges}" + (" 1" if weighted else "")
    lines = [header]
    for v in live:
        nbrs = sorted(g.neighbors(v).items())
        if weighted:
            lines.append(" ".join(f"{index[x]} {w}" for x, w in nbrs))
        else:
            lines.append(" ".join(str(index[x]) for x, _ in nbrs))
    return "\n".join(lines) + "\n"
