"""Reader and writer for the adjacency-list graph format used by the
common partitioning tool chains: a header line ``n m [fmt]`` followed by
one whitespace-separated neighbor list per vertex, 1-indexed, every edge
listed from both endpoints. A ``1`` in the format's ones digit means each
neighbor id is followed by the edge weight. After the header a blank line
is the neighbor list of an isolated vertex; ``%`` lines are comments."""

from __future__ import annotations

from .graph import ContractableGraph


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph(text: str) -> ContractableGraph:
    """Parse graph text; raises :class:`GraphParseError` with a line number."""
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
    if fmt // 10:
        raise GraphParseError(f"unsupported format {fmt}: vertex weights", header_no)
    weighted = fmt % 10 == 1

    body = rows[start + 1:]
    while len(body) > n and not body[-1][1]:  # trailing blank lines
        body.pop()
    if len(body) != n:
        raise GraphParseError(f"expected {n} vertex lines, found {len(body)}",
                              body[-1][0] if body else header_no)

    weight_of: dict[tuple[int, int], int] = {}
    line_of: dict[tuple[int, int], int] = {}
    for v, (no, line) in enumerate(body):
        tokens = line.split()
        try:
            nums = [int(t) for t in tokens]
        except ValueError:
            raise GraphParseError("non-numeric entry", no)
        if weighted:
            if len(nums) % 2 != 0:
                raise GraphParseError("weighted line needs (neighbor, weight) pairs", no)
            pairs = list(zip(nums[::2], nums[1::2]))
        else:
            pairs = [(x, 1) for x in nums]
        for x, w in pairs:
            if not 1 <= x <= n:
                raise GraphParseError(f"neighbor {x} out of range 1..{n}", no)
            u = x - 1
            if u == v:
                raise GraphParseError(f"self-loop at vertex {v + 1}", no)
            if w < 1:
                raise GraphParseError(f"non-positive edge weight {w}", no)
            weight_of[(v, u)] = weight_of.get((v, u), 0) + w
            line_of.setdefault((v, u), no)

    for (u, v), w in weight_of.items():
        back = weight_of.get((v, u))
        if back is None:
            raise GraphParseError(f"edge {u + 1}-{v + 1} not listed from {v + 1}",
                                  line_of[(u, v)])
        if back != w:
            raise GraphParseError(
                f"edge {u + 1}-{v + 1} has weight {w} one way and {back} the other",
                line_of[(u, v)])
    undirected = {(u, v) for u, v in weight_of if u < v}
    if len(undirected) != m:
        raise GraphParseError(
            f"header declares {m} edges but adjacency lists {len(undirected)}",
            header_no)
    return ContractableGraph.from_edge_list(
        n, [(u, v, weight_of[(u, v)]) for u, v in sorted(undirected)])


def parse_graph_file(path: str) -> ContractableGraph:
    with open(path) as fh:
        return parse_graph(fh.read())


def write_graph(g: ContractableGraph) -> str:
    """Serialize the live part of a graph back to the adjacency format."""
    live = sorted(g.live_vertices())
    index = {v: i + 1 for i, v in enumerate(live)}
    weighted = any(w != 1 for _, _, w in g.edges())
    header = f"{len(live)} {g.num_edges}" + (" 1" if weighted else "")
    lines = [header]
    for v in live:
        nbrs = sorted(g.neighbors(v).items())
        if weighted:
            lines.append(" ".join(f"{index[x]} {w}" for x, w in nbrs))
        else:
            lines.append(" ".join(str(index[x]) for x, _ in nbrs))
    return "\n".join(lines) + "\n"
