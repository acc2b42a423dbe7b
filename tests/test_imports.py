"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mtcut"


def internal_imports() -> dict[str, set[str]]:
    """Module name -> the package modules it imports, read from every
    ``from .x import ...`` and ``from . import x`` in its source."""
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    targets.update(a.name for a in node.names if a.name in modules)
                else:
                    targets.add(node.module.split(".")[0])
        graph[name] = targets
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of ``graph`` as a closed path of names, or None."""
    state = {}  # name -> "open" while on the path, "done" once finished
    path = []

    def visit(name):
        state[name] = "open"
        path.append(name)
        for target in sorted(graph.get(name, ())):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target)
                if cycle:
                    return cycle
        path.pop()
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def test_internal_imports_form_no_cycle():
    graph = internal_imports()
    assert {"graph", "flow", "reductions"} <= graph.keys()
    assert "graph" in graph["flow"]  # the reader sees the package's imports
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_a_cycle_is_found():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None
