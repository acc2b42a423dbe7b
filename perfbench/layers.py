"""The layers the traced run measures, and what each metric should move.

Every span is a public function of a ``src/mtcut`` module (plus scipy's
``maximum_flow`` as bound in ``mtcut.flow``) timed from outside. ``.s`` is
the inclusive time of the calls, ``.self_s`` the time not covered by
child spans. ``MOVES`` records, before any optimisation is attempted,
which end-to-end metric a layer metric should move and on which workload.
"""

from __future__ import annotations

RULES = {
    # DEFAULT_ORDER name -> function in mtcut.reductions
    "inter_terminal": "delete_inter_terminal_edges",
    "isolating_cuts": "contract_isolating_cuts",
    "low_degree": "reduce_low_degree",
    "heavy_edge": "reduce_heavy_edge",
    "heavy_triangle": "reduce_heavy_triangle",
    "connectivity": "reduce_connectivity",
    "articulation": "reduce_articulation_points",
    "equal_neighborhoods": "reduce_equal_neighborhoods",
    "non_terminal_flows": "reduce_non_terminal_flows",
}

# spans whose calls make traced child spans, so self time differs
WITH_CHILDREN = ("reductions.loop", "reductions.isolating_cuts",
                 "reductions.non_terminal_flows", "solver.branch", "solver.solve",
                 "localsearch.refine")

MOVES = {
    "graphio": "setup_s on torus-scale",
    "bench": "setup_s on torus-scale",
    "reductions.loop": "kernel_s and solve_total_s on every workload",
    "reductions.rule": ("kernel_s, not kernel_vertices; on torus-scale only "
                        "isolating_cuts ever hits, so idle rules are wasted work"),
    "flow": ("flow.setup.s moves solve_total_s on oracle-small and kernel_s on "
             "torus-scale; flow.scipy.s is the floor"),
    "graph": "solve_total_s on grown-exact",
    "solver": "solve_total_s on grown-exact; near zero on torus-scale",
    "localsearch": ("solve_total_s on grown-exact (and ok_frac there: refine "
                    "raises on grown instances once it runs)"),
    "trace": "nothing: the cost of tracing itself",
}


def install(tracer, mtcut) -> None:
    """Wrap every layer boundary of the program in ``tracer``."""
    graph = mtcut.graph
    tracer.wrap_function("graphio.parse_graph", "mtcut.graphio", "parse_graph")
    tracer.wrap_function("bench.generate_terminals", "mtcut.bench", "generate_terminals")
    tracer.wrap_function("bench.grow_terminal_blocks", "mtcut.bench", "grow_terminal_blocks")
    tracer.wrap_function("reductions.loop", "mtcut.reductions", "run_reduction_loop",
                         note=lambda report, _: report.passes)
    for rule, func in RULES.items():
        tracer.wrap_function(f"reductions.{rule}", "mtcut.reductions", func,
                             note=lambda res, _: int(res[0] + res[1] > 0))
    tracer.wrap_function("flow.max_flow_st", "mtcut.flow", "max_flow_st")
    tracer.wrap_function("flow.scipy", "mtcut.flow", "_scipy_maximum_flow")
    tracer.wrap_method("graph.problem_copy", graph.Problem, "copy")
    tracer.wrap_method("graph.improve", graph.BoundState, "improve",
                       note=lambda accepted, _: int(bool(accepted)))
    tracer.wrap_function("solver.branch", "mtcut.solver", "branch_vertex",
                         note=lambda children, _: len(children))
    tracer.wrap_function("solver.solve", "mtcut.solver", "solve_prepared",
                         note=lambda result, _: result.nodes)
    cut_value = graph.cut_value  # captured before any wrapping, so untraced
    tracer.wrap_function(
        "localsearch.refine", "mtcut.localsearch", "refine",
        before=lambda g, terms, labels, *a, **k: cut_value(g, terms, labels),
        note=lambda res, before: int(res[1] < before))


def _metric_list() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def span(name):
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.s", "s", "lower"))
        if name in WITH_CHILDREN:
            out.append((f"{name}.self_s", "s", "lower"))

    for name in ("graphio.parse_graph", "bench.generate_terminals",
                 "bench.grow_terminal_blocks"):
        span(name)
    span("reductions.loop")
    out.append(("reductions.loop.passes", "count", "lower"))
    for rule in RULES:
        span(f"reductions.{rule}")
        out.append((f"reductions.{rule}.hit_ratio", "ratio", "higher"))
    span("flow.max_flow_st")
    span("flow.scipy")
    out.append(("flow.setup.s", "s", "lower"))
    span("graph.problem_copy")
    span("graph.improve")
    out.append(("graph.improve.accepted", "count", "higher"))
    span("solver.solve")
    out.append(("solver.nodes", "count", "lower"))
    out.append(("solver.nodes_per_s", "1/s", "higher"))
    out.append(("solver.optimal_frac", "frac", "higher"))
    span("solver.branch")
    out.append(("solver.branch.children", "count", "lower"))
    span("localsearch.refine")
    out.append(("localsearch.refine.improved", "count", "higher"))
    out.append(("trace.overhead_frac", "frac", "lower"))
    out.append(("trace.spans", "count", "lower"))
    return out


METRICS = _metric_list()


def per_layer(summary: dict, optimal_frac: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values from a tracer summary."""
    def get(name, key):
        entry = summary.get(name)
        return entry[key] if entry else 0

    def notes(name):
        entry = summary.get(name)
        return entry["notes"] if entry else []

    values: dict[str, float] = {}
    for metric, _, _ in METRICS:
        span, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s") and metric != "flow.setup.s":
            values[metric] = get(span, key)
    values["reductions.loop.passes"] = sum(notes("reductions.loop"))
    for rule in RULES:
        calls = get(f"reductions.{rule}", "calls")
        hits = sum(notes(f"reductions.{rule}"))
        values[f"reductions.{rule}.hit_ratio"] = hits / calls if calls else 0.0
    values["flow.setup.s"] = get("flow.max_flow_st", "s") - get("flow.scipy", "s")
    values["graph.improve.accepted"] = sum(notes("graph.improve"))
    nodes = sum(notes("solver.solve"))
    values["solver.nodes"] = nodes
    solve_s = get("solver.solve", "s")
    values["solver.nodes_per_s"] = nodes / solve_s if solve_s else 0.0
    values["solver.optimal_frac"] = optimal_frac
    values["solver.branch.children"] = sum(notes("solver.branch"))
    values["localsearch.refine.improved"] = sum(notes("localsearch.refine"))
    values["trace.overhead_frac"] = overhead_frac
    values["trace.spans"] = sum(entry["calls"] for entry in summary.values())
    return {name: values[name] for name, _, _ in METRICS}
