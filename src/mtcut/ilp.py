"""Integer-program formulation of a subproblem and an external solver driver.

The model uses one binary assignment variable per (vertex, block) pair and
one binary cut variable per edge, forced to 1 whenever the endpoints'
block indicators disagree. The model is written to a CPLEX-style LP file
and handed to a user-configured solver command; the core never links
against a MILP library, so the solver is optional and the package works
without one.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass

from .graph import GraphError, Problem

SOLVED = "solved"
TIMED_OUT = "timeout"
UNAVAILABLE = "unavailable"

ENV_COMMAND = "MTCUT_ILP_CMD"


@dataclass
class IlpModel:
    vertices: list[int]
    blocks: list[int]
    edges: list[tuple[int, int, int]]
    fixed: dict[int, int]
    offset: int = 0

    @staticmethod
    def var_x(v: int, b: int) -> str:
        return f"x_{v}_{b}"

    @staticmethod
    def var_z(u: int, v: int) -> str:
        return f"z_{u}_{v}"

    def variable_names(self) -> list[str]:
        names = [self.var_x(v, b) for v in self.vertices for b in self.blocks]
        names += [self.var_z(u, v) for u, v, _ in self.edges]
        return names

    def objective_value(self, labels) -> int:
        total = self.offset
        for u, v, w in self.edges:
            if labels[u] != labels[v]:
                total += w
        return total


@dataclass
class IlpOutcome:
    status: str
    labels: list[int] | None = None
    value: int | None = None
    detail: str = ""


def build_model(p: Problem) -> IlpModel:
    """Formulate the subproblem's kernel as a minimization model.

    Isolated vertices are left out (their placement is free); the model
    objective includes the already deleted weight as a constant, so a
    feasible model solution scores exactly like the decoded assignment.
    """
    g = p.graph
    if g.num_edges < 1:
        raise GraphError("model needs at least one edge")
    actives = p.active_terminals()
    if len(actives) < 2:
        raise GraphError("model needs at least two active terminals")
    vertices = [v for v in g.live_vertices() if g.degree(v) >= 1]
    fixed = {r: p.block_of[r] for r in actives}
    blocks = list(fixed.values())
    edges = list(g.edges())
    return IlpModel(vertices, blocks, edges, fixed, p.deleted_weight)


def emit_lp(model: IlpModel) -> str:
    """Deterministic LP-format text for the model."""
    lines = ["Minimize"]
    terms = [f"{w} {model.var_z(u, v)}" for u, v, w in model.edges]
    if model.offset:
        terms.append(str(model.offset))
    lines.append(" obj: " + " + ".join(terms))
    lines.append("Subject To")
    for v in model.vertices:
        row = " + ".join(model.var_x(v, b) for b in model.blocks)
        lines.append(f" asg_{v}: {row} = 1")
    for v in sorted(model.fixed):
        lines.append(f" fix_{v}: {model.var_x(v, model.fixed[v])} = 1")
    for u, v, _ in model.edges:
        z = model.var_z(u, v)
        for b in model.blocks:
            xu, xv = model.var_x(u, b), model.var_x(v, b)
            lines.append(f" cut_{u}_{v}_{b}_a: {z} - {xu} + {xv} >= 0")
            lines.append(f" cut_{u}_{v}_{b}_b: {z} + {xu} - {xv} >= 0")
    lines.append("Binary")
    for name in model.variable_names():
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, model: IlpModel) -> dict[int, int]:
    """Decode ``name value`` lines into a vertex -> block labeling.

    Lines not naming a model variable are ignored (solution files usually
    carry comments and an objective line). Raises ValueError when any
    vertex does not end up in exactly one block.
    """
    known = set(model.variable_names())
    values: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("//"):
            continue
        parts = line.split()
        if len(parts) < 2 or parts[0] not in known:
            continue
        try:
            values[parts[0]] = float(parts[-1])
        except ValueError:
            raise ValueError(f"unreadable value on line: {raw!r}")
    labels: dict[int, int] = {}
    for v in model.vertices:
        chosen = [b for b in model.blocks if values.get(model.var_x(v, b), 0.0) > 0.5]
        if len(chosen) != 1:
            raise ValueError(f"vertex {v} assigned to {len(chosen)} blocks")
        labels[v] = chosen[0]
    for v, b in model.fixed.items():
        if labels.get(v) != b:
            raise ValueError(f"terminal {v} not fixed to block {b}")
    return labels


def solve_external(model: IlpModel, command: str | None, timeout_seconds: float) -> IlpOutcome:
    """Run the configured solver command on the emitted model.

    The command is a template whose ``{model}`` and ``{solution}``
    placeholders are replaced with paths in a temporary directory, removed
    on return; the solver must write ``name value`` lines to the solution
    path. Returns a solved outcome,
    a timeout (caller should branch instead), or unavailability (missing
    or broken solver, or a template that does not parse; caller should
    disable the ILP path).
    """
    if command is None:
        command = os.environ.get(ENV_COMMAND)
    if not command:
        return IlpOutcome(UNAVAILABLE, detail="no solver command configured")
    if timeout_seconds is not None and timeout_seconds <= 0:
        return IlpOutcome(TIMED_OUT, detail="no time budget left")
    with tempfile.TemporaryDirectory(prefix="mtcut-ilp-") as workdir:
        model_path = os.path.join(workdir, "model.lp")
        solution_path = os.path.join(workdir, "model.sol")
        with open(model_path, "w") as fh:
            fh.write(emit_lp(model))
        try:
            argv = [tok.format(model=model_path, solution=solution_path)
                    for tok in shlex.split(command)]
        except (ValueError, LookupError, AttributeError, TypeError) as exc:
            return IlpOutcome(UNAVAILABLE, detail=f"bad solver command {command!r}: {exc!r}")
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=timeout_seconds)
        except subprocess.TimeoutExpired:
            return IlpOutcome(TIMED_OUT, detail=f"killed after {timeout_seconds}s")
        except (FileNotFoundError, PermissionError) as exc:
            return IlpOutcome(UNAVAILABLE, detail=f"cannot run solver: {exc}")
        if proc.returncode != 0:
            return IlpOutcome(UNAVAILABLE,
                              detail=f"solver exited {proc.returncode}: {proc.stderr[:500]}")
        if not os.path.exists(solution_path):
            return IlpOutcome(UNAVAILABLE, detail="solver wrote no solution file")
        with open(solution_path) as fh:
            text = fh.read()
        try:
            labels = parse_solution(text, model)
        except ValueError as exc:
            return IlpOutcome(UNAVAILABLE, detail=f"malformed solution: {exc}")
        return IlpOutcome(SOLVED, labels=[labels[v] for v in model.vertices],
                          value=model.objective_value(labels))


def solve_problem(p: Problem, command: str | None, timeout_seconds: float) -> IlpOutcome:
    """Solve a subproblem's kernel exactly through the external solver.

    On success the decoded kernel labeling is projected to the original
    vertices (the isolated vertices the model leaves out join the first
    active block) and the returned value is scored on the original graph,
    so it is correct even if the solver reports a loose objective.
    """
    model = build_model(p)
    out = solve_external(model, command, timeout_seconds)
    if out.status != SOLVED:
        return out
    labels = p.project(dict(zip(model.vertices, out.labels)), fill=model.blocks[0])
    return IlpOutcome(SOLVED, labels=labels, value=p.solution_value(labels))
