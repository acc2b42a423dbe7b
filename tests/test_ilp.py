import math
import os
import sys

import pytest

from fake_milp import parse_lp, solve_lp_text
from helpers import FIXTURES, fixture_problem
from mtcut import ContractableGraph, GraphError, Problem, cut_value
from mtcut import ilp
from mtcut.graph import HAVE_SCIPY
from mtcut.solver import SolverConfig, solve

FAKE_SOLVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fake_milp.py")
FAKE_CMD = f"{sys.executable} {FAKE_SOLVER} {{model}} {{solution}}"


class TestModel:
    def test_build_preconditions(self):
        p = fixture_problem("F2")
        for u, v, _ in list(p.graph.edges()):
            p.delete_edge(u, v)
        with pytest.raises(GraphError):
            ilp.build_model(p)

    def test_structure(self):
        p = fixture_problem("F3")
        m = ilp.build_model(p)
        assert len(m.vertices) == 4
        assert m.blocks == [0, 1, 2]
        assert len(m.edges) == 3
        assert m.offset == 0

    def test_objective_matches_cut_plus_offset(self):
        p = fixture_problem("F1")
        p.delete_edge(1, 2)
        m = ilp.build_model(p)
        labels = {0: 0, 1: 0, 2: 1}
        assert m.objective_value(labels) == \
            p.graph.cut_value(labels) + p.deleted_weight == 1

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_fixture_optima_through_model(self):
        for name in ("F1", "F2", "F3"):
            p = fixture_problem(name)
            opt = FIXTURES[name][3]
            _, objective = solve_lp_text(ilp.emit_lp(ilp.build_model(p)))
            assert round(objective) == opt, name


class TestEmit:
    def test_deterministic_bytes(self):
        a = ilp.emit_lp(ilp.build_model(fixture_problem("F3")))
        b = ilp.emit_lp(ilp.build_model(fixture_problem("F3")))
        assert a == b

    def test_f1_row_and_column_counts(self):
        m = ilp.build_model(fixture_problem("F1"))
        obj, const, cons, binaries = parse_lp(ilp.emit_lp(m))
        assert len(binaries) == len(m.vertices) * len(m.blocks) + len(m.edges)
        assert len(cons) == len(m.vertices) + len(m.fixed) + \
            2 * len(m.edges) * len(m.blocks)
        assert len(obj) == len(m.edges)
        assert const == 0

    def test_offset_survives_round_trip(self):
        p = fixture_problem("F1")
        p.delete_edge(0, 1)
        m = ilp.build_model(p)
        _, const, _, _ = parse_lp(ilp.emit_lp(m))
        assert const == 2


class TestDecode:
    def test_round_trips_assignment(self):
        p = fixture_problem("F3")
        m = ilp.build_model(p)
        labels = {0: 1, 1: 0, 2: 1, 3: 2}
        lines = []
        for v in m.vertices:
            for b in m.blocks:
                lines.append(f"{m.var_x(v, b)} {1.0 if labels[v] == b else 0.0}")
        decoded = ilp.parse_solution("\n".join(lines), m)
        assert decoded == labels

    def test_ambiguous_assignment_rejected(self):
        m = ilp.build_model(fixture_problem("F1"))
        with pytest.raises(ValueError):
            ilp.parse_solution("", m)


class TestSolveExternal:
    def test_fixtures(self):
        for name in ("F1", "F2", "F3"):
            p = fixture_problem(name)
            out = ilp.solve_problem(p, FAKE_CMD, 60.0)
            assert out.status == ilp.SOLVED, out.detail
            assert out.value == FIXTURES[name][3]
            g = ContractableGraph.from_edge_list(FIXTURES[name][0], FIXTURES[name][1])
            assert cut_value(g, FIXTURES[name][2], out.labels) == out.value

    def test_timeout_zero(self):
        m = ilp.build_model(fixture_problem("F1"))
        assert ilp.solve_external(m, FAKE_CMD, 0).status == ilp.TIMED_OUT

    def test_slow_solver_times_out(self):
        m = ilp.build_model(fixture_problem("F1"))
        cmd = f"{sys.executable} -c \"import time; time.sleep(30)\""
        out = ilp.solve_external(m, cmd, 0.3)
        assert out.status == ilp.TIMED_OUT

    def test_unset_command_unavailable(self, monkeypatch):
        monkeypatch.delenv(ilp.ENV_COMMAND, raising=False)
        m = ilp.build_model(fixture_problem("F1"))
        assert ilp.solve_external(m, None, 10).status == ilp.UNAVAILABLE

    def test_env_command_is_picked_up(self, monkeypatch):
        monkeypatch.setenv(ilp.ENV_COMMAND, FAKE_CMD)
        p = fixture_problem("F2")
        out = ilp.solve_problem(p, None, 60.0)
        assert out.status == ilp.SOLVED and out.value == 3

    def test_missing_binary_unavailable(self):
        m = ilp.build_model(fixture_problem("F1"))
        out = ilp.solve_external(m, "definitely-not-a-solver {model} {solution}", 10)
        assert out.status == ilp.UNAVAILABLE

    def test_malformed_output_unavailable(self):
        m = ilp.build_model(fixture_problem("F1"))
        script = "import sys; open(sys.argv[2], 'w').write('gibberish 42')"
        cmd = f"{sys.executable} -c \"{script}\" {{model}} {{solution}}"
        out = ilp.solve_external(m, cmd, 10)
        assert out.status == ilp.UNAVAILABLE
        assert out.detail

    def test_failing_solver_unavailable(self):
        m = ilp.build_model(fixture_problem("F1"))
        cmd = f"{sys.executable} -c \"import sys; sys.exit(3)\""
        out = ilp.solve_external(m, cmd, 10)
        assert out.status == ilp.UNAVAILABLE


    @pytest.mark.parametrize("template", ["solver {threads} {model} {solution}",
                                          "solver {} {model} {solution}",
                                          "solver {model {solution}",
                                          "solver '{model} {solution}"])
    def test_broken_template_unavailable(self, template):
        m = ilp.build_model(fixture_problem("F1"))
        out = ilp.solve_external(m, template, 10)
        assert out.status == ilp.UNAVAILABLE
        assert "bad solver command" in out.detail


class TestSolverIntegration:
    def test_results_identical_with_and_without_ilp(self, corpus):
        for case in corpus[:25]:
            g = ContractableGraph.from_edge_list(case.n, case.edges)
            plain = solve(g, case.terminals)
            assisted = solve(g, case.terminals,
                             SolverConfig(ilp_command=FAKE_CMD, ilp_timeout_seconds=60))
            assert plain.value == assisted.value == case.opt

    def test_unavailable_solver_falls_back_cleanly(self, corpus):
        case = corpus[0]
        g = ContractableGraph.from_edge_list(case.n, case.edges)
        cfg = SolverConfig(ilp_command="definitely-not-a-solver {model} {solution}")
        assert solve(g, case.terminals, cfg).value == case.opt

    def test_broken_template_falls_back_cleanly(self, corpus):
        case = corpus[0]
        g = ContractableGraph.from_edge_list(case.n, case.edges)
        cfg = SolverConfig(ilp_command="solver {threads} {model} {solution}")
        assert solve(g, case.terminals, cfg).value == case.opt

    def test_unbounded_ilp_timeout_is_refused(self):
        # subprocess cannot wait forever: an infinite timeout used to crash solve
        with pytest.raises(ValueError):
            SolverConfig(ilp_command=FAKE_CMD, ilp_timeout_seconds=math.inf)
