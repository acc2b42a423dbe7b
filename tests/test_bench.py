import json
import os
import random

import pytest

from helpers import FIXTURES, fixture_graph, random_connected_graph, torus_graph
from mtcut import ContractableGraph, GraphError, cut_value, write_graph
import mtcut.bench
from mtcut.bench import (
    InstanceSpec,
    generate_terminals,
    geometric_mean,
    grow_terminal_blocks,
    performance_profile,
    run_experiment,
    write_profile_csv,
    write_results_jsonl,
)
import mtcut.cli
from mtcut.cli import main
from mtcut.graph import HAVE_SCIPY, SCIPY_MIN_VERTICES, large_view
from mtcut.reductions import DEFAULT_ORDER
from mtcut.solver import SolverConfig


def path_graph(n):
    return ContractableGraph.from_edge_list(n, [(i, i + 1, 1) for i in range(n - 1)])


class TestGenerateTerminals:
    def test_path_endpoints(self):
        for seed in range(5):
            assert sorted(generate_terminals(path_graph(5), 2, seed)) == [0, 4]

    def test_k_equals_n(self):
        terms = generate_terminals(path_graph(4), 4, seed=1)
        assert sorted(terms) == [0, 1, 2, 3]

    def test_deterministic(self):
        g = fixture_graph("F4")
        assert generate_terminals(g, 3, 9) == generate_terminals(g, 3, 9)

    def test_disconnected_rejected(self):
        g = ContractableGraph.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(GraphError):
            generate_terminals(g, 2, 0)

    def test_too_many_terminals(self):
        with pytest.raises(GraphError):
            generate_terminals(path_graph(3), 4, 0)


def large_graphs():
    """Connected graphs with at least SCIPY_MIN_VERTICES live vertices: tori,
    random graphs with up to 3n edges, and a contracted one with tombstones."""
    rng = random.Random(17)
    graphs = [torus_graph(25, 20), torus_graph(31, 23)]
    for n in (SCIPY_MIN_VERTICES, SCIPY_MIN_VERTICES + 123):
        n, edges = random_connected_graph(rng, n, n, 3 * n, 9)
        graphs.append(ContractableGraph.from_edge_list(n, edges))
    n, edges = random_connected_graph(rng, 700, 700, 2100, 9)
    g = ContractableGraph.from_edge_list(n, edges)
    while g.num_vertices > SCIPY_MIN_VERTICES + 50:
        u = rng.choice(list(g.live_vertices()))
        g.contract_vertices([u, *list(g.neighbors(u))[:2]], u)
    graphs.append(g)
    return graphs


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
class TestGenerateTerminalsOnView:
    """Where the graph has an array view, each BFS is one scipy call on it;
    it must pick the terminals that the Python BFS picks."""

    def test_view_and_python_bfs_agree(self, monkeypatch):
        for g in large_graphs():
            assert large_view(g) is not None
            got = {(k, seed): generate_terminals(g, k, seed)
                   for k in (2, 3, 8, 16) for seed in range(3)}
            monkeypatch.setattr(mtcut.bench, "large_view", lambda g: None)
            assert got == {(k, seed): generate_terminals(g, k, seed)
                           for k in (2, 3, 8, 16) for seed in range(3)}
            monkeypatch.undo()
            for terms in got.values():
                assert len(set(terms)) == len(terms)
                assert all(g.is_live(t) and isinstance(t, int) for t in terms)

    def test_disconnected_rejected_on_both_paths(self, monkeypatch):
        n = SCIPY_MIN_VERTICES
        edges = [(v, v + 1, 1) for v in range(n - 1)] + [(n, n + 1, 1)]
        g = ContractableGraph.from_edge_list(n + 2, edges)
        assert large_view(g) is not None
        with pytest.raises(GraphError, match="connected"):
            generate_terminals(g, 2, 0)
        monkeypatch.setattr(mtcut.bench, "large_view", lambda g: None)
        with pytest.raises(GraphError, match="connected"):
            generate_terminals(g, 2, 0)


class TestGrowBlocks:
    def test_zero_fraction_identity(self):
        g = path_graph(10)
        p = grow_terminal_blocks(g, [0, 9], 0.0)
        assert p.graph.num_vertices == 10

    def test_path_growth_balanced(self):
        g = path_graph(10)
        p = grow_terminal_blocks(g, [0, 9], 0.4)
        assert p.graph.num_vertices == 6
        g2 = p.graph
        assert g2.find(1) == 0 and g2.find(2) == 0
        assert g2.find(8) == 9 and g2.find(7) == 9

    def test_claims_never_overlap(self):
        rng = random.Random(42)
        for _ in range(20):
            n, edges = random_connected_graph(rng, n_min=8, n_max=16, m_max=40)
            g = ContractableGraph.from_edge_list(n, edges)
            k = rng.randint(2, 4)
            terms = generate_terminals(g, k, seed=1)
            frac = rng.choice([0.1, 0.25, 0.4])
            p = grow_terminal_blocks(g, terms, frac)
            sizes = {}
            for v in range(n):
                sizes[p.graph.find(v)] = sizes.get(p.graph.find(v), 0) + 1
            merged = sum(sizes[p.graph.find(t)] for t in terms)
            assert merged == k + int(frac * n)


class TestPerformanceProfile:
    def test_two_by_two_example(self):
        results = {"a": [10, 12], "b": [10, 10]}
        prof = performance_profile(results, [1.0, 1.2])
        assert prof["a"][0].fraction == 0.5
        assert prof["b"][0].fraction == 1.0
        assert prof["a"][1].fraction == 1.0

    def test_single_algorithm_is_constant_one(self):
        prof = performance_profile({"only": [3, 7, 2]}, [1.0, 1.5, 2.0])
        assert all(pt.fraction == 1.0 for pt in prof["only"])

    def test_missing_results_never_score(self):
        prof = performance_profile({"a": [10, None], "b": [10, 10]}, [1.0, 100.0])
        assert prof["a"][1].fraction == 0.5

    def test_monotone_step_function(self):
        rng = random.Random(43)
        for _ in range(20):
            algs = {name: [rng.randint(1, 50) for _ in range(12)]
                    for name in ("a", "b", "c")}
            taus = sorted(1 + rng.random() * 3 for _ in range(8))
            prof = performance_profile(algs, taus)
            for pts in prof.values():
                fractions = [pt.fraction for pt in pts]
                assert fractions == sorted(fractions)
                assert all(0 <= f <= 1 for f in fractions)

    def test_large_tau_reaches_one(self):
        results = {"a": [10, 90], "b": [20, 30]}
        prof = performance_profile(results, [1000.0])
        assert all(pts[0].fraction == 1.0 for pts in prof.values())


class TestGeometricMean:
    def test_example(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)

    def test_zero_shortcut(self):
        assert geometric_mean([0, 5]) == 0.0


class TestInstanceSpec:
    @pytest.mark.parametrize("graph", [1, True, None])
    def test_graph_must_be_a_path_string(self, graph):
        with pytest.raises(ValueError, match="graph"):
            InstanceSpec(graph, k=2)

    def test_fraction_must_be_a_number(self):
        with pytest.raises(ValueError, match="fraction"):
            InstanceSpec("g", k=2, fraction=False)
        assert InstanceSpec("g", k=2, fraction=0).fraction == 0


class TestRunExperiment:
    def test_fixture_sweep(self, tmp_path):
        paths = []
        for name in ("F1", "F3", "F4"):
            path = tmp_path / f"{name}.graph"
            path.write_text(write_graph(fixture_graph(name)))
            paths.append(str(path))
        specs = [InstanceSpec(p, k=2, fraction=0.0, seed=0) for p in paths]
        algorithms = {"exact": SolverConfig(),
                      "inexact": SolverConfig(mode="inexact")}
        rows, profiles, summary = run_experiment(specs, algorithms)
        assert len(rows) == 6
        exact_rows = [r for r in rows if r["algorithm"] == "exact"]
        assert all(r["optimal"] for r in exact_rows)
        assert all(r["stop_reason"] == "exhausted" for r in rows)
        assert profiles["exact"][0].tau == 1.0
        assert summary["exact"]["solved"] == 3

    def test_per_instance_failures_recorded(self, tmp_path):
        missing = str(tmp_path / "nope.graph")
        rows, _, summary = run_experiment(
            [InstanceSpec(missing, k=2)], {"exact": SolverConfig()})
        assert rows[0].get("error") and "stop_reason" not in rows[0]
        assert summary["exact"]["solved"] == 0

    def test_writers(self, tmp_path):
        rows = [{"instance": "x", "algorithm": "exact", "value": 3}]
        out = tmp_path / "rows.jsonl"
        write_results_jsonl(str(out), rows)
        assert json.loads(out.read_text().splitlines()[0])["value"] == 3
        prof = performance_profile({"a": [10, 12], "b": [10, 10]}, [1.0])
        pcsv = tmp_path / "prof.csv"
        write_profile_csv(str(pcsv), prof)
        lines = pcsv.read_text().splitlines()
        assert lines[0] == "algorithm,tau,fraction"
        assert len(lines) == 3


class TestCli:
    def _write_f1(self, tmp_path):
        path = tmp_path / "f1.graph"
        path.write_text("3 2 1\n2 2\n1 2 3 1\n2 1\n")
        return str(path)

    def test_solve_writes_output_and_progress(self, tmp_path, capsys):
        graph = self._write_f1(tmp_path)
        out = tmp_path / "result.json"
        prog = tmp_path / "progress.csv"
        rc = main(["solve", "--graph", graph, "--k", "2", "--seed", "0",
                   "--output", str(out), "--progress", str(prog)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 1 and payload["optimal"]
        assert payload["stop_reason"] == "exhausted"
        g = fixture_graph("F1")
        terms = generate_terminals(g, 2, 0)
        assert cut_value(g, terms, payload["assignment"]) == 1
        lines = prog.read_text().splitlines()
        assert lines[0] == "time_seconds,best_value"
        assert len(lines) >= 2

    def test_kernelize(self, tmp_path, capsys):
        graph = self._write_f1(tmp_path)
        rc = main(["kernelize", "--graph", graph, "--k", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solved"] is True
        assert payload["vertices_after"] < payload["vertices_before"]

    def test_kernelize_report(self, tmp_path, capsys):
        n, edges = random_connected_graph(random.Random(3), 30, 30, 80, 10)
        graph = tmp_path / "r30.graph"
        graph.write_text(write_graph(ContractableGraph.from_edge_list(n, edges)))
        assert main(["kernelize", "--graph", str(graph), "--k", "4", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        contracted = dict.fromkeys(DEFAULT_ORDER, 0)
        contracted.update(isolating_cuts=1, low_degree=5, heavy_edge=8, non_terminal_flows=11)
        assert payload == {
            "contracted": contracted, "deleted": dict.fromkeys(contracted, 0),
            "passes": 3, "solved": False, "fixpoint": True,
            "vertices_before": 30, "vertices_after": 5, "edges_before": 50, "edges_after": 4,
            "deleted_weight": 0, "active_terminals": 4,
        }

    @pytest.mark.parametrize("flag", ["--mode=inexact", "--time-limit=5", "--ilp-edge-limit=9",
                                      "--ilp-timeout=1", "--delta=0.5", "--beta=2",
                                      "--branch-rule=edge", "--ilp-command=x"])
    def test_kernelize_rejects_solver_flags(self, tmp_path, capsys, flag):
        graph = self._write_f1(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["kernelize", "--graph", graph, "--k", "2", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solve_defaults_come_from_solver_config(self, tmp_path, capsys, monkeypatch):
        configs = []
        real = mtcut.cli.solve_prepared

        def recording(problem, config):
            configs.append(config)
            return real(problem, config)

        monkeypatch.setattr(mtcut.cli, "solve_prepared", recording)
        assert main(["solve", "--graph", self._write_f1(tmp_path), "--k", "2"]) == 0
        assert configs == [SolverConfig(seed=0)]

    def test_bench(self, tmp_path, capsys):
        graph = self._write_f1(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "instances": [{"graph": graph, "k": 2, "fraction": 0.0, "seed": 0}],
            "algorithms": {"exact": {}, "inexact": {"mode": "inexact"}},
            "taus": [1.0, 1.5],
        }))
        out = tmp_path / "rows.jsonl"
        prof = tmp_path / "prof.csv"
        rc = main(["bench", "--spec", str(spec), "--output", str(out),
                   "--profile", str(prof)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2
        assert prof.read_text().startswith("algorithm,tau,fraction")
        summary = json.loads(capsys.readouterr().out)
        assert summary["exact"]["geometric_mean"] == pytest.approx(1.0)

    @pytest.mark.parametrize("doc", [
        {"instances": [{"graph": "g", "k": 2, "frac": 0.1}]},
        {"instances": [], "algorithms": {"exact": {"thread": 1}}},
        [{"graph": "g", "k": 2}],
        {"instances": [{"graph": "g", "k": 2}], "taus": [0.5]},
        {"instances": [{"graph": "g", "k": 2}], "taus": ["x"]},
        {"instances": [{"graph": "g", "k": 2}], "taus": 5},
        {"instances": [{"graph": "g", "k": 1}]},
        {"instances": [], "algorithms": {"exact": {"neighborhood_limit": -1}}},
        {"instances": [{"graph": "g", "k": 2.5}]},
        {"instances": [], "algorithms": {"exact": {"seed": "x"}}},
        {"instances": [], "algorithms": {"exact": {"beta": 2.5}}},
        {"instances": [], "algorithms": {"exact": {"local_search": "no"}}},
        {"instances": [], "algorithms": {"exact": {"ilp_command": 5}}},
        {"instances": [{"graph": "g", "k": 2, "fraction": False}]},
        {"instances": [{"graph": "g", "k": 2}], "taus": [1.0, True]},
    ], ids=["instance_key", "algorithm_key", "not_an_object", "tau_below_one",
            "tau_not_a_number", "taus_not_a_list", "k_below_two",
            "negative_neighborhood_limit", "k_not_an_integer", "seed_not_an_integer",
            "beta_not_an_integer", "local_search_not_a_bool", "ilp_command_not_a_string",
            "fraction_a_bool", "tau_a_bool"])
    def test_malformed_spec_exit_code(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["bench", "--spec", str(spec)]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_graph_not_a_string_exit_code(self, tmp_path, capsys):
        # a number would reach open() as a file descriptor; 12345 is none
        # this process holds, so even a run that opens it harms nothing
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"instances": [{"graph": 12345, "k": 2}]}))
        assert main(["bench", "--spec", str(spec)]) == 3
        assert capsys.readouterr().err.startswith(f"error: malformed spec {spec}")

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("3 5\n2\n1 3\n2\n")
        assert main(["solve", "--graph", str(bad), "--k", "2"]) == 3

    def test_infeasible_exit_code(self, tmp_path):
        graph = self._write_f1(tmp_path)
        assert main(["solve", "--graph", graph, "--k", "9"]) == 2
        assert main(["solve", "--graph", graph, "--k", "2", "--preset-fraction", "1.0"]) == 2

    @pytest.mark.parametrize("flag", ["--time-limit=nan", "--ilp-timeout=inf",
                                      "--ilp-timeout=nan"])
    def test_non_finite_limits_exit_code(self, tmp_path, flag):
        assert main(["solve", "--graph", self._write_f1(tmp_path), "--k", "2", flag]) == 2

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_bytes(b"2 1\n2\n1\xff\n")
        assert main(["kernelize", "--graph", str(bad), "--k", "2"]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["solve", "--graph", str(tmp_path / "nope"), "--k", "2"]) == 3
