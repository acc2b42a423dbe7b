import math
import random
import time

import pytest

from helpers import (
    FIXTURES,
    RULE_FUNCTIONS,
    SOLVER_MODES,
    brute_force_block_opt,
    brute_force_opt,
    fixture_problem,
    random_connected_graph,
    random_instance,
    record_rule_calls,
    torus_graph,
)
from mtcut import BoundState, ContractableGraph, Problem, cut_value, max_flow_st
from mtcut.bench import generate_terminals, grow_terminal_blocks
import mtcut.reductions
import mtcut.solver
from mtcut.reductions import DEFAULT_ORDER, run_reduction_loop
from mtcut.solver import (
    NODE_ORDER,
    ReductionIncomplete,
    SolverConfig,
    _child,
    _Search,
    branch_edge,
    branch_vertex,
    select_branch_vertex,
    shrink_terminals,
    solve,
    solve_prepared,
)


def make_problem(n, edges, terminals):
    return Problem.from_instance(ContractableGraph.from_edge_list(n, edges), terminals)


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.delta == 0.1
        assert cfg.beta == 5
        assert cfg.neighborhood_limit == 5
        assert cfg.ilp_edge_limit == 50000
        assert cfg.ilp_timeout_seconds == 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="magic")
        with pytest.raises(ValueError):
            SolverConfig(delta=1.0)
        with pytest.raises(ValueError):
            SolverConfig(beta=0)
        with pytest.raises(ValueError):
            SolverConfig(thread_count=0)
        with pytest.raises(ValueError):
            SolverConfig(thread_count=2)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=0)
        with pytest.raises(ValueError):
            SolverConfig(neighborhood_limit=-1)

    @pytest.mark.parametrize("kwargs", [{"time_limit": math.nan},
                                        {"ilp_timeout_seconds": math.inf},
                                        {"ilp_timeout_seconds": math.nan}])
    def test_rejects_nan_time_limit_and_non_finite_ilp_timeout(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"thread_count": True}, {"thread_count": 1.0},
                                        {"thread_count": "1"}, {"time_limit": True},
                                        {"time_limit": "5"}, {"ilp_timeout_seconds": True},
                                        {"ilp_timeout_seconds": "5"}, {"delta": False},
                                        {"delta": "0.1"}, {"delta": None}])
    def test_rejects_bools_and_non_numbers(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_accepts_ints_and_floats(self):
        cfg = SolverConfig(time_limit=5, ilp_timeout_seconds=0, delta=0)
        assert (cfg.time_limit, cfg.ilp_timeout_seconds, cfg.delta) == (5, 0, 0)
        assert SolverConfig(time_limit=0.5, ilp_timeout_seconds=1.5, delta=0.25).time_limit == 0.5


class TestSelectBranchVertex:
    def test_f3_center(self):
        assert select_branch_vertex(fixture_problem("F3")) == 0

    def test_f5_tie_to_lower_id(self):
        assert select_branch_vertex(fixture_problem("F5")) == 2

    def test_f4_kernel_path(self):
        p = make_problem(3, [(0, 1, 1), (1, 2, 1)], (0, 2))
        assert select_branch_vertex(p) == 1

    def test_no_candidate_raises(self):
        p = fixture_problem("F2")
        with pytest.raises(ReductionIncomplete):
            select_branch_vertex(p)


class TestBranchVertex:
    def test_f3_all_pruned_keeps_heaviest(self):
        p = fixture_problem("F3")
        children = branch_vertex(p, 0, best_value=float("inf"))
        assert len(children) == 1
        c = children[0]
        assert c.graph.find(0) == 1  # center joined t1
        assert c.deleted_weight == 2  # the two unit edges are committed

    def test_both_heavy_terminals_prune_to_one_child(self):
        # x adjacent to two weight-5 terminals and nothing else
        p = make_problem(3, [(0, 1, 5), (2, 1, 5)], (0, 2))
        children = branch_vertex(p, 1, best_value=float("inf"))
        assert len(children) == 1
        assert children[0].graph.find(1) == 0

    def test_light_terminal_with_heavy_nonterminals(self):
        # x: one terminal edge of weight 1, non-terminal weight 4, k=2
        p = make_problem(4, [(0, 1, 1), (1, 2, 2), (1, 3, 2), (2, 3, 1), (3, 0, 1)],
                         (0, 2))
        # force branching on vertex 1: terminal t1 adjacent with w=1, w_nt=4
        children = branch_vertex(p, 1, best_value=float("inf"))
        assert len(children) == 2  # contract into t1, plus the no-terminal child

    def test_children_above_bound_dropped(self):
        p = fixture_problem("F3")
        children = branch_vertex(p, 0, best_value=1)
        assert children == []

    def test_beta_caps_children(self):
        # x adjacent to three of the four terminals, all viable thanks to
        # its non-terminal weight; the fourth block comes as the escape child
        edges = [(0, 1, 3), (0, 2, 3), (0, 3, 3), (0, 4, 4), (4, 5, 1)]
        p = make_problem(6, edges, (1, 2, 3, 5))
        all_children = branch_vertex(p, 0, best_value=float("inf"))
        capped = branch_vertex(p, 0, best_value=float("inf"), beta=1)
        assert len(all_children) == 4  # three contracts plus the escape child
        assert len(capped) == 2

    def test_exact_equals_oracle_under_branching(self, corpus):
        for case in corpus[:80]:
            g = ContractableGraph.from_edge_list(case.n, case.edges)
            r = solve(g, case.terminals)
            assert r.value == case.opt


class TestBranchEdge:
    def test_f3_two_children(self):
        p = fixture_problem("F3")
        children = branch_edge(p, 0, best_value=float("inf"))
        assert len(children) == 2
        merged, cut = children
        assert merged.graph.find(0) == 1
        assert cut.deleted_weight == 3

    def test_f5_branches_on_terminal_edge(self):
        p = fixture_problem("F5")
        children = branch_edge(p, 2, best_value=float("inf"))
        assert len(children) == 2

    def test_bound_drop(self):
        p = fixture_problem("F3")
        children = branch_edge(p, 0, best_value=0)
        assert children == []


class TestShrinkTerminals:
    def test_count_from_delta(self):
        # ten terminals in a row, delta 0.1 isolates exactly one
        edges = [(i, 10 + i, 1) for i in range(10)] + \
                [(10 + i, 10 + i + 1, 1) for i in range(9)]
        p = make_problem(20, edges, tuple(range(10)))
        shrink_terminals(p, 0.1)
        p.refresh_active()
        assert p.active_count() == 9

    def test_two_terminals_guard(self):
        p = fixture_problem("F1")
        shrink_terminals(p, 0.1)
        p.refresh_active()
        assert p.active_count() == 1
        assert p.is_solved()

    def test_f3_trace(self):
        p = fixture_problem("F3")
        shrink_terminals(p, 0.1)
        assert p.deleted_weight == 1  # lowest-degree terminal t2 isolated
        assert not p.active[1]
        assert p.graph.is_live(0)  # center touches t3, so it is not grabbed

    def test_delta_zero_is_identity(self):
        p = fixture_problem("F3")
        assert shrink_terminals(p, 0.0) == 0
        assert p.deleted_weight == 0


class TestSolve:
    def test_fixtures_exact(self):
        for name, (n, edges, terminals, opt) in FIXTURES.items():
            g = ContractableGraph.from_edge_list(n, edges)
            r = solve(g, terminals)
            assert r.value == opt and r.optimal, name
            assert cut_value(g, terminals, r.labels) == opt

    def test_fixtures_inexact(self):
        for name, (n, edges, terminals, opt) in FIXTURES.items():
            g = ContractableGraph.from_edge_list(n, edges)
            r = solve(g, terminals, SolverConfig(mode="inexact"))
            assert r.value == opt, name
            assert not r.optimal

    def test_two_terminals_equal_max_flow(self):
        rng = random.Random(31)
        for _ in range(30):
            n, edges, terminals = random_instance(rng, ks=(2,))
            g = ContractableGraph.from_edge_list(n, edges)
            expected = max_flow_st(g, terminals[0], {terminals[1]}).value
            assert solve(g, terminals).value == expected

    def test_value_at_least_root_lower_bound(self):
        rng = random.Random(32)
        for _ in range(20):
            n, edges, terminals = random_instance(rng)
            p = make_problem(n, edges, terminals)
            run_reduction_loop(p, BoundState())
            root_lb = p.lower_bound
            g = ContractableGraph.from_edge_list(n, edges)
            assert solve(g, terminals).value >= root_lb

    def test_disconnected_input(self):
        # two components, one holding two terminals, one holding the third
        edges = [(0, 1, 2), (1, 2, 3), (3, 4, 5), (4, 5, 1)]
        g = ContractableGraph.from_edge_list(6, edges)
        opt, _ = brute_force_opt(6, edges, (0, 2, 5))
        r = solve(g, (0, 2, 5))
        assert r.value == opt == 2
        assert r.optimal

    def test_determinism_single_thread(self):
        rng = random.Random(33)
        n, edges, terminals = random_instance(rng, n_min=9, n_max=12)
        g = ContractableGraph.from_edge_list(n, edges)
        runs = [solve(g, terminals, SolverConfig(seed=7)) for _ in range(2)]
        assert [v for _, v in runs[0].events] == [v for _, v in runs[1].events]
        assert runs[0].value == runs[1].value
        assert runs[0].labels == runs[1].labels

    def test_events_monotone(self):
        rng = random.Random(34)
        for _ in range(10):
            n, edges, terminals = random_instance(rng)
            g = ContractableGraph.from_edge_list(n, edges)
            r = solve(g, terminals)
            values = [v for _, v in r.events]
            assert values == sorted(values, reverse=True)
            assert values[-1] == r.value

    def test_inexact_with_full_beta_and_zero_delta_is_exact(self, corpus):
        for case in corpus[:60]:
            g = ContractableGraph.from_edge_list(case.n, case.edges)
            cfg = SolverConfig(mode="inexact", delta=0.0,
                               beta=len(case.terminals))
            r = solve(g, case.terminals, cfg)
            assert r.value == case.opt

    def test_local_search_toggle(self, corpus):
        for case in corpus[:20]:
            g = ContractableGraph.from_edge_list(case.n, case.edges)
            r = solve(g, case.terminals, SolverConfig(local_search=False))
            assert r.value == case.opt

    def test_time_limit_returns_feasible(self):
        rng = random.Random(35)
        n, edges, terminals = random_instance(rng, n_min=10, n_max=12)
        g = ContractableGraph.from_edge_list(n, edges)
        r = solve(g, terminals, SolverConfig(time_limit=1e-9))
        assert cut_value(g, terminals, r.labels) == r.value
        assert not r.optimal

    def test_exhausted_search_says_so_in_both_modes(self):
        # only exact mode's exhausted search certifies the optimum
        rng = random.Random(37)
        branched = 0
        for _ in range(20):
            n, edges, terminals = random_instance(rng, n_min=9, n_max=12)
            g = ContractableGraph.from_edge_list(n, edges)
            for config in SOLVER_MODES:
                r = solve(g, terminals, config)
                assert r.stop_reason == "exhausted"
                assert r.optimal == (config.mode == "exact")
                branched += r.nodes > 1
        assert branched >= 10

    def test_time_limited_torus_stops_at_the_limit(self):
        # the exact search of a 20x20 unit torus with 8 terminals branches
        # for seconds
        g = torus_graph(20, 20)
        terminals = generate_terminals(g, 8, 0)
        r = solve(g, terminals, SolverConfig(time_limit=0.05))
        assert (r.stop_reason, r.optimal) == ("time_limit", False)
        assert cut_value(g, terminals, r.labels) == r.value

    def test_open_subproblems_are_freed_within_wall_time(self, monkeypatch):
        # a time-limited solve stops with children on its open heap; every
        # one must be freed before the clock that gives wall_time is read
        rng = random.Random(3)
        n = 80
        edges = {(rng.randrange(v), v): rng.randint(1, 10) for v in range(1, n)}
        while len(edges) < 3 * n:
            edges.setdefault(tuple(sorted(rng.sample(range(n), 2))), rng.randint(1, 10))
        g = ContractableGraph.from_edge_list(n, [(u, v, w) for (u, v), w in edges.items()])
        root = grow_terminal_blocks(g, generate_terminals(g, 5, 3), 0.2)
        starts, pending, freed = [], set(), []
        real_bound, real_push = mtcut.solver.BoundState, _Search._push

        def push(search, p):
            if search.seq:  # a child; the root stays with the caller
                pending.add(id(p))
            real_push(search, p)

        def freeing(p):
            if id(p) in pending:
                pending.remove(id(p))
                freed.append(time.monotonic())

        monkeypatch.setattr(mtcut.solver, "BoundState", lambda t0: starts.append(t0) or real_bound(t0))
        monkeypatch.setattr(_Search, "_push", push)
        monkeypatch.setattr(Problem, "__del__", freeing, raising=False)
        res = solve_prepared(root, SolverConfig(time_limit=0.3))
        assert not res.optimal and res.nodes > 1
        assert freed and not pending
        assert max(freed) <= starts[0] + res.wall_time


class TestSchedule:
    def test_root_only_rules_run_at_the_root_only(self, monkeypatch):
        assert list(NODE_ORDER) == [name for name in DEFAULT_ORDER if name in NODE_ORDER]
        root_only = set(DEFAULT_ORDER) - set(NODE_ORDER)
        assert root_only == {"heavy_triangle", "articulation", "equal_neighborhoods",
                             "non_terminal_flows"}
        log = record_rule_calls(monkeypatch)
        nodes = []  # (is_root, the rules its reduction called, in call order)
        real_process = _Search.process

        def process(self, p, is_root):
            start = len(log)
            try:
                return real_process(self, p, is_root)
            finally:
                nodes.append((is_root, [name for name, *_ in log[start:]]))

        monkeypatch.setattr(_Search, "process", process)
        rng = random.Random(36)
        branched = 0
        for _ in range(40):
            n, edges, terminals = random_instance(rng, n_min=9, n_max=12)
            g = ContractableGraph.from_edge_list(n, edges)
            opt, _ = brute_force_opt(n, edges, terminals)
            exact = solve(g, terminals)
            assert exact.value == opt
            inexact = solve(g, terminals, SolverConfig(mode="inexact", delta=0.5))
            branched += (exact.nodes > 1) + (inexact.nodes > 1)
        assert branched >= 10
        at_root = {name for is_root, names in nodes if is_root for name in names}
        assert root_only <= at_root
        full_first_pass = 0
        for is_root, names in nodes:
            if is_root:
                continue
            # the first pass runs the rules of NODE_ORDER in order, unless a
            # rule solves the node, and no pass runs any other rule
            first_pass = names[:len(NODE_ORDER)]
            assert first_pass == list(NODE_ORDER[:len(first_pass)])
            assert set(names) <= set(NODE_ORDER)
            full_first_pass += len(first_pass) == len(NODE_ORDER)
        assert full_first_pass >= 10


def settled(p: Problem, bound: BoundState) -> bool:
    """Whether nothing a node could still offer beats the incumbent: the
    test below the root at which its reduction loop stops."""
    return max(p.lower_bound, p.deleted_weight) - p.loose_weight >= bound.best_value


def summary(r) -> tuple:
    """Everything a solve returns but its clock readings."""
    return (r.value, r.labels, r.optimal, r.nodes, [v for _, v in r.events],
            r.root_kernel_vertices, r.root_kernel_edges)


class TestDominatedStop:
    def _spy_loops(self, monkeypatch) -> tuple[list, list]:
        """Wrap the solver's reduction loop. Returns two lists: each call
        appends (problem, bound, stop_when_dominated, report) to the first
        when it ends, and the second holds the calls in progress."""
        calls, running = [], []
        real = mtcut.solver.run_reduction_loop

        def loop(p, bound, config, deadline, order, stop_when_dominated=False):
            running.append((p, bound, stop_when_dominated))
            try:
                report = real(p, bound, config, deadline, order,
                              stop_when_dominated=stop_when_dominated)
            finally:
                running.pop()
            calls.append((p, bound, stop_when_dominated, report))
            return report

        monkeypatch.setattr(mtcut.solver, "run_reduction_loop", loop)
        return calls, running

    def _spy_rules(self, monkeypatch, running) -> list:
        """Wrap every rule; each call appends whether its loop stops when
        dominated and whether its node was settled when the rule began."""
        calls = []
        for func in RULE_FUNCTIONS.values():
            def spy(p, *args, _real=getattr(mtcut.reductions, func)):
                if running:  # else called outside the solver
                    q, bound, stop = running[-1]
                    calls.append((stop, settled(q, bound)))
                return _real(p, *args)
            monkeypatch.setattr(mtcut.reductions, func, spy)
        return calls

    def test_child_calls_no_rule_once_settled(self, monkeypatch):
        loops, running = self._spy_loops(monkeypatch)
        rules = self._spy_rules(monkeypatch, running)
        rng = random.Random(81)
        for _ in range(100):
            n, edges, terminals = random_instance(rng, n_min=8, n_max=16, m_max=44)
            g = ContractableGraph.from_edge_list(n, edges)
            for config in SOLVER_MODES:
                solve(g, terminals, config)
        assert (True, True) not in rules
        children = [(p, bound, report) for p, bound, stop, report in loops if stop]
        stopped = [r for p, bound, r in children
                   if settled(p, bound) and not (r.solved or r.fixpoint)]
        assert len(children) >= 1000 and len(stopped) >= 200

    def test_stop_changes_no_result(self, monkeypatch):
        # the same solves with the stop switched off: values, labels,
        # optimality, node counts, events and root kernels all agree
        real = mtcut.solver.run_reduction_loop

        def full(*args, stop_when_dominated=False):
            return real(*args)

        rng = random.Random(83)
        for _ in range(120):
            n, edges, terminals = random_instance(rng, n_min=6, n_max=14, m_max=40)
            g = ContractableGraph.from_edge_list(n, edges)
            for config in SOLVER_MODES:
                got = solve(g, terminals, config)
                with monkeypatch.context() as m:
                    m.setattr(mtcut.solver, "run_reduction_loop", full)
                    assert summary(solve(g, terminals, config)) == summary(got)

    def test_loose_weight_keeps_a_lucky_leaf(self, monkeypatch):
        # inexact edge branching: a node whose bound meets the incumbent 71
        # reaches a leaf scoring 70 on the original graph, because an edge
        # its ancestors deleted between a terminal and a non-terminal ends
        # up uncut. A stop that ignored the loose weight would miss it.
        edges = [(0, 1, 7), (0, 2, 9), (0, 4, 2), (0, 7, 3), (0, 8, 8), (0, 11, 5), (1, 2, 7),
                 (1, 4, 5), (1, 5, 6), (1, 7, 4), (1, 11, 8), (2, 3, 9), (2, 6, 6), (3, 5, 8),
                 (3, 10, 6), (4, 6, 3), (4, 9, 5), (5, 7, 8), (5, 9, 8), (6, 8, 9), (6, 9, 5),
                 (6, 10, 7), (8, 10, 8), (8, 11, 9), (10, 11, 4)]
        g = ContractableGraph.from_edge_list(12, edges)
        config = SolverConfig(mode="inexact", branch_rule="edge")
        assert [v for _, v in solve(g, (1, 3, 7, 8), config).events] == [72, 71, 70]
        real = Problem.delete_edge

        def forgetting(p, u, v):
            w = real(p, u, v)
            p.loose_weight = 0
            return w

        monkeypatch.setattr(Problem, "delete_edge", forgetting)
        assert solve(g, (1, 3, 7, 8), config).value == 71

    def test_root_reduces_to_its_fixpoint_past_the_incumbent(self, monkeypatch):
        # the root keeps reducing after its bound meets the incumbent, so
        # its kernel is the one `mtcut kernelize` reports
        loops, running = self._spy_loops(monkeypatch)
        rules = self._spy_rules(monkeypatch, running)
        rng = random.Random(85)
        for _ in range(140):
            n, edges, terminals = random_instance(rng, n_min=8, n_max=14, m_max=40)
            g = ContractableGraph.from_edge_list(n, edges)
            loops.clear()
            res = solve_prepared(Problem.from_instance(g, terminals))
            p, bound, stop, report = loops[0]  # the root's loop ends first
            assert not stop and (report.solved or report.fixpoint)
            kernel = Problem.from_instance(g, terminals)
            run_reduction_loop(kernel, BoundState())
            assert (res.root_kernel_vertices, res.root_kernel_edges) == \
                (kernel.graph.num_vertices, kernel.graph.num_edges)
        assert rules.count((False, True)) >= 200


class TestBranchInvariant:
    def test_every_branch_finds_a_vertex_and_no_terminal_edge(self, monkeypatch):
        # a fully reduced, unsolved node has no edge between two active
        # terminals, so every active terminal has a non-terminal neighbor
        real = mtcut.solver.select_branch_vertex
        calls = 0

        def select(p):
            nonlocal calls
            calls += 1
            actives = set(p.active_terminals())
            for r in actives:
                assert not actives & set(p.graph.neighbors(r))
            return real(p)

        monkeypatch.setattr(mtcut.solver, "select_branch_vertex", select)
        configs = [SolverConfig(), SolverConfig(branch_rule="edge"),
                   SolverConfig(mode="inexact", delta=0.5, beta=2),
                   SolverConfig(mode="inexact", delta=0.9, branch_rule="edge")]
        rng = random.Random(37)
        for _ in range(60):
            n, edges, terminals = random_instance(rng, n_min=8, n_max=14, m_max=36)
            g = ContractableGraph.from_edge_list(n, edges)
            for config in configs:
                res = solve(g, terminals, config)
                assert cut_value(g, terminals, res.labels) == res.value
        assert calls >= 50


class TestChild:
    def test_merge_first_gives_the_delete_first_child_at_a_fixpoint(self):
        # the child merges x into join before it deletes the edges to the
        # other terminals; at a fixpoint no edge joins two terminals, so the
        # graph, its adjacency order and the deleted weight are the same as
        # deleting first
        rng = random.Random(71)
        compared = 0
        while compared < 40:
            p = make_problem(*random_instance(rng, n_min=8, n_max=14, m_max=36))
            run_reduction_loop(p)
            if p.is_solved():
                continue
            x = select_branch_vertex(p)
            adj_terms = [r for r in p.active_terminals() if p.graph.has_edge(x, r)]
            for join in adj_terms:
                cut = [r for r in adj_terms if r != join]
                old = p.copy()
                for r in cut:
                    old.delete_edge(x, r)
                old.contract_set((x,), join)
                new = _child(p, x, cut, join)
                g, h = old.graph, new.graph
                assert [list(g.neighbors(v).items()) for v in g.live_vertices()] == \
                    [list(h.neighbors(v).items()) for v in h.live_vertices()]
                assert [g.find(v) for v in range(g.n_original)] == \
                    [h.find(v) for v in range(h.n_original)]
                assert g.version() == h.version()
                assert new.deleted_weight == old.deleted_weight
                assert new.lower_bound == max(p.lower_bound, old.deleted_weight)
                compared += 1


class TestPublish:
    def test_published_value_is_the_labels_cut(self):
        # deleting both edges of the path 0-2-1 commits 3 + 2 to the cut and
        # solves the problem; its labels put 2 with terminal 0, so they cut
        # only the edge (2, 1). Local search is off: it would mend the value.
        p = make_problem(3, [(0, 2, 3), (2, 1, 2)], (0, 1))
        p.delete_edge(0, 2)
        p.delete_edge(2, 1)
        p.refresh_active()
        assert p.is_solved() and p.deleted_weight == 5
        bound = BoundState()
        search = _Search(p.copy(), SolverConfig(local_search=False), bound, None)
        search.publish(p, p.solved_labels())
        assert bound.best_labels == [0, 1, 0]
        assert bound.best_value == cut_value(p.original, (0, 1), bound.best_labels) == 2


class TestGrownOracle:
    def test_grown_instances_match_brute_force(self):
        # the CLI's set-up: farthest-point terminals, then grown blocks,
        # which fix every vertex of a block to its terminal's label
        rng = random.Random(31)
        for _ in range(150):
            n, edges = random_connected_graph(rng, n_min=7, n_max=12)
            g = ContractableGraph.from_edge_list(n, edges)
            terminals = generate_terminals(g, rng.randint(3, 4), seed=rng.randrange(100))
            grown = grow_terminal_blocks(g, terminals, rng.uniform(0.2, 0.4))
            roots = {grown.graph.find(t): i for i, t in enumerate(terminals)}
            anchors = {v: roots[grown.graph.find(v)] for v in range(n)
                       if grown.graph.find(v) in roots}
            opt = brute_force_block_opt(edges, list(range(n)), anchors)
            for rule in ("vertex", "edge"):
                res = solve_prepared(grown.copy(), SolverConfig(branch_rule=rule))
                assert res.optimal and res.value == opt
                assert all(res.labels[v] == i for v, i in anchors.items())
                assert cut_value(g, terminals, res.labels) == res.value
