import math
import random
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from helpers import (
    FIXTURES,
    RULE_FUNCTIONS,
    SOLVER_MODES,
    adjacency_and_find,
    brute_force_opt,
    check_consistency,
    count_calls,
    count_view_builds,
    fixture_problem,
    hanging_tree_graph,
    kernel_opt,
    naive_articulation_points,
    naive_twin_pairs,
    random_connected_graph,
    random_instance,
    random_nm_edges,
    record_rule_calls,
    stale_kept_cuts,
    torus_graph,
    total_contracted,
    twin_rich_instance,
)
from mtcut import (
    BoundState,
    ContractableGraph,
    FlowResult,
    Problem,
    SolverConfig,
    max_flow_st,
    run_reduction_loop,
    solve,
    solve_prepared,
)
import mtcut.flow
import mtcut.graph
import mtcut.reductions
from mtcut.bench import generate_terminals, grow_terminal_blocks
from mtcut.graph import HAVE_SCIPY, SCIPY_MIN_VERTICES, large_view
from mtcut.solver import NODE_ORDER, branch_vertex, select_branch_vertex
from mtcut.reductions import (
    DEFAULT_ORDER,
    FLOW_CANDIDATES,
    NEIGHBORHOOD_LIMIT,
    ROOT_ONLY,
    articulation_points,
    capforest_bounds,
    contract_isolating_cuts,
    delete_inter_terminal_edges,
    isolating_cuts,
    reduce_articulation_points,
    reduce_connectivity,
    reduce_equal_neighborhoods,
    reduce_heavy_edge,
    reduce_heavy_triangle,
    reduce_low_degree,
    reduce_non_terminal_flows,
)


def make_problem(n, edges, terminals):
    return Problem.from_instance(ContractableGraph.from_edge_list(n, edges), terminals)


class TestInterTerminalEdges:
    def test_f2_solved(self):
        p = fixture_problem("F2")
        _, deleted = delete_inter_terminal_edges(p)
        p.refresh_active()
        assert deleted == 3
        assert p.deleted_weight == 3
        assert p.is_solved()

    def test_f1_noop(self):
        p = fixture_problem("F1")
        assert delete_inter_terminal_edges(p) == (0, 0)

    def test_k2(self):
        p = make_problem(2, [(0, 1, 7)], (0, 1))
        delete_inter_terminal_edges(p)
        assert p.deleted_weight == 7


class TestIsolatingCutContraction:
    def test_f1_contracts_into_t1(self):
        p = fixture_problem("F1")
        contract_isolating_cuts(p)
        assert p.graph.num_vertices == 2
        assert p.graph.find(1) == 0
        assert p.lower_bound == 1

    def test_f3_absorbs_center(self):
        p = fixture_problem("F3")
        contract_isolating_cuts(p)
        assert p.graph.find(0) == 1
        assert p.graph.num_vertices == 3

    def test_upper_bound_reported(self):
        p = fixture_problem("F3")
        bs = BoundState()
        contract_isolating_cuts(p, bs)
        assert bs.best_value == 2
        assert bs.best_labels == [0, 0, 1, 2]


class TestFlowLoop:
    def test_isolating_cuts_past_deadline_runs_no_flow(self, monkeypatch):
        flows = count_calls(monkeypatch, "max_flow_st")
        g = torus_graph(4, 4)
        assert isolating_cuts(g, (0, 5, 10), deadline=time.monotonic() - 1.0) == []
        assert flows == []
        assert len(isolating_cuts(g, (0, 5, 10), deadline=time.monotonic() + 60.0)) == 3
        assert len(flows) == 3

    def test_one_flow_network_per_rule_call(self, monkeypatch):
        networks = count_calls(monkeypatch, "FlowNetwork")
        flows = count_calls(monkeypatch, "max_flow_st")
        rules = {
            "isolating_cuts": lambda p: isolating_cuts(p.graph, (0, 15, 26)),
            "contract_isolating_cuts": contract_isolating_cuts,
            "reduce_non_terminal_flows": reduce_non_terminal_flows,
        }
        for name, rule in rules.items():
            p = Problem.from_instance(torus_graph(6, 6), (0, 15, 26))
            networks.clear()
            flows.clear()
            rule(p)
            assert len(networks) == 1 and len(flows) >= 3, name


class TestKeptCuts:
    def test_kept_cuts_equal_fresh_flows_on_every_call(self, monkeypatch):
        # every kept cut, before and after each rule call, equals a flow on
        # a fresh network: same value, same side once mapped through find
        real = mtcut.reductions.contract_isolating_cuts
        checked = kept = 0

        def checking(p, *args):
            nonlocal checked, kept
            kept += len(p.kept_cuts())
            assert stale_kept_cuts(p) == []
            res = real(p, *args)
            assert stale_kept_cuts(p) == []
            checked += 1
            return res

        monkeypatch.setattr(mtcut.reductions, "contract_isolating_cuts", checking)
        rng = random.Random(53)
        for _ in range(120):
            n, edges, terminals = random_instance(rng, n_min=6, n_max=14, m_max=36)
            g = ContractableGraph.from_edge_list(n, edges)
            for config in SOLVER_MODES:
                solve(g, terminals, config)
        assert checked >= 1000 and kept >= 1000

    def test_kept_cuts_equal_fresh_flows_after_every_deletion(self, monkeypatch):
        # every guarded deletion, by the inter-terminal rule, a branch or
        # inexact mode's shrinking, leaves only cuts a fresh flow confirms;
        # many survive deletions that are not between two terminals
        real = Problem.delete_edge
        deletions = loose = kept_through_loose = 0

        def checking(p, u, v):
            nonlocal deletions, loose, kept_through_loose
            w = real(p, u, v)
            deletions += 1
            if not (u in p.block_of and v in p.block_of):
                loose += 1
                kept_through_loose += len(p.kept_cuts())
            assert stale_kept_cuts(p) == []
            return w

        monkeypatch.setattr(Problem, "delete_edge", checking)
        rng = random.Random(59)
        for _ in range(200):
            n, edges, terminals = random_instance(rng, n_min=6, n_max=16, m_max=40)
            g = ContractableGraph.from_edge_list(n, edges)
            for config in SOLVER_MODES:
                solve(g, terminals, config)
        assert deletions >= 7000 and loose >= 1500 and kept_through_loose >= 1000

    def test_repeated_call_builds_no_flow_network(self, monkeypatch):
        networks = count_calls(monkeypatch, "FlowNetwork")
        # F3's first call absorbs the center into terminal 1, inside its side
        p = fixture_problem("F3")
        assert contract_isolating_cuts(p) == (1, 0)
        assert len(networks) == 1
        networks.clear()
        assert contract_isolating_cuts(p) == (0, 0)
        assert networks == [] and p.lower_bound == 2

    def test_past_deadline_runs_no_flow_but_bounds_from_kept_cuts(self, monkeypatch):
        past = time.monotonic() - 1.0
        p = fixture_problem("F3")
        assert contract_isolating_cuts(p, deadline=past) == (0, 0)
        assert p.kept_cuts() == {} and p.lower_bound == 0
        contract_isolating_cuts(p)
        q = p.copy()
        q.lower_bound = 0
        flows = count_calls(monkeypatch, "max_flow_st")
        assert contract_isolating_cuts(q, deadline=past) == (0, 0)
        assert flows == [] and q.lower_bound == 2

    def test_fixpoint_keeps_every_active_terminals_cut(self, monkeypatch):
        rng = random.Random(61)
        for _ in range(30):
            p = make_problem(*random_instance(rng, n_min=8, n_max=14, m_max=36))
            run_reduction_loop(p)
            if p.is_solved():
                continue
            assert set(p.kept_cuts()) >= set(p.active_terminals())
            networks = count_calls(monkeypatch, "FlowNetwork")
            assert contract_isolating_cuts(p) == (0, 0)
            assert networks == []
            monkeypatch.undo()

    def test_branch_children_share_the_joined_terminals_flows(self, monkeypatch):
        # at a fixpoint every side is its terminal alone: merging x into r
        # splits only r's side, and the deleted edges from r to the other
        # terminals lower their cuts without a flow. With a cut-all sibling,
        # the child that cuts x from every adjacent terminal, each joined
        # child runs its flow at the branch, and the cut-all child derives
        # its cut of r from it; every other cut of the cut-all child is
        # dropped by its deletions, unless x has one adjacent terminal
        rng = random.Random(67)
        joined_seen = shared_seen = 0
        while joined_seen < 20 or shared_seen < 10:
            p = make_problem(*random_instance(rng, n_min=8, n_max=14, m_max=36))
            run_reduction_loop(p)
            if p.is_solved() or p.active_count() < 3:
                continue
            x = select_branch_vertex(p)
            adjacent = [r for r in p.active_terminals() if p.graph.has_edge(x, r)]
            children = branch_vertex(p, x, math.inf)
            cut_all = next((c for c in children if c.graph.is_live(x)), None)
            joined = {c.graph.find(x) for c in children if c is not cut_all}
            for c in children:
                assert stale_kept_cuts(c) == []
                kept = set(c.kept_cuts())
                flows = count_calls(monkeypatch, "max_flow_st")
                contract_isolating_cuts(c)
                if c is cut_all:
                    assert kept == joined
                    assert len(flows) == c.active_count() - len(kept)
                    shared_seen += len(adjacent) > 1
                else:
                    shared = cut_all is not None and len(adjacent) > 1
                    assert len(flows) == (0 if shared else 1) < c.active_count()
                    joined_seen += 1
                monkeypatch.undo()


class TestLowDegree:
    def test_f1_heavier_edge_wins(self):
        p = fixture_problem("F1")
        reduce_low_degree(p)
        assert p.graph.num_vertices == 2
        assert p.graph.find(1) == 0
        assert p.graph.edge_weight(0, 2) == 1

    def test_pendant_chain_cascades(self):
        # t1 - x - y with y of degree one: y folds into x, then x into t1
        p = make_problem(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], (0, 3))
        reduce_low_degree(p)
        assert p.graph.num_vertices == 2

    def test_f5_ties_toward_lower_id(self):
        n, edges, terminals, opt = FIXTURES["F5"]
        p = make_problem(n, edges, terminals)
        contracted, _ = reduce_low_degree(p)
        assert contracted == 2
        assert p.graph.find(2) == 0 and p.graph.find(3) == 0
        assert kernel_opt(p) + p.deleted_weight == opt


class TestHeavyEdge:
    def test_f3_center_into_t1(self):
        p = fixture_problem("F3")
        reduce_heavy_edge(p)
        assert p.graph.find(0) == 1
        assert kernel_opt(p) == 2

    def test_f1(self):
        p = fixture_problem("F1")
        reduce_heavy_edge(p)
        assert p.graph.num_vertices == 2
        assert p.graph.edge_weight(0, 2) == 1

    def test_unit_four_regular_untouched(self):
        # 3x3 torus is 4-regular with unit weights: 2*1 < 4 everywhere
        edges = set()
        for y in range(3):
            for x in range(3):
                v = y * 3 + x
                edges.add(tuple(sorted((v, y * 3 + (x + 1) % 3))) + (1,))
                edges.add(tuple(sorted((v, ((y + 1) % 3) * 3 + x))) + (1,))
        p = make_problem(9, sorted(edges), (0, 4))
        assert reduce_heavy_edge(p) == (0, 0)

    def test_pairs_are_reread_after_each_contraction(self, monkeypatch):
        # (0,1) and then (0,2) contract, which merges the ends of (1,2): it
        # is skipped. (1,3) is re-read as (0,3) and contracts into t3.
        p = make_problem(5, [(0, 1, 5), (0, 2, 5), (1, 2, 1), (1, 3, 1), (2, 4, 1)],
                         (3, 4))
        merges = []
        real = Problem.contract_set

        def logged(q, vertices, into):
            merges.append((tuple(vertices), into))
            return real(q, vertices, into)

        monkeypatch.setattr(Problem, "contract_set", logged)
        assert reduce_heavy_edge(p) == (3, 0)
        assert merges == [((0, 1), 0), ((0, 2), 0), ((0, 3), 0)]
        assert [p.graph.find(v) for v in range(5)] == [3, 3, 3, 3, 4]
        assert p.graph.edge_weight(3, 4) == 1

    def test_edge_of_exactly_half_the_weighted_degree_contracts(self):
        # 2 * w(0,1) == wdeg(0) == 4 + 2 + 2
        p = make_problem(4, [(0, 1, 4), (0, 2, 2), (0, 3, 2)], (1, 2, 3))
        assert reduce_heavy_edge(p) == (1, 0)
        assert p.graph.find(0) == 1


class TestHeavyTriangle:
    def test_isolated_triangle_contracts(self):
        p = make_problem(5, [(0, 1, 2), (1, 2, 2), (0, 2, 2), (3, 0, 1), (4, 1, 1)],
                         (3, 4))
        contracted, _ = reduce_heavy_triangle(p)
        assert contracted >= 1

    def test_f2_all_terminals_skipped(self):
        p = fixture_problem("F2")
        assert reduce_heavy_triangle(p) == (0, 0)

    def test_pendant_weight_blocks(self):
        # v1 carries an extra pendant edge of weight 5: 2+4 < 9
        p = make_problem(6, [(0, 1, 2), (1, 2, 2), (0, 2, 2), (0, 3, 5), (4, 0, 1),
                             (5, 1, 1)], (4, 5))
        before = p.graph.num_vertices
        reduce_heavy_triangle(p)
        assert not (p.graph.find(0) == p.graph.find(1))
        assert p.graph.num_vertices <= before

    def test_unit_torus_skips_the_scan(self, monkeypatch):
        # each row of the 3x3 unit torus is a triangle, but 2*1 + 1 < 4
        scans = count_calls(monkeypatch, "_current_edges")
        p = Problem.from_instance(torus_graph(3, 3), (0, 4))
        assert reduce_heavy_triangle(p) == (0, 0)
        assert reduce_heavy_edge(p) == (0, 0)
        assert scans == []

    def test_two_passing_ends_must_be_adjacent(self, monkeypatch):
        # on the unit 4-cycle with terminals 0 and 2, both non-terminals
        # pass their half of the test (degree 2), but no edge joins them;
        # the chord 1-3 makes them adjacent, and the scan runs
        scans = count_calls(monkeypatch, "_current_edges")
        cycle = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
        assert reduce_heavy_triangle(make_problem(4, cycle, (0, 2))) == (0, 0)
        assert scans == []
        reduce_heavy_triangle(make_problem(4, cycle + [(1, 3, 1)], (0, 2)))
        assert len(scans) == 1


class TestCapforest:
    def test_f2_bounds(self):
        g = ContractableGraph.from_edge_list(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        q = capforest_bounds(g)
        for (u, v), qe in q.items():
            lam = max_flow_st(g, u, {v}).value
            assert 1 <= qe <= lam == 2

    def test_path_gets_exact_weights(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(3, 9)
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[i], perm[i + 1], rng.randint(1, 10)) for i in range(n - 1)]
            g = ContractableGraph.from_edge_list(n, edges)
            q = capforest_bounds(g)
            for u, v, w in edges:
                assert q[(min(u, v), max(u, v))] == w

    def test_star_bound(self):
        g = ContractableGraph.from_edge_list(4, [(0, 1, 3), (0, 2, 1), (0, 3, 1)])
        q = capforest_bounds(g)
        assert q[(0, 1)] <= 3

    def test_certificates_never_exceed_either_ends_weighted_degree(self):
        # the premise of reduce_connectivity's gate, on graphs with
        # tombstones and several components
        rng = random.Random(71)
        for _ in range(200):
            n, edges = random_connected_graph(rng, n_min=3, n_max=30, m_max=90)
            g = ContractableGraph.from_edge_list(2 * n, edges + [(u + n, v + n, w)
                                                                 for u, v, w in edges])
            for _ in range(rng.randint(0, 3)):
                u, v, _ = rng.choice(list(g.edges()))
                g.contract_vertices((u, v), u)
            q = capforest_bounds(g)
            assert set(q) == {(u, v) for u, v, _ in g.edges()}
            for (u, v), qe in q.items():
                assert g.edge_weight(u, v) <= qe <= min(g.weighted_degree(u),
                                                        g.weighted_degree(v))


class TestConnectivityReduction:
    def test_f1_with_known_best(self):
        p = fixture_problem("F1")
        contracted, _ = reduce_connectivity(p, best_value=1)
        assert contracted == 1
        assert p.graph.find(1) == 0  # the weight-2 edge went, not the weight-1
        assert kernel_opt(p) + p.deleted_weight == 1

    def test_infinite_best_is_noop(self):
        p = fixture_problem("F1")
        assert reduce_connectivity(p, math.inf) == (0, 0)

    def test_infinite_best_reads_no_vertex(self, monkeypatch):
        # the gate returns at once, on a small graph and on a large one
        reads = []
        real = ContractableGraph.live_vertices
        monkeypatch.setattr(ContractableGraph, "live_vertices",
                            lambda g: reads.append(g) or real(g))
        views = count_calls(monkeypatch, "large_view")
        for p in (fixture_problem("F1"), Problem.from_instance(torus_graph(25, 20), (0, 260))):
            assert reduce_connectivity(p, math.inf) == (0, 0)
        assert reads == [] and views == []

    def test_zero_bound_edges_stay(self):
        p = fixture_problem("F2")
        assert reduce_connectivity(p, best_value=1) == (0, 0)

    def test_pair_that_became_two_terminals_is_skipped(self):
        # An incumbent below this subproblem's optimum, as at a branch node
        # that cannot improve on it: both edges qualify, and once (0,1) is
        # contracted, (1,2) joins the two terminals.
        p = make_problem(3, [(0, 1, 3), (1, 2, 2)], (0, 2))
        assert reduce_connectivity(p, best_value=1) == (1, 0)
        assert p.graph.find(1) == 0 and p.graph.edge_weight(0, 2) == 2

    def test_capforest_runs_only_when_two_weighted_degrees_pass(self, monkeypatch):
        # F3's star: weighted degree 5 at the center, 3, 1 and 1 at the leaves
        scans = count_calls(monkeypatch, "capforest_bounds")
        p = fixture_problem("F3")
        assert reduce_connectivity(p, best_value=3) == (0, 0)  # 5 alone is above 3
        assert scans == []
        assert reduce_connectivity(p, best_value=2) == (1, 0)  # 5 and 3 are above 2
        assert len(scans) == 1 and p.graph.find(0) == 1


# rule -> the degree gate it runs first
GATES = {
    "reduce_heavy_edge": "_heavy_edge_gate",
    "reduce_heavy_triangle": "_heavy_triangle_gate",
    "reduce_connectivity": "_connectivity_gate",
}


class TestDegreeGates:
    def test_closed_gate_hides_no_hit(self, monkeypatch):
        # wherever a gate returns early, the scan without the gate, run on
        # a copy, changes nothing
        opened, closed = Counter(), Counter()
        for rule, gate in GATES.items():
            def checking(p, *args, _rule=getattr(mtcut.reductions, rule),
                         _gate=getattr(mtcut.reductions, gate), _name=gate):
                if _gate(p, *args):
                    opened[_name] += 1
                else:
                    closed[_name] += 1
                    q = p.copy()
                    with monkeypatch.context() as m:
                        m.setattr(mtcut.reductions, _name, lambda *_: True)
                        assert _rule(q, *args) == (0, 0)
                    assert q.graph.version() == p.graph.version()
                return _rule(p, *args)
            monkeypatch.setattr(mtcut.reductions, rule, checking)

        rng = random.Random(73)
        for _ in range(280):
            n, edges, terminals = random_instance(rng, n_min=6, n_max=14, m_max=36)
            g = ContractableGraph.from_edge_list(n, edges)
            for config in SOLVER_MODES:
                solve(g, terminals, config)
        assert min(opened[name] for name in GATES.values()) >= 50
        assert min(closed[name] for name in GATES.values()) >= 400

    def test_isolated_non_terminal_raises_nothing(self):
        # vertex 0 has no edge and every gate reads it first; the rest is a
        # unit K4 with terminals 1 and 2 and optimum 3
        edges = [(u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)]
        p = make_problem(5, edges, (1, 2))
        assert reduce_heavy_edge(p) == (0, 0)
        assert reduce_connectivity(p, best_value=3) == (0, 0)
        assert reduce_heavy_triangle(p) == (1, 0)  # 1 + 2*1 >= 3 at both 3 and 4


def sparse_edges(rng, n, extra, w_max, first=0):
    """A random tree on ``first .. first + n - 1`` plus ``extra`` more edges."""
    edges = {}
    for v in range(1, n):
        edges[(first + rng.randrange(v), first + v)] = rng.randint(1, w_max)
    while extra > 0:
        u, v = sorted(rng.sample(range(first, first + n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, w_max)
            extra -= 1
    return [(u, v, w) for (u, v), w in edges.items()]


def plant_twins(rng, n, edges, w_max):
    """Add two non-adjacent twins and two adjacent ones, as vertices n to
    n + 3, to ``edges`` on vertices below n."""
    for twins, adjacent in (((n, n + 1), False), ((n + 2, n + 3), True)):
        shared = [(x, rng.randint(1, w_max)) for x in rng.sample(range(n), rng.randint(1, 3))]
        edges += [(x, t, w) for t in twins for x, w in shared]
        if adjacent:
            edges.append((*twins, rng.randint(1, w_max)))
    return n + 4, edges


def disconnected_problem(rng):
    """Two random unit-weight components of equal size; every terminal
    lies in the first."""
    half = SCIPY_MIN_VERTICES // 2 + 10
    edges = sparse_edges(rng, half, 60, 1) + sparse_edges(rng, half, 60, 1, first=half)
    g = ContractableGraph.from_edge_list(2 * half, edges)
    return Problem.from_instance(g, rng.sample(range(half), 3))


def view_scan_problems():
    """Problems on graphs with at least SCIPY_MIN_VERTICES live vertices:
    tori, with unit weights, with weights 5 or 6 and with grown blocks; a
    unit circular ladder; random graphs with m = n + 50 and unit weights,
    with m = 3n and weights up to 9, and with planted twins; isolated
    non-terminals; a contracted graph with tombstones; a disconnected graph
    whose terminals lie in one component; and an isolated, so inactive,
    terminal."""
    rng = random.Random(41)
    problems = []
    for width, height in ((25, 20), (31, 23)):
        g = torus_graph(width, height)
        terminals = generate_terminals(g, 8, 0)
        weighted = ContractableGraph.from_edge_list(
            g.n_original, [(u, v, rng.randint(5, 6)) for u, v, _ in g.edges()])
        problems += [Problem.from_instance(g, terminals), Problem.from_instance(weighted, terminals),
                     grow_terminal_blocks(g, terminals, 0.1)]
    problems = [p for p in problems if p.graph.num_vertices >= SCIPY_MIN_VERTICES]
    n = SCIPY_MIN_VERTICES
    # a unit circular ladder: every vertex has degree 3 and passes the
    # triangle test's end condition only through its second heaviest edge
    rungs = n // 2
    ladder = [(i, (i + 1) % rungs, 1) for i in range(rungs)]
    ladder += [(rungs + i, rungs + (i + 1) % rungs, 1) for i in range(rungs)]
    ladder += [(i, rungs + i, 1) for i in range(rungs)]
    problems.append(make_problem(n, ladder, (0, rungs // 2, rungs + 7)))
    for extra, w_max in ((50, 1), (50, 1), (3 * n, 9), (2 * n, 2)):
        edges = sparse_edges(rng, n, extra, w_max)
        g = ContractableGraph.from_edge_list(n, edges)
        problems.append(Problem.from_instance(g, rng.sample(range(n), rng.choice((2, 5, 16)))))
    for extra, w_max in ((50, 1), (n, 2)):
        m, edges = plant_twins(rng, n, sparse_edges(rng, n, extra, w_max), w_max)
        isolated = 3  # vertices m to m + 2 have no edge
        g = ContractableGraph.from_edge_list(m + isolated, edges)
        problems.append(Problem.from_instance(g, rng.sample(range(n), 4)))
    g = ContractableGraph.from_edge_list(n + 150, sparse_edges(rng, n + 150, n, 3))
    while g.num_vertices > n + 20:
        u = rng.choice(list(g.live_vertices()))
        g.contract_vertices([u, *list(g.neighbors(u))[:2]], u)
    problems.append(Problem.from_instance(g, rng.sample(sorted(g.live_vertices()), 6)))
    problems.append(disconnected_problem(rng))
    g = ContractableGraph.from_edge_list(n + 1, sparse_edges(rng, n, 100, 4))
    p = Problem.from_instance(g, [n, *rng.sample(range(n), 3)])  # n is isolated
    p.refresh_active()
    assert p.active_terminals() != list(p.terminal_vertices)
    problems.append(p)
    return problems


def scan_results(p, monkeypatch):
    """What each of the six view scans gives on ``p``: the four gates, the
    low-degree rule's kernel, and the non-terminal flows' sources."""
    wdegs = sorted((p.graph.weighted_degree(v) for v in p.graph.live_vertices()), reverse=True)
    bests = [p.deleted_weight + w + shift for w in wdegs[:3] for shift in (-1, 0)]
    out = {
        "heavy_edge": mtcut.reductions._heavy_edge_gate(p),
        "heavy_triangle": mtcut.reductions._heavy_triangle_gate(p),
        "connectivity": [mtcut.reductions._connectivity_gate(p, b) for b in bests],
        "twins": [mtcut.reductions._twin_gate(p, limit) for limit in (0, 1, 2, 3, 5)],
    }
    q = p.copy()
    out["low_degree"] = reduce_low_degree(q), adjacency_and_find(q.graph)
    with monkeypatch.context() as m:
        m.setattr(mtcut.reductions, "_flows", lambda g, sources, *_: [])
        sources = []
        for per_kind in (1, 5, 40):
            q = p.copy()
            m.setattr(mtcut.reductions, "_contract_source_sides",
                      lambda p, candidates, flows: sources.append(candidates) or 0)
            reduce_non_terminal_flows(q, per_kind)
    out["candidates"] = sources
    return out


class TestScansOnView:
    """Where ``large_view`` gives the graph's array view, the four gates,
    the low-degree seed and the non-terminal flows' ranking are array
    passes; each must answer as the dict code does."""

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_view_and_dict_scans_agree(self, monkeypatch):
        opened, closed = Counter(), Counter()
        for p in view_scan_problems():
            assert large_view(p.graph) is not None
            got = scan_results(p, monkeypatch)
            with monkeypatch.context() as m:
                m.setattr(mtcut.reductions, "large_view", lambda g: None)
                assert scan_results(p, monkeypatch) == got
            for name in ("heavy_edge", "heavy_triangle"):
                (opened if got[name] else closed)[name] += 1
            for name in ("connectivity", "twins"):
                opened[name] += sum(got[name])
                closed[name] += len(got[name]) - sum(got[name])
            opened["low_degree"] += got["low_degree"][0][0] > 0
        assert opened["heavy_edge"] >= 5 and closed["heavy_edge"] >= 4
        assert opened["heavy_triangle"] >= 6 and closed["heavy_triangle"] >= 5
        assert opened["connectivity"] >= 20 and closed["connectivity"] >= 20
        assert opened["twins"] >= 15 and closed["twins"] >= 30
        assert opened["low_degree"] >= 5

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_twin_keys_read_ids_and_the_vertex_itself(self, monkeypatch):
        # a unit torus on ids 2 to 501, whose own keys are all distinct, and
        # - either u = 0 and w = 1 with N(u) = {10, 11, 16, 20} and
        #   N(w) = {10, 13, 14, 20}: distinct sets with equal id keys, which
        #   open the gate, while their index sums differ once vertex 12 is
        #   a tombstone;
        # - or x = 0 and y = 1, adjacent, and z = 502 with N(x) = {1, 10, z}
        #   and N(y) = {0, 11, z}: their closed keys differ only in the sum,
        #   by one, and would be equal without x and y themselves added
        torus = [(a + 2, b + 2, 1) for a, b, _ in torus_graph(25, 20).edges()]
        cases = (
            (502, [(0, a, 1) for a in (10, 11, 16, 20)] + [(1, a, 1) for a in (10, 13, 14, 20)],
             [12, 13], True),
            (503, [(0, 1, 1), (0, 10, 1), (1, 11, 1), (0, 502, 1), (1, 502, 1), (2, 502, 1)],
             [], False),
        )
        for n, extra, merge, opens in cases:
            g = ContractableGraph.from_edge_list(n, torus + extra)
            if merge:
                g.contract_vertices(merge, merge[-1])
            p = Problem.from_instance(g, (2, 262))
            assert large_view(p.graph) is not None
            assert mtcut.reductions._twin_gate(p, NEIGHBORHOOD_LIMIT) is opens
            with monkeypatch.context() as m:
                m.setattr(mtcut.reductions, "large_view", lambda g: None)
                assert mtcut.reductions._twin_gate(p, NEIGHBORHOOD_LIMIT) is opens

    def test_unreachable_vertices_rank_farthest(self, monkeypatch):
        # every terminal lies in the first half, so the 5 farthest
        # candidates are the second half's lowest ids, on both paths
        p = disconnected_problem(random.Random(3))
        half = p.graph.n_original // 2
        calls = count_calls(monkeypatch, "_flows")
        reduce_non_terminal_flows(p.copy(), deadline=time.monotonic() - 1)
        monkeypatch.setattr(mtcut.reductions, "large_view", lambda g: None)
        reduce_non_terminal_flows(p.copy(), deadline=time.monotonic() - 1)
        on_view, on_dicts = (args[1] for args in calls)
        assert on_view == on_dicts
        assert set(range(half, half + 5)) <= set(on_view)

    def test_reduction_loop_kernels_agree(self, monkeypatch):
        # the first arm scans on the view and lets sources share a flow;
        # the second scans on the dicts and runs one flow per source. The
        # kernels agree, and so do the cuts of every _flows call.
        shared = 0
        real_flows = mtcut.reductions._flows
        for p in view_scan_problems():
            kernels = []
            for view in (True, False):
                q = p.copy()
                cuts = []

                def recording(g, sources, sinks, deadline=None):
                    flows = real_flows(g, sources, sinks, deadline)
                    cuts.append((list(sources), list(sinks), flows))
                    return flows

                with monkeypatch.context() as m:
                    if not view:
                        m.setattr(mtcut.reductions, "large_view", lambda g: None)
                        m.setattr(mtcut.reductions, "source_regions", lambda *a: {})
                    m.setattr(mtcut.reductions, "_flows", recording)
                    calls = shared_flows(m)
                    report = run_reduction_loop(q, BoundState())
                if view:
                    shared += len(calls)
                else:
                    assert calls == []
                kernels.append((report.to_dict(), adjacency_and_find(q.graph),
                                q.deleted_weight, q.lower_bound, q.active, cuts))
            assert kernels[0] == kernels[1]
        assert (shared > 0) is HAVE_SCIPY

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_cheap_scans_derive_the_view(self, monkeypatch):
        # the low-degree seed and the connectivity count read the view of
        # the graph as it is: first the instance graph's, which terminal
        # placement built, then, after a contraction, one derived from it;
        # nothing builds from the dicts
        p = next(p for p in view_scan_problems() if p.graph.num_vertices > SCIPY_MIN_VERTICES)
        built, derived = count_view_builds(monkeypatch)
        assert mtcut.reductions._connectivity_gate(p, 10**6) is False
        assert built == [] and derived == []
        assert p.graph.array_view() is p.original.array_view()
        v = next(v for v in p.graph.live_vertices() if v not in p.block_of)
        p.contract_set([v], next(iter(p.graph.neighbors(v))))
        reduce_low_degree(p)
        assert mtcut.reductions._connectivity_gate(p, 10**6) is False
        assert built == [] and derived == [p.graph]

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_torus_kernelize_builds_one_view_from_the_dicts(self, monkeypatch):
        # the isolating cuts' flows read the grown root's first view, the
        # original graph's, built from the dicts, as the terminals were
        # placed on another graph; the scans after their contraction read
        # one derived from it. The heuristic's labels are scored on the
        # original graph's view, the same one. A copy of the kernel, which
        # deleted no edge, derives its view from it too.
        terminals = generate_terminals(torus_graph(100, 100), 8, 0)
        p = grow_terminal_blocks(torus_graph(100, 100), terminals, 0.1)
        built, derived = count_view_builds(monkeypatch)
        report = run_reduction_loop(p, BoundState())
        assert report.fixpoint and report.contracted["isolating_cuts"] > 0
        assert built == [p.original]
        assert derived == [p.graph]
        run_reduction_loop(p.copy(), BoundState())
        assert built == [p.original] and len(derived) == 2


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
class TestInexactWeightsAtScale:
    """Weights times 2**50 sum past 2**53, so the graph has no array view
    and its whole kernelization runs on the dicts and the pure-Python flow.
    Every rule is scale-invariant, so it must match the unit-weight run on
    arrays, scaled back."""

    SCALE = 2**50

    def _kernelize(self, monkeypatch, n, edges, terminals, fraction, scale):
        g = ContractableGraph.from_edge_list(n, [(u, v, w * scale) for u, v, w in edges])
        p = grow_terminal_blocks(g, terminals, fraction)
        assert (large_view(p.graph) is None) is (scale > 1)
        with monkeypatch.context() as m:
            scipy_calls = count_calls(m, "_scipy_maximum_flow", mtcut.flow)
            bound_state = BoundState()
            report = run_reduction_loop(p, bound_state)
        assert (len(scipy_calls) > 0) is (scale == 1)
        return report, p, bound_state.best_value

    def test_kernelization_on_dicts_matches_arrays(self, monkeypatch):
        # random graphs with n = 1500, m = 3000, k = 8 and n = 3000,
        # m = 9000, k = 16, weights 1-5, without and with grown blocks. The
        # isolating bound ceil(S / 2) does not scale exactly, so the lower
        # bound is compared rounded up.
        rng = random.Random(1)
        scale = self.SCALE
        for n, m, k, fraction in ((1500, 3000, 8, 0.0), (1500, 3000, 8, 0.2),
                                  (3000, 9000, 16, 0.0), (3000, 9000, 16, 0.1)):
            edges = random_nm_edges(rng, n, m, 5)
            terminals = generate_terminals(ContractableGraph.from_edge_list(n, edges), k, 0)
            unit, p, best = self._kernelize(monkeypatch, n, edges, terminals, fraction, 1)
            scaled, q, scaled_best = self._kernelize(monkeypatch, n, edges, terminals, fraction,
                                                     scale)
            assert scaled.to_dict() == unit.to_dict()
            assert [q.graph.find(v) for v in range(n)] == [p.graph.find(v) for v in range(n)]
            assert q.active == p.active
            assert (q.deleted_weight, scaled_best) == (p.deleted_weight * scale, best * scale)
            assert -(-q.lower_bound // scale) == p.lower_bound


class TestArticulationPoints:
    def test_f4_reduction(self):
        p = fixture_problem("F4")
        contracted, _ = reduce_articulation_points(p)
        assert contracted == 2
        assert p.graph.num_vertices == 3
        assert p.graph.find(3) == 1 and p.graph.find(4) == 1

    def test_f1_both_sides_have_terminals(self):
        p = fixture_problem("F1")
        assert reduce_articulation_points(p) == (0, 0)

    def test_biconnected_noop(self):
        p = fixture_problem("F2")
        assert reduce_articulation_points(p) == (0, 0)

    def test_matches_naive_oracle(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(3, 50)
            edges = {}
            for v in range(1, n):
                if rng.random() < 0.9:
                    u = rng.randrange(v)
                    edges[(u, v)] = 1
            for _ in range(rng.randrange(0, n)):
                u, v = sorted(rng.sample(range(n), 2))
                edges.setdefault((u, v), 1)
            el = [(u, v, w) for (u, v), w in edges.items()]
            if not el:
                continue
            g = ContractableGraph.from_edge_list(n, el)
            assert articulation_points(g) == naive_articulation_points(n, el)

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_array_path_matches_dict_dfs(self, monkeypatch):
        # at and above the threshold the rule takes scipy's DFS on the array
        # view; with the threshold raised it runs _dfs_tree. Both must
        # contract the same sets in the same order.
        rng = random.Random(24)
        hits = 0
        for case in range(16):
            live = SCIPY_MIN_VERTICES + (0 if case < 2 else rng.randrange(300))
            g = hanging_tree_graph(rng, live + rng.randint(1, 60), rng.randint(1, 5))
            while g.num_vertices > live:  # tombstones
                u = rng.choice(list(g.live_vertices()))
                g.contract_vertices([u, *list(g.neighbors(u))[:1]], u)
            terminals = rng.sample(sorted(g.live_vertices()), rng.randint(2, 8))
            p = Problem.from_instance(g, terminals)
            q = p.copy()
            dfs_calls = count_calls(monkeypatch, "_dfs_tree")
            got = reduce_articulation_points(p)
            assert dfs_calls == []
            monkeypatch.setattr(mtcut.graph, "SCIPY_MIN_VERTICES", g.n_original + 1)
            assert reduce_articulation_points(q) == got
            assert len(dfs_calls) == 1
            monkeypatch.undo()
            assert adjacency_and_find(p.graph) == adjacency_and_find(q.graph)
            hits += got[0]
        assert hits > 1000


class TestEqualNeighborhoods:
    def test_f5_twins_merge(self):
        n, edges, terminals, opt = FIXTURES["F5"]
        p = make_problem(n, edges, terminals)
        contracted, _ = reduce_equal_neighborhoods(p)
        assert contracted == 1
        assert p.graph.num_vertices == 3
        assert kernel_opt(p) == opt

    def test_adjacent_twins(self):
        p = make_problem(5, [(0, 2, 2), (0, 3, 2), (1, 2, 1), (1, 3, 1), (2, 3, 4)],
                         (0, 1))
        contracted, _ = reduce_equal_neighborhoods(p)
        assert contracted == 1
        assert p.graph.find(3) == 2

    def test_weight_mismatch_blocks(self):
        p = make_problem(4, [(0, 2, 1), (0, 3, 2), (1, 2, 1), (1, 3, 1)], (0, 1))
        assert reduce_equal_neighborhoods(p) == (0, 0)

    def test_detection_matches_quadratic_scan(self):
        # unit weights make twins, adjacent and not, common
        rng = random.Random(7)
        contracted = 0
        for _ in range(120):
            n, edges = random_connected_graph(rng, n_min=4, n_max=12, m_max=24, w_max=1)
            p = make_problem(n, edges, rng.sample(range(n), 2))
            while (step := reduce_equal_neighborhoods(p)) != (0, 0):
                contracted += step[0]
            assert naive_twin_pairs(p.graph, set(p.block_of), 5) == set()
        assert contracted > 0


class TestTwinGate:
    def test_adjacent_twins_open_it_through_the_closed_key(self):
        # N[2] = N[3] = {0, 1, 2, 3}, while N(2) = {0, 1, 3} and N(3) = {0, 1, 2}
        p = make_problem(4, [(0, 2, 2), (0, 3, 2), (1, 2, 1), (1, 3, 1), (2, 3, 4)],
                         (0, 1))
        assert mtcut.reductions._twin_gate(p, NEIGHBORHOOD_LIMIT)
        assert reduce_equal_neighborhoods(p) == (1, 0)

    def test_non_adjacent_twins_open_it_through_the_open_key(self):
        # F5: N(2) = N(3) = {0, 1}, while N[2] and N[3] differ
        p = fixture_problem("F5")
        assert mtcut.reductions._twin_gate(p, NEIGHBORHOOD_LIMIT)
        assert reduce_equal_neighborhoods(p) == (1, 0)

    def test_equal_ids_with_other_weights_open_it_and_merge_nothing(self, monkeypatch):
        twin_keys = count_calls(monkeypatch, "_twin_key")
        p = make_problem(4, [(0, 2, 1), (0, 3, 2), (1, 2, 1), (1, 3, 1)], (0, 1))
        assert mtcut.reductions._twin_gate(p, NEIGHBORHOOD_LIMIT)
        assert reduce_equal_neighborhoods(p) == (0, 0)
        assert twin_keys  # the grouping scan ran

    def test_isolated_vertices_share_the_empty_neighborhood(self):
        # vertex 4 joins terminals 2 and 3; vertex 0 has no edge, and once
        # the edge 1-2 is gone neither has vertex 1
        path = [(2, 4, 1), (3, 4, 2)]
        p = make_problem(5, path + [(1, 2, 1)], (2, 3))
        assert not mtcut.reductions._twin_gate(p, NEIGHBORHOOD_LIMIT)
        p = make_problem(5, path, (2, 3))
        assert mtcut.reductions._twin_gate(p, NEIGHBORHOOD_LIMIT)
        assert reduce_equal_neighborhoods(p) == (1, 0)
        assert p.graph.find(1) == 0

    def test_unit_torus_skips_both_scans(self, monkeypatch):
        adjacent = count_calls(monkeypatch, "_adjacent_twins")
        twin_keys = count_calls(monkeypatch, "_twin_key")
        p = Problem.from_instance(torus_graph(5, 5), (0, 12))
        assert reduce_equal_neighborhoods(p) == (0, 0)
        assert adjacent == [] and twin_keys == []

    def test_closed_gate_hides_no_merge(self, monkeypatch):
        # wherever the gate returns early in a root reduction of a
        # twin-rich instance, the rule without the gate, run on a copy,
        # changes nothing
        opened = closed = merged = 0
        real = reduce_equal_neighborhoods
        gate = mtcut.reductions._twin_gate

        def checking(p, limit):
            nonlocal opened, closed, merged
            if gate(p, limit):
                opened += 1
            else:
                closed += 1
                q = p.copy()
                with monkeypatch.context() as m:
                    m.setattr(mtcut.reductions, "_twin_gate", lambda *_: True)
                    assert real(q, limit) == (0, 0)
                assert q.graph.version() == p.graph.version()
            result = real(p, limit)
            merged += result[0]
            return result

        monkeypatch.setattr(mtcut.reductions, "reduce_equal_neighborhoods", checking)
        rng = random.Random(74)
        for _ in range(2500):
            n, edges, terminals = twin_rich_instance(rng, w_max=rng.choice((1, 2)))
            p = Problem.from_instance(ContractableGraph.from_edge_list(n, edges), terminals)
            run_reduction_loop(p, BoundState())
        assert opened >= 300 and closed >= 300 and merged >= 100


class TestNonTerminalFlows:
    def test_f4_collapses_cycle(self):
        n, edges, terminals, opt = FIXTURES["F4"]
        p = make_problem(n, edges, terminals)
        contracted, _ = reduce_non_terminal_flows(p)
        assert contracted >= 1
        assert kernel_opt(p) + p.deleted_weight == opt

    def test_terminal_hugged_vertex_noop(self):
        p = make_problem(3, [(0, 1, 5), (1, 2, 5)], (0, 2))
        assert reduce_non_terminal_flows(p) == (0, 0)

    def test_all_terminals_noop(self):
        p = fixture_problem("F2")
        assert reduce_non_terminal_flows(p) == (0, 0)

    def test_past_deadline_runs_no_flow(self, monkeypatch):
        calls = count_calls(monkeypatch, "max_flow_st")
        p = fixture_problem("F4")
        before = p.graph.num_vertices
        assert reduce_non_terminal_flows(p, deadline=time.monotonic() - 1.0) == (0, 0)
        assert calls == [] and p.graph.num_vertices == before
        # the same rule without a deadline runs flows and contracts
        assert reduce_non_terminal_flows(p)[0] >= 1
        assert calls


def one_flow_each(g, sources, sinks):
    return [max_flow_st(g, s, [t for t in sinks if t != s]) for s in sources]


def planted_torus():
    """A unit 25x20 torus with 8 terminals, plus a pendant pair and a
    six-vertex clique that hang off it. The pendant ``v`` ties its own cut
    with that of ``{v, a}``, so its largest side holds both; two adjacent
    clique vertices share the clique as their largest side."""
    torus = torus_graph(25, 20)
    n0 = torus.n_original
    v, a = n0, n0 + 1
    clique = list(range(n0 + 2, n0 + 8))
    edges = [(x, y, 1) for x, y, _ in torus.edges()]
    edges += [(v, a, 2), (a, 7, 2)]
    edges += [(x, y, 3) for i, x in enumerate(clique) for y in clique[i + 1:]]
    edges += [(clique[0], 130, 1), (clique[3], 260, 1)]
    g = ContractableGraph.from_edge_list(n0 + 8, edges)
    return g, generate_terminals(torus, 8, 0), (v, a), clique


def bounded_flow_cases():
    """(graph, sources, sinks) on graphs of at least SCIPY_MIN_VERTICES
    vertices: plain and grown tori, and random graphs with m = 3n and grown
    blocks; each source set holds random non-terminals and the neighbors
    of one of them."""
    rng = random.Random(43)
    problems = []
    for width, height in ((25, 20), (31, 23), (40, 30)):
        g = torus_graph(width, height)
        terminals = generate_terminals(g, 8, 0)
        problems.append(Problem.from_instance(g, terminals))
        if width > 25:
            problems.append(grow_terminal_blocks(g, terminals, 0.1))
    for n, k in ((600, 3), (600, 8), (800, 16)):
        edges = sparse_edges(rng, n, 2 * n + 1, 9)
        g = ContractableGraph.from_edge_list(n, edges)
        problems.append(grow_terminal_blocks(g, generate_terminals(g, k, rng.randrange(10)), 0.1))
    cases = []
    for p in problems:
        assert p.graph.num_vertices >= SCIPY_MIN_VERTICES
        sinks = p.active_terminals()
        free = sorted(set(p.graph.live_vertices()) - set(sinks))
        for count in (2, 12):
            sources = rng.sample(free, count)
            sources += [x for x in p.graph.neighbors(sources[0]) if x not in sinks]
            cases.append((p.graph, sorted(set(sources)), sinks))
    return cases


def shared_flows(monkeypatch) -> list:
    """Spy on ``_scipy_flow``; the returned list gets the arguments of each
    call from several sources, the flow that sources share."""
    calls = []
    real = mtcut.flow._scipy_flow

    def recording(comp, s, sinks):
        if not isinstance(s, int):
            calls.append((comp, s, sinks))
        return real(comp, s, sinks)

    monkeypatch.setattr(mtcut.flow, "_scipy_flow", recording)
    return calls


class TestBoundedFlows:
    """On a graph with an array view, non-terminal sources share one flow
    from a super-source that bounds each one's largest side by a region;
    every cut must be the one its own full flow gives."""

    def test_matches_one_flow_per_source(self, monkeypatch):
        shared = shared_flows(monkeypatch)
        for g, sources, sinks in bounded_flow_cases():
            shared.clear()
            assert mtcut.reductions._flows(g, sources, sinks) == one_flow_each(g, sources, sinks)
            assert len(shared) == HAVE_SCIPY  # without scipy there is no view

    def test_planted_sides_hold_more_than_the_source(self, monkeypatch):
        g, sinks, (v, a), clique = planted_torus()
        sources = [v, clique[0], clique[1], 40, 41]
        regions = count_calls(monkeypatch, "region_flow")
        got = mtcut.reductions._flows(g, sources, sinks)
        assert got == one_flow_each(g, sources, sinks)
        assert got[0] == FlowResult(2, frozenset({v, a}))
        assert got[1] == got[2] == FlowResult(2, frozenset(clique))
        # the adjacent clique vertices share one region
        assert [len(args[2]) for args in regions[:3]] == ([2, 6, 6] if HAVE_SCIPY else [])

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_any_flow_layout_gives_the_same_sides(self, monkeypatch):
        # as in test_flow: without its zero entries the flow matrix leaves
        # the capacity matrix's pattern and is aligned by sparse addition
        g, sinks, (v, _), clique = planted_torus()
        sources = [v, clique[0], clique[1], 40, 41]
        want = one_flow_each(g, sources, sinks)
        real = mtcut.flow._scipy_maximum_flow
        relaid = []

        def relaying(cap, s, t):
            res = real(cap, s, t)
            flow = res.flow.copy()
            flow.eliminate_zeros()
            relaid.append(flow.nnz < res.flow.nnz)
            return SimpleNamespace(flow_value=res.flow_value, flow=flow)

        monkeypatch.setattr(mtcut.flow, "_scipy_maximum_flow", relaying)
        assert mtcut.reductions._flows(g, sources, sinks) == want
        assert relaid == [True]

    def test_component_without_a_sink(self, monkeypatch):
        # a torus with the terminals, a large random component and a small
        # path without any; each holds several sources
        rng = random.Random(44)
        torus = torus_graph(25, 20)
        n0 = torus.n_original
        edges = [(x, y, 1) for x, y, _ in torus.edges()]
        edges += sparse_edges(rng, SCIPY_MIN_VERTICES + 20, 200, 3, first=n0)
        n1 = n0 + SCIPY_MIN_VERTICES + 20
        edges += [(n1 + i, n1 + i + 1, 2) for i in range(19)]
        g = ContractableGraph.from_edge_list(n1 + 20, edges)
        sinks = generate_terminals(torus, 5, 0)
        sources = [x for x in (3, 60, 61, n0 + 1, n0 + 2, n0 + 300, n1, n1 + 5) if x not in sinks]
        shared = shared_flows(monkeypatch)
        got = mtcut.reductions._flows(g, sources, sinks)
        assert len(shared) == HAVE_SCIPY
        assert got == one_flow_each(g, sources, sinks)
        assert got[-1] == FlowResult(0, frozenset(range(n1, n1 + 20)))

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_weights_past_int32_take_the_python_flow(self, monkeypatch):
        torus = torus_graph(25, 20)
        edges = [(x, y, 2**31 if (x, y) == (0, 1) else 1) for x, y, _ in torus.edges()]
        g = ContractableGraph.from_edge_list(torus.n_original, edges)
        sinks = generate_terminals(torus, 8, 0)
        sources = [x for x in (0, 1, 40, 41, 200) if x not in sinks]
        scipy_calls = count_calls(monkeypatch, "_scipy_maximum_flow", mtcut.flow)
        assert large_view(g) is not None
        assert mtcut.reductions._flows(g, sources, sinks) == one_flow_each(g, sources, sinks)
        assert scipy_calls == []

    def test_past_deadline_runs_no_flow(self, monkeypatch):
        g, sinks, (v, _), clique = planted_torus()
        scipy_calls = count_calls(monkeypatch, "_scipy_flow", mtcut.flow)
        dinic_calls = count_calls(monkeypatch, "_dinic", mtcut.flow)
        assert mtcut.reductions._flows(g, [v, *clique], sinks, deadline=time.monotonic() - 1) == []
        assert scipy_calls == dinic_calls == []
        assert len(mtcut.reductions._flows(g, [v, *clique], sinks)) == 7
        assert len(scipy_calls) == HAVE_SCIPY and len(dinic_calls) == 7

    def test_small_graphs_and_isolating_cuts_keep_one_flow_per_source(self, monkeypatch):
        # source_regions alone decides: it gives no region, and no flow is
        # shared, on a graph below SCIPY_MIN_VERTICES, for sources that are
        # sinks (the isolating cuts) and for a single source
        regions = []
        real = mtcut.reductions.source_regions
        monkeypatch.setattr(mtcut.reductions, "source_regions",
                            lambda *args: regions.append(real(*args)) or regions[-1])
        shared = shared_flows(monkeypatch)
        g = torus_graph(20, 20)
        sinks = generate_terminals(g, 4, 0)
        sources = [x for x in (5, 6, 77) if x not in sinks]
        assert mtcut.reductions._flows(g, sources, sinks) == one_flow_each(g, sources, sinks)
        g, sinks, (v, _), _ = planted_torus()
        assert isolating_cuts(g, sinks) == [max_flow_st(g, t, [x for x in sinks if x != t])
                                            for t in sinks]
        assert mtcut.reductions._flows(g, [v], sinks) == one_flow_each(g, [v], sinks)
        assert regions == [{}, {}, {}] and shared == []

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_torus_scale_root_runs_one_scipy_flow(self, monkeypatch):
        g = torus_graph(100, 100)
        p = grow_terminal_blocks(g, generate_terminals(g, 8, 1), 0.1)
        scipy_calls = count_calls(monkeypatch, "_scipy_maximum_flow", mtcut.flow)
        reduce_non_terminal_flows(p)
        assert len(scipy_calls) == 1


class TestReductionLoop:
    def test_f1_solved(self):
        p = fixture_problem("F1")
        report = run_reduction_loop(p, BoundState())
        assert report.solved
        assert p.deleted_weight == 1

    def test_f2_solved_by_deletion(self):
        p = fixture_problem("F2")
        report = run_reduction_loop(p, BoundState())
        assert report.solved
        assert p.deleted_weight == 3

    def test_f4_solved(self):
        p = fixture_problem("F4")
        report = run_reduction_loop(p, BoundState())
        assert report.solved
        assert p.deleted_weight == 1

    def test_contraction_counters_match_vertex_loss(self):
        rng = random.Random(8)
        for _ in range(40):
            n, edges, terminals = random_instance(rng, n_min=5, n_max=10)
            p = make_problem(n, edges, terminals)
            before = p.graph.num_vertices
            report = run_reduction_loop(p, BoundState())
            assert before - p.graph.num_vertices == total_contracted(report)
            assert report.solved or report.fixpoint


class TestDominatedStop:
    def test_loop_stops_once_the_bound_meets_the_incumbent(self):
        # F3's isolating cuts absorb the center into terminal 1 and give
        # lower bound 2; with an incumbent of 2 the loop stops there, before
        # the inter-terminal deletions that would solve it
        for stop in (True, False):
            bound = BoundState()
            bound.improve(2, [0, 0, 1, 2])
            p = fixture_problem("F3")
            report = run_reduction_loop(p, bound, order=NODE_ORDER, stop_when_dominated=stop)
            assert p.lower_bound == 2 and p.graph.num_vertices == 3
            assert (report.solved, report.fixpoint, report.passes) == \
                ((False, False, 1) if stop else (True, False, 2))

    def test_loose_deletion_keeps_the_loop_going(self):
        # deleting 0-3 isolates terminal 3 and leaves loose weight 1: the
        # bound 2 meets the incumbent, but a labeling lifted from the node
        # may leave 0-3 uncut and score 1 below it, so the loop goes on
        bound = BoundState()
        bound.improve(2, [0, 0, 1, 2])
        p = fixture_problem("F3")
        p.delete_edge(0, 3)
        assert (p.deleted_weight, p.loose_weight) == (1, 1)
        report = run_reduction_loop(p, bound, order=NODE_ORDER, stop_when_dominated=True)
        assert report.solved and p.deleted_weight == 2


class TestPerRuleSafetySpot:
    """Small spot check; the full 500-instance sweep runs in acceptance."""

    RULES = {
        "inter_terminal": lambda p, opt: delete_inter_terminal_edges(p),
        "isolating_cuts": lambda p, opt: contract_isolating_cuts(p),
        "low_degree": lambda p, opt: reduce_low_degree(p),
        "heavy_edge": lambda p, opt: reduce_heavy_edge(p),
        "heavy_triangle": lambda p, opt: reduce_heavy_triangle(p),
        "connectivity": lambda p, opt: reduce_connectivity(p, opt),
        "articulation": lambda p, opt: reduce_articulation_points(p),
        "equal_neighborhoods": lambda p, opt: reduce_equal_neighborhoods(p),
        "non_terminal_flows": lambda p, opt: reduce_non_terminal_flows(p),
    }

    def test_each_rule_preserves_optimum(self):
        rng = random.Random(9)
        for _ in range(40):
            n, edges, terminals = random_instance(rng, n_min=5, n_max=10)
            opt, _ = brute_force_opt(n, edges, terminals)
            for name, rule in self.RULES.items():
                p = make_problem(n, edges, terminals)
                rule(p, opt)
                assert all(p.graph.find(t) == t for t in terminals), name
                p.refresh_active()
                check_consistency(p.graph)
                assert kernel_opt(p) + p.deleted_weight == opt, name


def schedule_problems() -> list:
    """Makers of fresh problems: seeded random and twin-rich instances, and
    random graphs whose terminals grew blocks of a fifth of the vertices."""
    rng = random.Random(25)
    specs = [random_instance(rng, n_min=6, n_max=14, m_max=36) for _ in range(60)]
    specs += [twin_rich_instance(rng, w_max=rng.choice((1, 2))) for _ in range(60)]
    makers = [lambda n=n, edges=edges, terminals=terminals: make_problem(n, edges, terminals)
              for n, edges, terminals in specs]
    for _ in range(20):
        n, edges = random_connected_graph(rng, n_min=18, n_max=26, m_max=60)
        g = ContractableGraph.from_edge_list(n, edges)
        terminals = generate_terminals(g, rng.randint(3, 5), 0)
        makers.append(lambda g=g, terminals=terminals: grow_terminal_blocks(g, terminals, 0.2))
    return makers


def split_passes(log: list) -> list[list]:
    """A :func:`record_rule_calls` log cut into the loop's passes. Within a
    pass the calls follow DEFAULT_ORDER; each pass after the first follows a
    change, so inter_terminal, whose last state is gone, opens it."""
    passes = []
    for call in log:
        if not passes or DEFAULT_ORDER.index(call[0]) <= DEFAULT_ORDER.index(passes[-1][-1][0]):
            passes.append([])
        passes[-1].append(call)
    return passes


class TestSchedule:
    def test_root_only_rules_wait_for_a_pass_that_changed_nothing(self, monkeypatch):
        deferred = 0
        for make in schedule_problems():
            p = make()
            bound = BoundState()
            with monkeypatch.context() as m:
                log = record_rule_calls(m, bound)
                report = run_reduction_loop(p, bound)
            final = (p.graph.version(), bound.best_value)
            passes = split_passes(log)
            assert len(passes) == report.passes
            at = 0  # the log position of the pass's first call
            for calls in passes:
                names = [name for name, *_ in calls]
                start = calls[0][1][0]
                for name, before, res, after in calls:
                    if name in ROOT_ONLY:  # no earlier call of the pass changed the graph
                        assert before[0] == start, name
                deferred += calls is not passes[-1] and not ROOT_ONLY <= set(names)
                # a rule of NODE_ORDER that a pass did not call had changed
                # nothing on the state of its turn: it waits for nothing
                for rule in set(NODE_ORDER) - set(names):
                    later = [i for i, name in enumerate(names, start=at)
                             if DEFAULT_ORDER.index(name) > DEFAULT_ORDER.index(rule)]
                    turn = later[0] if later else at + len(calls)
                    if turn == len(log) and report.solved:
                        continue  # the loop stopped when the problem was solved
                    state = log[turn][1] if turn < len(log) else final
                    last = [(res, after) for name, _, res, after in log[:turn] if name == rule]
                    assert last and last[-1] == ((0, 0), state), rule
                at += len(calls)
            if report.fixpoint:
                # the last pass changed nothing, so it offered every rule, and
                # none of the root-only rules could have been idle on its graph
                assert ROOT_ONLY <= {name for name, *_ in passes[-1]}
        assert deferred >= 100

    def test_deferring_changes_no_kernel_and_no_value(self, monkeypatch):
        # the old schedule, which offered the root-only rules every pass,
        # reaches kernels of the same size and bounds and the same optima
        results, root_only_calls = [], []
        log = record_rule_calls(monkeypatch)
        for root_only in (ROOT_ONLY, frozenset()):
            monkeypatch.setattr(mtcut.reductions, "ROOT_ONLY", root_only)
            got, calls = [], 0
            for make in schedule_problems():
                p = make()
                log.clear()
                run_reduction_loop(p, BoundState())
                calls += sum(name in ROOT_ONLY for name, *_ in log)
                got.append((p.graph.num_vertices, p.graph.num_edges, p.lower_bound,
                            p.deleted_weight, solve_prepared(make()).value))
            results.append(got)
            root_only_calls.append(calls)
        assert results[0] == results[1]
        assert root_only_calls[0] < root_only_calls[1]

    def test_no_rerun_on_a_seen_state_and_none_missed(self, monkeypatch):
        rng = random.Random(12)
        skipped = 0
        for _ in range(80):
            n, edges, terminals = random_instance(rng, n_min=6, n_max=12)
            p = make_problem(n, edges, terminals)
            bound = BoundState()
            log = record_rule_calls(monkeypatch, bound)
            report = run_reduction_loop(p, bound)
            last = {}
            for name, before, res, after in log:
                if name in last and last[name][0] == (0, 0):
                    # it changed nothing on that state, so it must not see it again
                    assert before != last[name][1], name
                last[name] = (res, after)
            if report.fixpoint:
                # every rule last ran on the final graph and changed nothing
                assert set(last) == set(DEFAULT_ORDER)
                for name, (res, after) in last.items():
                    assert res == (0, 0) and after[0] == p.graph.version(), name
            skipped += report.passes * len(DEFAULT_ORDER) - len(log)
        assert skipped > 0

    def test_connectivity_reruns_when_only_the_incumbent_falls(self, monkeypatch):
        # low_degree contracts in the first pass, before connectivity runs.
        # In the second pass it changes nothing but lowers the incumbent, so
        # connectivity meets the graph it has seen under a new incumbent.
        p = fixture_problem("F4")
        bound = BoundState()
        low_degree_calls = 0

        def low_degree(q):
            nonlocal low_degree_calls
            low_degree_calls += 1
            if low_degree_calls == 1:
                return reduce_low_degree(q)
            labels = q.project(fill=0)
            bound.improve(q.solution_value(labels), labels)
            return 0, 0

        seen = []

        def connectivity(q, best_value):
            seen.append((q.graph.version(), best_value))
            return 0, 0

        for func in RULE_FUNCTIONS.values():
            monkeypatch.setattr(mtcut.reductions, func, lambda q, *args: (0, 0))
        monkeypatch.setattr(mtcut.reductions, "reduce_low_degree", low_degree)
        monkeypatch.setattr(mtcut.reductions, "reduce_connectivity", connectivity)
        report = run_reduction_loop(p, bound)
        assert report.fixpoint and report.passes == 2
        assert bound.best_value < math.inf
        version = p.graph.version()
        assert seen == [(version, math.inf), (version, bound.best_value)]

    def test_defaults_run_all_nine_rules_and_an_order_picks_them(self, monkeypatch):
        assert len(DEFAULT_ORDER) == 9
        for order, kwargs in ((DEFAULT_ORDER, {}), (NODE_ORDER, {"order": NODE_ORDER})):
            p = Problem.from_instance(torus_graph(6, 6), (0, 15, 26))
            bound = BoundState()
            log = record_rule_calls(monkeypatch, bound)
            report = run_reduction_loop(p, bound, **kwargs)
            assert not report.solved
            # the first pass runs every rule of the order, in order, and no other
            assert [name for name, *_ in log[:len(order)]] == list(order)
            assert {name for name, *_ in log} == set(report.contracted) == set(order)

    def test_rule_parameters_have_one_default(self, monkeypatch):
        seen = []
        monkeypatch.setattr(mtcut.reductions, "reduce_equal_neighborhoods",
                            lambda q, limit: seen.append(("limit", limit)) or (0, 0))
        monkeypatch.setattr(mtcut.reductions, "reduce_non_terminal_flows",
                            lambda q, per_kind, deadline: seen.append(("per_kind", per_kind))
                            or (0, 0))
        order = ("equal_neighborhoods", "non_terminal_flows")
        for config in (None, SolverConfig()):
            run_reduction_loop(fixture_problem("F3"), BoundState(), config, order=order)
        expected = [("limit", NEIGHBORHOOD_LIMIT), ("per_kind", FLOW_CANDIDATES)]
        assert seen == expected + expected
        config = SolverConfig(neighborhood_limit=2)
        seen.clear()
        run_reduction_loop(fixture_problem("F3"), BoundState(), config, order=order)
        assert seen == [("limit", 2), ("per_kind", FLOW_CANDIDATES)]

    def test_pass_cut_short_by_the_deadline_is_no_fixpoint(self, monkeypatch):
        # the deadline passes while inter_terminal runs, before any other
        # rule had a turn: nothing changed, but nothing was shown idle either
        ran = []

        def inter_terminal(q):
            ran.append("inter_terminal")
            return delete_inter_terminal_edges(q)

        monkeypatch.setattr(mtcut.reductions, "delete_inter_terminal_edges", inter_terminal)
        monkeypatch.setattr(mtcut.reductions, "expired", lambda deadline: bool(ran))
        p = fixture_problem("F3")
        report = run_reduction_loop(p, BoundState(), deadline=time.monotonic() + 60)
        assert ran == ["inter_terminal"] and report.passes == 1
        assert not report.solved and p.graph.num_vertices == 4
        assert not report.fixpoint

    def test_complete_idle_pass_is_a_fixpoint(self):
        p = Problem.from_instance(torus_graph(6, 6), (0, 15, 26))
        report = run_reduction_loop(p, BoundState(), deadline=time.monotonic() + 600)
        assert not report.solved and report.fixpoint
