import random

from helpers import (
    FIXTURES,
    brute_force_opt,
    fixture_graph,
    gains_from_scratch,
    random_connected_graph,
    random_instance,
)
from mtcut import ContractableGraph, cut_value, max_flow_st, refine
from mtcut.bench import generate_terminals, grow_terminal_blocks
from mtcut.localsearch import GainTable, kl_pass, pairwise_flow_refine


class TestGainTable:
    def test_f3_gain_and_move(self):
        g = fixture_graph("F3")
        labels = [1, 0, 1, 2]  # center sits with t2
        table = GainTable(g, labels, 3)
        gain, target = table.best_move(0)
        assert (gain, target) == (2, 0)
        before = cut_value(g, (1, 2, 3), labels)
        table.move(0, target)
        assert cut_value(g, (1, 2, 3), labels) == before - gain == 2

    def test_incremental_equals_scratch(self):
        rng = random.Random(21)
        for _ in range(50):
            n, edges, terminals = random_instance(rng, n_min=4, n_max=10)
            g = ContractableGraph.from_edge_list(n, edges)
            k = len(terminals)
            labels = [rng.randrange(k) for _ in range(n)]
            for i, t in enumerate(terminals):
                labels[t] = i
            table = GainTable(g, labels, k)
            movable = [v for v in range(n) if v not in terminals]
            if not movable:
                continue
            for _ in range(15):
                v = rng.choice(movable)
                table.move(v, rng.randrange(k))
                scratch = gains_from_scratch(table)
                for u in range(n):
                    assert table.best_move(u) == scratch[u]


class TestKlPass:
    def test_f3_single_move(self):
        g = fixture_graph("F3")
        labels = [1, 0, 1, 2]
        table = GainTable(g, labels, 3)
        gain = kl_pass(table, {1, 2, 3})
        assert gain == 2
        assert labels[0] == 0

    def test_optimal_assignment_value_stable(self):
        rng = random.Random(22)
        for _ in range(40):
            n, edges, terminals = random_instance(rng, n_min=4, n_max=9)
            opt, labels = brute_force_opt(n, edges, terminals)
            g = ContractableGraph.from_edge_list(n, edges)
            table = GainTable(g, list(labels), len(terminals))
            kl_pass(table, set(terminals))
            assert cut_value(g, terminals, table.labels) == opt

    def test_pair_move(self):
        # u and v sit with t1, both gain -1 alone, together they gain 2
        edges = [(0, 2, 1), (0, 3, 1), (2, 3, 2), (1, 2, 2), (1, 3, 2)]
        g = ContractableGraph.from_edge_list(4, edges)
        labels = [0, 1, 0, 0]
        table = GainTable(g, labels, 2)
        assert table.best_move(2) == (-1, 1)
        assert table.best_move(3) == (-1, 1)
        before = cut_value(g, (0, 1), labels)
        gain = kl_pass(table, {0, 1})
        assert gain == 2
        assert labels[2] == 1 and labels[3] == 1
        assert cut_value(g, (0, 1), labels) == before - 2

    def test_terminals_never_move(self):
        g = fixture_graph("F2")
        labels = [0, 1, 2]
        table = GainTable(g, labels, 3)
        kl_pass(table, {0, 1, 2})
        assert labels == [0, 1, 2]


class TestPairwiseFlow:
    def test_bad_boundary_drops_to_min_cut(self):
        # path t1 - a - b - t2 cut at the weight-5 edge; the flow fixes it
        g = ContractableGraph.from_edge_list(4, [(0, 1, 1), (1, 2, 5), (2, 3, 1)])
        labels = [0, 0, 1, 1]
        assert cut_value(g, (0, 3), labels) == 5
        changed = pairwise_flow_refine(g, (0, 3), labels, 0, 1)
        assert changed
        assert cut_value(g, (0, 3), labels) == 1

    def test_minimum_boundary_stays_minimum(self):
        g = fixture_graph("F1")
        labels = [0, 0, 1]
        pairwise_flow_refine(g, (0, 2), labels, 0, 1)
        assert cut_value(g, (0, 2), labels) == 1

    def test_non_adjacent_blocks_skipped(self):
        g = ContractableGraph.from_edge_list(5, [(0, 2, 1), (2, 1, 1), (3, 4, 1),
                                                 (2, 3, 1)])
        labels = [0, 1, 1, 2, 2]
        snapshot = list(labels)
        changed = pairwise_flow_refine(g, (0, 1, 3), labels, 0, 2)
        assert not changed and labels == snapshot

    def test_never_increases(self):
        rng = random.Random(23)
        for _ in range(60):
            n, edges, terminals = random_instance(rng, n_min=4, n_max=10)
            g = ContractableGraph.from_edge_list(n, edges)
            k = len(terminals)
            labels = [rng.randrange(k) for _ in range(n)]
            for i, t in enumerate(terminals):
                labels[t] = i
            before = cut_value(g, terminals, labels)
            i, j = sorted(rng.sample(range(k), 2))
            pairwise_flow_refine(g, terminals, labels, i, j)
            assert cut_value(g, terminals, labels) <= before


class TestRefine:
    def test_monotone_and_feasible(self):
        rng = random.Random(24)
        for _ in range(60):
            n, edges, terminals = random_instance(rng, n_min=4, n_max=10)
            g = ContractableGraph.from_edge_list(n, edges)
            k = len(terminals)
            labels = [rng.randrange(k) for _ in range(n)]
            for i, t in enumerate(terminals):
                labels[t] = i
            before = cut_value(g, terminals, labels)
            out, value = refine(g, terminals, labels, seed=1)
            assert value == cut_value(g, terminals, out) <= before

    def test_reaches_optimum_on_fixtures(self):
        rng = random.Random(25)
        for name, (n, edges, terminals, opt) in FIXTURES.items():
            g = ContractableGraph.from_edge_list(n, edges)
            k = len(terminals)
            hit = 0
            for trial in range(40):
                labels = [rng.randrange(k) for _ in range(n)]
                for i, t in enumerate(terminals):
                    labels[t] = i
                _, value = refine(g, terminals, labels, seed=trial)
                hit += value == opt
            assert hit >= 38, name

    def test_already_optimal_unchanged_value(self):
        for name, (n, edges, terminals, opt) in FIXTURES.items():
            _, labels = brute_force_opt(n, edges, terminals)
            g = ContractableGraph.from_edge_list(n, edges)
            _, value = refine(g, terminals, labels, seed=0)
            assert value == opt, name

    def test_two_terminals_reach_max_flow_optimum(self):
        rng = random.Random(26)
        for _ in range(30):
            n, edges, terminals = random_instance(rng, n_min=4, n_max=10, ks=(2,))
            g = ContractableGraph.from_edge_list(n, edges)
            best = max_flow_st(g, terminals[0], {terminals[1]}).value
            labels = [rng.randrange(2) for _ in range(n)]
            for i, t in enumerate(terminals):
                labels[t] = i
            _, value = refine(g, terminals, labels, seed=3)
            assert value == best

    def test_grown_instance(self):
        # grown blocks leave contracted-away vertices in the problem's
        # original graph; refine must leave them with their terminals
        rng = random.Random(27)
        improved = 0
        for trial in range(30):
            n, edges = random_connected_graph(rng, n_min=20, n_max=35, m_max=90)
            g = ContractableGraph.from_edge_list(n, edges)
            terminals = generate_terminals(g, 4, seed=trial)
            p = grow_terminal_blocks(g, terminals, 0.3)
            labels = p.project(fill=0)
            before = p.solution_value(labels)
            out, value = refine(p.original, p.terminal_vertices, labels,
                                p.anchor_sets(), seed=trial)
            assert value == cut_value(g, terminals, out) <= before
            improved += value < before
        assert improved > 0
