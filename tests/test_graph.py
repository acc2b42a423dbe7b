import random

import pytest

from helpers import (
    FIXTURES,
    adjacency_and_find,
    brute_force_opt,
    check_consistency,
    contract_randomly,
    fixture_graph,
    fixture_problem,
    fresh_isolating_cut,
    large_contraction_graphs,
    random_instance,
    stale_kept_cuts,
)
import mtcut.graph
from mtcut import (
    ContractableGraph,
    EdgeNotFound,
    GraphError,
    InfeasibleAssignment,
    IncompleteSolution,
    InvalidContraction,
    Problem,
    cut_value,
)
from mtcut.graph import HAVE_SCIPY, SCIPY_MIN_VERTICES, large_view


def test_fixture_optima_confirmed_by_oracle():
    for name, (n, edges, terminals, opt) in FIXTURES.items():
        assert brute_force_opt(n, edges, terminals)[0] == opt, name


class TestConstruction:
    def test_f1_degrees(self):
        g = fixture_graph("F1")
        assert g.weighted_degree(1) == 3
        assert (g.num_vertices, g.num_edges) == (3, 2)

    def test_duplicate_edges_merge(self):
        g = ContractableGraph.from_edge_list(2, [(0, 1, 1), (0, 1, 2)])
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 3

    def test_f2_unit_triangle(self):
        g = fixture_graph("F2")
        assert all(g.weighted_degree(v) == 2 for v in range(3))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            ContractableGraph.from_edge_list(2, [(1, 1, 1)])

    def test_rejects_bad_weights(self):
        with pytest.raises(GraphError):
            ContractableGraph.from_edge_list(2, [(0, 1, 0)])
        with pytest.raises(GraphError):
            ContractableGraph.from_edge_list(2, [(0, 1, -3)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            ContractableGraph.from_edge_list(2, [(0, 2, 1)])

    def test_rows_keep_first_edge_order(self):
        g = ContractableGraph.from_edge_list(
            4, [(2, 0, 1), (3, 2, 4), (0, 1, 2), (2, 0, 5), (1, 3, 1), (0, 3, 3)])
        assert adjacency_and_find(g)[0] == [
            (0, [(2, 6), (1, 2), (3, 3)]), (1, [(0, 2), (3, 1)]),
            (2, [(0, 6), (3, 4)]), (3, [(2, 4), (1, 1), (0, 3)])]
        assert g.num_edges == 5
        assert [g.weighted_degree(v) for v in range(4)] == [11, 3, 10, 8]
        check_consistency(g)

    def test_isolated_vertices(self):
        g = ContractableGraph.from_edge_list(6, [(0, 1, 1), (1, 2, 1), (4, 5, 2)])
        assert g.isolated_vertices() == [3]
        g.contract_vertices([5], 4)  # 4 loses its only edge; 5 is a tombstone
        g.delete_edge(0, 1)
        assert g.isolated_vertices() == [0, 3, 4]

    @pytest.mark.parametrize("n, edges, message", [
        (0, [], "graph needs at least one vertex"),
        (0, [(0, 1, 1)], "graph needs at least one vertex"),
        (3, [(0, 1, 1), (-1, 2, 1)], "edge (-1,2) out of range for n=3"),
        (3, [(0, 1, 1), (2, 2, 1)], "self-loop at vertex 2"),
        (3, [(0, 1, 1), (1, 2, 0), (0, 3, 1)], "edge (1,2) has non-positive weight 0"),
    ])
    def test_error_messages(self, n, edges, message):
        with pytest.raises(GraphError) as err:
            ContractableGraph.from_edge_list(n, iter(edges))
        assert str(err.value) == message


class TestContraction:
    def test_f1_contract(self):
        g = fixture_graph("F1")
        g.contract_vertices([1], 0)
        assert g.num_vertices == 2
        assert g.edge_weight(0, 2) == 1

    def test_f2_contract_merges_parallel(self):
        g = fixture_graph("F2")
        g.contract_vertices([1], 0)
        assert g.num_vertices == 2
        assert g.edge_weight(0, 2) == 2

    def test_f5_contract_twins(self):
        g = fixture_graph("F5")
        g.contract_vertices([2, 3], 2)
        assert g.num_vertices == 3
        assert g.edge_weight(0, 2) == 2
        assert g.edge_weight(1, 2) == 2

    def test_adjacent_and_non_adjacent_members_into_a_common_neighbor(self):
        # 0 is adjacent to 1 but not to 2; both 1 and 2 are adjacent to 3
        g = ContractableGraph.from_edge_list(
            5, [(0, 1, 2), (1, 3, 3), (2, 3, 4), (0, 3, 1), (2, 4, 5)])
        assert g.contract_vertices([2, 1], 0) == 2
        check_consistency(g)
        assert (g.num_vertices, g.num_edges) == (3, 2)
        assert g.neighbors(0) == {3: 8, 4: 5}
        assert g.weighted_degree(0) == 13 and g.weighted_degree(3) == 8
        assert g.find(1) == g.find(2) == 0

    def test_members_adjacent_to_each_other_and_to_into(self):
        # a triangle 0-1-2 merged whole: both of its inner edges are dropped
        g = ContractableGraph.from_edge_list(4, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 4)])
        assert g.contract_vertices([1, 2], 0) == 2
        check_consistency(g)
        assert (g.num_vertices, g.num_edges) == (2, 1)
        assert g.neighbors(0) == {3: 4} and g.weighted_degree(0) == 4

    def test_inter_terminal_contraction_rejected(self):
        p = fixture_problem("F1")
        p.graph.contract_vertices([1], 0)  # raw graph op: merge a into t1
        with pytest.raises(InvalidContraction):
            p.contract_set((0, 2), 0)

    def test_terminal_survives_by_default(self):
        p = fixture_problem("F1")
        p.contract_set((0, 1), 1)  # into the non-terminal: t1 still survives
        assert p.graph.is_live(0) and not p.graph.is_live(1)
        assert p.graph.find(1) == 0


class TestTerminals:
    def test_active_terminals_are_vertices_in_block_order(self):
        g = ContractableGraph.from_edge_list(
            6, [(5, 0, 1), (0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 1)])
        p = Problem.from_instance(g, (5, 1, 3))
        assert p.block_of == {5: 0, 1: 1, 3: 2}
        assert p.active_terminals() == [5, 1, 3]
        p.delete_edge(5, 0)
        assert p.refresh_active() == 1
        assert p.active_terminals() == [1, 3]
        assert p.block_of == {5: 0, 1: 1, 3: 2}
        assert p.copy().active_terminals() == [1, 3]


class TestDeletion:
    def test_f1_delete_disconnects(self):
        p = fixture_problem("F1")
        p.delete_edge(1, 2)
        assert p.deleted_weight == 1
        assert p.graph.num_edges == 1
        assert p.graph.degree(2) == 0

    def test_f2_delete_leaves_path(self):
        g = fixture_graph("F2")
        g.delete_edge(0, 1)
        assert g.num_edges == 2
        assert g.degree(0) == 1 and g.degree(1) == 1

    def test_terminal_k2(self):
        g = ContractableGraph.from_edge_list(2, [(0, 1, 7)])
        p = Problem.from_instance(g, (0, 1))
        p.delete_edge(0, 1)
        assert p.deleted_weight == 7
        assert p.graph.num_edges == 0

    def test_loose_weight_counts_deletions_not_between_two_terminals(self):
        # F3 (center 0, terminals 1, 2, 3): 0-2 has a non-terminal end, and
        # 1-2 joins two terminals once the center is merged into 1
        p = fixture_problem("F3")
        p.delete_edge(0, 2)
        assert (p.deleted_weight, p.loose_weight) == (1, 1)
        c = p.copy()
        c.contract_set((0,), 1)
        c.delete_edge(1, 3)
        assert (c.deleted_weight, c.loose_weight) == (2, 1)
        assert (p.deleted_weight, p.loose_weight) == (1, 1)

    def test_delete_missing(self):
        g = fixture_graph("F1")
        with pytest.raises(EdgeNotFound):
            g.delete_edge(0, 2)


class TestContractSet:
    def test_f1_pair(self):
        g = fixture_graph("F1")
        g.contract_vertices([0, 1], 0)
        assert g.num_vertices == 2 and g.edge_weight(0, 2) == 1

    def test_f4_pendant_cycle(self):
        g = fixture_graph("F4")
        g.contract_vertices([1, 3, 4], 1)
        assert g.num_vertices == 3
        assert g.edge_weight(0, 1) == 1 and g.edge_weight(1, 2) == 1
        assert not g.has_edge(0, 2)

    def test_singleton_identity(self):
        g = fixture_graph("F1")
        g.contract_vertices([1], 1)
        assert g.num_vertices == 3

    def test_two_terminals_rejected(self):
        p = fixture_problem("F2")
        with pytest.raises(InvalidContraction):
            p.contract_set([0, 1], 0)

    def test_disconnected_set_merges_by_label(self):
        g = ContractableGraph.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
        g.contract_vertices([0, 2], 0)
        assert g.num_vertices == 3
        assert g.edge_weight(0, 1) == 1 and g.edge_weight(0, 3) == 1


def star_with_kept_cuts() -> Problem:
    """F3 (center 0; terminals 1, 2, 3 at weights 3, 1, 1) with every
    terminal's isolating cut kept: sides {0, 1}, {2} and {3}."""
    p = fixture_problem("F3")
    cuts = p.kept_cuts()
    for t in p.active_terminals():
        cuts[t] = fresh_isolating_cut(p, t)
    assert {t: set(r.source_side) for t, r in cuts.items()} == {1: {0, 1}, 2: {2}, 3: {3}}
    return p


def path_with_kept_cuts(extra=()) -> Problem:
    """Terminals 0, 1, 2 on the path 0-3-4 (weights 4) with 4-1 and 4-2
    (weights 1), plus ``extra`` edges, with every terminal's isolating cut
    kept; without extras the sides are {0, 3, 4}, {1} and {2}."""
    edges = [(0, 3, 4), (3, 4, 4), (4, 1, 1), (4, 2, 1), *extra]
    p = Problem.from_instance(ContractableGraph.from_edge_list(5, edges), (0, 1, 2))
    cuts = p.kept_cuts()
    for t in p.active_terminals():
        cuts[t] = fresh_isolating_cut(p, t)
    assert set(cuts[0].source_side) == {0, 3, 4}
    return p


class TestKeptCuts:
    def test_contraction_keeps_the_sides_it_does_not_split(self):
        p = star_with_kept_cuts()
        kept = dict(p.kept_cuts())
        p.contract_set((0,), 1)  # inside 1's side, outside the others
        assert p.kept_cuts() == kept and stale_kept_cuts(p) == []

    def test_contraction_drops_the_sides_it_splits(self):
        p = star_with_kept_cuts()
        p.contract_set((0,), 2)  # splits {0, 1} and {2}
        assert set(p.kept_cuts()) == {3}
        assert stale_kept_cuts(p) == []

    def test_terminal_edge_deletion_lowers_both_ends(self):
        p = star_with_kept_cuts()
        p.contract_set((0,), 1)
        before = dict(p.kept_cuts())
        p.delete_edge(1, 2)
        cuts = p.kept_cuts()
        assert (cuts[1].value, cuts[2].value) == (before[1].value - 1, before[2].value - 1)
        assert cuts[3] is before[3]
        assert stale_kept_cuts(p) == []

    def test_other_deletion_keeps_the_cuts_it_crosses(self):
        # 0-2 crosses {0, 1} and {2}, which lose its weight; {3} holds
        # neither end, so 3's cut could have fallen and is dropped
        p = star_with_kept_cuts()
        p.delete_edge(0, 2)
        assert {t: (r.value, set(r.source_side)) for t, r in p.kept_cuts().items()} == \
            {1: (1, {0, 1}), 2: (0, {2})}
        assert stale_kept_cuts(p) == []

    def test_copy_shares_the_entries_not_the_map(self):
        p = star_with_kept_cuts()
        c = p.copy()
        assert c.kept_cuts() is not p.kept_cuts()
        assert all(c.kept_cuts()[t] is r for t, r in p.kept_cuts().items())
        before = dict(p.kept_cuts())
        c.delete_edge(0, 2)
        assert {t: (r.value, set(r.source_side)) for t, r in c.kept_cuts().items()} == \
            {1: (1, {0, 1}), 2: (0, {2})}
        assert p.kept_cuts() == before and len(before) == 3

    def test_deletion_crossing_a_larger_side(self):
        # 0's side {0, 3, 4} (value 2) holds the non-terminal end of 4-1,
        # 1's side {1} its terminal end: both stay, lowered by 1; 4-1 has
        # no end in 2's side {2}, which is dropped
        p = path_with_kept_cuts()
        p.delete_edge(4, 1)
        assert {t: (r.value, set(r.source_side)) for t, r in p.kept_cuts().items()} == \
            {0: (1, {0, 3, 4}), 1: (0, {1})}
        assert stale_kept_cuts(p) == []

    def test_deletion_inside_a_side_crosses_none(self):
        # 3-4 lies inside 0's side and outside the others: no cut is kept
        p = path_with_kept_cuts()
        p.delete_edge(3, 4)
        assert p.kept_cuts() == {}
        assert stale_kept_cuts(p) == []

    def test_deletion_between_two_other_terminals(self):
        # 1-2 lowers 1's and 2's cuts by 3 and leaves 0's entry as it is
        p = path_with_kept_cuts(extra=[(1, 2, 3)])
        before = dict(p.kept_cuts())
        p.delete_edge(1, 2)
        cuts = p.kept_cuts()
        assert cuts[0] is before[0]
        assert {t: (cuts[t].value, set(cuts[t].source_side)) for t in (1, 2)} == \
            {1: (1, {1}), 2: (1, {2})}
        assert stale_kept_cuts(p) == []

    def test_mutation_behind_the_problem_empties_the_map(self):
        for mutate in (lambda g: g.contract_vertices([0], 1), lambda g: g.delete_edge(0, 1)):
            p = star_with_kept_cuts()
            mutate(p.graph)
            assert p.kept_cuts() == {}


class TestCutValue:
    def test_f1(self):
        g = fixture_graph("F1")
        assert cut_value(g, (0, 2), [0, 0, 1]) == 1

    def test_f2_forced(self):
        g = fixture_graph("F2")
        assert cut_value(g, (0, 1, 2), [0, 1, 2]) == 3

    def test_f3_center_with_t1(self):
        g = fixture_graph("F3")
        assert cut_value(g, (1, 2, 3), [0, 0, 1, 2]) == 2

    def test_mislabeled_terminal(self):
        g = fixture_graph("F1")
        with pytest.raises(InfeasibleAssignment):
            cut_value(g, (0, 2), [1, 0, 1])

    def test_label_out_of_range(self):
        g = fixture_graph("F1")
        with pytest.raises(InfeasibleAssignment):
            cut_value(g, (0, 2), [0, 5, 1])


class TestProjection:
    def test_after_contraction(self):
        p = fixture_problem("F1")
        p.contract_set((0, 1), 0)
        labels = p.project({0: 0, 2: 1})
        assert labels == [0, 0, 1]

    def test_identity(self):
        p = fixture_problem("F1")
        assert p.project({0: 0, 1: 0, 2: 1}) == [0, 0, 1]

    def test_f4_articulation_trace(self):
        p = fixture_problem("F4")
        p.contract_set([1, 3, 4], 1)
        labels = p.project({0: 0, 1: 1, 2: 1})
        assert labels == [0, 1, 1, 1, 1]

    def test_missing_label_raises(self):
        p = fixture_problem("F1")
        with pytest.raises(IncompleteSolution):
            p.project({0: 0})

    def test_fill_labels_unlabelled_non_terminals(self):
        p = fixture_problem("F3")  # star: centre 0, terminals 1, 2, 3
        assert p.project(fill=2) == [2, 0, 1, 2]
        assert p.project({0: 1}, fill=2) == [1, 0, 1, 2]

    def test_terminal_keeps_its_block_under_any_fill(self):
        p = fixture_problem("F1")
        p.contract_set((0, 1), 0)
        for fill in (0, 1):
            assert p.project(fill=fill) == [0, 0, 1]

    def test_inactive_isolated_terminal_keeps_its_block(self):
        p = fixture_problem("F3")
        p.delete_edge(0, 3)
        assert p.refresh_active() == 1 and not p.active[2]
        assert p.project(fill=0) == [0, 0, 1, 2]


def scoring_problems():
    """Problems on graphs where ``large_view`` applies, contracted by
    random sets, and their original graphs' views."""
    rng = random.Random(28)
    out = []
    for g, terminals in large_contraction_graphs(rng):
        p = Problem.from_instance(g, terminals)
        for _ in range(rng.randint(5, 40)):
            contract_randomly(rng, p.graph, protected=p.block_of)
        assert large_view(p.original) is not None
        out.append((rng, p))
    return out


def scores(rng, p):
    """Labels from each kind of projection, the exceptions of infeasible
    projections and assignments, and every cut value and message."""
    k = p.k
    live = list(p.graph.live_vertices())
    labelings = [p.project(fill=b) for b in range(k)]
    labelings.append(p.project({v: rng.randrange(k) for v in live}))
    labelings.append(p.project({v: rng.randrange(k) for v in live[::3]}, fill=k - 1))
    out = [labelings, [p.solution_value(labels) for labels in labelings]]
    free = [v for v in live if v not in p.block_of]
    for kernel in ({}, {v: 0 for v in free[1:]}):
        with pytest.raises(IncompleteSolution) as exc:
            p.project(kernel)
        out.append(str(exc.value))
    bad = labelings[-1]
    t = rng.choice(p.terminal_vertices)
    v = rng.choice([x for x in range(len(bad)) if x not in p.block_of])
    for change in ((t, (bad[t] + 1) % k), (v, k), (v, -1), (t, k)):
        labels = list(bad)
        labels[change[0]] = change[1]
        with pytest.raises(InfeasibleAssignment) as exc:
            p.solution_value(labels)
        out.append(str(exc.value))
    with pytest.raises(InfeasibleAssignment) as exc:
        p.solution_value(bad[:-1])
    out.append(str(exc.value))
    return out


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
class TestScoringOnArrays:
    """Where ``large_view`` applies, projection and cut value run on arrays;
    they must give what the dict code gives and raise as it raises."""

    def test_array_and_dict_paths_agree(self, monkeypatch):
        for rng, p in scoring_problems():
            state = rng.getstate()
            with monkeypatch.context() as m:
                m.setattr(ContractableGraph, "cut_value", None)  # no dict sum
                got = scores(rng, p)
            rng.setstate(state)
            with monkeypatch.context() as m:
                m.setattr(mtcut.graph, "large_view", lambda g: None)
                m.setattr(ContractableGraph, "find_all", None)  # no array find
                assert scores(rng, p) == got
            assert len(set(got[1])) > 1

    def test_inexact_weights_sum_on_the_dicts(self):
        n = SCIPY_MIN_VERTICES + 100
        edges = [(v, v + 1, 2**52 if v == 7 else 1) for v in range(n - 1)]
        g = ContractableGraph.from_edge_list(n, edges)
        p = Problem.from_instance(g, (0, n - 1))
        assert large_view(g) is None
        labels = p.project(fill=1)
        assert labels == [0] + [1] * (n - 1)
        assert p.solution_value(labels) == 1
        assert p.solution_value([0] * 8 + [1] * (n - 8)) == 2**52


class TestProperties:
    """Randomized invariants over contraction/deletion sequences."""

    def test_contraction_soundness(self):
        # merging two non-terminal-separating endpoints preserves the cut
        # value of any assignment that keeps them together
        rng = random.Random(1)
        for _ in range(100):
            n, edges, terminals = random_instance(rng, n_min=4, n_max=8)
            opt, labels = brute_force_opt(n, edges, terminals)
            p = Problem.from_instance(
                ContractableGraph.from_edge_list(n, edges), terminals)
            same = [(u, v) for u, v, _ in p.graph.edges()
                    if labels[u] == labels[v]]
            if not same:
                continue
            u, v = same[rng.randrange(len(same))]
            p.contract_set((u, v), u)
            kernel = {x: labels[x] for x in p.graph.live_vertices()}
            projected = p.project(kernel)
            assert cut_value(p.original, terminals, projected) == \
                cut_value(p.original, terminals, labels)

    def test_deletion_accounting(self):
        rng = random.Random(2)
        for _ in range(100):
            n, edges, terminals = random_instance(rng, n_min=4, n_max=8)
            g = ContractableGraph.from_edge_list(n, edges)
            opt, labels = brute_force_opt(n, edges, terminals)
            cut_edges = [(u, v, w) for u, v, w in edges if labels[u] != labels[v]]
            if not cut_edges:
                continue
            u, v, w = cut_edges[rng.randrange(len(cut_edges))]
            before = cut_value(g, terminals, labels)
            g.delete_edge(u, v)
            assert g.cut_value(labels) + w == before

    def test_weighted_degree_consistency(self):
        rng = random.Random(3)
        for _ in range(60):
            n, edges, _ = random_instance(rng, n_min=5, n_max=10)
            g = ContractableGraph.from_edge_list(n, edges)
            for _ in range(rng.randrange(1, n)):
                ops = list(g.edges())
                if not ops:
                    break
                u, v, _ = ops[rng.randrange(len(ops))]
                if rng.random() < 0.5:
                    g.contract_vertices([v], u)
                else:
                    g.delete_edge(u, v)
                check_consistency(g)

    def test_projection_feasible_after_contractions(self):
        rng = random.Random(4)
        for _ in range(60):
            n, edges, terminals = random_instance(rng, n_min=5, n_max=10)
            p = Problem.from_instance(
                ContractableGraph.from_edge_list(n, edges), terminals)
            troots = p.block_of
            for _ in range(rng.randrange(1, n)):
                candidates = [(u, v) for u, v, _ in p.graph.edges()
                              if not (u in troots and v in troots)]
                if not candidates:
                    break
                u, v = candidates[rng.randrange(len(candidates))]
                p.contract_set((u, v), u)
            kernel = {v: troots.get(v, 0) for v in p.graph.live_vertices()}
            labels = p.project(kernel)
            cut_value(p.original, terminals, labels)  # raises if infeasible
