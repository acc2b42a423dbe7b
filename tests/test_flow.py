import random

import pytest

from helpers import brute_force_min_st_cut, fixture_graph, random_connected_graph
from mtcut import ContractableGraph, GraphError, isolating_bounds, isolating_cuts, max_flow_st
from mtcut.flow import HAVE_SCIPY

# Weights scaled by 2**30 push the super-sink capacity past int32, which
# sends the flow to the pure-Python implementation instead of scipy's.
BIG = 2**30


class TestExamples:
    def test_f1(self):
        g = fixture_graph("F1")
        r = max_flow_st(g, 0, {2})
        assert r.value == 1
        assert set(r.source_side) == {0, 1}

    def test_f2(self):
        g = fixture_graph("F2")
        r = max_flow_st(g, 0, {1, 2})
        assert r.value == 2
        assert set(r.source_side) == {0}

    def test_f3_from_center(self):
        g = fixture_graph("F3")
        r = max_flow_st(g, 0, {1, 2, 3})
        assert r.value == 5
        assert set(r.source_side) == {0}

    def test_f3_isolating_t1_takes_center(self):
        # the cheapest way to isolate t1 cuts the two unit edges, so the
        # largest source side is {t1, center}, value 2
        g = fixture_graph("F3")
        r = max_flow_st(g, 1, {2, 3})
        assert r.value == 2
        assert set(r.source_side) == {0, 1}

    def test_disconnected_source(self):
        g = ContractableGraph.from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
        r = max_flow_st(g, 0, {2})
        assert r.value == 0
        assert set(r.source_side) == {0, 1}

    def test_argument_validation(self):
        g = fixture_graph("F1")
        with pytest.raises(GraphError):
            max_flow_st(g, 0, set())
        with pytest.raises(GraphError):
            max_flow_st(g, 0, {0, 2})


class TestIsolatingCuts:
    def test_f2_symmetric(self):
        g = fixture_graph("F2")
        res = isolating_cuts(g, (0, 1, 2))
        assert [r.value for r in res] == [2, 2, 2]

    def test_f1(self):
        g = fixture_graph("F1")
        res = isolating_cuts(g, (0, 2))
        assert [r.value for r in res] == [1, 1]
        assert set(res[0].source_side) == {0, 1}

    def test_f3(self):
        g = fixture_graph("F3")
        res = isolating_cuts(g, (1, 2, 3))
        assert [r.value for r in res] == [2, 1, 1]
        assert set(res[0].source_side) == {0, 1}

    def test_requires_two_terminals(self):
        with pytest.raises(GraphError):
            isolating_cuts(fixture_graph("F1"), (0,))


class TestBounds:
    def test_f2(self):
        res = isolating_cuts(fixture_graph("F2"), (0, 1, 2))
        assert isolating_bounds(res) == (3, 4)

    def test_f1_solved_by_bounds(self):
        res = isolating_cuts(fixture_graph("F1"), (0, 2))
        assert isolating_bounds(res) == (1, 1)

    def test_f3_tight(self):
        res = isolating_cuts(fixture_graph("F3"), (1, 2, 3))
        assert isolating_bounds(res) == (2, 2)


class TestAgainstEnumeration:
    # each case is named after the implementation its scale selects
    @pytest.mark.parametrize("scale", [BIG, 1], ids=["python", "scipy"])
    def test_value_matches_enumeration(self, scale):
        rng = random.Random(11)
        for _ in range(120):
            n, edges = random_connected_graph(rng, n_min=3, n_max=10, m_max=25)
            edges = [(u, v, w * scale) for u, v, w in edges]
            g = ContractableGraph.from_edge_list(n, edges)
            s = rng.randrange(n)
            others = [v for v in range(n) if v != s]
            sinks = set(rng.sample(others, rng.randint(1, len(others))))
            expect = brute_force_min_st_cut(n, edges, s, sinks)
            r = max_flow_st(g, s, sinks)
            assert r.value == expect

    def test_backends_agree_on_source_side(self):
        if not HAVE_SCIPY:
            pytest.skip("scipy not installed")
        rng = random.Random(12)
        for _ in range(80):
            n, edges = random_connected_graph(rng, n_min=3, n_max=12, m_max=30)
            g = ContractableGraph.from_edge_list(n, edges)
            big = ContractableGraph.from_edge_list(n, [(u, v, w * BIG) for u, v, w in edges])
            s = rng.randrange(n)
            others = [v for v in range(n) if v != s]
            sinks = set(rng.sample(others, rng.randint(1, len(others))))
            a = max_flow_st(big, s, sinks)
            b = max_flow_st(g, s, sinks)
            assert a.value == b.value * BIG
            assert a.source_side == b.source_side

    def test_source_side_is_maximal_cut(self):
        rng = random.Random(13)
        for _ in range(80):
            n, edges = random_connected_graph(rng, n_min=3, n_max=10, m_max=25)
            g = ContractableGraph.from_edge_list(n, edges)
            s = rng.randrange(n)
            others = [v for v in range(n) if v != s]
            sinks = set(rng.sample(others, rng.randint(1, len(others))))
            r = max_flow_st(g, s, sinks)
            side = set(r.source_side)
            assert s in side and not side & sinks
            w = sum(w for u, v, w in edges if (u in side) != (v in side))
            assert w == r.value
            for x in range(n):
                if x in side or x in sinks:
                    continue
                bigger = side | {x}
                w2 = sum(w for u, v, w in edges if (u in bigger) != (v in bigger))
                assert w2 > r.value

    def test_relabeling_invariance(self):
        rng = random.Random(14)
        for _ in range(40):
            n, edges = random_connected_graph(rng, n_min=4, n_max=10)
            perm = list(range(n))
            rng.shuffle(perm)
            g1 = ContractableGraph.from_edge_list(n, edges)
            g2 = ContractableGraph.from_edge_list(
                n, [(perm[u], perm[v], w) for u, v, w in edges])
            s = rng.randrange(n)
            others = [v for v in range(n) if v != s]
            sinks = set(rng.sample(others, rng.randint(1, len(others))))
            r1 = max_flow_st(g1, s, sinks)
            r2 = max_flow_st(g2, perm[s], {perm[t] for t in sinks})
            assert r1.value == r2.value
            assert {perm[v] for v in r1.source_side} == set(r2.source_side)
