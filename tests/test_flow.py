import random

import pytest

import mtcut.flow
from helpers import brute_force_min_st_cut, fixture_graph, random_connected_graph
from mtcut import ContractableGraph, GraphError, isolating_bounds, isolating_cuts, max_flow_st
from mtcut.flow import HAVE_SCIPY, SCIPY_MIN_VERTICES, FlowNetwork, _dinic, _scipy_flow

IMPLEMENTATIONS = pytest.mark.parametrize("impl", [_dinic, _scipy_flow], ids=["python", "scipy"])


def run_implementation(impl, g, s, sinks):
    """(value, source side) of one flow implementation, bypassing the size dispatch."""
    if impl is _scipy_flow and not HAVE_SCIPY:
        pytest.skip("scipy not installed")
    comp = FlowNetwork(g).component(s)
    value, side = impl(comp, comp.index[s], sorted(comp.index[t] for t in sinks))
    return value, frozenset(comp.vertices[i] for i in side)


def random_flow_case(rng, **kwargs):
    n, edges = random_connected_graph(rng, **kwargs)
    s = rng.randrange(n)
    others = [v for v in range(n) if v != s]
    sinks = set(rng.sample(others, rng.randint(1, len(others))))
    return n, edges, s, sinks


def cycle(n, w=1):
    return ContractableGraph.from_edge_list(n, [(v, (v + 1) % n, w) for v in range(n)])


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
    @IMPLEMENTATIONS
    def test_value_matches_enumeration(self, impl):
        rng = random.Random(11)
        for _ in range(120):
            n, edges, s, sinks = random_flow_case(rng, n_min=3, n_max=10, m_max=25)
            g = ContractableGraph.from_edge_list(n, edges)
            value, side = run_implementation(impl, g, s, sinks)
            assert value == brute_force_min_st_cut(n, edges, s, sinks)
            assert s in side and not side & sinks
            assert sum(w for u, v, w in edges if (u in side) != (v in side)) == value

    def test_backends_agree_on_source_side(self):
        rng = random.Random(12)
        for _ in range(80):
            n, edges, s, sinks = random_flow_case(rng, n_min=3, n_max=12, m_max=30)
            g = ContractableGraph.from_edge_list(n, edges)
            assert run_implementation(_dinic, g, s, sinks) == \
                run_implementation(_scipy_flow, g, s, sinks)

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


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
class TestDispatch:
    def _scipy_calls(self, monkeypatch, g, s, sinks):
        calls = []
        real = mtcut.flow._scipy_maximum_flow

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mtcut.flow, "_scipy_maximum_flow", counting)
        max_flow_st(g, s, sinks)
        return len(calls)

    def test_threshold_picks_scipy(self, monkeypatch):
        n = SCIPY_MIN_VERTICES
        assert self._scipy_calls(monkeypatch, cycle(n - 1), 0, {n // 2}) == 0
        assert self._scipy_calls(monkeypatch, cycle(n), 0, {n // 2}) == 1

    def test_source_component_decides(self, monkeypatch):
        # a small component beside a large one runs the pure-Python flow
        n = SCIPY_MIN_VERTICES
        edges = [(v, (v + 1) % n, 1) for v in range(n)] + [(n, n + 1, 2), (n + 1, n + 2, 3)]
        g = ContractableGraph.from_edge_list(n + 3, edges)
        assert self._scipy_calls(monkeypatch, g, n, {n + 2, 0}) == 0
        assert self._scipy_calls(monkeypatch, g, 0, {n + 2, n // 2}) == 1

    def test_int32_overflow_runs_python(self, monkeypatch):
        g = cycle(SCIPY_MIN_VERTICES, w=2**24)
        assert self._scipy_calls(monkeypatch, g, 0, {5}) == 0
        assert max_flow_st(g, 0, {5}).value == 2 * 2**24


class TestFlowNetwork:
    def _assert_matches_one_shot(self, g, flows):
        net = FlowNetwork(g)
        for s, sinks in flows:
            assert max_flow_st(net, s, sinks) == max_flow_st(g, s, sinks)

    def test_many_sources_match_one_shot(self):
        rng = random.Random(15)
        for _ in range(40):
            n, edges = random_connected_graph(rng, n_min=4, n_max=12, m_max=30)
            g = ContractableGraph.from_edge_list(n, edges)
            sinks = set(rng.sample(range(n), rng.randint(1, 3)))
            self._assert_matches_one_shot(g, [(s, sinks) for s in range(n) if s not in sinks])

    def test_disconnected_graph(self):
        # two components; the sinks sit in the first, so sources in the
        # second get value 0 and their whole component as source side
        rng = random.Random(16)
        n1, e1 = random_connected_graph(rng, n_min=6, n_max=6)
        n2, e2 = random_connected_graph(rng, n_min=5, n_max=5)
        edges = e1 + [(u + n1, v + n1, w) for u, v, w in e2]
        g = ContractableGraph.from_edge_list(n1 + n2, edges)
        self._assert_matches_one_shot(g, [(s, {0, 3}) for s in range(n1 + n2) if s not in (0, 3)])
        net = FlowNetwork(g)
        for s in range(n1, n1 + n2):
            r = max_flow_st(net, s, {0, 3})
            assert r.value == 0 and r.source_side == frozenset(range(n1, n1 + n2))

    def test_large_component_matches_one_shot(self):
        # above the size threshold, with a different sink set per flow
        rng = random.Random(17)
        n = SCIPY_MIN_VERTICES + 50
        g = ContractableGraph.from_edge_list(
            *random_connected_graph(rng, n_min=n, n_max=n, m_max=3 * n))
        flows = []
        for _ in range(6):
            s, *sinks = rng.sample(range(n), rng.randint(2, 5))
            flows.append((s, set(sinks)))
        self._assert_matches_one_shot(g, flows)

    def test_changed_graph_is_refused(self):
        g = fixture_graph("F3")
        net = FlowNetwork(g)
        max_flow_st(net, 1, {2, 3})
        g.contract_vertices([1], 0)
        with pytest.raises(GraphError):
            max_flow_st(net, 2, {3})
