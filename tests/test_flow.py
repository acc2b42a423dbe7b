import random
import signal
from types import SimpleNamespace

import numpy as np
import pytest

import mtcut.flow
import mtcut.solver
from helpers import (assert_same_view, brute_force_min_st_cut, contract_randomly,
                     count_view_builds, fixture_graph, hanging_tree_graph,
                     large_contraction_graphs, random_connected_graph, random_nm_edges,
                     torus_graph)
from mtcut import (ContractableGraph, FlowResult, GraphError, isolating_bounds, isolating_cuts,
                   max_flow_st)
from mtcut.bench import generate_terminals, grow_terminal_blocks
from mtcut.flow import FlowNetwork, _Component, _dinic, _scipy_flow
from mtcut.graph import HAVE_SCIPY, SCIPY_MIN_VERTICES, ArrayView, BoundState, Problem, large_view
from mtcut.reductions import run_reduction_loop
from mtcut.solver import solve_prepared

IMPLEMENTATIONS = pytest.mark.parametrize("impl", [_dinic, _scipy_flow], ids=["python", "scipy"])


def view_component(g, v):
    """``v``'s component taken from ``g``'s array view, at any size."""
    view = g.array_view()
    return _Component.from_view(view, view.labels[view.index[v]])


def run_implementation(impl, g, s, sinks):
    """(value, source side) of one flow implementation, bypassing the size
    dispatch: the pure-Python flow on a component built by BFS, scipy's on
    one taken from the array view."""
    if impl is _scipy_flow:
        if not HAVE_SCIPY:
            pytest.skip("scipy not installed")
        comp = view_component(g, s)
    else:
        comp = _Component(g, s)
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


def random_terminals(rng, n):
    """A source and 2-8 sinks."""
    s, *sinks = rng.sample(range(n), rng.randint(3, 9))
    return s, set(sinks)


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

    @IMPLEMENTATIONS
    def test_flow_back_over_a_saturated_arc(self, impl):
        # found by random search: a later phase sends flow back over an arc
        # that an earlier phase saturated, and the last search must see the
        # reverse arc it frees; {9} alone is also a minimum side
        edges = [(0, 3, 3), (0, 5, 8), (0, 6, 7), (4, 7, 8), (6, 8, 6), (8, 9, 6), (1, 12, 1),
                 (5, 9, 9), (4, 5, 4), (1, 10, 9), (0, 7, 8), (0, 12, 4), (2, 10, 6), (2, 11, 6)]
        g = ContractableGraph.from_edge_list(13, edges)
        assert run_implementation(impl, g, 9, {3, 7, 11}) == (15, {8, 9})

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_backends_agree_beyond_one_machine_word(self):
        # random m = 3n graphs and tori of 65-400 vertices, whose masks span
        # several machine words
        rng = random.Random(18)
        for _ in range(12):
            n = rng.randint(65, 400)
            g = ContractableGraph.from_edge_list(n, random_nm_edges(rng, n, 3 * n))
            s, sinks = random_terminals(rng, n)
            assert run_implementation(_dinic, g, s, sinks) == \
                run_implementation(_scipy_flow, g, s, sinks)
        for _ in range(12):
            width = rng.randint(9, 20)
            height = rng.randint(-(-65 // width), 400 // width)
            g = torus_graph(width, height)
            s, sinks = random_terminals(rng, width * height)
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


class TestPreflow:
    """The pure-Python flow first pushes flow along the residual paths s→t,
    s→u→t and s→u→y→t (t a sink), then its phases finish from that flow;
    each case pins (value, largest source side) on both implementations."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # masks that disagree with the residual dicts can make the phases
        # loop forever: fail the test instead
        def expire(signum, frame):
            raise TimeoutError("the flow did not finish in 20 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 20)
        yield
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    @IMPLEMENTATIONS
    def test_arc_straight_to_a_sink(self, impl):
        # 0→1 is saturated at once, then 0→2→1 carries 1 of 0–2's 2
        g = ContractableGraph.from_edge_list(3, [(0, 1, 3), (0, 2, 2), (2, 1, 1)])
        assert run_implementation(impl, g, 0, {1}) == (4, {0, 2})

    @IMPLEMENTATIONS
    def test_sink_arcs_above_and_below_the_source_arc(self, impl):
        # 1's sink arcs (3 + 4) exceed its source arc (2), 4's (1 + 1) fall
        # short of its source arc (5); 2 more of 4's leave over 4→1 on
        # three-arc paths
        edges = [(0, 1, 2), (1, 2, 3), (1, 3, 4), (0, 4, 5), (4, 2, 1), (4, 3, 1), (1, 4, 2)]
        g = ContractableGraph.from_edge_list(5, edges)
        assert run_implementation(impl, g, 0, {2, 3}) == (6, {0, 4})

    @IMPLEMENTATIONS
    def test_neighbour_of_several_sinks(self, impl):
        edges = [(0, 1, 6), (1, 2, 1), (1, 3, 2), (1, 4, 2), (0, 5, 1), (5, 4, 3)]
        g = ContractableGraph.from_edge_list(6, edges)
        assert run_implementation(impl, g, 0, {2, 3, 4}) == (6, {0, 1})

    @IMPLEMENTATIONS
    def test_three_arc_paths_sharing_a_middle_arc(self, impl):
        # 0→1→2→3 takes 2 of 1–2's 3, so 0→1→2→4 may take only 1
        edges = [(0, 1, 5), (1, 2, 3), (2, 3, 2), (2, 4, 2)]
        g = ContractableGraph.from_edge_list(5, edges)
        assert run_implementation(impl, g, 0, {3, 4}) == (3, {0, 1})

    @IMPLEMENTATIONS
    def test_phases_send_flow_back_over_a_preflow_arc(self, impl):
        # the pre-flow sends 1 over 0→1→2→3; every maximum flow sends a net
        # 1 from 2 to 1, so the phases need 2→1's residual 2: the pre-flow's
        # 1 plus the edge's own weight
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 2), (4, 2, 2), (1, 5, 2), (5, 6, 2)]
        g = ContractableGraph.from_edge_list(7, edges)
        assert run_implementation(impl, g, 0, {3, 6}) == (3, {0, 1, 2, 4, 5})

    @IMPLEMENTATIONS
    def test_settled_by_the_preflow_keeps_the_largest_side(self, impl):
        # {0}, {0, 1} and {0, 1, 3} all cut 1; once 0→1→2 is saturated,
        # 1 and 3 reach the sink only over that path
        g = ContractableGraph.from_edge_list(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
        assert run_implementation(impl, g, 0, {2}) == (1, {0, 1, 3})

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_dense_graphs_where_most_vertices_touch_a_sink(self):
        rng = random.Random(28)
        touching = others = 0
        for _ in range(300):
            n = rng.randint(4, 14)
            edges = {(rng.randrange(v), v): rng.randint(1, 9) for v in range(1, n)}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        edges.setdefault((u, v), rng.randint(1, 9))
            g = ContractableGraph.from_edge_list(n, [(u, v, w) for (u, v), w in edges.items()])
            s, *sinks = rng.sample(range(n), rng.randint(2, max(2, n // 2)))
            rest = [v for v in range(n) if v not in sinks]
            touching += sum(any(t in g.neighbors(v) for t in sinks) for v in rest)
            others += len(rest)
            assert run_implementation(_dinic, g, s, sinks) == \
                run_implementation(_scipy_flow, g, s, sinks)
        assert touching >= 0.75 * others


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

    def test_connected_graph_at_threshold_runs_no_bfs(self, monkeypatch):
        builds = []
        real = _Component.__init__

        def counting(self, g, source):
            builds.append(source)
            real(self, g, source)

        monkeypatch.setattr(_Component, "__init__", counting)
        n = SCIPY_MIN_VERTICES
        assert self._scipy_calls(monkeypatch, cycle(n), 0, {n // 2}) == 1
        assert builds == []
        assert self._scipy_calls(monkeypatch, cycle(n - 1), 0, {n // 2}) == 0
        assert builds == [0]

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

    def test_scaled_weights_run_python_at_size(self, monkeypatch):
        # weights x 2^24 push the capacities past int32, so the pure-Python
        # flow runs at and above the threshold; scaling scales the value
        # and keeps the largest minimum source side
        rng = random.Random(19)
        for n in (SCIPY_MIN_VERTICES, SCIPY_MIN_VERTICES + 37):
            edges = random_nm_edges(rng, n, 3 * n)
            g = ContractableGraph.from_edge_list(n, edges)
            scaled = ContractableGraph.from_edge_list(n, [(u, v, w << 24) for u, v, w in edges])
            s, sinks = random_terminals(rng, n)
            value, side = run_implementation(_scipy_flow, g, s, sinks)
            assert self._scipy_calls(monkeypatch, scaled, s, sinks) == 0
            r = max_flow_st(scaled, s, sinks)
            assert (r.value, r.source_side) == (value << 24, side)


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
class TestScipyFlow:
    def test_sink_without_flow_still_roots_the_search(self, monkeypatch):
        # a star with center 0 and source leaf 3: the flow of 3 ends at one
        # sink leaf, and the center reaches a sink only through the other,
        # which gets no flow; found by random search
        flows = []
        real = mtcut.flow._scipy_maximum_flow

        def recording(cap, s, t):
            res = real(cap, s, t)
            flows.append(res.flow)
            return res

        monkeypatch.setattr(mtcut.flow, "_scipy_maximum_flow", recording)
        g = ContractableGraph.from_edge_list(4, [(0, 1, 3), (0, 2, 3), (0, 3, 3)])
        assert run_implementation(_scipy_flow, g, 3, {1, 2}) == (3, {3})
        index = view_component(g, 3).index
        (flow,) = flows
        assert sorted(flow[index[t], 4] for t in (1, 2)) == [0, 3]  # 4 is the super-sink
        assert run_implementation(_dinic, g, 3, {1, 2}) == (3, {3})

    def test_weights_near_two_to_the_thirty(self):
        # the saturated edge 0-5 gives cap + flow = 2 * (2^30 + 1) on its
        # reverse, past int32, while comp.inf still fits
        big = 2**30 + 1
        edges = [(0, 5, big), (0, 1, 3), (1, 2, 2), (2, 5, 1), (1, 3, 4), (3, 4, 1), (4, 5, 2)]
        g = ContractableGraph.from_edge_list(6, edges)
        comp = view_component(g, 0)
        assert comp.inf <= 2**31 - 1 < 2 * big
        expected = brute_force_min_st_cut(6, edges, 0, {5})
        assert expected == big + 2
        for impl in (_dinic, _scipy_flow):
            assert run_implementation(impl, g, 0, {5}) == (expected, {0, 1, 2, 3})

    def test_sink_sets_on_one_network_leave_its_matrix_alone(self):
        rng = random.Random(21)
        n = SCIPY_MIN_VERTICES + 20
        g = ContractableGraph.from_edge_list(n, random_nm_edges(rng, n, 3 * n))
        net = FlowNetwork(g)
        kept = [a.copy() for a in net.component(0).arrays]
        for size in (1, 2, 5, 9, 3):
            s, *sinks = rng.sample(range(n), size + 1)
            assert max_flow_st(net, s, sinks) == max_flow_st(g, s, sinks)
            for a, b in zip(net.component(0).arrays, kept):
                assert np.array_equal(a, b)

    def test_any_flow_layout_gives_the_same_side(self, monkeypatch):
        # the flow matrix without its zero entries no longer lies on the
        # capacity matrix's pattern, so the flows are aligned by addition
        rng = random.Random(22)
        cases = [random_flow_case(rng, n_min=3, n_max=12, m_max=30) for _ in range(40)]
        expected = [run_implementation(_scipy_flow, ContractableGraph.from_edge_list(n, edges),
                                       s, sinks) for n, edges, s, sinks in cases]
        real = mtcut.flow._scipy_maximum_flow
        relaid_count = 0

        def relaid(cap, s, t):
            nonlocal relaid_count
            res = real(cap, s, t)
            flow = res.flow.copy()
            flow.eliminate_zeros()
            relaid_count += flow.nnz < res.flow.nnz
            return SimpleNamespace(flow_value=res.flow_value, flow=flow)

        monkeypatch.setattr(mtcut.flow, "_scipy_maximum_flow", relaid)
        for (n, edges, s, sinks), want in zip(cases, expected):
            g = ContractableGraph.from_edge_list(n, edges)
            assert run_implementation(_scipy_flow, g, s, sinks) == want
        assert relaid_count >= 30


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

    def test_contracted_graph_matches_fresh_graph(self):
        # contractions leave tombstones, so the component's indices differ
        # from its vertex ids; its flows must match those on a fresh graph
        # of the live vertices, numbered densely
        rng = random.Random(20)
        n = 150
        g = ContractableGraph.from_edge_list(n, random_nm_edges(rng, n, 3 * n))
        for _ in range(40):
            u = rng.choice(list(g.live_vertices()))
            g.contract_vertices([u, rng.choice(list(g.neighbors(u)))], u)
        live = sorted(g.live_vertices())
        dense = {v: i for i, v in enumerate(live)}
        fresh = ContractableGraph.from_edge_list(
            len(live), [(dense[u], dense[v], w) for u, v, w in g.edges()])
        net = FlowNetwork(g)
        for _ in range(10):
            s, *sinks = rng.sample(live, rng.randint(3, 9))
            r = max_flow_st(net, s, sinks)
            expected = max_flow_st(fresh, dense[s], [dense[t] for t in sinks])
            assert r.value == expected.value
            assert {dense[v] for v in r.source_side} == expected.source_side
        comp = net.component(live[0])
        assert comp.vertices != list(range(len(comp.vertices)))

    def test_bfs_build_matches_networks_rebuilt_from_the_edges(self):
        # the BFS fills arcs in one pass; they must equal a network rebuilt
        # from g.edges() in the component's numbering, on contracted and
        # disconnected graphs, and such a component holds no scipy arrays
        rng = random.Random(27)
        checked = 0
        for _ in range(30):
            n = rng.randint(8, 60)
            g = ContractableGraph.from_edge_list(n, random_nm_edges(rng, n, rng.randint(n - 1, 3 * n)))
            for _ in range(rng.randint(0, n // 3)):
                u = rng.choice(list(g.live_vertices()))
                if g.neighbors(u):
                    g.contract_vertices([u, rng.choice(list(g.neighbors(u)))], u)
            for _ in range(rng.randint(0, n // 4)):
                edges = list(g.edges())
                if edges:
                    g.delete_edge(*rng.choice(edges)[:2])
            net = FlowNetwork(g)
            for s in g.live_vertices():
                comp = net.component(s)
                index = comp.index
                size = len(comp.vertices)
                res = [{} for _ in range(size)]
                masks = [0] * size
                for u, v, w in g.edges():
                    if u not in index:
                        continue
                    a, b = index[u], index[v]
                    res[a][b] = res[b][a] = w
                    masks[a] |= 1 << b
                    masks[b] |= 1 << a
                assert comp.arcs == (res, masks)
                assert comp.arrays is None
                checked += 1
        assert checked >= 300

    def test_region_build_merges_the_outside_into_one_sink(self):
        # the same BFS with ``inside`` given: its network must equal one
        # rebuilt from g.edges() with every outside vertex mapped to the
        # sink, the last index, and its flow the flow to the outside merged
        # into one vertex; a disconnected set is refused
        rng = random.Random(28)
        checked = 0
        for _ in range(40):
            n = rng.randint(8, 40)
            g = ContractableGraph.from_edge_list(n, random_nm_edges(rng, n, rng.randint(n, 3 * n)))
            s = rng.randrange(n)
            inside = [s]
            for v in inside:  # a BFS ball around s
                inside += [x for x in g.neighbors(v) if x not in inside][:rng.randint(1, 3)]
                if len(inside) >= n // 2:
                    break
            inside = set(inside)
            comp = _Component(g, s, inside)
            index = comp.index
            r = len(inside)
            assert sorted(comp.vertices) == sorted(inside) and comp.vertices[0] == s
            res = [{} for _ in range(r + 1)]
            masks = [0] * (r + 1)
            for u, v, w in g.edges():
                a, b = index.get(u, r), index.get(v, r)
                if a != b:
                    res[a][b] = res[b][a] = res[a].get(b, 0) + w
                    masks[a] |= 1 << b
                    masks[b] |= 1 << a
            assert comp.arcs == (res, masks) and comp.arrays is None
            outside = [v for v in range(n) if v not in inside]
            merged = g.copy()
            merged.contract_vertices(outside, outside[0])
            value, side = _dinic(comp, 0, [r])
            assert max_flow_st(merged, s, [outside[0]]) == \
                FlowResult(value, frozenset(map(comp.vertices.__getitem__, side)))
            checked += 1
        assert checked == 40
        g = cycle(6)
        with pytest.raises(GraphError):
            _Component(g, 0, {0, 1, 3})

    def test_changed_graph_is_refused(self):
        g = fixture_graph("F3")
        net = FlowNetwork(g)
        max_flow_st(net, 1, {2, 3})
        g.contract_vertices([1], 0)
        with pytest.raises(GraphError):
            max_flow_st(net, 2, {3})

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
    def test_changed_large_graph_is_refused(self):
        # the network's component came from the array view, which the
        # mutations replace; the network itself still refuses them
        n = SCIPY_MIN_VERTICES + 10
        for mutate in (lambda g: g.contract_vertices([3, 4], 3), lambda g: g.delete_edge(5, 6)):
            g = cycle(n)
            net = FlowNetwork(g)
            max_flow_st(net, 0, {n // 2})
            mutate(g)
            with pytest.raises(GraphError):
                max_flow_st(net, 0, {n // 2})
            with pytest.raises(GraphError):
                max_flow_st(net, 1, {n // 3})


@pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
class TestArrayView:
    def _assert_shows(self, view, g):
        live = sorted(g.live_vertices())
        assert view.version == g.version()
        assert view.ids.tolist() == live
        assert view.index.tolist() == [live.index(v) if g.is_live(v) else -1
                                       for v in range(g.n_original)]
        m = view.matrix
        assert m.has_sorted_indices
        for i, v in enumerate(live):
            row = slice(m.indptr[i], m.indptr[i + 1])
            assert [(live[j], w) for j, w in zip(m.indices[row], m.data[row])] == \
                sorted(g.neighbors(v).items())
        for u, v, _ in g.edges():
            assert view.labels[view.index[u]] == view.labels[view.index[v]]
        assert view.sizes.tolist() == np.bincount(view.labels).tolist()
        assert view.degree.tolist() == [g.degree(v) for v in live]
        assert view.wdeg.tolist() == [g.weighted_degree(v) for v in live]
        assert view.rows.tolist() == [i for i, v in enumerate(live) if g.degree(v)]

    def test_rebuilt_after_each_mutation(self):
        rng = random.Random(25)
        n = SCIPY_MIN_VERTICES + 30
        g = hanging_tree_graph(rng, n, 3)
        view = g.array_view()
        self._assert_shows(view, g)
        assert g.array_view() is view
        leaf = next(v for v in range(n) if g.degree(v) == 1)
        for mutate in (lambda: g.contract_vertices([0, *list(g.neighbors(0))[:2]], 0),
                       lambda: g.delete_edge(leaf, next(iter(g.neighbors(leaf))))):
            mutate()
            fresh = g.array_view()
            assert fresh is not view
            self._assert_shows(fresh, g)
            view = fresh
        assert len(view.sizes) == 4  # the deletion isolated the leaf

    def test_derived_views_equal_fresh_builds(self, monkeypatch):
        # after a first build, every view of a contracted graph is derived
        # from the one before, and it must equal a view built from the
        # dicts, array for array, byte for byte. On a graph of several
        # components the first contraction takes the smallest one whole,
        # into one isolated vertex.
        rng = random.Random(27)
        derivations = isolated = 0
        for g, terminals in large_contraction_graphs(rng):
            view = g.array_view()
            built, derived = count_view_builds(monkeypatch)
            for step in range(12):
                if step == 0 and len(view.sizes) > 1:
                    small = view.ids[view.labels == view.sizes.argmin()].tolist()
                    g.contract_vertices(small, small[0])
                    isolated += g.degree(small[0]) == 0
                else:
                    contract_randomly(rng, g, protected=terminals)
                view = g.array_view()
                assert g.array_view() is view
                assert_same_view(view, ArrayView(g))
            assert built == [g] * 12  # the fresh builds above, no other
            assert derived == [g] * 12
            derivations += len(derived)
            monkeypatch.undo()
        assert derivations == 12 * 7 and isolated == 1

    def test_deletion_builds_from_the_dicts(self, monkeypatch):
        # a deletion drops the last view: the next view is built from the
        # dicts, and after it contractions derive again
        n = SCIPY_MIN_VERTICES
        g = cycle(n)
        g.array_view()
        built, derived = count_view_builds(monkeypatch)
        g.contract_vertices([1, 5, n - 1], 1)
        assert_same_view(g.array_view(), g.copy().array_view())
        g.delete_edge(10, 11)
        assert_same_view(g.array_view(), g.copy().array_view())
        g.contract_vertices([20, 21], 20)
        assert_same_view(g.array_view(), g.copy().array_view())
        assert derived == [g, g]
        assert [c is g for c in built] == [False, True, False, False]

    def test_instance_graph_roots_one_lineage(self, monkeypatch):
        # on a grown 100x100 torus whose terminals were placed on another
        # graph, as the benchmark places them, the first kernelization
        # builds one view from the dicts, the instance graph's, which its
        # flows share; its scans read one derived from it. A second
        # kernelization of a copy, and a solve that stops after its root,
        # build none and derive one.
        terminals = generate_terminals(torus_graph(100, 100), 8, 0)
        p = grow_terminal_blocks(torus_graph(100, 100), terminals, 0.1)
        built, derived = count_view_builds(monkeypatch)
        for kernelizations in (1, 2):
            q = p.copy()
            report = run_reduction_loop(q, BoundState())
            assert report.contracted["isolating_cuts"] > 0
            assert built == [p.original] and len(derived) == kernelizations
            assert derived[-1] is q.graph
        checks = []  # the search stops at its second check, after the root

        def expired(deadline):
            checks.append(deadline)
            return len(checks) > 1

        monkeypatch.setattr(mtcut.solver, "expired", expired)
        q = p.copy()
        result = solve_prepared(q)
        assert result.nodes == 1 and result.stop_reason == "time_limit"
        assert built == [p.original] and derived[2:] == [q.graph]

    def test_deletion_ends_the_lineage(self, monkeypatch):
        # a working graph shares its instance graph's view and derives from
        # it across contractions; after a deletion its next view is built
        # from the dicts, and so is a copy's, and then they derive again
        n = SCIPY_MIN_VERTICES
        p = Problem.from_instance(cycle(n), [0, n // 2])
        built, derived = count_view_builds(monkeypatch)
        assert p.graph.array_view() is p.original.array_view()
        assert built == [p.original] and derived == []
        p.contract_set([1, 2], 1)
        p.graph.array_view()
        assert built == [p.original] and derived == [p.graph]
        p.delete_edge(10, 11)
        p.graph.array_view()
        assert built == [p.original, p.graph] and derived == [p.graph]
        c = p.copy()
        c.graph.array_view()
        c.contract_set([20, 21], 20)
        c.graph.array_view()
        assert built == [p.original, p.graph, c.graph] and derived == [p.graph, c.graph]
        monkeypatch.undo()
        for q in (p, c):
            assert_same_view(q.graph.array_view(), ArrayView(q.graph))

    def test_link_to_a_changed_instance_graph_is_ignored(self, monkeypatch):
        # an instance graph mutated after the link, by a contraction or a
        # deletion, is no base: the working graph builds from the dicts
        n = SCIPY_MIN_VERTICES
        for mutate in (lambda g: g.contract_vertices([5, 6], 5), lambda g: g.delete_edge(5, 6)):
            g = cycle(n)
            p = Problem.from_instance(g, [0, n // 2])
            before = g.array_view()
            mutate(g)
            with monkeypatch.context() as m:
                built, derived = count_view_builds(m)
                view = p.graph.array_view()
                assert built == [p.graph] and derived == []
            assert view is not before
            assert_same_view(view, ArrayView(p.graph))

    def test_shared_and_derived_views_equal_fresh_builds(self, monkeypatch):
        # a working graph's first view is its instance graph's, the same
        # object, and each later one is derived from it; each equals a
        # build from the dicts of the graph as it was, byte for byte
        rng = random.Random(28)
        for g, terminals in large_contraction_graphs(rng):
            p = Problem.from_instance(g, terminals)
            built, derived = count_view_builds(monkeypatch)
            views = []
            for step in range(6):
                if step:
                    contract_randomly(rng, p.graph, protected=terminals)
                views.append((p.graph.array_view(), p.graph.copy()))
            assert views[0][0] is g.array_view()
            assert len(built) <= 1 and p.graph not in built
            assert derived == [p.graph] * 5
            monkeypatch.undo()
            for view, then in views:
                assert_same_view(view, ArrayView(then))

    def test_inexact_weights_have_no_view(self):
        # weights that sum to 2**53 or more, each edge counted from both
        # ends, or past float range: the graph and its copies refuse a view
        # for life, and large_view gives none; a total 992 below 2**53 stays
        # exact. On the cycle with a chord of 2**53, the contraction merges
        # the chord with two unit edges, which would read 2**53 summed in
        # float64, where the dicts give 2**53 + 2.
        n = SCIPY_MIN_VERTICES
        chord = ContractableGraph.from_edge_list(
            n, [(v, (v + 1) % n, 1) for v in range(n)] + [(0, 5, 2**53)])
        for g, exact in ((cycle(n, w=2**52 // n), True), (cycle(n, w=2**52), False),
                         (cycle(n, w=10**400), False), (chord, False)):
            for h in (g, g.copy()):
                assert h.exact is exact
                assert (large_view(h) is not None) is exact
            g.contract_vertices([1, 5, n - 1], 1)
            g.delete_edge(10, 11)
            for h in (g, g.copy()):
                assert h.exact is exact
                if exact:
                    self._assert_shows(h.array_view(), h)
                else:
                    with pytest.raises(GraphError):
                        h.array_view()
                    assert large_view(h) is None

    def test_copy_starts_without_a_view(self):
        g = cycle(SCIPY_MIN_VERTICES)
        view = g.array_view()
        h = g.copy()
        assert h.array_view() is not view
        h.contract_vertices([0, 1], 0)
        self._assert_shows(h.array_view(), h)
        assert g.array_view() is view

    def test_weight_past_float_range_runs_python(self):
        n = SCIPY_MIN_VERTICES
        g = ContractableGraph.from_edge_list(
            n, [(v, v + 1, 10**400 if v == 7 else 1) for v in range(n - 1)] + [(0, n - 1, 1)])
        assert large_view(g) is None
        assert FlowNetwork(g).component(0).arcs is not None  # built by BFS
        r = max_flow_st(g, 0, {n // 2})
        assert r.value == 2 and r.source_side == frozenset(range(n)) - {n // 2}

    def test_view_and_bfs_components_agree(self, monkeypatch):
        # several components: large ones at or above the threshold, small
        # ones below it, and on odd cases a large one whose weights pass
        # int32; the small and the heavy ones are built by BFS and run the
        # pure-Python flow, the others are taken from the view and run
        # scipy's. Every flow must match one on BFS-built components only.
        rng = random.Random(26)
        n = SCIPY_MIN_VERTICES
        views = 0
        for case in range(6):
            parts = [hanging_tree_graph(rng, rng.randint(n, n + 200), rng.randint(1, 2)),
                     hanging_tree_graph(rng, rng.randint(3, n - 1), 1)]
            if case % 2:
                parts.append(hanging_tree_graph(rng, n + 10, 1))
            edges, offset = [], 0
            for i, part in enumerate(parts):
                scale = 1 << 24 if i == 2 else 1
                edges += [(u + offset, v + offset, w * scale) for u, v, w in part.edges()]
                offset += part.n_original
            perm = list(range(offset))  # mix the components' ids
            rng.shuffle(perm)
            heavy = {perm[v] for v in range(offset - parts[-1].n_original, offset)} \
                if case % 2 else set()
            g = ContractableGraph.from_edge_list(offset, [(perm[u], perm[v], w) for u, v, w in edges])
            flows = [(s, sinks) for s, *sinks in
                     (rng.sample(range(offset), rng.randint(3, 9)) for _ in range(12))]
            net = FlowNetwork(g)
            got = [max_flow_st(net, s, sinks) for s, sinks in flows]
            for s, _ in flows:
                comp = net.component(s)
                from_bfs = len(comp.vertices) < n or s in heavy
                assert (comp.arcs is not None) == from_bfs
                assert (comp.arrays is None) == from_bfs
                views += not from_bfs
            monkeypatch.setattr(mtcut.flow, "large_view", lambda g: None)
            net = FlowNetwork(g)
            assert [max_flow_st(net, s, sinks) for s, sinks in flows] == got
            monkeypatch.undo()
        assert views >= 12
