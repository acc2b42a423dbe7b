import pytest

from helpers import fixture_graph, random_connected_graph
from mtcut import ContractableGraph, parse_graph, write_graph
from mtcut.graphio import GraphParseError

import random


class TestParse:
    def test_unweighted_path(self):
        g = parse_graph("3 2\n2\n1 3\n2\n")
        assert (g.num_vertices, g.num_edges) == (3, 2)
        assert g.edge_weight(0, 1) == 1 and g.edge_weight(1, 2) == 1

    def test_weighted_f1(self):
        g = parse_graph("3 2 1\n2 2\n1 2 3 1\n2 1\n")
        assert g.edge_weight(0, 1) == 2 and g.edge_weight(1, 2) == 1

    def test_comment_lines_skipped(self):
        g = parse_graph("% a comment\n3 2\n2\n1 3\n2\n")
        assert g.num_edges == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("3 5\n2\n1 3\n2\n")
        assert "5" in str(err.value) and err.value.line == 1

    def test_asymmetric_adjacency(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("3 2\n2\n1 3\n\n")
        assert err.value.line > 1

    def test_weight_mismatch(self):
        with pytest.raises(GraphParseError):
            parse_graph("2 1 1\n2 3\n1 4\n")

    def test_index_out_of_range(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("3 2\n2\n1 4\n2\n")
        assert err.value.line == 3

    def test_line_count_mismatch(self):
        with pytest.raises(GraphParseError):
            parse_graph("3 2\n2\n1 3\n")

    def test_too_few_vertex_lines_name_a_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("% comment\n4 1\n2\n1\n\n")
        assert "expected 4 vertex lines, found 3" in str(err.value)
        assert err.value.line == 5

    def test_blank_line_is_an_isolated_vertex(self):
        g = parse_graph("3 1\n3\n\n1\n")
        assert (g.num_vertices, g.num_edges) == (3, 1)
        assert g.degree(1) == 0 and g.edge_weight(0, 2) == 1

    def test_trailing_blank_lines_are_ignored(self):
        g = parse_graph("3 2\n2\n1 3\n2\n\n\n% done\n\n")
        assert (g.num_vertices, g.num_edges) == (3, 2)
        g = parse_graph("3 1\n2\n1\n\n\n")
        assert (g.num_vertices, g.num_edges) == (3, 1) and g.degree(2) == 0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("2 2\n1 2\n1\n")

    def test_vertex_weights_unsupported(self):
        with pytest.raises(GraphParseError):
            parse_graph("2 1 11\n1 2 1\n1 1 1\n")

    def test_unknown_edge_format_rejected(self):
        # a ones digit other than 0 or 1 was read as unweighted
        with pytest.raises(GraphParseError) as err:
            parse_graph("% comment\n2 1 5\n2\n1\n")
        assert "unsupported format 5" in str(err.value) and err.value.line == 2

    def test_negative_format_rejected(self):
        # -1 // 10 is -1, which was reported as vertex weights
        with pytest.raises(GraphParseError) as err:
            parse_graph("2 1 -1\n2\n1\n")
        assert "unsupported format -1" in str(err.value) and err.value.line == 1
        assert "vertex weights" not in str(err.value)


class TestRoundTrip:
    def test_fixture(self):
        g = fixture_graph("F1")
        h = parse_graph(write_graph(g))
        assert (h.num_vertices, h.num_edges) == (g.num_vertices, g.num_edges)
        assert sorted(h.weighted_degree(v) for v in h.live_vertices()) == \
            sorted(g.weighted_degree(v) for v in g.live_vertices())

    def test_random_graphs(self):
        rng = random.Random(41)
        for _ in range(40):
            n, edges = random_connected_graph(rng, n_min=3, n_max=15, m_max=35)
            g = ContractableGraph.from_edge_list(n, edges)
            h = parse_graph(write_graph(g))
            assert h.num_vertices == g.num_vertices
            assert h.num_edges == g.num_edges
            assert sorted(h.weighted_degree(v) for v in h.live_vertices()) == \
                sorted(g.weighted_degree(v) for v in g.live_vertices())

    @pytest.mark.parametrize("edges", [[(0, 2, 1)], [(0, 1, 1)], [(1, 2, 4)],
                                       [(0, 2, 3), (2, 4, 1)]])
    def test_isolated_vertices(self, edges):
        n = max(v for _, v, _ in edges) + 2  # the last vertex is isolated too
        g = ContractableGraph.from_edge_list(n, edges)
        h = parse_graph(write_graph(g))
        assert (h.num_vertices, h.num_edges) == (n, len(edges))
        assert list(h.edges()) == list(g.edges())

    def test_contracted_graph_serializes(self):
        g = fixture_graph("F2")
        g.contract_vertices([1], 0)
        h = parse_graph(write_graph(g))
        assert h.num_vertices == 2 and h.num_edges == 1
