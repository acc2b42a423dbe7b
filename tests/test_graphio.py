import pytest

from helpers import adjacency_and_find, fixture_graph, random_connected_graph
from mtcut import ContractableGraph, parse_graph, write_graph
from mtcut.graphio import GraphParseError, parse_graph_file

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

    @pytest.mark.parametrize("text, message, line", [
        ("3 2\n2\n1 x\n2\n", "non-numeric entry", 3),
        ("2 1 1\n2\n1 1\n", "weighted line needs (neighbor, weight) pairs", 2),
        ("3 2\n2\n1 4\n2\n", "neighbor 4 out of range 1..3", 3),
        ("2 2\n1 2\n1\n", "self-loop at vertex 1", 2),
        ("2 1 1\n2 0\n1 0\n", "non-positive edge weight 0", 2),
        ("3 2\n2\n1 3\n\n", "edge 2-3 not listed from 3", 3),
        ("2 1 1\n2 3\n1 4\n", "edge 1-2 has weight 3 one way and 4 the other", 2),
        ("3 5\n2\n1 3\n2\n", "header declares 5 edges but adjacency lists 2", 1),
    ])
    def test_malformed(self, text, message, line):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert str(err.value) == f"line {line}: {message}" and err.value.line == line

    @pytest.mark.parametrize("text, message, line", [
        # two bad pairs on one line: the first is named
        ("3 2\n2\n2 4\n2\n", "self-loop at vertex 2", 3),
        ("3 2\n2\n4 2\n2\n", "neighbor 4 out of range 1..3", 3),
        ("3 2 1\n2 1\n3 1 1 0 3 5\n2 1\n", "non-positive edge weight 0", 3),
        # bad lines in two places: the earlier is named
        ("% c\n3 2\n2\n1 3 9\n0\n", "neighbor 9 out of range 1..3", 4),
        ("4 3\n2\n1 3 1\n2 4\n3\n", "edge 1-2 has weight 1 one way and 2 the other", 2),
        # every line is checked before any edge is matched with its reverse
        ("3 2\n3\n\nx\n", "non-numeric entry", 4),
    ])
    def test_first_error_wins(self, text, message, line):
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert str(err.value) == f"line {line}: {message}" and err.value.line == line

    def test_repeated_neighbor_is_summed(self):
        g = parse_graph("3 2\n2 2\n1 1 3\n2\n")
        assert adjacency_and_find(g)[0] == [(0, [(1, 2)]), (1, [(0, 2), (2, 1)]), (2, [(1, 1)])]
        assert (g.num_edges, g.weighted_degree(1)) == (2, 3)
        g = parse_graph("2 1 1\n2 1 2 2\n1 3\n")
        assert g.edge_weight(0, 1) == 3 and g.num_edges == 1

    @pytest.mark.parametrize("data, line", [
        (b"2 1\n2\n1\xff\n", 3),
        (b"2 1\n2\n\xff1\n", 3),
        (b"% caf\xc3\xa9\r\n2 1\r\n2\r\n1 \xe9\r\n", 4),
    ])
    def test_undecodable_file_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "bad.graph"
        path.write_bytes(data)
        with pytest.raises(GraphParseError) as err:
            parse_graph_file(str(path))
        assert err.value.line == line and "not UTF-8" in str(err.value)


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

    def test_parsed_rows_are_ascending(self):
        # a parsed graph has each vertex's neighbors in ascending id order,
        # whatever their order on its line
        rng = random.Random(43)
        for _ in range(30):
            n, edges = random_connected_graph(rng, n_min=3, n_max=40, m_max=120)
            g = ContractableGraph.from_edge_list(n, edges)
            header, *lines = write_graph(g).splitlines()
            shuffled = [header]
            for line in lines:
                tokens = line.split()
                pairs = [tokens[i:i + 2] for i in range(0, len(tokens), 2)]
                rng.shuffle(pairs)
                shuffled.append(" ".join(t for pair in pairs for t in pair))
            rows, find = adjacency_and_find(parse_graph("\n".join(shuffled)))
            assert rows == [(v, sorted(g.neighbors(v).items())) for v in range(n)]
            assert find == list(range(n))

    def test_contracted_graph_serializes(self):
        g = fixture_graph("F2")
        g.contract_vertices([1], 0)
        h = parse_graph(write_graph(g))
        assert h.num_vertices == 2 and h.num_edges == 1
