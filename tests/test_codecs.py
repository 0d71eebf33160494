import networkx as nx
import pytest

from signeddom import (
    Graph,
    GraphFormatError,
    complete_graph,
    cycle_graph,
    derive_seed,
    detect_format,
    parse_graph,
    path_graph,
    random_connected,
    random_tree,
    serialize_graph,
    star_graph,
)


def test_edgelist_k3_parse():
    g = parse_graph("3 3\n0 1\n0 2\n1 2\n", "edgelist")
    assert g == complete_graph(3)


def test_edgelist_k3_serialize():
    assert serialize_graph(complete_graph(3), "edgelist") == "3 3\n0 1\n0 2\n1 2\n"


def test_edgelist_single_vertex():
    assert serialize_graph(Graph(1), "edgelist") == "1 0\n"
    assert parse_graph("1 0\n", "edgelist") == Graph(1)


def test_edgelist_empty_two_vertices():
    g = parse_graph("2 0\n", "edgelist")
    assert g.n == 2 and g.m == 0


def test_edgelist_comments_and_bytes():
    text = b"# a comment\n3 2\n0 1\n# another\n1 2\n"
    g = parse_graph(text, "edgelist")
    assert g.edges == ((0, 1), (1, 2))


def test_edgelist_self_loop_reports_line():
    with pytest.raises(GraphFormatError, match=r"self-loop.*line 2"):
        parse_graph("2 1\n0 0\n", "edgelist")


def test_edgelist_duplicate_edge():
    with pytest.raises(GraphFormatError, match=r"duplicate edge \(0,1\).*line 3"):
        parse_graph("3 2\n0 1\n1 0\n", "edgelist")


def test_edgelist_round_trip_at_the_vertex_cap():
    # K512 has 130,816 edges: this finishes in seconds only if each duplicate check is O(1).
    g = complete_graph(512)
    text = serialize_graph(g, "edgelist")
    assert parse_graph(text, "edgelist") == g
    with pytest.raises(GraphFormatError, match=r"duplicate edge \(0,1\).*line 130818"):
        parse_graph(text.replace("512 130816", "512 130817", 1) + "1 0\n", "edgelist")


def test_edgelist_vertex_out_of_range():
    with pytest.raises(GraphFormatError, match=r"out of range.*line 2"):
        parse_graph("2 1\n0 5\n", "edgelist")


def test_edgelist_bad_header():
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph("3\n", "edgelist")
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph("a b\n", "edgelist")
    with pytest.raises(GraphFormatError, match="missing"):
        parse_graph("# nothing\n", "edgelist")


def test_edgelist_edge_count_mismatch():
    with pytest.raises(GraphFormatError, match="expected 2 edges"):
        parse_graph("3 2\n0 1\n", "edgelist")
    with pytest.raises(GraphFormatError, match="trailing"):
        parse_graph("3 1\n0 1\n1 2\n", "edgelist")


def test_graph6_fixed_vectors():
    # K3 encodes its three upper-triangle bits as 111000 -> 'w'.
    assert serialize_graph(complete_graph(3), "graph6") == "Bw"
    assert parse_graph("Bw", "graph6") == complete_graph(3)
    assert serialize_graph(Graph(1), "graph6") == "@"
    assert serialize_graph(Graph(2, [(0, 1)]), "graph6") == "A_"
    assert serialize_graph(Graph(2), "graph6") == "A?"
    assert parse_graph("A?", "graph6").m == 0


@pytest.mark.parametrize("n", [0, 1, 2, 62])
def test_graph6_round_trips_empty_and_complete(n):
    # At n = 0 and 1 the empty and the complete graph are one graph.
    for g in (Graph(n), Graph(n, [(i, j) for j in range(n) for i in range(j)])):
        text = serialize_graph(g, "graph6")
        assert len(text) == 1 + (n * (n - 1) // 2 + 5) // 6
        back = parse_graph(text, "graph6")
        assert back == g and back.adj == g.adj
        assert serialize_graph(back, "graph6") == text


def test_graph6_optional_header():
    assert parse_graph(">>graph6<<Bw", "graph6") == complete_graph(3)


def test_graph6_illegal_character():
    with pytest.raises(GraphFormatError, match="illegal"):
        parse_graph("B w", "graph6")


def test_graph6_wrong_body_length():
    with pytest.raises(GraphFormatError, match="needs"):
        parse_graph("B", "graph6")
    with pytest.raises(GraphFormatError, match="needs"):
        parse_graph("Bww", "graph6")


def test_graph6_long_form_rejected():
    with pytest.raises(GraphFormatError, match="long form"):
        parse_graph("~??", "graph6")


def test_graph6_nonzero_padding_rejected():
    # K3 body with a stray low bit set: 111001 -> 'x'.
    with pytest.raises(GraphFormatError, match="padding"):
        parse_graph("Bx", "graph6")


def test_graph6_size_cap():
    serialize_graph(Graph(62), "graph6")
    with pytest.raises(ValueError, match="too large"):
        serialize_graph(Graph(63), "graph6")


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        parse_graph("x", "banana")
    with pytest.raises(ValueError, match="unknown format"):
        serialize_graph(Graph(1), "banana")


def test_detect_format():
    assert detect_format("3 3\n0 1\n0 2\n1 2\n") == "edgelist"
    assert detect_format("# c\n2 0\n") == "edgelist"
    assert detect_format("Bw") == "graph6"
    assert detect_format(">>graph6<<Bw") == "graph6"
    with pytest.raises(GraphFormatError, match="empty"):
        detect_format("  ")


def _corpus():
    yield Graph(1)
    yield Graph(2)
    yield path_graph(5)
    yield cycle_graph(6)
    yield star_graph(7)
    yield complete_graph(8)
    for i in range(25):
        yield random_connected(4 + i % 9, 0.45, derive_seed(1234, i))
    for i in range(10):
        yield random_tree(3 + i, derive_seed(4321, i))


def test_round_trip_both_formats():
    for g in _corpus():
        assert parse_graph(serialize_graph(g, "edgelist"), "edgelist") == g
        g6 = serialize_graph(g, "graph6")
        assert parse_graph(g6, "graph6") == g
        # bit-exact: re-encoding reproduces the exact string
        assert serialize_graph(parse_graph(g6, "graph6"), "graph6") == g6


def test_graph6_matches_networkx():
    # Independent reference encoder for the same format.
    for g in _corpus():
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert serialize_graph(g, "graph6") == expected
        back = nx.from_graph6_bytes(serialize_graph(g, "graph6").encode())
        assert set(back.edges()) == {(u, v) for u, v in g.edges}
