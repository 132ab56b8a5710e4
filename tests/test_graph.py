"""Population graph container, geodesics, components."""

import random

import pytest

from bigs import Graph, ParseError, connected_components, geodesics, load_edge_list

from oracles import all_pairs_shortest, bfs_distances, build_adjacency, random_graph


def test_node_order_is_first_appearance():
    g = Graph(["b"], [("a", "c"), ("c", "b")])
    assert g.labels == ("b", "a", "c")
    assert g.n_nodes == 3
    assert g.n_edges == 2


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(edges=[("1", "1")])


def test_duplicate_edge_rejected_even_reversed():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(edges=[("1", "2"), ("2", "1")])


def test_neighbors_incident_and_has_edge():
    g = Graph(edges=[("1", "2"), ("2", "3")])
    assert g.neighbors("2") == {"1", "3"}
    assert g.incident("2") == {"1", "3"}
    assert g.has_edge("1", "2") and g.has_edge("2", "1")
    assert not g.has_edge("1", "3")
    with pytest.raises(KeyError):
        g.neighbors("9")


def test_directed_arcs_and_symmetrized_view():
    g = Graph(edges=[("a", "b"), ("b", "a"), ("b", "c")], directed=True)
    assert g.n_edges == 3
    assert g.neighbors("b") == {"a", "c"}
    assert g.neighbors("c") == frozenset()
    assert g.incident("c") == {"b"}


def test_edges_iterator_is_deterministic():
    g = Graph(edges=[("3", "1"), ("2", "3"), ("1", "2")])
    assert list(g.edges()) == list(g.edges())
    assert {frozenset(e) for e in g.edges()} == {
        frozenset(("1", "3")), frozenset(("2", "3")), frozenset(("1", "2"))}


def test_geodesics_match_floyd_warshall_on_random_graphs():
    rng = random.Random(20260825)
    for _ in range(40):
        nodes, edges = random_graph(rng)
        g = Graph(nodes, edges)
        geo = geodesics(g)
        ref = all_pairs_shortest(nodes, edges)
        for u in nodes:
            for v in nodes:
                assert geo.distance(u, v) == ref[(u, v)]


def test_connected_components_against_bfs():
    rng = random.Random(77)
    for _ in range(30):
        nodes, edges = random_graph(rng)
        g = Graph(nodes, edges)
        comps = connected_components(g)
        assert sorted(sum((sorted(c) for c in comps), [])) == sorted(nodes)
        adj = build_adjacency(nodes, edges)
        for comp in comps:
            rep = min(comp)
            assert frozenset(bfs_distances(adj, rep)) == comp


def test_load_edge_list_comments_and_isolated_nodes():
    text = "\n".join([
        "# a population graph",
        "1 2",
        "",
        "2 3  # tail",
        "7",
    ])
    g = load_edge_list(text)
    assert set(g.labels) == {"1", "2", "3", "7"}
    assert g.n_edges == 2
    assert g.incident("7") == frozenset()


def test_load_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_edge_list("1 2\n3 3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        load_edge_list("1 2\n\n2 1\n")
    assert "line 3" in str(err.value) and "duplicate" in str(err.value)
    with pytest.raises(ParseError):
        load_edge_list("1 2 3\n")


def test_load_edge_list_directed_allows_reciprocal_arcs():
    g = load_edge_list("1 2\n2 1\n", directed=True)
    assert g.n_edges == 2
