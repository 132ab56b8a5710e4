"""Motif enumeration, y-values, and formula-based observation distances."""

import random
from fractions import Fraction

import pytest

from bigs import (AncestorRule, Graph, INFINITE, InfeasibleError, Motif, MotifClass,
                  MotifSet, ancestor_neighborhood, enumerate_motifs, motif_diameter,
                  observation_diameter, observation_distance, snowball_big)

from oracles import (PATTERNS, all_pairs_shortest, bfs_distances, build_adjacency,
                     count_induced_occurrences, hypernode_transform,
                     observation_stage_oracle, random_graph, random_orientation)

# Isolated embeddings of each fixed pattern class, with the expected motif
# diameter (largest member geodesic) and observation diameter (stages until
# every member pair is resolved, maximized over member seeds).
EMBEDDINGS = {
    "k1": (["1"], [], 0, 0),
    "k2": (["1", "2"], [("1", "2")], 1, 1),
    "s2": (["1", "2", "3"], [("1", "2"), ("2", "3")], 2, 2),
    "k3": (["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")], 1, 2),
    "k4": (["1", "2", "3", "4"],
           [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")], 1, 2),
    "c4": (["1", "2", "3", "4"],
           [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")], 2, 2),
    "s3": (["1", "2", "3", "4"],
           [("1", "2"), ("1", "3"), ("1", "4")], 2, 3),
    "p3": (["1", "2", "3", "4"],
           [("1", "2"), ("2", "3"), ("3", "4")], 3, 3),
}


def test_motif_class_parse():
    assert MotifClass.parse("K3") == MotifClass("k3")
    assert MotifClass.parse("component:4") == MotifClass("component", 4)
    with pytest.raises(ValueError):
        MotifClass.parse("pentagon")
    with pytest.raises(ValueError):
        MotifClass.parse("component:x")
    with pytest.raises(ValueError):
        MotifClass("component")
    with pytest.raises(ValueError):
        MotifClass("k3", max_order=4)


def test_pattern_counts_match_permutation_oracle():
    rng = random.Random(424242)
    for _ in range(25):
        nodes, edges = random_graph(rng, max_nodes=8)
        g = Graph(nodes, edges)
        for name, (pat_nodes, pat_edges) in PATTERNS.items():
            got = len(enumerate_motifs(g, MotifClass.parse(name)))
            want = count_induced_occurrences(nodes, edges, pat_nodes, pat_edges)
            assert got == want, (name, sorted(edges))


def test_two_star_excludes_triangles():
    g = Graph(edges=[("1", "2"), ("2", "3"), ("1", "3"), ("3", "4")])
    stars = enumerate_motifs(g, MotifClass("s2"))
    assert [sorted(m.members) for m in stars] == [["1", "3", "4"], ["2", "3", "4"]]


def test_component_class_respects_max_order():
    g = Graph(edges=[("1", "2"), ("3", "4"), ("4", "5")], nodes=["9"])
    small = enumerate_motifs(g, MotifClass("component", 2))
    assert [sorted(m.members) for m in small] == [["9"], ["1", "2"]]
    all_comps = enumerate_motifs(g, MotifClass("component", 5))
    assert len(all_comps) == 3


def test_motif_keys_are_class_tagged_and_ordered():
    g = Graph(edges=[("1", "2"), ("2", "3")])
    motifs = enumerate_motifs(g, MotifClass("k2"))
    assert motifs.keys() == ("k2-0", "k2-1")
    comp = enumerate_motifs(g, MotifClass("component", 3))
    assert comp.keys() == ("component:3-0",)


def test_motif_set_y_values():
    motifs = MotifSet([Motif("a"), Motif("b")], {"a": 2, "b": "1/3"})
    assert motifs.y("a") == 2
    assert motifs.y("b") == Fraction(1, 3)
    assert motifs.total_y() == Fraction(7, 3)
    bumped = motifs.with_y({"a": 0.1})
    assert bumped.y("a") == Fraction(1, 10)
    assert bumped.y("b") == Fraction(1, 3)
    assert MotifSet([Motif("a")]).y("a") == 1
    with pytest.raises(ValueError, match="duplicate"):
        MotifSet([Motif("a"), Motif("a")])
    with pytest.raises(ValueError, match="unknown"):
        MotifSet([Motif("a")], {"zz": 1})
    with pytest.raises(KeyError):
        motifs.y("zz")


def test_table_of_pattern_diameters():
    order = ("k1", "k2", "s2", "k3", "k4", "c4", "s3", "p3")
    lam = []
    phi = []
    for name in order:
        nodes, edges, want_lam, want_phi = EMBEDDINGS[name]
        g = Graph(nodes, edges)
        motifs = enumerate_motifs(g, MotifClass.parse(name))
        assert len(motifs) == 1
        motif = motifs.motifs[0]
        lam.append(motif_diameter(motif, g))
        phi.append(observation_diameter(motif, g))
        assert lam[-1] == want_lam
        assert phi[-1] == want_phi
    assert tuple(lam) == (0, 1, 2, 1, 1, 2, 2, 3)
    assert tuple(phi) == (0, 1, 2, 2, 2, 2, 3, 3)


def test_three_path_component_needs_two_stages_from_every_node():
    g = Graph(edges=[("1", "2"), ("2", "3")])
    motif = enumerate_motifs(g, MotifClass("component", 3)).motifs[0]
    for node in ("1", "2", "3"):
        assert observation_distance(motif, node, g) == 2
    assert observation_diameter(motif, g) == 2


def test_singleton_distances():
    g = Graph(edges=[("1", "2"), ("2", "3")], nodes=["9"])
    motif = Motif("m", frozenset(["3"]))
    assert observation_distance(motif, "3", g) == 0
    assert observation_distance(motif, "2", g) == 2
    assert observation_distance(motif, "1", g) == 3
    assert observation_distance(motif, "9", g) == INFINITE


def test_pair_split_across_components_is_still_observable():
    g = Graph(nodes=["a", "b"])
    motif = Motif("m", frozenset(["a", "b"]))
    assert observation_distance(motif, "a", g) == 1
    assert observation_distance(motif, "b", g) == 1
    assert observation_diameter(motif, g) == 1


def test_two_unreachable_members_make_distance_infinite():
    g = Graph(edges=[("b", "c")], nodes=["a"])
    motif = Motif("m", frozenset(["a", "b", "c"]))
    # From a, the pair (b, c) can never gain a resolved endpoint. From b
    # or c every pair still contains a reachable endpoint, so two stages
    # suffice; the diameter over member seeds is nevertheless infinite.
    assert observation_distance(motif, "a", g) == INFINITE
    assert observation_distance(motif, "b", g) == 2
    assert observation_distance(motif, "c", g) == 2
    assert observation_diameter(motif, g) == INFINITE


def test_external_node_distances_on_a_path():
    g = Graph(edges=[("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")])
    motif = Motif("m", frozenset(["1", "2"]))
    assert observation_distance(motif, "3", g) == 2
    assert observation_distance(motif, "4", g) == 3
    assert observation_distance(motif, "5", g) == 4


def _check_member_helpers(g, motif, nodes, edges, adj, dist):
    """The three member-set helpers and the snowball BIG stage counts
    against the oracles on the undirected edges."""
    members = sorted(motif.members)
    lam = max(dist[(a, b)] for a in members for b in members)
    phi = max(observation_stage_oracle(adj, a, members) for a in members)
    assert motif_diameter(motif, g) == lam
    assert observation_diameter(motif, g) == phi
    single = MotifSet([motif])
    if phi == INFINITE:
        with pytest.raises(InfeasibleError, match="mutually unreachable"):
            snowball_big(g, single, AncestorRule.motif_only())
    else:
        assert snowball_big(g, single, AncestorRule.motif_only()).stages_required == phi
    # Distance to the collapsed motif is distance to its member set.
    hg = hypernode_transform(nodes, edges, members)
    to_motif = bfs_distances(build_adjacency(hg.nodes, hg.edges), hg.label)
    for t in (1, 2):
        near = ancestor_neighborhood(motif, g, t)
        assert near == {u for u in nodes if u not in motif.members
                        and min(dist[(u, a)] for a in members) <= t}
        assert near == {u for u, d in to_motif.items() if u != hg.label and d <= t}
        if lam == INFINITE:
            with pytest.raises(InfeasibleError):
                snowball_big(g, single, AncestorRule.motif_plus(t))
        else:
            plus = snowball_big(g, single, AncestorRule.motif_plus(t))
            assert plus.stages_required == lam + 2 * t
            assert plus.ancestors(motif.key) == motif.members | near


def test_observation_distance_matches_stage_oracle_on_random_graphs():
    # Each graph is checked as given and as a directed copy whose arcs point
    # either way or both; distances ignore direction, so both answer to the
    # oracles on the undirected edges. Random member sets may be split
    # across components.
    rng = random.Random(9090)
    arc_rng = random.Random(9091)
    checked = 0
    for _ in range(30):
        nodes, edges = random_graph(rng, max_nodes=7)
        adj = build_adjacency(nodes, edges)
        dist = all_pairs_shortest(nodes, edges)
        sizes = [arc_rng.randint(1, min(4, len(nodes))) for _ in range(4)]
        picked = [Motif(f"r{i}", frozenset(arc_rng.sample(nodes, size)))
                  for i, size in enumerate(sizes)]
        arcs = random_orientation(arc_rng, edges)
        for g in (Graph(nodes, edges), Graph(nodes, arcs, directed=True)):
            found = list(picked)
            for cls in ("k2", "s2", "k3", "s3", "component:4"):
                found.extend(enumerate_motifs(g, MotifClass.parse(cls)))
            for motif in found:
                for node in nodes:
                    want = observation_stage_oracle(adj, node, motif.members)
                    got = observation_distance(motif, node, g)
                    assert got == want, (sorted(edges), node, sorted(motif.members))
                    checked += 1
                _check_member_helpers(g, motif, nodes, edges, adj, dist)
    assert checked > 500


def test_distances_ignore_direction_of_a_single_arc():
    g = Graph(edges=[("x", "a")], directed=True)
    motif = Motif("m", frozenset(["a", "x"]))
    assert motif_diameter(motif, g) == 1
    assert observation_diameter(motif, g) == 1
    assert snowball_big(g, MotifSet([motif]), AncestorRule.motif_plus(1)).stages_required == 3
    # An arc into a member puts its tail in the neighbourhood too.
    inbound = Graph(edges=[("x", "a"), ("b", "x")], directed=True)
    assert ancestor_neighborhood(motif, inbound, 1) == {"b"}


def test_ancestor_neighborhood():
    g = Graph(edges=[("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")])
    motif = Motif("m", frozenset(["2", "3"]))
    assert ancestor_neighborhood(motif, g, 1) == {"1", "4"}
    assert ancestor_neighborhood(motif, g, 2) == {"1", "4", "5"}
    with pytest.raises(ValueError, match=">= 1"):
        ancestor_neighborhood(motif, g, 0)
