"""Big construction rules, serialization, and feasibility checking."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bigs import (AncestorRule, Big, Design, EstimatorSpec, Graph, INFINITE,
                  InfeasibleError, Motif, MotifClass, MotifSet, ParseError, WeightScheme,
                  acs_big, check_feasibility, delta_matrix, dump_big, enumerate_motifs,
                  estimate, exact_moments, first_order_inclusion, induced_ht_moments,
                  load_big, monte_carlo_moments, realize_sample_big, resolve_weights,
                  snowball_big, srswor_equal_share_delta, thompson1990)
from bigs.errors import exact, to_fraction

from oracles import (label_set_feasibility, oracle_acs_big, oracle_acs_feasibility,
                     oracle_snowball_big, oracle_snowball_refusal, random_orientation)
from test_traversal import RULES

TRIANGLE_TAIL = Graph(edges=[("1", "2"), ("2", "3"), ("1", "3"), ("3", "4")])
PATH4 = Graph(edges=[("u", "a"), ("a", "b"), ("b", "v")])


def test_ancestor_rule_parse_and_label():
    assert AncestorRule.parse("full") == AncestorRule.full()
    assert AncestorRule.parse("full:2") == AncestorRule.full(2)
    assert AncestorRule.parse("motif-only") == AncestorRule.motif_only()
    assert AncestorRule.parse("motif-plus:1") == AncestorRule.motif_plus(1)
    assert AncestorRule.parse("acs-b") == AncestorRule.acs_b()
    assert AncestorRule.parse("acs-b-star") == AncestorRule.acs_b_star()
    assert AncestorRule.parse("acs-b-dagger") == AncestorRule.acs_b_dagger()
    assert AncestorRule.full(2).label == "full:2"
    assert AncestorRule.motif_only().label == "motif-only"


def test_ancestor_rule_validation():
    with pytest.raises(ValueError):
        AncestorRule.parse("motif-plus")
    with pytest.raises(ValueError):
        AncestorRule.parse("motif-plus:0")
    with pytest.raises(ValueError):
        AncestorRule.parse("full:-1")
    with pytest.raises(ValueError):
        AncestorRule.parse("motif-only:3")
    with pytest.raises(ValueError):
        AncestorRule.parse("nonsense")


def _tiny_big():
    motifs = MotifSet([Motif("m1", frozenset(["1"])), Motif("m2", frozenset(["2"]))],
                      {"m1": 3, "m2": "1/2"})
    return Big(["1", "2", "3"], motifs,
               {"m1": ["1", "3"], "m2": ["2"]}, AncestorRule.full())


def test_big_accessors():
    big = _tiny_big()
    assert big.ancestors("m1") == {"1", "3"}
    assert big.successors("3") == {"m1"}
    assert big.successors("2") == {"m2"}
    assert list(big.edges()) == [("1", "m1"), ("3", "m1"), ("2", "m2")]
    assert big.n_edges == 3
    assert big.theta() == Fraction(7, 2)
    with pytest.raises(KeyError):
        big.ancestors("zz")
    with pytest.raises(KeyError):
        big.successors("9")


def test_big_validation():
    motifs = MotifSet([Motif("m")])
    with pytest.raises(InfeasibleError, match="no ancestors"):
        Big(["1"], motifs, {}, AncestorRule.full())
    with pytest.raises(ValueError, match="duplicate"):
        Big(["1", "1"], motifs, {"m": ["1"]}, AncestorRule.full())
    with pytest.raises(ValueError, match="outside frame"):
        Big(["1"], motifs, {"m": ["1", "9"]}, AncestorRule.full())
    with pytest.raises(ValueError, match="unknown motifs"):
        Big(["1"], motifs, {"m": ["1"], "zz": ["1"]}, AncestorRule.full())


def test_motif_only_big_uses_members_and_observation_diameter():
    motifs = enumerate_motifs(TRIANGLE_TAIL, MotifClass("k3"))
    big = snowball_big(TRIANGLE_TAIL, motifs, AncestorRule.motif_only())
    assert big.ancestors("k3-0") == {"1", "2", "3"}
    assert big.stages_required == 2

    pairs = enumerate_motifs(TRIANGLE_TAIL, MotifClass("k2"))
    pair_big = snowball_big(TRIANGLE_TAIL, pairs, AncestorRule.motif_only())
    assert pair_big.stages_required == 1
    assert all(pair_big.ancestors(m.key) == m.members for m in pairs)


def test_motif_plus_big_adds_neighborhood_and_uses_diameter_plus_2t():
    g = Graph(edges=[("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")])
    motifs = MotifSet([Motif("m", frozenset(["2", "3"]))])
    big = snowball_big(g, motifs, AncestorRule.motif_plus(1))
    assert big.ancestors("m") == {"1", "2", "3", "4"}
    assert big.stages_required == 1 + 2  # motif diameter 1, radius 1

    wide = snowball_big(g, motifs, AncestorRule.motif_plus(2))
    assert wide.ancestors("m") == {"1", "2", "3", "4", "5"}
    assert wide.stages_required == 5


def test_full_big_uses_observation_distances():
    g = Graph(edges=[("1", "2"), ("2", "3")])
    motifs = enumerate_motifs(g, MotifClass("component", 3))
    with pytest.raises(InfeasibleError, match="within 1 stages"):
        snowball_big(g, motifs, AncestorRule.full(1))
    big = snowball_big(g, motifs, AncestorRule.full(2))
    assert big.ancestors("component:3-0") == {"1", "2", "3"}
    assert big.stages_required == 2

    singles = enumerate_motifs(g, MotifClass("k1"))
    zero = snowball_big(g, singles, AncestorRule.full(0))
    assert all(zero.ancestors(m.key) == m.members for m in singles)
    with pytest.raises(InfeasibleError):
        snowball_big(g, enumerate_motifs(g, MotifClass("k2")), AncestorRule.full(0))


def test_full_big_includes_external_ancestors():
    big = snowball_big(PATH4, MotifSet([Motif("m", frozenset(["a", "b"]))]),
                       AncestorRule.full(2))
    assert big.ancestors("m") == {"u", "a", "b", "v"}


def test_full_big_searches_each_member_ball_once(monkeypatch):
    calls = []
    search = Graph._ball

    def counted(self, sources, depth=None, targets=None):
        ball = search(self, sources, depth, targets)
        (source,) = sources
        calls.append((self.labels[source], INFINITE if depth is None else depth,
                      targets is not None, max(ball.values())))
        return ball

    monkeypatch.setattr(Graph, "_ball", counted)

    def searches(g, motifs, text):
        calls.clear()
        snowball_big(g, MotifSet(motifs), AncestorRule.parse(text))
        return sorted(calls)

    # A triangle with a tail and a far pair. Edges under full:2: one
    # search per member node, to depth T-1.
    g = Graph(edges=[("1", "2"), ("2", "3"), ("3", "1"), ("3", "4"), ("4", "5"), ("6", "7")])
    k2 = list(enumerate_motifs(g, MotifClass("k2")))
    assert searches(g, k2, "full:2") == [(u, 1, False, 1) for u in "1234567"]
    # A singleton, an edge and a four-node path share node 3. Past the
    # rule's radius a search stops at the farthest co-member, within |M|-1.
    one, edge, path, star, split = (Motif(k, frozenset(k)) for k in ("3", "34", "1345", "1234", "16"))
    path_searches = [("1", 3, True, 3), ("3", 3, True, 2), ("4", 3, True, 2), ("5", 3, True, 3)]
    for text in ("motif-only", "full:3"):
        assert searches(g, [one, edge, path], text) == path_searches, text
    assert searches(g, [one, edge, path], "motif-plus:4") == [
        ("1", 4, False, 3), ("3", 4, False, 2), ("4", 4, False, 2), ("5", 4, False, 3)]
    # The star's centre reaches its leaves short of the radius 2 of full:3,
    # so it is searched again to depth 2.
    assert searches(g, [star], "full:3") == [
        ("1", 3, True, 2), ("2", 3, True, 2), ("3", 2, False, 2), ("3", 3, True, 1), ("4", 3, True, 2)]
    # A pair split across components lies outside its members' balls: it
    # falls back to one search per member that stops once both are reached.
    assert searches(g, [one, edge, path, split], "motif-only") == sorted(path_searches + [
        ("6", 1, True, 1), ("1", INFINITE, True, 3), ("6", INFINITE, True, 1)])
    # Edges beside a large component motif: an edge's searches stop at its
    # partner, not at the component's |M|-1.
    h = Graph(edges=[(f"c{i}", f"c{i + 1}") for i in range(7)]
              + [(f"x{i}", f"x{i + 1}") for i in range(9)])
    mixed = list(enumerate_motifs(h, MotifClass("k2"))) + list(
        enumerate_motifs(h, MotifClass.parse("component:8")))
    for text in ("motif-only", "motif-plus:1"):
        found = searches(h, mixed, text)
        assert [u for u, *_ in found] == sorted(h.labels), text
        assert {(d, level) for u, d, _, level in found if u[0] == "x"} == {(1, 1)}, text
        assert {(u, level) for u, d, _, level in found if u[0] == "c"} == {
            (f"c{i}", max(i, 7 - i)) for i in range(8)}, text


@st.composite
def snowball_instances(draw):
    """Up to eight declared labels in one to three blocks with edges inside
    the blocks only, either half the pairs or a path with a quarter of the
    chords, undirected or directed with some reciprocal arcs, and one to
    five motifs of one to four members each. A motif is grown along
    edges (its members are connected when the block allows) or drawn
    freely, so member sets may straddle components."""
    n = draw(st.integers(1, 8))
    labels = [f"v{i}" for i in range(n)]
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=2, unique=True))) if n > 1 else []
    blocks = [labels[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    pairs = [(u, v) for block in blocks for i, u in enumerate(block) for v in block[i + 1:]]
    keep, thin, flip, both = (draw(st.integers(0, 2 ** len(pairs) - 1)) for _ in range(4))
    if draw(st.booleans()):
        # A long thin block: its path in label order plus a quarter of the chords.
        spine = sum(1 << i for i, (u, v) in enumerate(pairs) if int(v[1:]) == int(u[1:]) + 1)
        keep = keep & thin | spine
    directed = draw(st.booleans())
    edges = []
    for i, (u, v) in enumerate(pairs):
        if keep >> i & 1:
            edges.append((v, u) if flip >> i & 1 else (u, v))
            if directed and both >> i & 1:
                edges.append((u, v) if flip >> i & 1 else (v, u))
    adj = {u: set() for u in labels}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    members = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(1, min(4, n)))
        if draw(st.booleans()):
            chosen = {draw(st.sampled_from(labels))}
            while len(chosen) < size:
                rim = sorted({v for u in chosen for v in adj[u]} - chosen)
                if not rim:
                    break
                chosen.add(draw(st.sampled_from(rim)))
        else:
            chosen = set(draw(st.lists(st.sampled_from(labels), min_size=size,
                                       max_size=size, unique=True)))
        members.append(frozenset(chosen))
    return labels, edges, directed, members


# Pinned: a directed graph with two components holding a singleton, a
# connected four-member path, a split pair and a trio with one member apart;
# a path whose pair and trio have members farther apart than |M| - 1; and a
# star whose centre reaches its leaves short of radius 2 but has units at
# distance 2 that only its own ball finds.
_MIXED = (["a", "b", "c", "d", "e", "f"],
          [("a", "b"), ("c", "b"), ("c", "d"), ("d", "c"), ("e", "f")], True,
          [frozenset("a"), frozenset("abcd"), frozenset("ae"), frozenset("bce")])
_FAR = (["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")], False,
        [frozenset("ac"), frozenset("aef")])
_HUB = (["c", "x", "y", "z", "v", "w", "u"],
        [("c", "x"), ("c", "y"), ("c", "z"), ("c", "v"), ("v", "w"), ("x", "u"), ("y", "u")], False,
        [frozenset("cxyz")])
# Three-member motifs on a path with a triangle: a trio's ancestors are the
# units near two of its members. Then pairs and trios split across
# components: a split pair is refused by motif-plus only, after a later
# trio that a third member can never reach is refused by every rule.
_TRIOS = (["a", "b", "c", "d", "e", "f"],
          [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("d", "f")], False,
          [frozenset("bcd"), frozenset("def"), frozenset("ace")])
_SPLIT = (["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")], False,
          [frozenset("ab"), frozenset("ac"), frozenset("abc"), frozenset("abd")])
_APART = (["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")], False,
          [frozenset("a"), frozenset("ac"), frozenset("cd")])


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@example(_MIXED)
@example(_FAR)
@example(_HUB)
@example(_TRIOS)
@example(_SPLIT)
@example(_APART)
@given(snowball_instances())
def test_snowball_big_equals_all_pairs_oracle(instance):
    nodes, edges, directed, members = instance
    g = Graph(nodes, edges, directed)
    by_key = {f"m{i}": m for i, m in enumerate(members)}
    motifs = MotifSet([Motif(k, m) for k, m in by_key.items()])
    for text in RULES:
        rule = AncestorRule.parse(text)
        want = oracle_snowball_big(nodes, edges, by_key, rule.kind, rule.t)
        refusal = oracle_snowball_refusal(nodes, edges, by_key, rule.kind, rule.t)
        assert (want is None) == (refusal is not None), text
        if want is None:
            with pytest.raises(InfeasibleError) as refused:
                snowball_big(g, motifs, rule)
            assert str(refused.value) == refusal, text
            continue
        big = snowball_big(g, motifs, rule)
        assert {k: big.ancestors(k) for k in by_key} == want[0], text
        assert big.stages_required == want[1], text


def test_full_rule_needs_a_horizon():
    motifs = MotifSet([Motif("m", frozenset(["a"]))])
    with pytest.raises(ValueError, match="horizon"):
        snowball_big(PATH4, motifs, AncestorRule.full())


def test_snowball_big_rejects_unobservable_motifs():
    g = Graph(edges=[("b", "c")], nodes=["a"])
    motifs = MotifSet([Motif("m", frozenset(["a", "b", "c"]))])
    with pytest.raises(InfeasibleError, match="unreachable"):
        snowball_big(g, motifs, AncestorRule.motif_only())


def test_motif_plus_refuses_a_motif_split_across_components():
    g = Graph(edges=[("a", "b"), ("c", "d")])
    motifs = MotifSet([Motif("m", frozenset({"a", "c"}))])
    with pytest.raises(InfeasibleError, match="'m'.*different components"):
        snowball_big(g, motifs, AncestorRule.parse("motif-plus:1"))
    # Seeding either member resolves it, which settles the missing pair.
    only = snowball_big(g, motifs, AncestorRule.motif_only())
    assert only.ancestors("m") == {"a", "c"}
    assert only.stages_required == 1
    assert snowball_big(g, motifs, AncestorRule.full(2)).ancestors("m") == {"a", "b", "c", "d"}


def test_snowball_big_rejects_acs_rules_and_vice_versa():
    motifs = MotifSet([Motif("m", frozenset(["a"]))])
    with pytest.raises(ValueError, match="not a snowball rule"):
        snowball_big(PATH4, motifs, AncestorRule.acs_b())
    with pytest.raises(ValueError, match="not an adaptive-cluster rule"):
        acs_big(PATH4, {u: 0 for u in "uabv"}, 1, AncestorRule.full(1))


def test_acs_big_network_and_boundary_rule():
    pop = thompson1990()
    big = pop.bigs["acs-b"]
    assert big.ancestors("2") == {"2", "10", "1000"}
    assert big.ancestors("10") == {"10", "1000"}
    assert big.ancestors("1000") == {"10", "1000"}
    assert big.ancestors("1") == {"1"}
    assert big.ancestors("0") == {"0"}
    assert big.acs.edge_grids == {"2"}
    assert big.acs.networks == (frozenset({"10", "1000"}),)


def test_acs_big_restricted_rule():
    pop = thompson1990()
    star = pop.bigs["acs-b-star"]
    assert star.ancestors("2") == {"2"}
    assert star.ancestors("10") == {"10", "1000"}


def test_acs_big_network_only_rule_matches_published_edge_set():
    pop = thompson1990()
    dag = pop.bigs["acs-b-dagger"]
    assert set(dag.edges()) == {
        ("1", "1"), ("0", "0"),
        ("10", "2"), ("1000", "2"),
        ("10", "10"), ("1000", "10"),
        ("10", "1000"), ("1000", "1000"),
    }


def test_acs_network_only_rule_refuses_double_boundary():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    y = {"a": 9, "b": 0, "c": 9}
    big_b = acs_big(g, y, 5, AncestorRule.acs_b())
    assert big_b.ancestors("b") == {"a", "b", "c"}
    with pytest.raises(InfeasibleError, match="2 networks"):
        acs_big(g, y, 5, AncestorRule.acs_b_dagger())


def test_acs_big_requires_complete_y():
    g = Graph(edges=[("a", "b")])
    with pytest.raises(ValueError, match="missing y"):
        acs_big(g, {"a": 1}, 0, AncestorRule.acs_b())


def test_dump_load_round_trip():
    motifs = enumerate_motifs(TRIANGLE_TAIL, MotifClass("k2"), {"k2-0": "5/3"})
    big = snowball_big(TRIANGLE_TAIL, motifs, AncestorRule.motif_only())
    text = dump_big(big)
    back = load_big(text)
    assert back.frame == big.frame
    assert set(back.edges()) == set(big.edges())
    assert back.motifs.y("k2-0") == Fraction(5, 3)
    assert back.motifs.get("k2-0").members == big.motifs.get("k2-0").members
    # Ancestor provenance is not serialized: a loaded Big carries the
    # analyst-knowledge rule and no stage horizon.
    assert back.rule == AncestorRule.full()
    assert back.stages_required is None
    assert dump_big(back) == text


def test_load_big_accepts_memberless_motifs_and_comments():
    text = "\n".join([
        "FRAME",
        "h1 h2 h3",
        "MOTIFS",
        "p1 2.5  # a patient seen by two hospitals",
        "p2 1 h3",
        "EDGES",
        "h1 p1",
        "h2 p1",
        "h3 p2",
    ])
    big = load_big(text)
    assert big.frame == ("h1", "h2", "h3")
    assert big.motifs.get("p1").members is None
    assert big.motifs.y("p1") == Fraction(5, 2)
    assert big.ancestors("p1") == {"h1", "h2"}
    d = Design.srswor(big.frame, 1)
    assert first_order_inclusion(d, big, "p1") == Fraction(2, 3)


def test_load_big_parse_errors():
    with pytest.raises(ParseError, match="before FRAME"):
        load_big("1 2\n")
    with pytest.raises(ParseError, match="out of order"):
        load_big("MOTIFS\nm 1\nFRAME\n1\n")
    with pytest.raises(ParseError, match="bad y-value"):
        load_big("FRAME\n1\nMOTIFS\nm x\nEDGES\n1 m\n")
    with pytest.raises(ParseError, match="motif row"):
        load_big("FRAME\n1\nMOTIFS\nm\nEDGES\n1 m\n")
    with pytest.raises(ParseError, match="edge row"):
        load_big("FRAME\n1\nMOTIFS\nm 1\nEDGES\n1 m extra\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        load_big("FRAME\n1\nMOTIFS\nm 1\nEDGES\n1 m\n1 m\n")
    with pytest.raises(ParseError, match="unknown unit"):
        load_big("FRAME\n1\nMOTIFS\nm 1\nEDGES\n9 m\n")
    with pytest.raises(ParseError, match="unknown motif"):
        load_big("FRAME\n1\nMOTIFS\nm 1\nEDGES\n1 zz\n")
    with pytest.raises(ParseError, match="unknown unit '9'"):
        load_big("FRAME\n1\nMOTIFS\nm 1\nEDGES\n9 m\n1 zz\n")
    with pytest.raises(ParseError, match="duplicate frame"):
        load_big("FRAME\n1 1\nMOTIFS\nm 1\nEDGES\n1 m\n")
    with pytest.raises(ParseError, match="duplicate motif"):
        load_big("FRAME\n1\nMOTIFS\nm 1\nm 2\nEDGES\n1 m\n")
    with pytest.raises(ParseError, match="outside the frame"):
        load_big("FRAME\n1\nMOTIFS\nm 1 9\nEDGES\n1 m\n")
    with pytest.raises(InfeasibleError, match="no ancestors"):
        load_big("FRAME\n1\nMOTIFS\nm 1\nEDGES\n")


def test_strip_file_inclusion_probability():
    frame = [str(i) for i in range(1, 21)]
    lines = ["FRAME", *frame, "MOTIFS", "band 1 1 2 3 4", "EDGES"]
    lines += [f"{u} band" for u in ("1", "2", "3", "4")]
    big = load_big("\n".join(lines))
    for n in (1, 3, 5):
        d = Design.srswor(frame, n)
        from math import comb
        want = 1 - Fraction(comb(16, n), comb(20, n))
        assert first_order_inclusion(d, big, "band") == want


def test_check_feasibility_structural_and_design():
    big = _tiny_big()
    report = check_feasibility(big)
    assert report.feasible and report.checks == 2

    d = Design.srswor(["1", "2"], 1)
    report = check_feasibility(big, design=d)
    assert not report.feasible
    assert any("missing from the design frame" in v for v in report.violations)


def test_check_feasibility_empirical_snowball():
    g = Graph(edges=[("1", "2"), ("2", "3")])
    motifs = enumerate_motifs(g, MotifClass("component", 3))
    big = snowball_big(g, motifs, AncestorRule.motif_only())
    report = check_feasibility(big, design=Design.srswor(big.frame, 1), graph=g)
    assert report.feasible
    assert report.checks == 1 + 3 + 3

    lying = Big(g.labels, motifs, {"component:3-0": ["1", "2", "3"]},
                AncestorRule.motif_only(), stages_required=1)
    report = check_feasibility(lying, graph=g)
    assert not report.feasible
    assert any("does not observe" in v for v in report.violations)


def test_check_feasibility_needs_horizon_for_loaded_bigs():
    g = Graph(edges=[("1", "2")])
    big = load_big("FRAME\n1 2\nMOTIFS\nm 1 1 2\nEDGES\n1 m\n2 m\n")
    with pytest.raises(ValueError, match="stage horizon"):
        check_feasibility(big, graph=g)
    assert check_feasibility(big, graph=g, stages=1).feasible
    assert not check_feasibility(big, graph=g, stages=0).feasible


def test_full_rule_skips_ancestor_reach_but_motif_only_checks_it():
    members = MotifSet([Motif("m", frozenset(["a", "b"]))])
    full = snowball_big(PATH4, members, AncestorRule.full(2))
    assert full.ancestors("m") == {"u", "a", "b", "v"}
    # u and v are three hops apart, so neither snowball reaches the other,
    # yet the representation is valid: the full rule knows distances.
    assert check_feasibility(full, graph=PATH4).feasible

    stretched = Big(PATH4.labels, members, {"m": ["u", "a", "b", "v"]},
                    AncestorRule.motif_only(), stages_required=2)
    report = check_feasibility(stretched, graph=PATH4)
    assert not report.feasible
    assert any("not its ancestors" in v for v in report.violations)


def test_check_feasibility_acs_variants():
    pop = thompson1990()
    for label in ("acs-b-star", "acs-b-dagger"):
        report = check_feasibility(pop.bigs[label], design=pop.design,
                                   graph=pop.graph)
        assert report.feasible, (label, report.violations)

    # Selecting an edge grid alone never reveals the adjacent network, so
    # the network-and-boundary rule fails the ancestral-knowledge check.
    # That failure is what the eligibility-modified HT estimator works
    # around, so the checker must surface it rather than stay silent.
    report = check_feasibility(pop.bigs["acs-b"], design=pop.design,
                               graph=pop.graph)
    assert report.violations == (
        "selecting '2' observes motif '2' but not its ancestors ['10', '1000']",)


def _random_acs_grid(rng):
    rows, cols = rng.randint(1, 5), rng.randint(2, 5)
    cells = [f"r{r}c{c}" for r in range(rows) for c in range(cols)]
    edges = [(f"r{r}c{c}", f"r{r}c{c + 1}") for r in range(rows) for c in range(cols - 1)]
    edges += [(f"r{r}c{c}", f"r{r + 1}c{c}") for r in range(rows - 1) for c in range(cols)]
    y = {u: rng.choice([0, 0, 0, 1, 2, 7, 40]) for u in cells}
    return cells, edges, y


def test_acs_big_matches_the_flood_fill_oracle():
    # Each grid is built as given and as a directed copy whose arcs point
    # either way or both; networks ignore direction.
    rng = random.Random(2020)
    arc_rng = random.Random(2021)
    split = refused = 0
    for _ in range(100):
        cells, edges, y = _random_acs_grid(rng)
        for arcs, directed in ((edges, False), (random_orientation(arc_rng, edges), True)):
            grid = Graph(cells, arcs, directed)
            for label in ("acs-b", "acs-b-star", "acs-b-dagger"):
                want = oracle_acs_big(cells, arcs, y, 5, label)
                if isinstance(want, str):
                    refused += 1
                    with pytest.raises(InfeasibleError, match=re.escape(want)):
                        acs_big(grid, y, 5, AncestorRule.parse(label))
                    continue
                networks, edge_grids, beta = want
                big = acs_big(grid, y, 5, AncestorRule.parse(label))
                assert big.acs.networks == networks
                assert big.acs.edge_grids == edge_grids
                assert [(k, big.ancestors(k)) for k in big.motifs.keys()] == list(beta.items())
                split += len(networks) > 1
    assert split and refused


def test_acs_feasibility_expands_once_per_unit(monkeypatch):
    import bigs.big
    calls = []
    expand = bigs.big._acs_expand
    monkeypatch.setattr(bigs.big, "_acs_expand",
                        lambda *args: calls.append(args[-1]) or expand(*args))
    pop = thompson1990()
    for label in ("acs-b", "acs-b-star", "acs-b-dagger"):
        calls.clear()
        big = pop.bigs[label]
        check_feasibility(big, graph=pop.graph)
        assert calls == [frozenset([u]) for u in big.frame]


def test_acs_feasibility_matches_the_per_pair_oracle():
    rng = random.Random(1990)
    order_rng = random.Random(1991)
    violated = 0
    for _ in range(40):
        cells, edges, y = _random_acs_grid(rng)
        grid = Graph(cells, edges)
        for label in ("acs-b", "acs-b-star", "acs-b-dagger"):
            try:
                big = acs_big(grid, y, 5, AncestorRule.parse(label))
            except InfeasibleError:
                continue
            beta = {key: big.ancestors(key) for key in big.motifs.keys()}
            want = oracle_acs_feasibility(cells, edges, y, 5, beta)
            report = check_feasibility(big, graph=grid)
            assert (list(report.violations), report.checks) == want
            violated += bool(report.violations)
            # The same Big over a frame listed in another order.
            frame = order_rng.sample(cells, len(cells))
            shuffled = Big(frame, big.motifs, beta, big.rule, acs=big.acs)
            report = check_feasibility(shuffled, graph=grid)
            assert ((list(report.violations), report.checks)
                    == label_set_feasibility(shuffled, cells, edges, False))
    assert violated


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@example(_MIXED, 0)
@given(snowball_instances(), st.integers(0, 2 ** 32))
def test_check_feasibility_equals_the_label_set_loops(instance, seed):
    # Built, rebuilt over a shuffled frame, loaded from a file with that
    # frame, and with random ancestor sets that break the guarantees.
    nodes, edges, directed, members = instance
    rng = random.Random(seed)
    g = Graph(nodes, edges, directed)
    graph = (list(g.labels), list(g.edges()), directed)
    # Keys that sort against the motif order.
    motifs = MotifSet([Motif(f"m{len(members) - i}", m) for i, m in enumerate(members)])
    frame = rng.sample(g.labels, len(g.labels))
    cases = []
    for text in RULES:
        try:
            big = snowball_big(g, motifs, AncestorRule.parse(text))
        except InfeasibleError:
            continue
        beta = {key: big.ancestors(key) for key in motifs.keys()}
        shuffled = Big(frame, motifs, beta, big.rule, big.stages_required)
        loaded = load_big(dump_big(shuffled))
        cases += [(big, None), (shuffled, None), (loaded, big.stages_required)]
    lying = {key: rng.sample(frame, rng.randint(1, len(frame))) for key in motifs.keys()}
    for text in ("motif-only", "motif-plus:1"):
        rule = AncestorRule.parse(text)
        cases.append((Big(frame, motifs, lying, rule, rng.randint(0, 3)), None))
    for big, stages in cases:
        report = check_feasibility(big, graph=g, stages=stages)
        assert (list(report.violations), report.checks) == label_set_feasibility(
            big, *graph, stages=stages)
        with pytest.raises(ValueError) as refused:
            check_feasibility(big, graph=g, stages=-rng.randint(1, 3))
        assert str(refused.value) == "stages must be >= 0"
    # A frame unit that is not a node of the graph is refused as a seed,
    # whether it observes a motif or not; a negative horizon comes first.
    key = rng.choice(motifs.keys())
    for observes in (False, True):
        at = rng.randint(0, len(frame))
        beta = dict(lying, **{key: lying[key] + ["zz"]} if observes else {})
        big = Big(frame[:at] + ["zz"] + frame[at:], motifs, beta, AncestorRule.motif_only(), 1)
        assert bool(big.successors("zz")) == observes
        for stages, text in ((None, "seed 'zz' is not a node of the graph"),
                             (-1, "stages must be >= 0")):
            with pytest.raises(ValueError) as refused:
                check_feasibility(big, graph=g, stages=stages)
            assert str(refused.value) == text


def test_feasibility_searches_one_ball_per_unit_with_successors(monkeypatch):
    calls = []
    search = Graph._ball

    def counted(self, sources, depth=None, targets=None):
        calls.append(self.labels[sources[0]] if len(sources) == 1 else sources)
        return search(self, sources, depth, targets)

    # Triangles and paths on a graph with a tail and a far pair: the tail and
    # the pair observe no triangle, and the pair no path either.
    g = Graph(edges=[("1", "2"), ("2", "3"), ("1", "3"), ("3", "4"), ("4", "5"), ("6", "7")])
    for motif in ("k3", "p3"):
        motifs = enumerate_motifs(g, MotifClass(motif))
        for text in RULES:
            try:
                big = snowball_big(g, motifs, AncestorRule.parse(text))
            except InfeasibleError:
                continue
            beta = {key: big.ancestors(key) for key in motifs.keys()}
            shuffled = Big(big.frame[::-1], motifs, beta, big.rule, big.stages_required)
            monkeypatch.setattr(Graph, "_ball", counted)
            for b in (big, shuffled, load_big(dump_big(shuffled))):
                calls.clear()
                check_feasibility(b, graph=g, stages=big.stages_required)
                assert calls == [u for u in b.frame if b.successors(u)], (motif, text)
                assert len(calls) < len(b.frame), (motif, text)
            monkeypatch.undo()


def test_hot_paths_never_build_label_views(monkeypatch):
    # Parsing, printing, building, checking, pricing, weighing and
    # estimating read the integer positions, not the frozenset views.
    def refuse(self, _):
        raise AssertionError("a label view was built")

    monkeypatch.setattr(Big, "ancestors", refuse)
    monkeypatch.setattr(Big, "successors", refuse)
    motifs = enumerate_motifs(TRIANGLE_TAIL, MotifClass("k2"))
    for text in ("full:2", "motif-only", "motif-plus:1"):
        big = snowball_big(TRIANGLE_TAIL, motifs, AncestorRule.parse(text))
        back = load_big(dump_big(big))
        assert list(back.edges()) == list(big.edges()) and dump_big(back) == dump_big(big)
        assert check_feasibility(big, graph=TRIANGLE_TAIL).feasible
        assert check_feasibility(back, graph=TRIANGLE_TAIL, stages=big.stages_required).feasible
        design = Design.srswor(big.frame, 2)
        sample = realize_sample_big(big, ["1", "4"])
        for spec in map(EstimatorSpec.parse, ("ht", "hh:equal-share", "hh:inverse-alpha",
                                              "rb:hh:equal-share")):
            assert estimate(spec, design, big, sample).estimate
            assert exact_moments(design, big, spec).expectation == big.theta()
            monte_carlo_moments(design, big, spec, 20, 1)
        listed = Design.enumerated(big.frame, list(design.enumerate()))
        for d in (design, listed):
            for scheme in (WeightScheme.equal_share(), WeightScheme.inverse_alpha()):
                delta_matrix(big, d, scheme)
            for key in big.motifs.keys():
                first_order_inclusion(d, big, key)
            assert induced_ht_moments(motifs, d).expectation == motifs.total_y()
        assert srswor_equal_share_delta(big, design) == delta_matrix(
            big, design, WeightScheme.equal_share())
        rows = resolve_weights(big, WeightScheme.equal_share())
        table = {(u, key): w for key, row in rows.items() for u, w in row.items()}
        assert resolve_weights(big, WeightScheme.custom(table)) == rows
    pop = thompson1990()
    assert check_feasibility(pop.bigs["acs-b-star"], graph=pop.graph).feasible
    big = pop.bigs["acs-b"]
    sample = realize_sample_big(big, ["2", "10"])
    for spec in map(EstimatorSpec.parse, ("ht", "modified-ht", "rb:modified-ht")):
        estimate(spec, pop.design, big, sample)
        exact_moments(pop.design, big, spec)


_TOKENS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.tuples(st.sampled_from(["", "+", "-", "--", "+-"]),
              st.text("0123456789", max_size=5)).map("".join),
    st.text("0123456789+-_/.eE ٣²x", max_size=7),
    st.sampled_from(["3_000", "٣", "1e3", "3/7", "0.5", "1/0", "1" * 5000, " 7", "07"]),
)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_TOKENS)
def test_exact_reads_every_token_as_fraction_does(token):
    try:
        want = Fraction(token)
    except (ValueError, ZeroDivisionError) as refused:
        with pytest.raises(type(refused)):
            to_fraction(token)
        with pytest.raises(ParseError) as raised:
            exact(token, "y-value", 4)
        assert type(raised.value) is ParseError
        assert str(raised.value) == f"line 4: bad y-value {token!r}"
    else:
        for got in (exact(token, "y-value", 4), to_fraction(token)):
            assert type(got) is Fraction and got == want


@st.composite
def big_files(draw):
    """A Big as a file would carry it: a frame in an order of its own,
    motifs with or without members and any exact y-value, and units that
    may observe nothing."""
    labels = draw(st.lists(st.text("abxyz019", min_size=1, max_size=3),
                           min_size=1, max_size=8, unique=True))
    frame = draw(st.permutations(labels))
    keys = draw(st.lists(st.text("kmq.-_", min_size=1, max_size=3), max_size=6, unique=True))
    subsets = st.lists(st.sampled_from(frame), min_size=1, unique=True)
    motifs, beta = [], {}
    for key in keys:
        members = draw(st.one_of(st.none(), subsets.map(frozenset)))
        motifs.append(Motif(key, members))
        beta[key] = draw(subsets)
    y = {key: draw(st.fractions(max_denominator=12)) for key in keys}
    return Big(frame, MotifSet(motifs, y), beta, AncestorRule.full())


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(big_files())
def test_dump_and_load_round_trip_any_big(big):
    text = dump_big(big)
    back = load_big(text)
    assert back == big
    assert dump_big(back) == text
