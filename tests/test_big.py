"""Big construction rules, serialization, and feasibility checking."""

from fractions import Fraction

import pytest

from bigs import (AncestorRule, Big, Design, Graph, InfeasibleError, Motif,
                  MotifClass, MotifSet, ParseError, acs_big, check_feasibility,
                  dump_big, enumerate_motifs, first_order_inclusion, load_big,
                  snowball_big, thompson1990)

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
