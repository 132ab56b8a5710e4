"""Ball-local snowball traversal against whole-graph oracles.

snowball_sample, snowball_big and the snowball branch of
check_feasibility search only a ball around the seeds or the motif
members. These seeded random instances, undirected and directed, with
isolated nodes and several components, compare them with the
whole-graph scans and all-pairs distances in tests/oracles.py.
"""

import itertools
import random

import pytest

from bigs import (AncestorRule, Graph, InfeasibleError, Motif, MotifClass,
                  MotifSet, check_feasibility, connected_components,
                  enumerate_motifs, snowball_big, snowball_sample)

from oracles import (first_appearance, oracle_snowball_big,
                     oracle_snowball_feasibility, oracle_snowball_sample)

RULES = ("full:0", "full:1", "full:2", "full:3", "motif-only",
         "motif-plus:1", "motif-plus:2")


def random_graph(rng, directed):
    """Up to nine nodes, sparse enough for isolated nodes and several
    components; some nodes are declared, the rest appear through edges."""
    labels = [f"v{i}" for i in rng.sample(range(30), rng.randint(1, 9))]
    p = rng.choice((0.12, 0.25, 0.4))
    pairs = itertools.permutations(labels, 2) if directed else itertools.combinations(labels, 2)
    edges = [(u, v) if directed or rng.random() < 0.5 else (v, u)
             for u, v in pairs if rng.random() < p]
    rng.shuffle(edges)
    touched = {u for e in edges for u in e}
    declared = [u for u in labels if u not in touched or rng.random() < 0.3]
    return declared, edges


def graphs(seed, count):
    rng = random.Random(seed)
    for n in range(count):
        directed = n % 2 == 1
        nodes, edges = random_graph(rng, directed)
        yield rng, nodes, edges, Graph(nodes, edges, directed)


def test_snowball_sample_equals_whole_graph_scan():
    shapes = set()
    for rng, nodes, edges, g in graphs(31, 60):
        shapes.add((g.directed, g.n_nodes > len({u for e in edges for u in e})))
        for stages in range(4):
            for size in range(1, min(3, g.n_nodes) + 1):
                seeds = rng.sample(g.labels, size)
                s = snowball_sample(g, seeds, stages)
                seen, observed, resolved, waves = oracle_snowball_sample(
                    nodes, edges, g.directed, seeds, stages)
                assert (s.mode, s.seeds, s.stages) == ("incident", set(seeds), stages)
                assert s.nodes == seen
                assert s.edges == observed
                assert s.resolved == resolved
                assert s.waves == waves
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def motif_sets(rng, g):
    """Enumerated classes, plus hand-made singleton, split-pair and triple motifs."""
    sets = [enumerate_motifs(g, MotifClass.parse(c)) for c in ("k1", "k2", "s2", "k3")]
    sets = [ms for ms in sets if len(ms)]
    sets.append(MotifSet([Motif("single", frozenset([rng.choice(g.labels)]))]))
    heads = [min(comp) for comp in connected_components(g)]
    if len(heads) >= 2:
        sets.append(MotifSet([Motif("split", frozenset(rng.sample(heads, 2)))]))
    if g.n_nodes >= 3:
        sets.append(MotifSet([Motif("trio", frozenset(rng.sample(g.labels, 3)))]))
    return sets


def test_snowball_big_and_feasibility_equal_all_pairs_oracle():
    built = refused = violated = 0
    for rng, nodes, edges, g in graphs(32, 24):
        for motifs in motif_sets(rng, g):
            members = {m.key: m.members for m in motifs}
            for text in RULES:
                rule = AncestorRule.parse(text)
                want = oracle_snowball_big(nodes, edges, members, rule.kind, rule.t)
                if want is None:
                    with pytest.raises(InfeasibleError):
                        snowball_big(g, motifs, rule)
                    refused += 1
                    continue
                beta, stages = want
                big = snowball_big(g, motifs, rule)
                built += 1
                assert list(big.frame) == first_appearance(nodes, edges)
                assert {k: big.ancestors(k) for k in members} == beta
                assert big.stages_required == stages
                verify_reach = rule.kind != "full"
                for horizon in {stages, max(stages - 1, 0), rng.randint(0, 3)}:
                    report = check_feasibility(big, graph=g, stages=horizon)
                    violations, checks = oracle_snowball_feasibility(
                        nodes, edges, members, beta, horizon, verify_reach)
                    assert list(report.violations) == violations
                    assert report.checks == checks
                    violated += bool(violations)
    assert built > 400 and refused > 100 and violated > 200
