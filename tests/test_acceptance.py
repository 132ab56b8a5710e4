"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
`pytest tests/test_acceptance.py -v -s`); the `-v` listing alone also
gives one verdict per criterion since every criterion is its own test.

Tolerances, stated once here and in each test:
  1   published per-sample estimates to 3 decimals (abs 5e-4), published
      variances to their 1-decimal print precision (abs 0.05), runtime
      under 1 second
  2   conditional Rao-Blackwell value to 3 decimals (abs 5e-4);
      invariance on the self-only graph checked with exact rationals
  3   inclusion probabilities to 4 decimals (rendered-string equality)
  4   point estimates to their published print precision (1 or 2
      decimals, rendered-string equality)
  5-8 exact integer / exact rational equality, no tolerance
  9   simulated variance within 3 Monte Carlo standard errors of the
      enumerated value; a repeated seed must reproduce every field
  10  strict rational inequality per motif class, no tolerance
"""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from bigs import (AncestorRule, Big, Design, EstimatorSpec, Graph, INFINITE,
                  Motif, MotifClass, MotifSet, WeightScheme,
                  builtin_population, delta_matrix, enumerate_motifs,
                  exact_moments, first_order_inclusion, geodesics, ht_estimate,
                  induced_ht_moments, monte_carlo_moments, motif_diameter,
                  observation_diameter, observation_distance, rao_blackwellize,
                  realize_sample_big, reproduce_table4, reproduce_thompson1990,
                  snowball_big, srswor_equal_share_delta, variance_difference)
from oracles import (INF, PATTERNS, build_adjacency, random_graph,
                     random_incidence, simulate_snowball_observation)


def _verdict(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number}: {status} - {detail}"
    print(line)
    assert passed, line


# Published five-grid strategy table: per-sample estimates on the
# per-grid scale under the unrestricted, self-only and network-only
# ancestor graphs, plus the published variances.
TABLE1_PUBLISHED = (
    (("1", "0"), "0.500", "0.500", "0.500"),
    (("1", "2"), "1.500", "1.500", "0.500"),
    (("0", "2"), "1.000", "1.000", "0.000"),
    (("1", "10"), "289.071", "289.071", "289.643"),
    (("1", "1000"), "289.071", "289.071", "289.643"),
    (("0", "10"), "288.571", "288.571", "289.143"),
    (("0", "1000"), "288.571", "288.571", "289.143"),
    (("2", "10"), "289.571", "289.571", "289.143"),
    (("2", "1000"), "289.571", "289.571", "289.143"),
    (("10", "1000"), "288.571", "288.571", "289.143"),
)
TABLE1_VARIANCES = (17418.4, 17418.4, 17533.7)

MOTIF_CLASSES = ("k1", "k2", "s2", "k3", "k4", "c4", "s3", "p3")
PATTERN_DIAMETERS = (0, 1, 2, 1, 1, 2, 2, 3)
PATTERN_OBS_DIAMETERS = (0, 1, 2, 2, 2, 2, 3, 3)


def test_criterion_01_five_grid_strategy_table():
    start = time.perf_counter()
    rep = reproduce_thompson1990()
    elapsed = time.perf_counter() - start
    problems = []
    for i, (sample, *published) in enumerate(TABLE1_PUBLISHED):
        if rep.samples[i] != sample:
            problems.append(f"sample order {rep.samples[i]} != {sample}")
            continue
        for j in range(3):
            got = f"{float(rep.columns[j].estimates[i]):.3f}"
            if got != published[j]:
                problems.append(f"{sample} col {j}: {got} != {published[j]}")
    for j, var in enumerate(TABLE1_VARIANCES):
        if abs(float(rep.columns[j].variance) - var) > 0.05:
            problems.append(f"variance col {j}: {float(rep.columns[j].variance)}")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    _verdict(1, not problems,
             problems[:3] or f"30/30 estimates to 3 decimals, variances "
             f"{TABLE1_VARIANCES[0]}/{TABLE1_VARIANCES[2]} to 0.05, "
             f"{elapsed * 1000:.0f} ms")


def test_criterion_02_rao_blackwell_conditioning():
    pop = builtin_population("thompson1990")
    rep = reproduce_thompson1990()
    rb_col = rep.column("acs-b:rb:modified-ht")
    problems = []

    # The three initial samples that realize the observed set {2,10,1000}
    # must share one conditional value, 289.238 to 3 decimals.
    conditioned = [rb_col.estimates[i] for i in (7, 8, 9)]
    if len(set(conditioned)) != 1:
        problems.append("conditional estimates differ across realizations")
    if abs(float(conditioned[0]) - 289.238) > 5e-4:
        problems.append(f"conditional value {float(conditioned[0]):.4f}")
    spec = EstimatorSpec.parse("modified-ht", scale="mean")
    big = pop.bigs["acs-b"]
    sample = realize_sample_big(big, frozenset({"10", "1000"}))
    direct = rao_blackwellize(spec, pop.design, big, sample)
    if direct.estimate != conditioned[0]:
        problems.append("direct conditioning disagrees with the table column")

    # On the self-only graph the estimator is already a function of the
    # observed sample, so conditioning must change nothing, exactly.
    star = pop.bigs["acs-b-star"]
    for s0, *_ in TABLE1_PUBLISHED:
        observed = realize_sample_big(star, frozenset(s0))
        base = ht_estimate(observed, pop.design, star)
        rb = rao_blackwellize(EstimatorSpec.parse("ht"), pop.design, star,
                              observed)
        if rb.estimate != base.estimate:
            problems.append(f"self-only graph changed at {s0}")
    _verdict(2, not problems,
             problems[:3] or "conditional value 289.238 to 3 decimals; "
             "self-only estimates invariant for all 10 samples, exact")


def test_criterion_03_ancestor_size_inclusion_probabilities():
    pop = builtin_population("table4-bigs")
    expected = {("t2", "A"): (4, "0.1923"), ("t2", "B"): (4, "0.1923"),
                ("t2", "C"): (4, "0.1923"), ("t4", "A"): (15, "0.6154"),
                ("t4", "B"): (16, "0.6462"), ("t4", "C"): (14, "0.5833"),
                ("t4", "D"): (12, "0.5154")}
    problems = []
    for (label, key), (size, published) in sorted(expected.items()):
        big = pop.bigs[label]
        if len(big.ancestors(key)) != size:
            problems.append(f"{label}/{key}: ancestor count "
                            f"{len(big.ancestors(key))} != {size}")
            continue
        got = f"{float(first_order_inclusion(pop.design, big, key)):.4f}"
        if got != published:
            problems.append(f"{label}/{key}: {got} != {published}")
    _verdict(3, not problems,
             problems[:3] or "7 inclusion probabilities over ancestor sizes "
             "4/15/16/14/12 match to 4 decimals")


def test_criterion_04_forty_unit_point_estimates():
    rep = reproduce_table4()
    published = ((("t2", "ht"), 1, "15.6"),
                 (("t2", "hh:equal-share"), 1, "15.0"),
                 (("t2", "hh:inverse-alpha"), 1, "13.6"),
                 (("t4", "ht"), 2, "6.83"),
                 (("t4", "hh:equal-share"), 2, "5.68"))
    problems = []
    for (label, estimator), places, text in published:
        got = f"{float(rep.value(label, estimator)):.{places}f}"
        if got != text:
            problems.append(f"{label} {estimator}: {got} != {text}")
    _verdict(4, not problems,
             problems[:3] or "5 point estimates match published precision")


def test_criterion_05_pattern_diameters_and_stage_requirements():
    problems = []
    for label, lam, phi in zip(MOTIF_CLASSES, PATTERN_DIAMETERS,
                               PATTERN_OBS_DIAMETERS):
        ids, edges = PATTERNS[label]
        g = Graph([f"n{i}" for i in ids],
                  [(f"n{a}", f"n{b}") for a, b in edges])
        motifs = enumerate_motifs(g, MotifClass.parse(label))
        if len(motifs) != 1:
            problems.append(f"{label}: {len(motifs)} embeddings, wanted 1")
            continue
        motif = next(iter(motifs))
        if motif_diameter(motif, g) != lam:
            problems.append(f"{label}: diameter != {lam}")
        if observation_diameter(motif, g) != phi:
            problems.append(f"{label}: observation diameter != {phi}")
        only = snowball_big(g, motifs, AncestorRule.motif_only())
        if only.stages_required != phi:
            problems.append(f"{label}: member-only stages != {phi}")
        plus = snowball_big(g, motifs, AncestorRule.motif_plus(1))
        if plus.stages_required != lam + 2:
            problems.append(f"{label}: radius-1 stages != {lam + 2}")
        adj = build_adjacency(list(g.labels), list(g.edges()))
        for node in g.labels:
            sim = simulate_snowball_observation(adj, node, motif.members, 8)
            if observation_distance(motif, node, g) != sim:
                problems.append(f"{label}: distance from {node} != simulated")
    _verdict(5, not problems,
             problems[:3] or "8 classes: diameters, observation diameters and "
             "stage requirements exact, confirmed by stagewise simulation")


@lru_cache(maxsize=1)
def _random_incidence_suite():
    """200 reproducible random ancestor graphs with their designs."""
    rng = random.Random(20260825)
    suite = []
    while len(suite) < 200:
        frame, beta, y = random_incidence(rng)
        if len(frame) < 3:
            continue
        motifs = MotifSet([Motif(key) for key in sorted(beta)], y)
        big = Big(tuple(frame), motifs, beta, AncestorRule.full(2),
                  stages_required=2)
        design = Design.srswor(frame, rng.randint(2, len(frame) - 1))
        suite.append((big, design))
    return tuple(suite)


def test_criterion_06_estimator_unbiasedness_exact():
    start = time.perf_counter()
    suite = _random_incidence_suite()
    checked = 0
    problems = []
    for big, design in suite:
        for text in ("ht", "hh:equal-share", "hh:inverse-alpha"):
            moments = exact_moments(design, big, EstimatorSpec.parse(text))
            checked += 1
            if moments.expectation != big.theta():
                problems.append(f"{text} biased on {len(big.frame)}-unit frame")
    elapsed = time.perf_counter() - start
    if len(suite) < 200:
        problems.append(f"only {len(suite)} graphs")
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s")
    _verdict(6, not problems,
             problems[:3] or f"{checked} enumerations over {len(suite)} random "
             f"ancestor graphs, zero rational error, {elapsed:.1f}s")


def test_criterion_07_variance_difference_identity():
    suite = _random_incidence_suite()
    problems = []
    for big, design in suite:
        base = exact_moments(design, big, EstimatorSpec.parse("ht")).variance
        equal_delta = delta_matrix(big, design, WeightScheme.equal_share())
        inverse_delta = delta_matrix(big, design, WeightScheme.inverse_alpha())
        for text, delta in (("hh:equal-share", equal_delta),
                            ("hh:inverse-alpha", inverse_delta)):
            hh = exact_moments(design, big, EstimatorSpec.parse(text)).variance
            if variance_difference(delta, big.motifs) != hh - base:
                problems.append(f"{text} identity broken")
        closed = srswor_equal_share_delta(big, design)
        for k in closed.keys:
            for l in closed.keys:
                if closed.entry(k, l) != equal_delta.entry(k, l):
                    problems.append(f"closed form differs at ({k},{l})")
    _verdict(7, not problems,
             problems[:3] or f"matrix identity and closed form exact on "
             f"{len(suite)} random ancestor graphs, both weightings")


def test_criterion_08_observation_distance_matches_simulation():
    rng = random.Random(88)
    graphs = 0
    pairs = 0
    problems = []
    while graphs < 100:
        nodes, edges = random_graph(rng)
        g = Graph(nodes, edges)
        adj = build_adjacency(nodes, edges)
        limit = len(nodes) + 1
        for label in MOTIF_CLASSES:
            for motif in enumerate_motifs(g, MotifClass.parse(label)):
                for node in nodes:
                    formula = observation_distance(motif, node, g)
                    sim = simulate_snowball_observation(adj, node,
                                                        motif.members, limit)
                    expected = INFINITE if sim == INF else sim
                    pairs += 1
                    if formula != expected:
                        problems.append(
                            f"{label} {sorted(motif.members)} from {node}: "
                            f"{formula} != {expected}")
        graphs += 1
    _verdict(8, not problems,
             problems[:3] or f"{pairs} (node, motif) pairs over {graphs} "
             f"random graphs agree exactly with stagewise simulation")


def test_criterion_09_monte_carlo_agrees_with_enumeration():
    pop = builtin_population("thompson1990")
    big = pop.bigs["acs-b-star"]
    spec = EstimatorSpec.parse("ht", scale="mean")
    exact = exact_moments(pop.design, big, spec)
    first = monte_carlo_moments(pop.design, big, spec, 100_000, 20260825)
    again = monte_carlo_moments(pop.design, big, spec, 100_000, 20260825)
    problems = []
    if first != again:
        problems.append("identical seed gave different output")
    gap = abs(first.variance - float(exact.variance))
    if gap > 3 * first.se_variance:
        problems.append(f"variance off by {gap / first.se_variance:.1f} SE")
    _verdict(9, not problems,
             problems[:3] or f"100000 replicates: variance {first.variance:.1f}"
             f" vs exact {float(exact.variance):.1f}"
             f" ({gap / first.se_variance:.2f} SE); seeded rerun identical")


# A 40-node, 72-edge population with one planted instance of each
# order-3 and order-4 pattern; the remaining edges are a seeded random
# fill that never touches a pair inside a planted group, so every
# planted instance stays induced.
PLANTED_EDGES = (("1", "2"), ("1", "3"), ("2", "3"),
                 ("4", "5"), ("4", "6"), ("4", "7"),
                 ("5", "6"), ("5", "7"), ("6", "7"),
                 ("8", "9"), ("9", "10"), ("10", "11"), ("8", "11"),
                 ("12", "13"), ("12", "14"), ("12", "15"),
                 ("16", "17"), ("17", "18"), ("18", "19"))
PLANTED_GROUPS = (("1", "2", "3"), ("4", "5", "6", "7"),
                  ("8", "9", "10", "11"), ("12", "13", "14", "15"),
                  ("16", "17", "18", "19"))


def _planted_population():
    rng = random.Random(4072)
    nodes = [str(i) for i in range(1, 41)]
    forbidden = {frozenset(pair) for group in PLANTED_GROUPS
                 for pair in itertools.combinations(group, 2)}
    pool = [pair for pair in itertools.combinations(nodes, 2)
            if frozenset(pair) not in forbidden]
    rng.shuffle(pool)
    return Graph(nodes, list(PLANTED_EDGES) + pool[:72 - len(PLANTED_EDGES)])


def _expected_observed_nodes(g, geo, stages):
    """Mean node count within the given radius of a size-2 seed set."""
    total = Fraction(0)
    count = 0
    for a, b in itertools.combinations(g.labels, 2):
        total += sum(1 for v in g.labels
                     if min(geo.distance(a, v), geo.distance(b, v)) <= stages)
        count += 1
    return total / count


def test_criterion_10_induced_observation_less_efficient():
    g = _planted_population()
    assert g.n_nodes == 40 and g.n_edges == 72
    geo = geodesics(g)
    seed_design = Design.srswor(g.labels, 2)
    # Induced-observation designs sized to the expected number of nodes
    # a 1-stage and a 2-stage snowball would reveal (here 9 and 22).
    n_one = round(_expected_observed_nodes(g, geo, 1))
    n_two = round(_expected_observed_nodes(g, geo, 2))
    one_stage = Design.srswor(g.labels, n_one)
    two_stage = Design.srswor(g.labels, n_two)
    minimal_stages = {"s2": 2, "k3": 2, "k4": 2, "c4": 2, "s3": 3, "p3": 3}
    problems = []
    ratios = []
    for label in ("s2", "k3", "k4", "c4", "s3", "p3"):
        motifs = enumerate_motifs(g, MotifClass.parse(label))
        if not len(motifs):
            problems.append(f"{label}: no instances in the planted graph")
            continue
        big = snowball_big(g, motifs, AncestorRule.motif_only())
        if big.stages_required != minimal_stages[label]:
            problems.append(f"{label}: stages {big.stages_required}")
        snowball = exact_moments(seed_design, big, EstimatorSpec.parse("ht"))
        induced = induced_ht_moments(motifs, one_stage)
        if not induced.mse > snowball.mse:
            problems.append(f"{label}: induced mse not larger")
        else:
            ratios.append(float(induced.mse / snowball.mse))
        # At equal expected node counts the gap persists for the
        # order-4 classes, where full selection is hardest.
        if label in ("k4", "c4", "s3", "p3"):
            matched = induced_ht_moments(motifs, two_stage)
            if not matched.mse > snowball.mse:
                problems.append(f"{label}: matched-size induced mse not larger")
    _verdict(10, not problems,
             problems[:3] or f"induced observation (n={n_one}) mse larger for "
             f"all 6 classes (ratios {min(ratios):.1f}-{max(ratios):.0f}x); "
             f"order-4 gap persists at matched n={n_two}")
