"""Estimator evaluation, Rao-Blackwellization, moments, variance matrices."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bigs import (AncestorRule, Big, Design, DesignError, EnumerationCapError,
                  EstimatorSpec, Graph, Motif, MotifSet, SampleBig, WeightError,
                  WeightScheme, acs_big, delta_matrix, enumerate_moments, estimate,
                  exact_moments, first_order_inclusion, hh_estimate, ht_estimate,
                  induced_ht_moments,
                  monte_carlo_moments, rao_blackwellize, realize_sample_big,
                  resolve_weights, srswor_equal_share_delta,
                  thompson1990, variance_difference)

from oracles import (oracle_delta, oracle_hh_moments, oracle_ht_moments,
                     oracle_induced_moments, oracle_inverse_alpha, oracle_pair_ratios,
                     random_incidence, srswor_samples)

MODIFIED = EstimatorSpec.parse("modified-ht")


def _make_big(frame, beta, y):
    motifs = MotifSet([Motif(k) for k in sorted(beta)], y)
    return Big(frame, motifs, beta, AncestorRule.full())


def _demo_big():
    # Three units, three motifs; unit b carries two motifs.
    beta = {"x": ["a", "b"], "y": ["b"], "z": ["c"]}
    return _make_big(["a", "b", "c"], beta, {"x": 6, "y": 2, "z": 1})


def test_equal_share_weights():
    rows = resolve_weights(_demo_big(), WeightScheme.equal_share())
    assert rows["x"] == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert rows["y"] == {"b": Fraction(1)}
    assert all(sum(row.values()) == 1 for row in rows.values())


def test_inverse_alpha_weights_from_big_and_supplied():
    big = _demo_big()
    rows = resolve_weights(big, WeightScheme.inverse_alpha())
    # alpha sizes: a->1, b->2, c->1; motif x gets 1 : 1/2 normalized.
    assert rows["x"] == {"a": Fraction(2, 3), "b": Fraction(1, 3)}
    assert rows["y"] == {"b": Fraction(1)}

    supplied = resolve_weights(big, WeightScheme.inverse_alpha({"a": 4, "b": 4, "c": 1}))
    assert supplied["x"] == {"a": Fraction(1, 2), "b": Fraction(1, 2)}

    with pytest.raises(WeightError, match="no successor count"):
        resolve_weights(big, WeightScheme.inverse_alpha({"a": 1}))
    with pytest.raises(WeightError, match=">= 1"):
        resolve_weights(big, WeightScheme.inverse_alpha({"a": 0, "b": 1, "c": 1}))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(("big", "valid", "faulty")))
def test_inverse_alpha_weights_equal_the_textbook_formula(seed, counts_from):
    """Weights from the Big's successor counts or from supplied ones. With
    faulty supplied counts, some missing and some below one, the error
    names the first failing ancestor in motif order, then frame order."""
    rng = random.Random(seed)
    frame, beta, y = random_incidence(rng)
    big = _make_big(frame, beta, y)
    if counts_from == "big":
        supplied = None
        counts = {u: sum(u in anc for anc in beta.values()) for u in frame}
    else:
        choices = (1, 2, 3, 5, 6) if counts_from == "valid" else (None, 0, -1, 1, 2, 3)
        counts = {u: rng.choice(choices) for u in frame}
        supplied = {u: c for u, c in counts.items() if c is not None}
    failure = None
    for u in (u for m in big.motifs for u in sorted(beta[m.key], key=frame.index)):
        if supplied is not None and u not in supplied:
            failure = f"no successor count supplied for unit {u!r}"
        elif counts[u] < 1:
            failure = f"unit {u!r} has successor count {counts[u]}; need >= 1"
        if failure:
            break
    if failure is None:
        assert resolve_weights(big, WeightScheme.inverse_alpha(supplied)) == \
            oracle_inverse_alpha(beta, counts)
    else:
        with pytest.raises(WeightError) as raised:
            resolve_weights(big, WeightScheme.inverse_alpha(supplied))
        assert str(raised.value) == failure


def test_hh_point_estimate_checks_weights_beyond_the_seeds():
    # Seed c observes only z, whose row needs no weight of a or b, yet a
    # scheme that is bad for a or for motif x is refused as a whole.
    big = _demo_big()
    design = Design.srswor(big.frame, 1)
    sample = realize_sample_big(big, ["c"])

    def hh(scheme):
        return estimate(EstimatorSpec("hh", scheme), design, big, sample).estimate

    assert hh(WeightScheme.inverse_alpha({"a": 1, "b": 1, "c": 1})) == 3
    with pytest.raises(WeightError, match="no successor count supplied for unit 'a'"):
        hh(WeightScheme.inverse_alpha({"b": 1, "c": 1}))
    with pytest.raises(WeightError, match="unit 'a' has successor count 0"):
        hh(WeightScheme.inverse_alpha({"a": 0, "b": 1, "c": 1}))
    table = {("a", "x"): "1/3", ("b", "x"): "1/3", ("b", "y"): 1, ("c", "z"): 1}
    with pytest.raises(WeightError, match="motif 'x' sum to 2/3"):
        hh(WeightScheme.custom(table))


def test_custom_weights_must_sum_to_one_exactly():
    big = _demo_big()
    table = {("a", "x"): "1/3", ("b", "x"): "2/3", ("b", "y"): 1, ("c", "z"): 1}
    rows = resolve_weights(big, WeightScheme.custom(table))
    assert rows["x"]["a"] == Fraction(1, 3)

    bad = dict(table)
    bad[("a", "x")] = "0.333333"
    with pytest.raises(WeightError, match="must be exactly 1"):
        resolve_weights(big, WeightScheme.custom(bad))
    with pytest.raises(WeightError, match="not an ancestor"):
        resolve_weights(big, WeightScheme.custom({**table, ("c", "x"): 0}))
    with pytest.raises(WeightError, match="unknown motif"):
        resolve_weights(big, WeightScheme.custom({**table, ("a", "zz"): 1}))
    with pytest.raises(WeightError):
        resolve_weights(big, WeightScheme.custom({("a", "x"): 1}))


def test_weight_scheme_validation_and_parse():
    assert WeightScheme.parse("equal-share").kind == "equal-share"
    assert WeightScheme.parse("inverse-alpha").kind == "inverse-alpha"
    with pytest.raises(ValueError):
        WeightScheme.parse("made-up")
    with pytest.raises(ValueError):
        WeightScheme("custom")
    with pytest.raises(ValueError):
        WeightScheme("equal-share", alpha_sizes={"a": 1})


def test_estimator_spec_parse_and_label():
    spec = EstimatorSpec.parse("rb:hh:equal-share", scale="mean")
    assert spec.kind == "hh" and spec.rao_blackwell and spec.scale == "mean"
    assert spec.label == "rb:hh:equal-share"
    assert EstimatorSpec.parse("ht").label == "ht"
    assert EstimatorSpec.parse("modified-ht").kind == "modified-ht"
    with pytest.raises(ValueError):
        EstimatorSpec.parse("hh")
    with pytest.raises(ValueError):
        EstimatorSpec.parse("rb:")
    with pytest.raises(ValueError):
        EstimatorSpec("ht", weights=WeightScheme.equal_share())
    with pytest.raises(ValueError):
        EstimatorSpec("hh")
    with pytest.raises(ValueError):
        EstimatorSpec("ht", scale="median")


def test_ht_estimate_by_hand():
    big = _demo_big()
    d = Design.srswor(big.frame, 2)
    sample = realize_sample_big(big, ["a", "c"])
    report = ht_estimate(sample, d, big)
    # pi_x = 1 - C(1,2)/C(3,2) = 1, pi_z = 2/3.
    assert dict((k, p) for k, p, _ in report.contributions) == {
        "x": Fraction(1), "z": Fraction(2, 3)}
    assert report.estimate == 6 + Fraction(3, 2)
    assert float(report) == 7.5

    mean = ht_estimate(sample, d, big, scale="mean")
    assert mean.estimate == report.estimate / 3
    assert mean.scale == "mean"


def test_hh_estimate_by_hand():
    big = _demo_big()
    d = Design.srswor(big.frame, 2)
    sample = realize_sample_big(big, ["b", "c"])
    report = hh_estimate(sample, d, big, WeightScheme.equal_share())
    # z_b = 6/2 + 2 = 5, z_c = 1; pi = 2/3 each.
    assert [r[0] for r in report.contributions] == ["b", "c"]
    assert report.estimate == Fraction(15, 2) + Fraction(3, 2)


def test_hh_equals_ht_when_every_motif_has_one_ancestor():
    beta = {"x": ["a"], "y": ["b"], "z": ["b"]}
    big = _make_big(["a", "b", "c"], beta, {"x": 5, "y": 1, "z": 3})
    d = Design.srswor(big.frame, 2)
    for seeds, _ in d.enumerate():
        sample = realize_sample_big(big, seeds)
        ht = ht_estimate(sample, d, big).estimate
        hh = hh_estimate(sample, d, big, WeightScheme.equal_share()).estimate
        assert ht == hh


def test_modified_ht_needs_acs_context():
    big = _demo_big()
    d = Design.srswor(big.frame, 2)
    sample = realize_sample_big(big, ["a", "b"])
    with pytest.raises(DesignError, match="adaptive-cluster"):
        estimate(MODIFIED, d, big, sample)


def test_modified_ht_equals_ht_without_edge_grids():
    g = Graph(edges=[("a", "b")], nodes=["c"])
    big = acs_big(g, {"a": 9, "b": 9, "c": 1}, 5, AncestorRule.acs_b())
    assert big.acs.edge_grids == frozenset()
    d = Design.srswor(big.frame, 2)
    for seeds, _ in d.enumerate():
        sample = realize_sample_big(big, seeds)
        assert (estimate(MODIFIED, d, big, sample).estimate
                == ht_estimate(sample, d, big).estimate)


def test_modified_ht_equals_plain_ht_under_restricted_representation():
    pop = thompson1990()
    star = pop.bigs["acs-b-star"]
    b = pop.bigs["acs-b"]
    for seeds, _ in pop.design.enumerate():
        via_star = ht_estimate(realize_sample_big(star, seeds), pop.design, star)
        via_mod = estimate(MODIFIED, pop.design, b, realize_sample_big(b, seeds))
        assert via_star.estimate == via_mod.estimate


def test_modified_ht_skips_unselected_edge_grids():
    pop = thompson1990()
    big = pop.bigs["acs-b"]
    sample = realize_sample_big(big, ["10", "1000"])
    report = estimate(MODIFIED, pop.design, big, sample)
    assert "2" in sample.motifs
    assert "2" not in [k for k, _, _ in report.contributions]

    direct = estimate(MODIFIED, pop.design, big, realize_sample_big(big, ["2", "1"]))
    pi_direct = dict((k, p) for k, p, _ in direct.contributions)["2"]
    assert pi_direct == pop.design.inclusion(["2"])


def test_rao_blackwellize_averages_over_matching_samples():
    big = _demo_big()
    d = Design.srswor(big.frame, 2)
    spec = EstimatorSpec.parse("hh:equal-share")
    # The full motif set {x, y, z} needs b (for x, y) and c (for z), so
    # {b, c} is the only matching initial sample and RB changes nothing.
    observed = realize_sample_big(big, ["b", "c"])
    report = rao_blackwellize(spec, d, big, observed)
    base = hh_estimate(observed, d, big, WeightScheme.equal_share()).estimate
    assert report.estimate == base
    assert len(report.contributions) == 1
    assert report.contributions[0][0] == "b c"
    assert report.contributions[0][1] == 1


def test_rao_blackwellize_mixes_probabilities():
    # Enumerated design with unequal point probabilities over a one-motif
    # big: both supports realize the motif, so RB averages the estimates
    # with the renormalized design weights.
    beta = {"m": ["a", "b"]}
    big = _make_big(["a", "b"], beta, {"m": 4})
    d = Design.enumerated(["a", "b"], [(frozenset("a"), Fraction(1, 4)),
                                       (frozenset("b"), Fraction(3, 4))])
    spec = EstimatorSpec.parse("hh:equal-share")
    observed = realize_sample_big(big, ["a"])
    report = rao_blackwellize(spec, d, big, observed)
    est_a = hh_estimate(realize_sample_big(big, ["a"]), d, big,
                        WeightScheme.equal_share()).estimate
    est_b = hh_estimate(realize_sample_big(big, ["b"]), d, big,
                        WeightScheme.equal_share()).estimate
    assert report.estimate == Fraction(1, 4) * est_a + Fraction(3, 4) * est_b


def test_rao_blackwellize_rejects_impossible_observation():
    pop = thompson1990()
    big = pop.bigs["acs-b"]
    ghost = SampleBig(frozenset(["1"]), ("1",), frozenset(), frozenset())
    spec = EstimatorSpec.parse("ht")
    with pytest.raises(DesignError, match="no initial sample"):
        rao_blackwellize(spec, pop.design, big, ghost)


def test_sample_evaluator_agrees_with_report_functions():
    pop = thompson1990()
    big = pop.bigs["acs-b"]
    d = pop.design
    specs = [EstimatorSpec.parse(label)
             for label in ("ht", "hh:inverse-alpha", "modified-ht", "rb:modified-ht")]
    samples = []
    enumerate_moments(d, big, specs, samples=samples)
    for seeds, _, (ht_value, hh_value, mod_value, rb_value) in samples:
        sample = realize_sample_big(big, seeds)
        assert ht_value == ht_estimate(sample, d, big).estimate
        assert hh_value == hh_estimate(
            sample, d, big, WeightScheme.inverse_alpha()).estimate
        assert mod_value == estimate(MODIFIED, d, big, sample).estimate
        assert rb_value == rao_blackwellize(
            EstimatorSpec.parse("modified-ht"), d, big, sample).estimate


def test_exact_moments_unbiased_and_matches_oracle():
    big = _demo_big()
    d = Design.srswor(big.frame, 2)
    beta = {k: big.ancestors(k) for k in big.motifs.keys()}
    y = {k: big.motifs.y(k) for k in big.motifs.keys()}

    ht = exact_moments(d, big, EstimatorSpec.parse("ht"))
    want_e, want_v = oracle_ht_moments(big.frame, 2, beta, y)
    assert ht.expectation == want_e == big.theta() == 9
    assert ht.variance == want_v
    assert ht.mse == ht.variance
    assert ht.bias == 0
    assert ht.support == 3

    hh = exact_moments(d, big, EstimatorSpec.parse("hh:equal-share"))
    want_e, want_v = oracle_hh_moments(big.frame, 2, beta, y, "equal-share")
    assert hh.expectation == want_e == 9
    assert hh.variance == want_v

    mean = exact_moments(d, big, EstimatorSpec.parse("ht", scale="mean"))
    assert mean.expectation == 3
    assert mean.target == 3
    assert mean.variance == ht.variance / 9


def test_exact_moments_respects_cap():
    big = _demo_big()
    d = Design.srswor(big.frame, 2)
    with pytest.raises(EnumerationCapError):
        exact_moments(d, big, EstimatorSpec.parse("ht"), cap=2)


def test_rao_blackwell_never_increases_variance():
    rng = random.Random(2468)
    for _ in range(10):
        frame, beta, y = random_incidence(rng, max_frame=5, max_motifs=4)
        n = rng.randint(1, len(frame))
        big = _make_big(frame, beta, y)
        d = Design.srswor(frame, n)
        for label in ("ht", "hh:equal-share"):
            plain = exact_moments(d, big, EstimatorSpec.parse(label))
            rb = exact_moments(d, big, EstimatorSpec.parse("rb:" + label))
            assert rb.expectation == plain.expectation
            assert rb.variance <= plain.variance


def test_variance_difference_identity_on_random_incidence_graphs():
    rng = random.Random(1357)
    done = 0
    while done < 12:
        frame, beta, y = random_incidence(rng, max_frame=5, max_motifs=4)
        if len(frame) < 2:
            continue
        n = rng.randint(2, len(frame))
        big = _make_big(frame, beta, y)
        d = Design.srswor(frame, n)
        samples = list(srswor_samples(frame, n))
        listed = Design.enumerated(frame, [(s, Fraction(1, len(samples))) for s in samples])
        for scheme in (WeightScheme.equal_share(), WeightScheme.inverse_alpha()):
            delta = delta_matrix(big, d, scheme)
            hh = exact_moments(d, big, EstimatorSpec("hh", weights=scheme))
            ht = exact_moments(d, big, EstimatorSpec.parse("ht"))
            assert hh.variance - ht.variance == variance_difference(delta, big.motifs)
            assert delta_matrix(big, listed, scheme).entries == delta.entries
        closed = srswor_equal_share_delta(big, d)
        general = delta_matrix(big, d, WeightScheme.equal_share())
        for k in closed.keys:
            for l in closed.keys:
                assert closed.entry(k, l) == general.entry(k, l)
        done += 1


def _weighted_points(rng, frame):
    """A listed design with unequal probabilities; the whole frame is one of
    its points, so every pair of units is selected together."""
    subsets = {frozenset(rng.sample(frame, rng.randint(1, len(frame)))) for _ in range(3)}
    subsets = sorted(subsets | {frozenset(frame)}, key=sorted)
    weights = [rng.randint(1, 5) for _ in subsets]
    return [(s, Fraction(w, sum(weights))) for s, w in zip(subsets, weights)]


def test_delta_matrix_matches_the_counting_oracle():
    rng = random.Random(2718)
    for _ in range(10):
        frame, beta, y = random_incidence(rng, max_frame=5, max_motifs=4)
        n = rng.randint(2, len(frame))
        big = _make_big(frame, beta, y)
        srs = Design.srswor(frame, n)
        points = _weighted_points(rng, frame)
        alpha = {u: sum(u in anc for anc in beta.values()) for u in frame}
        table = {(u, k): Fraction(rng.randint(1, 4)) for k, anc in beta.items() for u in anc}
        custom = {k: {u: table[u, k] / sum(table[v, k] for v in anc) for u in anc}
                  for k, anc in beta.items()}
        # A custom table may leave ancestors out of a row.
        sparse = {k: dict.fromkeys(part, Fraction(1, len(part)))
                  for k, anc in beta.items()
                  for part in [rng.sample(sorted(anc), rng.randint(1, len(anc)))]}
        schemes = [
            (WeightScheme.equal_share(),
             {k: {u: Fraction(1, len(anc)) for u in anc} for k, anc in beta.items()}),
            (WeightScheme.inverse_alpha(),
             {k: {u: Fraction(1, alpha[u]) / sum(Fraction(1, alpha[v]) for v in anc)
                  for u in anc} for k, anc in beta.items()}),
            (WeightScheme.custom({(u, k): w for k, row in custom.items()
                                  for u, w in row.items()}), custom),
            (WeightScheme.custom({(u, k): w for k, row in sparse.items()
                                  for u, w in row.items()}), sparse),
        ]
        for design, support in ((srs, list(srs.enumerate())),
                                (Design.enumerated(frame, points), points)):
            for scheme, rows in schemes:
                delta = delta_matrix(big, design, scheme)
                assert delta.keys == tuple(sorted(beta))
                assert delta.entries == oracle_delta(support, beta, rows)
        # The paper's closed form, with π_(kl) / (π_(k) π_(l)) counted.
        N = len(frame)
        lead = Fraction(N * N, n * (N - 1)) * (1 - Fraction(n, N))
        tail = Fraction(N * (n - 1), n * (N - 1))
        ratios = oracle_pair_ratios(list(srs.enumerate()), beta)
        closed = {(k, l): lead * Fraction(len(beta[k] & beta[l]), len(beta[k]) * len(beta[l]))
                  + tail - ratios[k, l] for k in beta for l in beta}
        assert srswor_equal_share_delta(big, srs).entries == closed


def test_delta_and_inclusion_do_not_depend_on_the_frame_order():
    # A Big over a shuffled part of the design's frame prices, estimates and
    # walks as the same Big over the whole frame in the design's order, at
    # both scales: the mean is per unit of the design's frame.
    rng, draws = random.Random(4321), random.Random(1234)
    units = [f"u{i}" for i in range(1, 7)]
    srs = Design.srswor(units, 3)
    listed = Design.enumerated(units, _weighted_points(rng, units))
    schemes = (WeightScheme.equal_share(), WeightScheme.inverse_alpha())
    specs = [EstimatorSpec.parse(text, scale) for scale in ("total", "mean") for text in
             ("ht", "hh:equal-share", "hh:inverse-alpha", "rb:hh:equal-share", "rb:ht")]
    for _ in range(5):
        part = rng.sample(units, 4)
        beta = {f"m{j}": rng.sample(part, rng.randint(1, 4)) for j in range(3)}
        y = {key: Fraction(rng.randint(-3, 6)) for key in beta}
        big, ordered = _make_big(part, beta, y), _make_big(units, beta, y)
        for design in (srs, listed):
            for scheme in schemes:
                assert delta_matrix(big, design, scheme) == delta_matrix(ordered, design, scheme)
            for key in beta:
                assert (first_order_inclusion(design, big, key)
                        == first_order_inclusion(design, ordered, key))
            for spec in specs:
                assert exact_moments(design, big, spec) == exact_moments(design, ordered, spec)
                assert (monte_carlo_moments(design, big, spec, 40, seed=7)
                        == monte_carlo_moments(design, ordered, spec, 40, seed=7))
            walks = ([], [])
            assert (enumerate_moments(design, big, specs, samples=walks[0])
                    == enumerate_moments(design, ordered, specs, samples=walks[1]))
            assert walks[0] == walks[1]
            # A seed outside the part observes nothing, so the part's Big
            # estimates from the sample cut to the part. HH rows follow the
            # frame order, and the twin adds a zero-share row for each cut seed.
            point = design.draw(draws)
            cut, whole = realize_sample_big(big, point & set(part)), realize_sample_big(ordered, point)
            for spec in specs:
                got, want = estimate(spec, design, big, cut), estimate(spec, design, ordered, whole)
                if spec.kind == "hh" and not spec.rao_blackwell:
                    got, want = ((r.estimate, sorted(row for row in r.contributions
                                                     if row[0] in part)) for r in (got, want))
                assert got == want, spec
        assert srswor_equal_share_delta(big, srs) == srswor_equal_share_delta(ordered, srs)
        with pytest.raises(ValueError, match=r"^seeds outside frame: \['u\d'\]$"):
            realize_sample_big(big, [part[0], next(u for u in units if u not in part)])
    outside = _make_big(["zz", "u1"], {"m": ["u1", "zz"]}, {"m": 1})
    seen = realize_sample_big(outside, ["u1"])
    for design in (srs, listed):
        with pytest.raises(ValueError, match=r"units outside frame: \['zz'\]"):
            first_order_inclusion(design, outside, "m")
        for spec in specs:
            with pytest.raises(ValueError, match=r"units outside frame: \['zz'\]"):
                exact_moments(design, outside, spec)
            with pytest.raises(ValueError, match=r"units outside frame: \['zz'\]"):
                enumerate_moments(design, outside, [spec], samples=[])
            with pytest.raises(ValueError, match=r"units outside frame: \['zz'\]"):
                monte_carlo_moments(design, outside, spec, 10, seed=1)
            with pytest.raises(ValueError, match=r"units outside frame: \['zz'\]"):
                estimate(spec, design, outside, seen)
        for scheme in schemes:
            with pytest.raises(ValueError, match=r"units outside frame: \['zz'\]"):
                delta_matrix(outside, design, scheme)
    with pytest.raises(ValueError, match=r"units outside frame: \['zz'\]"):
        srswor_equal_share_delta(outside, srs)


def test_delta_matrix_rejects_disjoint_never_jointly_selected():
    beta = {"x": ["a"], "y": ["b"]}
    big = _make_big(["a", "b"], beta, {"x": 1, "y": 1})
    d = Design.srswor(["a", "b"], 1)
    with pytest.raises(DesignError, match="zero joint"):
        delta_matrix(big, d, WeightScheme.equal_share())
    with pytest.raises(DesignError, match="zero joint"):
        srswor_equal_share_delta(big, d)
    wide = Design.srswor(["a", "b"], 2)
    delta = delta_matrix(big, wide, WeightScheme.equal_share())
    assert variance_difference(delta, big.motifs) == 0


def test_srswor_closed_form_requires_srswor():
    beta = {"x": ["a", "b"]}
    big = _make_big(["a", "b"], beta, {"x": 1})
    d = Design.enumerated(["a", "b"], [(frozenset("ab"), Fraction(1))])
    with pytest.raises(DesignError, match="simple random sampling"):
        srswor_equal_share_delta(big, d)


def test_delta_matrices_refuse_more_entries_than_the_cap(monkeypatch):
    big = _demo_big()
    d = Design.srswor(big.frame, 2)
    monkeypatch.setattr("bigs.design.DEFAULT_ENUMERATION_CAP", 9)
    assert len(delta_matrix(big, d, WeightScheme.equal_share()).entries) == 9
    assert len(srswor_equal_share_delta(big, d).entries) == 9
    monkeypatch.setattr("bigs.design.DEFAULT_ENUMERATION_CAP", 8)
    with pytest.raises(EnumerationCapError, match="9 entries"):
        delta_matrix(big, d, WeightScheme.equal_share())
    with pytest.raises(EnumerationCapError, match="9 entries"):
        srswor_equal_share_delta(big, d)
    # The refusal comes before any pair is priced: pricing this pair fails.
    disjoint = _make_big(["a", "b"], {"x": ["a"], "y": ["b"]}, {"x": 1, "y": 1})
    monkeypatch.setattr("bigs.design.DEFAULT_ENUMERATION_CAP", 3)
    with pytest.raises(EnumerationCapError, match="4 entries"):
        delta_matrix(disjoint, Design.srswor(["a", "b"], 1), WeightScheme.equal_share())


def test_monte_carlo_is_seed_deterministic():
    pop = thompson1990()
    big = pop.bigs["acs-b-star"]
    spec = EstimatorSpec.parse("ht", scale="mean")
    a = monte_carlo_moments(pop.design, big, spec, replicates=400, seed=99)
    b = monte_carlo_moments(pop.design, big, spec, replicates=400, seed=99)
    assert a == b
    c = monte_carlo_moments(pop.design, big, spec, replicates=400, seed=100)
    assert a.mean != c.mean

    exact = exact_moments(pop.design, big, spec)
    assert abs(a.mean - float(exact.expectation)) <= 4 * a.se_mean

    with pytest.raises(ValueError, match="replicates"):
        monte_carlo_moments(pop.design, big, spec, replicates=0, seed=1)
    single = monte_carlo_moments(pop.design, big, spec, replicates=1, seed=7)
    assert single.variance == 0.0 and single.replicates == 1


def test_induced_inclusion_matches_counting():
    rng = random.Random(8642)
    for _ in range(15):
        frame = [f"u{i}" for i in range(rng.randint(2, 7))]
        n = rng.randint(1, len(frame))
        samples = list(srswor_samples(frame, n))
        # The same distribution, once in closed form and once as a listed design.
        srs = Design.srswor(frame, n)
        listed = Design.enumerated(frame, [(s, Fraction(1, len(samples))) for s in samples])
        members = frozenset(rng.sample(frame, rng.randint(1, len(frame))))
        contains = Fraction(sum(1 for s in samples if members <= s), len(samples))
        meets = Fraction(sum(1 for s in samples if members & s), len(samples))
        for d in (srs, listed):
            assert d.inclusion(members, fully_selected=True) == contains
            assert d.inclusion(members) == meets

    pts = [(frozenset("ab"), Fraction(1, 2)), (frozenset("bc"), Fraction(1, 2))]
    e = Design.enumerated("abc", pts)
    assert e.inclusion(frozenset("ab"), fully_selected=True) == Fraction(1, 2)
    assert e.inclusion(frozenset("ac"), fully_selected=True) == 0


def test_induced_ht_evaluator_and_moments():
    rng = random.Random(11111)
    for _ in range(10):
        frame = [f"u{i}" for i in range(rng.randint(3, 6))]
        n = rng.randint(2, len(frame))
        d = Design.srswor(frame, n)
        members_by_key = {}
        y = {}
        for j in range(rng.randint(1, 4)):
            key = f"m{j}"
            members_by_key[key] = frozenset(rng.sample(frame, rng.randint(1, n)))
            y[key] = Fraction(rng.randint(-3, 6))
        motifs = MotifSet([Motif(k, members_by_key[k]) for k in sorted(members_by_key)], y)

        # The listed twin of the design takes the per-sample path.
        listed = induced_ht_moments(motifs, Design.enumerated(frame, list(d.enumerate())))
        assert listed.expectation == motifs.total_y()

        got = induced_ht_moments(motifs, d)
        want_e, want_v = oracle_induced_moments(frame, n, members_by_key, y)
        assert listed.variance == want_v
        assert got.expectation == want_e
        assert got.variance == want_v
        assert got.mse == got.variance


def test_induced_ht_rejects_never_selected_motifs():
    d = Design.srswor(["a", "b", "c"], 2)
    wide = MotifSet([Motif("m", frozenset(["a", "b", "c"]))])
    with pytest.raises(DesignError, match="never be fully selected"):
        induced_ht_moments(wide, d)
    listed = Design.enumerated(d.frame, list(d.enumerate()))
    for members in (None, frozenset()):
        nameless = MotifSet([Motif("m", members)])
        with pytest.raises(DesignError, match="no member set"):
            induced_ht_moments(nameless, listed)
        with pytest.raises(DesignError, match="no member set"):
            induced_ht_moments(nameless, d)


def test_inclusion_probabilities_refuse_units_outside_the_frame():
    srs = Design.srswor("abc", 2)
    listed = Design.enumerated("abc", [("ab", Fraction(1, 3)), ("bc", Fraction(1, 3)),
                                       ("ac", Fraction(1, 3))])
    outside = MotifSet([Motif("d", frozenset("xy"))])
    for d in (srs, listed):
        with pytest.raises(ValueError, match=r"units outside frame: \['x'\]"):
            d.inclusion(["x"])
        with pytest.raises(ValueError, match=r"units outside frame: \['x'\]"):
            d.inclusion(["a", "x"], fully_selected=True)
        with pytest.raises(ValueError, match=r"units outside frame: \['x'\]"):
            d._pricer(("a", "x"))
        # Under SRSWOR this was once priced as C(3-2, 0) / C(3, 2) = 1/3.
        with pytest.raises(ValueError, match=r"units outside frame: \['x', 'y'\]"):
            d.inclusion(frozenset("xy"), fully_selected=True)
        with pytest.raises(ValueError, match="outside frame"):
            induced_ht_moments(outside, d)


def test_rao_blackwell_moments_walk_the_design_once(monkeypatch):
    calls = []
    walk = Design._walk

    def counted(self, cap=None):
        calls.append(cap)
        return walk(self, cap)

    monkeypatch.setattr(Design, "_walk", counted)
    pop = thompson1990()
    spec = EstimatorSpec.parse("rb:modified-ht")
    assert exact_moments(pop.design, pop.bigs["acs-b"], spec).expectation == 1013
    assert len(calls) == 1


def test_listed_design_moments_share_one_walk(monkeypatch):
    big = _demo_big()
    listed = Design.enumerated("abc", [("ab", Fraction(1, 3)), ("bc", Fraction(1, 2)),
                                       ("c", Fraction(1, 6))])
    specs = [EstimatorSpec.parse(label) for label in ("ht", "hh:equal-share", "hh:inverse-alpha")]
    want = []
    for spec in specs:
        values = [(p, estimate(spec, listed, big, realize_sample_big(big, seeds)).estimate)
                  for seeds, p in listed.enumerate()]
        mean = sum(p * x for p, x in values)
        want.append((mean, sum(p * (x - mean) ** 2 for p, x in values)))
    calls = []
    walk = Design._walk

    def counted(self, cap=None):
        calls.append(cap)
        return walk(self, cap)

    monkeypatch.setattr(Design, "_walk", counted)
    got = enumerate_moments(listed, big, specs)
    assert len(calls) == 1
    assert [(m.expectation, m.variance) for m in got] == want
    assert all(m.expectation == big.theta() for m in got)


@pytest.mark.parametrize("rule", ["acs-b", "acs-b-star", "acs-b-dagger"])
def test_modified_ht_is_unbiased_under_every_acs_rule(rule):
    pop = thompson1990()
    big = pop.bigs[rule]
    assert exact_moments(pop.design, big, MODIFIED).expectation == big.theta() == 1013


def _random_acs_grid(rng):
    rows, cols = rng.randint(1, 3), rng.randint(2, 3)
    cells = [f"r{r}c{c}" for r in range(rows) for c in range(cols)]
    edges = [(f"r{r}c{c}", f"r{r}c{c + 1}") for r in range(rows) for c in range(cols - 1)]
    edges += [(f"r{r}c{c}", f"r{r + 1}c{c}") for r in range(rows - 1) for c in range(cols)]
    y = {u: rng.choice([0, 0, 1, 2, 7, 40]) for u in cells}
    return Graph(cells, edges), y


def test_engine_modified_ht_is_ht_on_the_self_only_representation():
    rng = random.Random(8642)
    for _ in range(40):
        grid, y = _random_acs_grid(rng)
        b = acs_big(grid, y, 5, AncestorRule.acs_b())
        star = acs_big(grid, y, 5, AncestorRule.acs_b_star())
        d = Design.srswor(b.frame, rng.randint(1, 2))
        samples = []
        enumerate_moments(d, b, [EstimatorSpec.parse("rb:modified-ht")], samples=samples)
        for seeds, _, (rb_value,) in samples:
            sample = realize_sample_big(b, seeds)
            assert (estimate(MODIFIED, d, b, sample)
                    == ht_estimate(realize_sample_big(star, seeds), d, star))
            assert rao_blackwellize(MODIFIED, d, b, sample).estimate == rb_value


def test_engine_reports_equal_evaluators_on_random_incidence_graphs():
    rng = random.Random(97531)
    for _ in range(25):
        frame, beta, y = random_incidence(rng, max_frame=6, max_motifs=6)
        big = _make_big(frame, beta, y)
        d = Design.srswor(frame, rng.randint(1, len(frame)))
        for label in ("ht", "hh:equal-share", "hh:inverse-alpha"):
            spec = EstimatorSpec.parse(label)
            samples = []
            enumerate_moments(d, big, [spec], samples=samples)
            for seeds, _, (value,) in samples:
                sample = realize_sample_big(big, seeds)
                report = estimate(spec, d, big, sample)
                assert report.estimate == value
                rows = [row[0] for row in report.contributions]
                if spec.kind == "hh":
                    assert rows == [u for u in frame if u in seeds]
                else:
                    assert rows == list(sample.motifs)
