"""Float evaluation and Monte Carlo moments against the exact estimates.

A draw's estimate is an integer numerator over one common denominator,
divided once into a float. Integer true division is correctly rounded,
so that float must equal float() of the exact Fraction estimate: draw by
draw, and for the whole Monte Carlo summary against an oracle in
tests/oracles.py that floats each exact estimate. The Monte Carlo mean
must also lie within five standard errors of the exact expectation.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import bigs.design
from bigs import (AncestorRule, Big, Design, EstimatorSpec, Graph, Motif, MotifSet, acs_big,
                  estimate, exact_moments, monte_carlo_moments, realize_sample_big)
from bigs.design import ListedDesign, SrsworDesign
from bigs.estimators import _Plan

from oracles import oracle_monte_carlo

REPLICATES = 40
Y_VALUES = tuple(Fraction(v) for v in ("-5", "-3/2", "0", "1/4", "5/3", "2", "9"))
GRID = (["r0c0", "r0c1", "r1c0", "r1c1"],
        [("r0c0", "r0c1"), ("r1c0", "r1c1"), ("r0c0", "r1c0"), ("r0c1", "r1c1")])


@st.composite
def instances(draw):
    """Up to four motifs with random ancestor sets (bitmasks) over a frame
    of one to five units, a sample size, weights for a listed design over
    the samples of that size, a scale, y-values on a 2x2 ACS grid with its
    sample size, and a Monte Carlo seed."""
    N = draw(st.integers(1, 5))
    frame = [f"u{i}" for i in range(N)]
    masks = draw(st.lists(st.integers(1, 2 ** N - 1), min_size=1, max_size=4))
    beta = {f"m{j}": frozenset(u for i, u in enumerate(frame) if mask >> i & 1)
            for j, mask in enumerate(masks)}
    y = draw(st.lists(st.sampled_from(Y_VALUES), min_size=len(beta), max_size=len(beta)))
    n = draw(st.integers(1, N))
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=10))
    scale = draw(st.sampled_from(("total", "mean")))
    grid_y = draw(st.lists(st.sampled_from((0, 1, 2, 7, 40)), min_size=4, max_size=4))
    grid_n = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2 ** 16))
    return frame, beta, dict(zip(beta, y)), n, weights, scale, grid_y, grid_n, seed


def designs(frame, n, weights):
    """SRSWOR of size n, and a listed design over the same samples with the
    weights, cycled, as unnormalised probabilities."""
    samples = [frozenset(s) for s in itertools.combinations(frame, n)]
    w = [weights[i % len(weights)] for i in range(len(samples))]
    total = sum(w)
    return (Design.srswor(frame, n),
            Design.enumerated(frame, [(s, Fraction(x, total)) for s, x in zip(samples, w)]))


def check_floats(design, big, spec, seed):
    plan = _Plan(design, big, spec)
    as_float, exact = plan.evaluator(divide=operator.truediv), plan.evaluator()
    reported = {}

    def reported_estimate(seeds):
        if seeds not in reported:
            sample = realize_sample_big(big, seeds)
            reported[seeds] = estimate(spec, design, big, sample).estimate
        return reported[seeds]

    # The plan reads draws as frame positions; ``draw`` gives the same samples as units.
    rng = random.Random(seed)
    for positions in design._stream(seed, REPLICATES):
        seeds = design.draw(rng)
        assert seeds == frozenset(design.frame[p] for p in positions)
        assert as_float(positions) == float(exact(positions)) == float(reported_estimate(seeds))

    mc = monte_carlo_moments(design, big, spec, REPLICATES, seed)
    target = big.theta() / (len(big.frame) if spec.scale == "mean" else 1)
    assert (mc.mean, mc.variance, mc.mse, mc.se_mean, mc.se_variance, mc.se_mse,
            mc.target) == oracle_monte_carlo(design.draw, reported_estimate, REPLICATES,
                                             seed, target)
    # The exact standard error of the mean, sqrt(Var / R), plus float rounding.
    moments = exact_moments(design, big, spec)
    bound = 5 * math.sqrt(moments.variance / REPLICATES) + 1e-9 * (1 + abs(moments.expectation))
    assert abs(Fraction(mc.mean) - moments.expectation) <= bound


# On the listed design the rb:hh group mean 4256 / (11 * 2520) rounds
# differently when divided in two steps.
_UNEVEN = (["u0", "u1", "u2", "u3", "u4"],
           {"m0": frozenset({"u0", "u1"}), "m1": frozenset({"u1", "u2", "u3"}),
            "m2": frozenset({"u4"})},
           {"m0": Fraction(5, 3), "m1": Fraction(-3, 2), "m2": Fraction(1, 4)},
           2, [1, 2, 3], "mean", [0, 7, 40, 2], 2, 7)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@example(_UNEVEN)
@given(instances())
def test_float_estimates_and_monte_carlo_equal_the_exact_ones(instance):
    frame, beta, y, n, weights, scale, grid_y, grid_n, seed = instance
    big = Big(frame, MotifSet([Motif(k) for k in beta], y), beta, AncestorRule.full())
    for design in designs(frame, n, weights):
        # HT is constant on each observed motif set, so rb:ht would have
        # trivial group means; rb:hh averages distinct estimates.
        for label in ("ht", "hh:equal-share", "hh:inverse-alpha", "rb:hh:equal-share"):
            check_floats(design, big, EstimatorSpec.parse(label, scale=scale), seed)
    cells, edges = GRID
    grid = acs_big(Graph(cells, edges), dict(zip(cells, grid_y)), 5, AncestorRule.acs_b())
    for design in designs(cells, grid_n, weights):
        check_floats(design, grid, EstimatorSpec.parse("modified-ht", scale=scale), seed)


FIVE = ["a", "b", "c", "d", "e"]
FIVE_BETA = {"m0": {"a", "b"}, "m1": {"b", "c", "d"}, "m2": {"e"}, "m3": {"c"}}
FIVE_Y = {"m0": Fraction(5, 3), "m1": Fraction(-3, 2), "m2": Fraction(4), "m3": Fraction(1, 4)}


def _five_big(frame, keys):
    beta = {k: FIVE_BETA[k] for k in keys}
    return Big(frame, MotifSet([Motif(k) for k in keys], {k: FIVE_Y[k] for k in keys}),
               beta, AncestorRule.full())


def _listed_five():
    return Design.enumerated(FIVE, [("ab", "1/6"), ("cd", "1/3"), ("be", "1/4"),
                                    ("ace", "1/4")])


def _counting(monkeypatch, cls):
    """Count the calls that ``cls`` makes to its one draw entry point."""
    calls = []
    draw = cls._draw

    def counted(self, rng):
        calls.append(rng)
        return draw(self, rng)

    monkeypatch.setattr(cls, "_draw", counted)
    return calls


def test_estimators_under_one_seed_read_one_kept_stream(monkeypatch):
    calls = _counting(monkeypatch, SrsworDesign)
    big, design = _five_big(FIVE, FIVE_BETA), Design.srswor(FIVE, 2)
    specs = [EstimatorSpec.parse(t) for t in ("ht", "hh:inverse-alpha", "rb:hh:equal-share")]
    for spec in specs:
        monte_carlo_moments(design, big, spec, 30, 4)
    assert len(calls) == 30
    # A new seed or a new replicate count draws again; only the last stream is kept.
    monte_carlo_moments(design, big, specs[0], 30, 5)
    monte_carlo_moments(design, big, specs[0], 31, 5)
    monte_carlo_moments(design, big, specs[1], 31, 5)
    monte_carlo_moments(design, big, specs[0], 30, 4)
    assert len(calls) == 30 + 30 + 31 + 30
    # Only an int seed is kept.
    del calls[:]
    monte_carlo_moments(design, big, specs[0], 30, "4")
    monte_carlo_moments(design, big, specs[0], 30, "4")
    assert len(calls) == 60
    # A stream of more positions (replicates × sample size) than the bound
    # is drawn on every call; one at the bound is kept.
    monkeypatch.setattr(bigs.design, "KEPT_STREAM_CAP", 2 * 30 - 1)
    del calls[:]
    first = monte_carlo_moments(design, big, specs[0], 30, 8)
    assert monte_carlo_moments(design, big, specs[0], 30, 8) == first
    assert len(calls) == 60
    monkeypatch.setattr(bigs.design, "KEPT_STREAM_CAP", 2 * 30)
    assert monte_carlo_moments(design, big, specs[0], 30, 8) == first
    assert monte_carlo_moments(design, big, specs[0], 30, 8) == first
    assert len(calls) == 90


def test_kept_stream_gives_the_summaries_of_a_fresh_design(monkeypatch):
    replicates, seed = 60, 11
    calls = _counting(monkeypatch, ListedDesign)
    full = _five_big(FIVE, FIVE_BETA)
    # A Big over part of the design's frame: the design's units that it
    # lacks observe nothing.
    sub = _five_big(["b", "c", "d"], ["m1", "m3"])
    for make in (lambda: Design.srswor(FIVE, 2), _listed_five):
        kept = make()
        for big in (full, sub):
            for label in ("ht", "hh:inverse-alpha", "rb:hh:equal-share"):
                spec = EstimatorSpec.parse(label)
                monte_carlo_moments(kept, big, EstimatorSpec.parse("ht"), replicates, seed)
                served = monte_carlo_moments(kept, big, spec, replicates, seed)
                fresh = make()
                assert served == monte_carlo_moments(fresh, big, spec, replicates, seed)

                def exact(seeds):
                    sample = realize_sample_big(big, seeds & frozenset(big.frame))
                    return estimate(spec, fresh, big, sample).estimate

                assert (served.mean, served.variance, served.mse, served.se_mean,
                        served.se_variance, served.se_mse, served.target) == \
                    oracle_monte_carlo(fresh.draw, exact, replicates, seed, big.theta())
    # The kept listed design drew its stream once; each fresh one drew it
    # for its summary and again through the oracle's ``draw``.
    assert len(calls) == replicates * (1 + 2 * 3 + 2 * 3)


def test_monte_carlo_on_a_large_frame_reads_the_sample_stream():
    """Forty units, at least ten without successors: n = 3 reaches
    ``random.Random.sample``'s rejection of repeats (N > 21), n = 8 its
    pool of positions (N <= 21 + 4^⌈log₄ 24⌉ = 85)."""
    rng = random.Random(3)
    frame = [f"u{i}" for i in range(40)]
    beta = {f"m{j}": rng.sample(frame[:30], rng.randint(1, 4)) for j in range(12)}
    y = {key: Fraction(rng.randint(-5, 9), rng.randint(1, 4)) for key in beta}
    big = Big(frame, MotifSet([Motif(k) for k in beta], y), beta, AncestorRule.full())
    replicates, seed = 200, 5
    for n in (3, 8):
        design = Design.srswor(frame, n)
        for label in ("ht", "hh:inverse-alpha"):
            spec = EstimatorSpec.parse(label)

            @functools.cache
            def exact(seeds):
                return estimate(spec, design, big, realize_sample_big(big, seeds)).estimate

            mc = monte_carlo_moments(design, big, spec, replicates, seed)
            assert (mc.mean, mc.variance, mc.mse, mc.se_mean, mc.se_variance, mc.se_mse,
                    mc.target) == oracle_monte_carlo(
                        lambda r: frozenset(r.sample(frame, n)), exact, replicates, seed,
                        big.theta())
