"""Float evaluation and Monte Carlo moments against the exact estimates.

A draw's estimate is an integer numerator over one common denominator,
divided once into a float. Integer true division is correctly rounded,
so that float must equal float() of the exact Fraction estimate: draw by
draw, and for the whole Monte Carlo summary against an oracle in
tests/oracles.py that floats each exact estimate. The Monte Carlo mean
must also lie within five standard errors of the exact expectation.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from bigs import (AncestorRule, Big, Design, EstimatorSpec, Graph, Motif, MotifSet, acs_big,
                  estimate, exact_moments, monte_carlo_moments, realize_sample_big)
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

    rng = random.Random(seed)
    for _ in range(REPLICATES):
        seeds = design.draw(rng)
        assert as_float(seeds) == float(exact(seeds)) == float(reported_estimate(seeds))

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
