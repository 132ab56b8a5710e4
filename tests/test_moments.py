"""Closed-form SRSWOR moments and Rao-Blackwell group tables against enumeration.

Under SRSWOR the HT, HH, modified HT and induced HT moments and the
variance-difference matrix come from second-order inclusion
probabilities, never walking the design support; Rao-Blackwellized
moments come from one table of observed motif sets. Here they must
equal, exactly, the counting oracles in tests/oracles.py or the same
estimator on the SRSWOR design written out as an enumerated design,
which takes the walk.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from bigs import (AncestorRule, Big, Design, DesignError, EnumerationCapError,
                  EstimatorSpec, Graph, Motif, MotifSet, WeightScheme, acs_big,
                  delta_matrix, exact_moments, induced_ht_moments)

from oracles import (oracle_acs_big, oracle_hh_moments, oracle_ht_moments,
                     oracle_induced_moments, oracle_point_estimator, oracle_rb_moments,
                     srswor_samples)

SCALES = ("total", "mean")


def enumerated_twin(design):
    """The SRSWOR design as a listed one: every sample at 1/C(N, n)."""
    p = Fraction(1, comb(len(design.frame), design.n))
    return Design.enumerated(design.frame, [(s, p) for s in
                                            itertools.combinations(design.frame, design.n)])


def delta_or_refusal(big, design, scheme):
    try:
        return delta_matrix(big, design, scheme)
    except DesignError as exc:
        return str(exc)


# y-values drawn from a fixed list: negative, zero, integral and fractional.
Y_VALUES = tuple(Fraction(v) for v in ("-5", "-3/2", "0", "1/4", "5/3", "2", "9"))


@st.composite
def instances(draw):
    """A frame of one to five units, up to four motifs with random member
    sets (bitmasks over the frame) and y-values, a sample size n in 1..N,
    a scale, and a 1-2 by 2 ACS grid with y-values around the threshold."""
    N = draw(st.integers(1, 5))
    frame = [f"u{i}" for i in range(N)]
    masks = draw(st.lists(st.integers(1, 2 ** N - 1), min_size=1, max_size=4))
    members = [{u for i, u in enumerate(frame) if mask >> i & 1} for mask in masks]
    y = draw(st.lists(st.sampled_from(Y_VALUES), min_size=len(members),
                      max_size=len(members)))
    n = draw(st.integers(1, N))
    scale = draw(st.sampled_from(SCALES))
    rows = draw(st.integers(1, 2))
    grid_y = draw(st.lists(st.sampled_from((0, 1, 2, 7, 40)), min_size=2 * rows,
                           max_size=2 * rows))
    grid_n = draw(st.integers(1, 2 * rows))
    return frame, members, y, n, scale, rows, grid_y, grid_n


def acs_grid(rows, values):
    cells = [f"r{r}c{c}" for r in range(rows) for c in range(2)]
    edges = [(f"r{r}c0", f"r{r}c1") for r in range(rows)]
    edges += [(f"r{r}c{c}", f"r{r + 1}c{c}") for r in range(rows - 1) for c in range(2)]
    return cells, edges, dict(zip(cells, values))


def assert_moments(got, expectation, variance, div):
    assert (got.expectation, got.variance) == (expectation / div, variance / (div * div))
    assert got.mse == got.variance + got.bias ** 2


_SINGLETON = (["u0"], [{"u0"}, {"u0"}], [Fraction(-3, 2), Fraction(7)], 1, "mean",
              1, [40, 0], 2)
_OVERLAPS = (["u0", "u1", "u2", "u3"], [{"u0", "u1"}, {"u1"}, {"u2", "u3"}, {"u0", "u1"}],
             [Fraction(5, 3), Fraction(-2), Fraction(1, 4), Fraction(0)], 2, "total",
             3, [0, 7, 40, 2, 0, 1], 3)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@example(_SINGLETON)
@example(_OVERLAPS)
@given(instances())
def test_closed_form_moments_equal_enumeration(instance):
    frame, members, y, n, scale, rows, grid_y, grid_n = instance
    N = len(frame)
    div = N if scale == "mean" else 1
    keys = [f"m{j}" for j in range(len(members))]
    beta = {k: frozenset(m) for k, m in zip(keys, members)}
    ys = dict(zip(keys, y))
    big = Big(frame, MotifSet([Motif(k) for k in keys], ys), beta, AncestorRule.full())
    srs = Design.srswor(frame, n)
    twin = enumerated_twin(srs)

    want = {"ht": oracle_ht_moments(frame, n, beta, ys)}
    for scheme in ("equal-share", "inverse-alpha"):
        want[f"hh:{scheme}"] = oracle_hh_moments(frame, n, beta, ys, scheme)
    for label, (expectation, variance) in want.items():
        got = exact_moments(srs, big, EstimatorSpec.parse(label, scale=scale))
        assert_moments(got, expectation, variance, div)
        assert got.support == comb(N, n)

    points = [(s, Fraction(1, comb(N, n))) for s in srswor_samples(frame, n)]
    for label in ("ht", "hh:equal-share"):
        expectation, variance = oracle_rb_moments(
            points, beta, oracle_point_estimator(points, beta, ys, label))
        for design in (srs, twin):
            got = exact_moments(design, big, EstimatorSpec.parse(f"rb:{label}", scale=scale))
            assert_moments(got, expectation, variance, div)
    # HT is a function of the observed motif set: Rao-Blackwellizing it changes nothing.
    for design in (srs, twin):
        assert (exact_moments(design, big, EstimatorSpec.parse("rb:ht", scale=scale))
                == exact_moments(design, big, EstimatorSpec.parse("ht", scale=scale)))

    for scheme in (WeightScheme.equal_share(), WeightScheme.inverse_alpha()):
        closed = delta_or_refusal(big, srs, scheme)
        walked = delta_or_refusal(big, twin, scheme)
        if isinstance(walked, str):
            assert closed == walked
        else:
            assert closed.entries == walked.entries

    small = [k for k in keys if len(beta[k]) <= n]
    if small:
        motifs = MotifSet([Motif(k, beta[k]) for k in small], {k: ys[k] for k in small})
        expectation, variance = oracle_induced_moments(frame, n, {k: beta[k] for k in small},
                                                       {k: ys[k] for k in small})
        got = induced_ht_moments(motifs, srs, scale)
        assert (got.expectation, got.variance) == (expectation / div, variance / (div * div))
        assert induced_ht_moments(motifs, twin, scale) == got

    cells, grid_edges, grid_values = acs_grid(rows, grid_y)
    grid = Graph(cells, grid_edges)
    grid_srs = Design.srswor(cells, grid_n)
    grid_twin = enumerated_twin(grid_srs)
    grid_points = [(s, Fraction(1, comb(len(cells), grid_n)))
                   for s in srswor_samples(cells, grid_n)]
    for rule in (AncestorRule.acs_b(), AncestorRule.acs_b_star()):
        acs = acs_big(grid, grid_values, 5, rule)
        for label in ("modified-ht", "ht"):
            spec = EstimatorSpec.parse(label, scale=scale)
            closed = exact_moments(grid_srs, acs, spec)
            walked = exact_moments(grid_twin, acs, spec)
            assert closed == walked
        # Modified HT is HT with each edge grid as its own only ancestor.
        _, edge_grids, observe = oracle_acs_big(cells, grid_edges, grid_values, 5, rule.kind)
        eligible = {k: frozenset([k]) if k in edge_grids else anc for k, anc in observe.items()}
        y = {k: Fraction(v) for k, v in grid_values.items()}
        expectation, variance = oracle_rb_moments(
            grid_points, observe, oracle_point_estimator(grid_points, eligible, y, "ht"))
        for design in (grid_srs, grid_twin):
            got = exact_moments(design, acs, EstimatorSpec.parse("rb:modified-ht", scale=scale))
            assert_moments(got, expectation, variance, len(cells) if scale == "mean" else 1)


def test_rb_ht_under_srswor_takes_the_closed_form(monkeypatch):
    walks = []
    walk = Design._walk

    def counted(self, cap=None):
        walks.append(cap)
        return walk(self, cap)

    monkeypatch.setattr(Design, "_walk", counted)
    frame = ["u0", "u1", "u2", "u3"]
    beta = {"a": frozenset({"u0", "u1"}), "b": frozenset({"u1", "u2", "u3"})}
    big = Big(frame, MotifSet([Motif(k) for k in beta], {"a": Fraction(3), "b": Fraction(-1, 2)}),
              beta, AncestorRule.full())
    srs = Design.srswor(frame, 2)
    rb_ht = EstimatorSpec.parse("rb:ht")
    assert exact_moments(srs, big, rb_ht) == exact_moments(srs, big, EstimatorSpec.parse("ht"))
    assert walks == []
    # The support cap still refuses before any pricing.
    with pytest.raises(EnumerationCapError):
        exact_moments(srs, big, rb_ht, cap=5)
    assert walks == []
