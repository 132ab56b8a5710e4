"""Observation procedures: snowball, induced selection, adaptive clusters."""

from fractions import Fraction

import pytest

from bigs import (Graph, acs_sample, induced_sample, motif_observed, snowball_sample,
                  thompson1990)

PATH5 = Graph(edges=[("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")])


def test_snowball_waves_and_resolution():
    s = snowball_sample(PATH5, ["3"], stages=1)
    assert s.seeds == {"3"}
    assert s.resolved == {"3"}
    assert s.nodes == {"2", "3", "4"}
    assert {frozenset(e) for e in s.edges} == {
        frozenset(("2", "3")), frozenset(("3", "4"))}
    assert s.waves == {"3": 0, "2": 1, "4": 1}

    s2 = snowball_sample(PATH5, ["3"], stages=2)
    assert s2.resolved == {"2", "3", "4"}
    assert s2.nodes == {"1", "2", "3", "4", "5"}
    assert s2.waves == {"3": 0, "2": 1, "4": 1, "1": 2, "5": 2}


def test_zero_stage_snowball_observes_nothing():
    s = snowball_sample(PATH5, ["3"], stages=0)
    assert s.resolved == frozenset()
    assert s.edges == frozenset()
    assert s.nodes == {"3"}
    assert motif_observed(s, ["3"])
    assert not motif_observed(s, ["2"])
    assert not motif_observed(s, ["3", "4"])


def test_snowball_rejects_bad_input():
    with pytest.raises(ValueError, match="stages"):
        snowball_sample(PATH5, ["3"], stages=-1)
    with pytest.raises(ValueError, match="not a node"):
        snowball_sample(PATH5, ["99"], stages=1)


def test_one_stage_from_middle_does_not_observe_three_path():
    # Seeding the middle of 1-2-3 reveals both edges after one stage, but
    # the absence of the 1-3 edge is only established once 1 or 3 is
    # expanded, which takes a second stage.
    g = Graph(edges=[("1", "2"), ("2", "3")])
    s1 = snowball_sample(g, ["2"], stages=1)
    assert {frozenset(e) for e in s1.edges} == {
        frozenset(("1", "2")), frozenset(("2", "3"))}
    assert not motif_observed(s1, ["1", "2", "3"])
    s2 = snowball_sample(g, ["2"], stages=2)
    assert motif_observed(s2, ["1", "2", "3"])


def test_pair_needs_one_resolved_endpoint():
    s = snowball_sample(PATH5, ["1"], stages=2)
    assert s.resolved == {"1", "2"}
    assert motif_observed(s, ["2", "5"])
    assert not motif_observed(s, ["3", "5"])
    with pytest.raises(ValueError, match="empty"):
        motif_observed(s, [])


def test_induced_sample_only_keeps_internal_edges():
    s = induced_sample(PATH5, ["1", "2", "4"])
    assert s.nodes == {"1", "2", "4"}
    assert {frozenset(e) for e in s.edges} == {frozenset(("1", "2"))}
    assert motif_observed(s, ["1", "2"])
    assert motif_observed(s, ["1", "4"])
    assert not motif_observed(s, ["1", "3"])


def test_acs_expansion_on_five_grid_strip():
    pop = thompson1990()
    grid, y, thr = pop.graph, pop.y, pop.threshold

    lone = acs_sample(grid, y, thr, ["1"])
    assert lone.observed == {"1"}
    assert lone.via_network == frozenset()

    edge = acs_sample(grid, y, thr, ["2"])
    assert edge.observed == {"2"}

    burst = acs_sample(grid, y, thr, ["1000"])
    assert burst.observed == {"2", "10", "1000"}
    assert burst.via_network == {"2", "10", "1000"}

    both = acs_sample(grid, y, thr, ["1", "10"])
    assert both.observed == {"1", "2", "10", "1000"}
    assert both.initial == {"1", "10"}


def test_acs_requires_complete_y():
    g = Graph(edges=[("a", "b")])
    with pytest.raises(ValueError, match="missing y"):
        acs_sample(g, {"a": 1}, 0, ["a"])


def test_acs_threshold_is_strict():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    y = {"a": 5, "b": 5, "c": 9}
    at = acs_sample(g, y, 5, ["b"])
    assert at.observed == {"b"}
    above = acs_sample(g, y, Fraction(9, 2), ["b"])
    assert above.observed == {"a", "b", "c"}
