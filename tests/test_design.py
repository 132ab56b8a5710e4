"""Initial-sample designs: probabilities, enumeration, parsing, realization."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bigs import (AncestorRule, Big, Design, DesignError, EnumerationCapError, Motif,
                  MotifSet, ParseError, first_order_inclusion, parse_design_file,
                  realize_sample_big, thompson1990)

from oracles import oracle_draws, random_incidence, srswor_samples


def test_srswor_basic_probabilities():
    d = Design.srswor("abcde", 2)
    assert d.size == 10
    assert d.inclusion(["a"]) == Fraction(2, 5)
    assert d.inclusion(["a", "b"], fully_selected=True) == Fraction(1, 10)
    assert 1 - d.inclusion(["a", "b", "c"]) == Fraction(1, 10)
    assert d.inclusion([]) == 0


def test_srswor_validation():
    with pytest.raises(DesignError):
        Design.srswor("abc", 0)
    with pytest.raises(DesignError):
        Design.srswor("abc", 4)
    with pytest.raises(DesignError, match="duplicate"):
        Design.srswor(["a", "a"], 1)
    with pytest.raises(DesignError, match="empty frame"):
        Design.srswor([], 1)


def test_enumerated_design_probabilities():
    points = [(frozenset("ab"), Fraction(1, 4)),
              (frozenset("bc"), Fraction(1, 4)),
              (frozenset("c"), Fraction(1, 2))]
    d = Design.enumerated("abc", points)
    assert d.size == 3
    assert d.inclusion(["b"]) == Fraction(1, 2)
    assert d.inclusion(["c"]) == Fraction(3, 4)
    assert d.inclusion(["a", "b"], fully_selected=True) == Fraction(1, 4)
    assert d.inclusion(["a", "c"], fully_selected=True) == 0
    assert 1 - d.inclusion(["a", "b"]) == Fraction(1, 2)
    # Float probabilities are read by their shortest repr, so 0.1 + 0.9 sums to 1.
    floats = Design.enumerated(["a", "b"], [({"a"}, 0.1), ({"b"}, 0.9)])
    assert floats.inclusion(["a"]) == Fraction(1, 10)


def test_enumerated_design_validation():
    with pytest.raises(DesignError, match="sum"):
        Design.enumerated("ab", [(frozenset("a"), Fraction(1, 2))])
    with pytest.raises(DesignError, match="positive"):
        Design.enumerated("ab", [(frozenset("a"), Fraction(3, 2)),
                                 (frozenset("b"), Fraction(-1, 2))])
    with pytest.raises(DesignError, match="zero inclusion"):
        Design.enumerated("ab", [(frozenset("a"), Fraction(1))])
    with pytest.raises(DesignError, match="outside frame"):
        Design.enumerated("ab", [(frozenset("az"), Fraction(1))])
    with pytest.raises(DesignError, match="empty initial sample"):
        Design.enumerated("ab", [(frozenset(), Fraction(1))])


def test_enumeration_lists_all_samples_with_equal_probability():
    d = Design.srswor("abcd", 2)
    got = dict(d.enumerate())
    assert len(got) == 6
    assert set(got) == set(srswor_samples("abcd", 2))
    assert all(p == Fraction(1, 6) for p in got.values())


def test_enumeration_cap_refusal():
    big = Design.srswor([str(i) for i in range(40)], 20)
    assert big.size > 10_000_000
    with pytest.raises(EnumerationCapError, match="Monte Carlo"):
        next(big.enumerate())

    small = Design.srswor("abcdef", 3)
    with pytest.raises(EnumerationCapError):
        next(small.enumerate(cap=19))
    assert len(list(small.enumerate(cap=20))) == 20


def test_draw_is_seed_deterministic_and_in_support():
    d = Design.srswor("abcdef", 3)
    rng1, rng2 = random.Random(5), random.Random(5)
    a = [d.draw(rng1) for _ in range(10)]
    b = [d.draw(rng2) for _ in range(10)]
    assert a != [a[0]] * 10
    assert a == b
    assert all(len(s) == 3 and s <= frozenset("abcdef") for s in a)

    points = [(frozenset("a"), Fraction(1, 4)), (frozenset("b"), Fraction(3, 4))]
    e = Design.enumerated("ab", points)
    rng = random.Random(11)
    draws = [e.draw(rng) for _ in range(2000)]
    share = sum(1 for s in draws if s == frozenset("b")) / len(draws)
    assert all(s in (frozenset("a"), frozenset("b")) for s in draws)
    assert 0.70 < share < 0.80


class _FixedDraw:
    """A generator stand-in whose randrange returns a chosen value."""

    def __init__(self, r):
        self.r = r
        self.bounds = []

    def randrange(self, bound):
        self.bounds.append(bound)
        return self.r


def test_enumerated_draw_is_exact_over_the_common_denominator():
    points = [(frozenset("a"), Fraction(1, 6)), (frozenset("bc"), Fraction(1, 4)),
              (frozenset("c"), Fraction(7, 12))]
    e = Design.enumerated("abc", points)
    D = 12
    for r in range(D):
        acc = Fraction(0)
        for want, p in points:
            acc += p
            if Fraction(r, D) < acc:
                break
        rng = _FixedDraw(r)
        assert e.draw(rng) == want
        assert rng.bounds == [D]


def test_inclusion_probabilities_match_enumeration_counts():
    rng = random.Random(31337)
    for _ in range(20):
        frame, beta, _ = random_incidence(rng, max_frame=6, max_motifs=4)
        n = rng.randint(1, len(frame))
        d = Design.srswor(frame, n)
        big = Big(frame, MotifSet([Motif(key) for key in beta]), beta, AncestorRule.full())

        def both_met(k, l):
            bk, bl = big.ancestors(k), big.ancestors(l)
            return d.inclusion(bk) + d.inclusion(bl) - d.inclusion(bk | bl)

        samples = list(srswor_samples(frame, n))
        for key, anc in beta.items():
            hits = Fraction(sum(1 for s in samples if s & anc), len(samples))
            assert first_order_inclusion(d, big, key) == hits
        keys = sorted(beta)
        for k, l in itertools.combinations(keys, 2):
            both = Fraction(sum(1 for s in samples if s & beta[k] and s & beta[l]),
                            len(samples))
            assert both_met(k, l) == both
        k = keys[0]
        assert both_met(k, k) == first_order_inclusion(d, big, k)


def test_exclusion_probability_helper():
    d = Design.srswor("abcde", 2)
    assert 1 - d.inclusion(["a"]) == Fraction(6, 10)
    assert 1 - d.inclusion("abcde") == 0


def test_realize_sample_big_on_the_five_grid_population():
    pop = thompson1990()
    big = pop.bigs["acs-b"]
    s = realize_sample_big(big, ["2", "10"])
    assert s.seeds == {"2", "10"}
    assert s.motifs == ("2", "10", "1000")
    # Under the network-and-boundary rule the edge grid's ancestors include
    # the whole adjacent network, one unit of which was not selected.
    assert s.out_ancestors == {"1000"}

    lone = realize_sample_big(big, ["1", "0"])
    assert set(lone.motifs) == {"1", "0"}
    assert lone.out_ancestors == frozenset()

    with pytest.raises(ValueError, match="outside frame"):
        realize_sample_big(big, ["nope"])


def test_realize_sample_big_reports_extra_ancestors():
    pop = thompson1990()
    big = pop.bigs["acs-b"]
    s = realize_sample_big(big, ["1000", "1"])
    # Selecting grid 1000 reveals the whole network plus its boundary, so
    # the ancestors of the exposed motifs include units outside the seeds.
    assert set(s.motifs) == {"1", "2", "10", "1000"}
    assert s.out_ancestors == {"2", "10"}


def test_parse_design_file():
    d = parse_design_file("\n".join([
        "# two-point design",
        "1/4: a b",
        "3/4: b",
    ]), frame=["a", "b"])
    assert d.kind == "enumerated"
    assert d.inclusion(["a"]) == Fraction(1, 4)

    with pytest.raises(ParseError, match="line 1"):
        parse_design_file("1/4 a b\n", frame=["a", "b"])
    with pytest.raises(ParseError, match="probability"):
        parse_design_file("x: a\n", frame=["a"])
    with pytest.raises(ParseError, match="outside frame"):
        parse_design_file("1: a q\n", frame=["a"])
    with pytest.raises(ParseError, match="duplicate unit"):
        parse_design_file("1: a a\n", frame=["a"])
    with pytest.raises(ParseError, match="sum"):
        parse_design_file("1/2: a\n", frame=["a"])


def test_srswor_and_its_listed_twin_keep_one_contract():
    for frame, n in (("abc", 1), ("abcd", 2), ("abcde", 3), ("abcde", 5)):
        d = Design.srswor(frame, n)
        twin = Design.enumerated(frame, d.enumerate())
        assert d.size == twin.size == len(twin.points)
        subsets = [units for m in range(len(frame) + 1)
                   for units in itertools.combinations(frame, m)]
        for full in (False, True):
            assert [d.inclusion(s, full) for s in subsets] == \
                [twin.inclusion(s, full) for s in subsets]
            sub = frame[1:]
            price, by_size = d._pricer(sub, full)
            twin_price, twin_by_size = twin._pricer(sub, full)
            assert twin_by_size is None
            positions = [p for m in range(len(sub) + 1)
                         for p in itertools.combinations(range(len(sub)), m)]
            for a in positions:
                pi_a = twin_price(a)
                assert price(a) == pi_a == d.inclusion([sub[i] for i in a], full)
                for b in positions:
                    pi_b, pi_u = twin_price(b), twin_price(set(a) | set(b))
                    if pi_a and pi_b:
                        both = pi_u if full else pi_a + pi_b - pi_u
                        assert by_size(len(a), len(b), len(set(a) | set(b))) == \
                            both / (pi_a * pi_b)
        for point, _ in twin.points:
            assert d.require_support(point) == twin.require_support(point) == point
        if n < len(frame):
            wrong = frame[:n + 1]
            with pytest.raises(DesignError, match="this SRSWOR design draws samples of size"):
                d.require_support(wrong)
            with pytest.raises(DesignError, match="is not a support point"):
                twin.require_support(wrong)
        with pytest.raises(DesignError, match="units outside the frame"):
            d.require_support(["zz"])
        with pytest.raises(DesignError,
                           match="pricing by set sizes needs a simple random sampling design"):
            twin.size_ratio()
        assert repr(d) == f"<Design SRSWOR N={len(frame)} n={n}>"
        assert repr(twin) == f"<Design enumerated |support|={d.size}>"
        assert (d.kind, d.frame, d.n, d.points) == ("srswor", tuple(frame), n, None)
        assert (twin.kind, twin.frame, twin.n) == ("enumerated", tuple(frame), None)
        assert twin.points == tuple(d.enumerate())


def test_listed_design_merges_a_sample_listed_twice():
    frame = [str(i) for i in range(1, 9)]
    dup = parse_design_file("1/4: 1 2\n1/4: 1 2\n1/2: 3 4 5 6 7 8\n", frame)
    twin = parse_design_file("1/2: 1 2\n1/2: 3 4 5 6 7 8\n", frame)
    assert dup.points == twin.points == ((frozenset("12"), Fraction(1, 2)),
                                         (frozenset("345678"), Fraction(1, 2)))
    assert dup.size == 2 and list(dup.enumerate()) == list(twin.points)
    dup.check_cap(2)
    with pytest.raises(EnumerationCapError, match="2 points"):
        dup.check_cap(1)
    # The first appearance keeps its place; every listed probability must
    # still be positive on its own.
    assert Design.enumerated("abc", [("c", "1/4"), ("ab", "1/4"), ("c", "1/2")]).points == \
        ((frozenset("c"), Fraction(3, 4)), (frozenset("ab"), Fraction(1, 4)))
    with pytest.raises(DesignError, match="positive"):
        Design.enumerated("ab", [("a", "1/2"), ("a", "-1/4"), ("b", "3/4")])


@st.composite
def stream_instances(draw):
    """A frame of distinct labels whose sorted order is not their frame
    order, an SRSWOR size, listed support points (bitmasks, repeats
    allowed, the whole frame last so that every unit is drawable) with
    integer weights, a seed and a stream length."""
    frame = draw(st.lists(st.text("abcxyz", min_size=1, max_size=2),
                          min_size=1, max_size=6, unique=True))
    n = draw(st.integers(1, len(frame)))
    full = 2 ** len(frame) - 1
    masks = draw(st.lists(st.integers(1, full), max_size=5)) + [full]
    weights = draw(st.lists(st.integers(1, 3), min_size=len(masks), max_size=len(masks)))
    return frame, n, masks, weights, draw(st.integers(0, 2 ** 40)), draw(st.integers(1, 12))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(stream_instances())
def test_draws_streams_and_supports_keep_the_label_stream(instance):
    frame, n, masks, weights, seed, k = instance
    listed = [(frozenset(u for i, u in enumerate(frame) if mask >> i & 1),
               Fraction(w, sum(weights))) for mask, w in zip(masks, weights)]
    merged = {}
    for sample, p in listed:
        merged[sample] = merged.get(sample, 0) + p
    srswor, enumerated = Design.srswor(frame, n), Design.enumerated(frame, listed)
    assert [s for s, _ in srswor.enumerate()] == \
        [frozenset(c) for c in itertools.combinations(frame, n)]
    assert list(enumerated.enumerate()) == list(enumerated.points) == list(merged.items())
    for d in (srswor, enumerated):
        want = oracle_draws(d, seed, k)
        rng = random.Random(seed)
        assert [d.draw(rng) for _ in range(k)] == want
        assert [frozenset(frame[p] for p in positions) for positions in d._stream(seed, k)] \
            == want


@st.composite
def large_frames(draw):
    """A frame size above ``random.Random.sample``'s smallest set-size bound
    of 21, a sample size up to N (small ones more often), a seed and a
    stream length."""
    N = draw(st.integers(22, 300))
    n = draw(st.one_of(st.integers(1, min(N, 12)), st.integers(1, N)))
    return N, n, draw(st.integers(0, 2 ** 64)), draw(st.integers(1, 8))


# ``random.Random.sample`` swaps in a pool of the population when N is at
# most 21, plus 4^⌈log₄ 3n⌉ when n > 5; above that it rejects repeats. The
# examples sit on both sides of the bound: (22, 5) and (86, 6) reject,
# (85, 6) swaps, (278, 22) rejects and (277, 22) swaps.
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@example((22, 1, 7, 8))
@example((22, 5, 2 ** 64, 8))
@example((85, 6, 3, 8))
@example((86, 6, 3, 8))
@example((277, 22, 11, 4))
@example((278, 22, 11, 4))
@example((300, 300, 5, 2))
@given(large_frames())
def test_srswor_draws_on_large_frames_keep_the_sample_stream(case):
    N, n, seed, k = case
    # Distinct labels whose sorted order is not their frame order.
    frame = [f"x{i * 7919 % 1009}" for i in range(N)]
    design = Design.srswor(frame, n)
    want = oracle_draws(design, seed, k)
    rng = random.Random(seed)
    assert [design.draw(rng) for _ in range(k)] == want
    # The stream's positions come in the order that ``rng.sample`` picks them.
    rng = random.Random(seed)
    assert [[frame[p] for p in positions] for positions in design._stream(seed, k)] == \
        [rng.sample(frame, n) for _ in range(k)]
