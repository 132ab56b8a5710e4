"""Initial-sample designs and exact inclusion probabilities.

All probabilities on the exact paths are fractions.Fraction. Each kind
of design is one class: simple random sampling without replacement
(SRSWOR) over a frame, or an explicitly listed distribution over samples.

``Design`` prices every unit set under one of two hit rules: the sample
meets the set (a motif is observed when some ancestor is selected), or
it contains all of it (induced observation sees a motif only when every
member is selected). Two sets are both met with probability
π_A + π_B - π_(A ∪ B); both are contained exactly when their union is.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, comb, lcm, log
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DesignError, EnumerationCapError, ParseError, exact, records, to_fraction

DEFAULT_ENUMERATION_CAP = 10_000_000
# A design keeps the last seeded draw stream it made (see ``Design._stream``)
# while it holds at most this many frame positions, replicates × sample size:
# at most 12 MiB (n = 1), and enough for 10,000 replicates of up to 13 units.
KEPT_STREAM_CAP = 2 ** 17


class Design:
    """An initial sampling design over a frame, built by ``Design.srswor`` or
    ``Design.enumerated``; each kind prices, draws and lists its own support.

    Inside the package draws and support points are sequences of frame
    positions; ``draw`` and ``enumerate`` give them as sets of units."""

    __slots__ = ("frame", "_frame_set", "size", "_largest", "_kept")

    def __init__(self, frame: Iterable[str]):
        frame = tuple(str(u) for u in frame)
        if len(set(frame)) != len(frame):
            raise DesignError("frame has duplicate units")
        if not frame:
            raise DesignError("empty frame")
        self.frame = frame
        self._frame_set = frozenset(frame)
        self._kept = None

    def inclusion(self, units: Iterable[str], fully_selected: bool = False) -> Fraction:
        """Probability that the initial sample meets the units or, with
        ``fully_selected``, contains all of them."""
        if type(units) is not frozenset or not units <= self._frame_set:
            units = frozenset(map(str, units))
            if not units <= self._frame_set:
                raise ValueError(f"units outside frame: {sorted(units - self._frame_set)}")
        return self._price(units, fully_selected)

    def _pricer(self, frame: tuple[str, ...], fully_selected: bool = False
                ) -> tuple[Callable[[Iterable[int]], Fraction],
                           Callable[[int, int, int], Fraction] | None]:
        """(price, by_size) for rows hit through sets of positions in ``frame``.

        ``price`` maps positions to the ``inclusion`` of their units, and
        ``by_size`` is ``size_ratio(fully_selected)`` for a kind that prices
        by set sizes, None for one that does not. Units of the design's
        frame that ``frame`` lacks observe nothing; a unit of ``frame``
        outside the design's frame is refused before anything is priced."""
        if not self._frame_set.issuperset(frame):
            raise ValueError(f"units outside frame: {sorted(set(frame) - self._frame_set)}")
        return self._position_pricer(frame, fully_selected)

    def check_cap(self, cap: int | None = None) -> None:
        """EnumerationCapError when the support has more than ``cap`` points
        (DEFAULT_ENUMERATION_CAP when None)."""
        cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
        if self.size > cap:
            raise EnumerationCapError(
                f"design support has {self.size} points, above the cap of {cap}; "
                "use Monte Carlo simulation instead")

    def _walk(self, cap: int | None = None) -> tuple[int, Iterable[tuple[Sequence[int], int]]]:
        """(D, points): the whole support as (frame positions of an initial
        sample, integer weight w), each sample drawn with probability w / D.

        Refuses supports larger than ``cap``, as ``check_cap`` does."""
        self.check_cap(cap)
        return self._support()

    def enumerate(self, cap: int | None = None) -> Iterator[tuple[frozenset[str], Fraction]]:
        """Yield (initial sample, probability) over the whole support.

        Refuses supports larger than ``cap``, as ``check_cap`` does."""
        common, points = self._walk(cap)
        frame = self.frame
        for positions, w in points:
            yield frozenset(map(frame.__getitem__, positions)), Fraction(w, common)

    def draw(self, rng: random.Random) -> frozenset[str]:
        """One initial sample; deterministic given the generator state."""
        return frozenset(map(self.frame.__getitem__, self._draw(rng)))

    def _stream(self, seed: int, replicates: int) -> Iterable[Sequence[int]]:
        """The frame positions of ``replicates`` draws from random.Random(seed).

        The last stream of an ``int`` seed is kept while it holds at most
        KEPT_STREAM_CAP positions, so estimators that run under one seed
        read one stream (common random numbers) and draw it once; any other
        stream is drawn afresh on every call."""
        key = seed, replicates
        kept = type(seed) is int and replicates * self._largest <= KEPT_STREAM_CAP
        if kept and self._kept is not None and self._kept[0] == key:
            return self._kept[1]
        rng = random.Random(seed)
        stream = (self._draw(rng) for _ in range(replicates))
        if kept:
            stream = tuple(stream)
            self._kept = key, stream
        return stream


class SrsworDesign(Design):
    """Simple random sampling of ``n`` frame units without replacement."""

    __slots__ = ("n", "_by_size", "_pool")
    kind = "srswor"
    points = None

    def __init__(self, frame: Iterable[str], n: int):
        super().__init__(frame)
        if n is None or not 1 <= n <= len(self.frame):
            raise DesignError(f"SRSWOR size must be in 1..{len(self.frame)}")
        self.n = self._largest = n
        self.size = comb(len(self.frame), n)
        self._by_size: dict[tuple[int, bool], Fraction] = {}
        # ``random.Random.sample`` swaps picks within a pool of the population
        # while N is at most its set-size bound; past it, it rejects repeats.
        self._pool = len(self.frame) <= 21 + (4 ** ceil(log(n * 3, 4)) if n > 5 else 0)

    def _hits(self, m: int, fully_selected: bool) -> int:
        """Samples that meet, or with ``fully_selected`` contain, m given units."""
        N, n = len(self.frame), self.n
        if fully_selected:
            return comb(N - m, n - m) if m <= n else 0
        return self.size - comb(N - m, n)

    def _price(self, members, fully_selected: bool) -> Fraction:
        """``inclusion`` of any frame units, or of their positions, priced once per size."""
        size = len(members), fully_selected
        got = self._by_size.get(size)
        if got is None:
            got = self._by_size[size] = Fraction(self._hits(*size), self.size)
        return got

    def _position_pricer(self, frame, fully_selected):
        return (lambda positions: self._price(positions, fully_selected),
                self.size_ratio(fully_selected))

    def size_ratio(self, fully_selected: bool = False) -> Callable[[int, int, int], Fraction]:
        """(a, b, u) -> π_(kl) / (π_(k) π_(l)), for rows k, l hit through
        unit sets of sizes a and b with a union of u.

        A row is hit under the rule of ``inclusion``; each ratio is priced
        once from sample counts."""

        @cache
        def ratio(a: int, b: int, u: int) -> Fraction:
            hit_a, hit_b, hit_u = (self._hits(m, fully_selected) for m in (a, b, u))
            both = hit_u if fully_selected else hit_a + hit_b - hit_u
            return Fraction(self.size * both, hit_a * hit_b)

        return ratio

    def _support(self):
        """Every sample at weight 1 over C(N, n), in the order of
        ``itertools.combinations(frame, n)``."""
        return self.size, zip(itertools.combinations(range(len(self.frame)), self.n),
                              itertools.repeat(1))

    def require_support(self, sample: Iterable[str]) -> frozenset[str]:
        """The sample as a set; DesignError unless the design can draw it."""
        sample = frozenset(str(u) for u in sample)
        outside = sample - self._frame_set
        if outside:
            raise DesignError(f"initial sample has units outside the frame: {sorted(outside)}")
        if len(sample) != self.n:
            raise DesignError(f"initial sample has size {len(sample)}; "
                              f"this SRSWOR design draws samples of size {self.n}")
        return sample

    def _draw(self, rng: random.Random) -> list[int]:
        """The positions that ``rng.sample(frame, n)`` picks, in its order:
        ``random.Random.sample`` picks from the population's length alone,
        and this reads ``rng.getrandbits`` as it does. Each pick is tried
        with as many bits as its bound has until it is below the pool's
        size, or below N and not picked yet."""
        N, bits = len(self.frame), rng.getrandbits
        if self._pool:
            pool, picked = list(range(N)), []
            for size in range(N, N - self.n, -1):
                k = size.bit_length()
                j = bits(k)
                while j >= size:
                    j = bits(k)
                picked.append(pool[j])
                pool[j] = pool[size - 1]
            return picked
        k, picked = N.bit_length(), {}
        while len(picked) < self.n:
            j = bits(k)
            if j < N:
                picked[j] = None  # a repeat keeps its first place
        return list(picked)

    def __repr__(self) -> str:
        return f"<Design SRSWOR N={len(self.frame)} n={self.n}>"


class ListedDesign(Design):
    """An explicitly enumerated distribution over initial samples."""

    __slots__ = ("_index", "_common", "_points", "_cumulative")
    kind = "enumerated"
    n = None

    def __init__(self, frame: Iterable[str], points):
        listed = [(frozenset(str(u) for u in s), to_fraction(p)) for s, p in points]
        super().__init__(frame)
        if not listed:
            raise DesignError("enumerated design has no support points")
        # A sample listed twice is one support point: its probabilities add
        # up and its first appearance keeps its place.
        merged: dict[frozenset[str], Fraction] = {}
        for s, p in listed:
            merged[s] = merged[s] + p if s in merged else p
        self.size = len(merged)
        # Each probability as an integer weight over one common denominator.
        self._common = lcm(*(p.denominator for p in merged.values()))
        weights = [p.numerator * (self._common // p.denominator) for p in merged.values()]
        self._cumulative = list(itertools.accumulate(weights))
        if self._cumulative[-1] != self._common:
            total = Fraction(self._cumulative[-1], self._common)
            raise DesignError(f"support probabilities sum to {total}, not 1")
        hit = set()
        for s, p in listed:
            if p <= 0:
                raise DesignError("support probabilities must be positive")
            if not s:
                raise DesignError("empty initial sample in support")
            if not s <= self._frame_set:
                raise DesignError(f"support units outside frame: {sorted(s - self._frame_set)}")
            hit |= s
        never = self._frame_set - hit
        if never:
            raise DesignError(f"units with zero inclusion probability: {sorted(never)}")
        # The support, held once: (frame positions of a sample, integer weight).
        self._index = {u: p for p, u in enumerate(self.frame)}
        self._points = tuple((frozenset(map(self._index.__getitem__, s)), w)
                             for s, w in zip(merged, weights))
        self._largest = max(map(len, merged))

    @property
    def points(self) -> tuple[tuple[frozenset[str], Fraction], ...]:
        """The support as (initial sample, probability), in listed order."""
        frame = self.frame
        return tuple((frozenset(map(frame.__getitem__, s)), Fraction(w, self._common))
                     for s, w in self._points)

    def _price(self, units: frozenset[str], fully_selected: bool) -> Fraction:
        return self._position_price(frozenset(map(self._index.__getitem__, units)),
                                    fully_selected)

    def _position_price(self, positions: frozenset[int], fully_selected: bool) -> Fraction:
        if fully_selected:
            hits = sum(w for s, w in self._points if positions <= s)
        else:
            hits = sum(w for s, w in self._points if not positions.isdisjoint(s))
        return Fraction(hits, self._common)

    def _position_pricer(self, frame, fully_selected):
        # The design's position of each position of ``frame``.
        to_design = (range(len(frame)) if frame == self.frame
                     else [self._index[u] for u in frame])
        return (lambda positions: self._position_price(
            frozenset(map(to_design.__getitem__, positions)), fully_selected), None)

    def size_ratio(self, fully_selected: bool = False):
        raise DesignError("pricing by set sizes needs a simple random sampling design")

    def _support(self):
        """The probabilities as weights over their least common denominator."""
        return self._common, self._points

    def require_support(self, sample: Iterable[str]) -> frozenset[str]:
        """The sample as a set; DesignError unless the design can draw it."""
        sample = frozenset(str(u) for u in sample)
        # A unit outside the frame maps to None, which no support point holds.
        positions = frozenset(map(self._index.get, sample))
        if all(positions != point for point, _ in self._points):
            raise DesignError(f"initial sample {sorted(sample)} is not a support point "
                              "of the design")
        return sample

    def _draw(self, rng: random.Random) -> frozenset[int]:
        """One support point, drawn exactly: ``rng.randrange(D)`` over the common
        denominator D, located among the cumulative integer weights."""
        return self._points[bisect_right(self._cumulative, rng.randrange(self._common))][0]

    def __repr__(self) -> str:
        return f"<Design enumerated |support|={self.size}>"


Design.srswor, Design.enumerated = SrsworDesign, ListedDesign


def first_order_inclusion(design: Design, big, key: str) -> Fraction:
    """Probability that the motif is observed under the design and BIG."""
    return design.inclusion([big.frame[p] for p in big._ancestry(key)])


@dataclass(frozen=True)
class SampleBig:
    """The sample BIG realized by an initial sample.

    ``motifs`` are the observed motif keys, ``edges`` the incidence pairs
    restricted to the initial sample, and ``out_ancestors`` the ancestor
    units of observed motifs that were not initially selected (the units
    the observation procedure must reach for the representation to hold).
    """

    seeds: frozenset[str]
    motifs: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    out_ancestors: frozenset[str]


def realize_sample_big(big, seeds: Iterable[str]) -> SampleBig:
    seeds = frozenset(str(s) for s in seeds)
    outside = [s for s in seeds if s not in big._pos]
    if outside:
        raise ValueError(f"seeds outside frame: {sorted(outside)}")
    alpha, keys = big._successor_indices(), big._keys
    observed: set[int] = set()
    edges: set[tuple[str, str]] = set()
    for i in seeds:
        found = alpha[big._pos[i]]
        observed.update(found)
        edges.update((i, keys[j]) for j in found)
    motifs = sorted(observed)
    out = {big.frame[p] for j in motifs for p in big._beta[keys[j]]}
    return SampleBig(seeds, tuple(keys[j] for j in motifs), frozenset(edges),
                     frozenset(out - seeds))


def parse_design_file(source, frame: Iterable[str]) -> Design:
    """Parse an enumerated design: one 'p: unit unit ...' line per point."""
    points = []
    for lineno, tokens in records(source):
        line = " ".join(tokens)
        if ":" not in line:
            raise ParseError("expected 'probability: unit unit ...'", line=lineno)
        head, tail = line.split(":", 1)
        p = exact(head.strip(), "probability", lineno)
        units = tail.split()
        if not units:
            raise ParseError("support point with no units", line=lineno)
        if len(set(units)) != len(units):
            raise ParseError("duplicate unit in support point", line=lineno)
        points.append((frozenset(units), p))
    if not points:
        raise ParseError("design file has no support points")
    try:
        return Design.enumerated(frame, points)
    except DesignError as exc:
        raise ParseError(str(exc)) from None
