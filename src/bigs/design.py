"""Initial-sample designs and exact inclusion probabilities.

All probabilities on the exact paths are fractions.Fraction. A design is
either simple random sampling without replacement (SRSWOR) over a frame,
or an explicitly enumerated distribution over initial samples.

The probability that a motif is observed equals one minus the probability
that its ancestor set is missed entirely; jointly, two motifs are both
observed with probability 1 - (miss(A) + miss(B) - miss(A union B)).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Iterator

from .errors import DesignError, EnumerationCapError, InfeasibleError, ParseError

DEFAULT_ENUMERATION_CAP = 10_000_000

SRSWOR = "srswor"
ENUMERATED = "enumerated"


class Design:
    """A fixed-size-or-listed initial sampling design over a unit frame."""

    __slots__ = ("kind", "frame", "n", "points", "_frame_set", "_cumulative")

    def __init__(self, kind, frame, n=None, points=None):
        frame = tuple(str(u) for u in frame)
        if len(set(frame)) != len(frame):
            raise DesignError("frame has duplicate units")
        if not frame:
            raise DesignError("empty frame")
        self.kind = kind
        self.frame = frame
        self._frame_set = frozenset(frame)
        self.n = n
        self.points = points
        self._cumulative: list[int] | None = None
        if kind == SRSWOR:
            if n is None or not 1 <= n <= len(frame):
                raise DesignError(f"SRSWOR size must be in 1..{len(frame)}")
        elif kind == ENUMERATED:
            if not points:
                raise DesignError("enumerated design has no support points")
            total = sum(p for _, p in points)
            if total != 1:
                raise DesignError(f"support probabilities sum to {total}, not 1")
            hit = set()
            for s, p in points:
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
        else:
            raise DesignError(f"unknown design kind {kind!r}")

    @classmethod
    def srswor(cls, frame: Iterable[str], n: int) -> "Design":
        return cls(SRSWOR, frame, n=n)

    @classmethod
    def enumerated(cls, frame: Iterable[str], points) -> "Design":
        pts = tuple((frozenset(str(u) for u in s), Fraction(p)) for s, p in points)
        return cls(ENUMERATED, frame, points=pts)

    @property
    def size(self) -> int:
        """Number of support points."""
        if self.kind == SRSWOR:
            return comb(len(self.frame), self.n)
        return len(self.points)

    def _within_frame(self, units: Iterable[str]) -> frozenset[str]:
        """The units as a set; ValueError when some lie outside the frame."""
        units = frozenset(str(u) for u in units)
        if not units <= self._frame_set:
            raise ValueError(f"units outside frame: {sorted(units - self._frame_set)}")
        return units

    def exclusion(self, units: Iterable[str]) -> Fraction:
        """Probability that the initial sample misses every given unit."""
        units = self._within_frame(units)
        if self.kind == SRSWOR:
            N = len(self.frame)
            return Fraction(comb(N - len(units), self.n), comb(N, self.n))
        return sum((p for s, p in self.points if not s & units), Fraction(0))

    def unit_inclusion(self, unit: str) -> Fraction:
        if self.kind == SRSWOR:
            if unit not in self._frame_set:
                raise ValueError(f"unit {unit!r} outside frame")
            return Fraction(self.n, len(self.frame))
        return 1 - self.exclusion([unit])

    def pair_inclusion(self, u: str, v: str) -> Fraction:
        """Probability that both units enter the initial sample."""
        return 1 - (self.exclusion([u]) + self.exclusion([v]) - self.exclusion([u, v]))

    def require_support(self, sample: Iterable[str]) -> frozenset[str]:
        """The sample as a set; DesignError unless the design can draw it."""
        sample = frozenset(str(u) for u in sample)
        if self.kind == SRSWOR:
            outside = sample - self._frame_set
            if outside:
                raise DesignError(f"initial sample has units outside the frame: {sorted(outside)}")
            if len(sample) != self.n:
                raise DesignError(f"initial sample has size {len(sample)}; "
                                  f"this SRSWOR design draws samples of size {self.n}")
        elif all(sample != point for point, _ in self.points):
            raise DesignError(f"initial sample {sorted(sample)} is not a support point "
                              "of the design")
        return sample

    def check_cap(self, cap: int | None = None) -> None:
        """EnumerationCapError when the support has more than ``cap`` points
        (DEFAULT_ENUMERATION_CAP when None)."""
        cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
        if self.size > cap:
            raise EnumerationCapError(
                f"design support has {self.size} points, above the cap of {cap}; "
                "use Monte Carlo simulation instead")

    def enumerate(self, cap: int | None = None) -> Iterator[tuple[frozenset[str], Fraction]]:
        """Yield (initial sample, probability) over the whole support.

        Refuses supports larger than ``cap``, as ``check_cap`` does."""
        self.check_cap(cap)
        if self.kind == SRSWOR:
            p = Fraction(1, self.size)
            for combo in itertools.combinations(self.frame, self.n):
                yield frozenset(combo), p
        else:
            yield from self.points

    def draw(self, rng: random.Random) -> frozenset[str]:
        """One initial sample; deterministic given the generator state.

        A listed design draws exactly: ``rng.randrange(D)`` over the common
        denominator D of its probabilities, located among the cumulative
        integer numerators."""
        if self.kind == SRSWOR:
            return frozenset(rng.sample(self.frame, self.n))
        if self._cumulative is None:
            common = lcm(*(p.denominator for _, p in self.points))
            self._cumulative = list(itertools.accumulate(
                p.numerator * (common // p.denominator) for _, p in self.points))
        r = rng.randrange(self._cumulative[-1])
        return self.points[bisect_right(self._cumulative, r)][0]

    def __repr__(self) -> str:
        if self.kind == SRSWOR:
            return f"<Design SRSWOR N={len(self.frame)} n={self.n}>"
        return f"<Design enumerated |support|={len(self.points)}>"


def first_order_inclusion(design: Design, big, key: str) -> Fraction:
    """Probability that the motif is observed under the design and BIG."""
    ancestors = big.ancestors(key)
    if not ancestors:
        raise InfeasibleError(f"motif {key!r} has no ancestors")
    return 1 - design.exclusion(ancestors)


def second_order_inclusion(design: Design, big, k: str, l: str) -> Fraction:
    """Probability that both motifs are observed."""
    bk, bl = big.ancestors(k), big.ancestors(l)
    if not bk or not bl:
        raise InfeasibleError("motif with empty ancestor set")
    return 1 - (design.exclusion(bk) + design.exclusion(bl) - design.exclusion(bk | bl))


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
    frame = frozenset(big.frame)
    if not seeds <= frame:
        raise ValueError(f"seeds outside frame: {sorted(seeds - frame)}")
    observed: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for i in sorted(seeds):
        for k in big.successors(i):
            observed.add(k)
            edges.add((i, k))
    order = {key: pos for pos, key in enumerate(big.motifs.keys())}
    motifs = tuple(sorted(observed, key=order.__getitem__))
    out = set()
    for k in motifs:
        out |= big.ancestors(k)
    return SampleBig(seeds, motifs, frozenset(edges), frozenset(out - seeds))


def parse_design_file(source, frame: Iterable[str]) -> Design:
    """Parse an enumerated design: one 'p: unit unit ...' line per point."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    points = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'probability: unit unit ...'", line=lineno)
        head, tail = line.split(":", 1)
        try:
            p = Fraction(head.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad probability {head.strip()!r}", line=lineno) from None
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
