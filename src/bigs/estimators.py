"""Point estimators and moment evaluation for Big sampling.

Covers the inclusion-probability (HT) estimator over observed motifs and
its induced-observation variant, the initial-sample (HH) estimator with
weight schemes, the eligibility-modified HT estimator for adaptive
cluster sampling, Rao-Blackwellization over the realized motif set, the
variance-difference matrix between the two estimator families, and exact
or Monte Carlo moments over a design.

Each estimator is compiled once into a plan whose terms share one common
denominator, and the design walks its support with integer weights over
one denominator, so a support point or a draw adds integers. Results are
exact Fractions, made once per moment or Rao-Blackwell group. Floats
appear only in the Monte Carlo summaries, each replicate divided once
from integers, which gives float() of its exact estimate.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

from . import design as _design
from .big import AncestorRule, Big
from .design import Design, SampleBig, SrsworDesign
from .errors import DesignError, EnumerationCapError, WeightError, to_fraction
from .motifs import MotifSet

TOTAL = "total"
MEAN_PER_UNIT = "mean"
_SCALES = (TOTAL, MEAN_PER_UNIT)

EQUAL_SHARE = "equal-share"
INV_ALPHA = "inverse-alpha"
CUSTOM = "custom"

HT = "ht"
HH = "hh"
MODIFIED_HT = "modified-ht"


@dataclass(frozen=True)
class WeightScheme:
    """Unit-to-motif weights ω_ik with rows summing to one over ancestors.

    equal-share puts 1/|β_k| on each ancestor; inverse-alpha weights
    ancestor i proportionally to 1/|α_i|, where the successor counts come
    from the governing Big unless `alpha_sizes` supplies them (useful when
    the Big at hand is a fragment of a larger one); custom supplies the
    table directly.
    """

    kind: str
    table: Mapping[tuple[str, str], Fraction] | None = None
    alpha_sizes: Mapping[str, int] | None = None

    def __post_init__(self):
        if self.kind not in (EQUAL_SHARE, INV_ALPHA, CUSTOM):
            raise ValueError(f"unknown weight scheme {self.kind!r}")
        if self.kind == CUSTOM and self.table is None:
            raise ValueError("custom weights need a table")
        if self.kind != CUSTOM and self.table is not None:
            raise ValueError(f"{self.kind} takes no table")
        if self.kind != INV_ALPHA and self.alpha_sizes is not None:
            raise ValueError(f"{self.kind} takes no alpha sizes")

    @classmethod
    def equal_share(cls) -> "WeightScheme":
        return cls(EQUAL_SHARE)

    @classmethod
    def inverse_alpha(cls, alpha_sizes: Mapping[str, int] | None = None) -> "WeightScheme":
        return cls(INV_ALPHA, alpha_sizes=alpha_sizes)

    @classmethod
    def custom(cls, table: Mapping[tuple[str, str], object]) -> "WeightScheme":
        frozen = {(str(u), str(k)): to_fraction(w) for (u, k), w in table.items()}
        return cls(CUSTOM, table=frozen)

    @classmethod
    def parse(cls, text: str) -> "WeightScheme":
        text = text.strip().lower()
        if text == EQUAL_SHARE:
            return cls.equal_share()
        if text == INV_ALPHA:
            return cls.inverse_alpha()
        raise ValueError(f"unknown weight scheme {text!r} "
                         f"(expected {EQUAL_SHARE} or {INV_ALPHA})")

    @property
    def label(self) -> str:
        return self.kind


def resolve_weights(big: Big, scheme: WeightScheme) -> dict[str, dict[str, Fraction]]:
    """Materialize ω_ik per motif, checking the unit-sum constraint."""
    row, frame = _weight_rows(big, scheme), big.frame
    return {key: {frame[p]: w for p, w in row(key).items()} for key in big._keys}


def _weight_rows(big: Big, scheme: WeightScheme) -> Callable[[str], dict[int, Fraction]]:
    """Motif key -> its row of ω_ik keyed by frame position, made on first
    use. The scheme is checked against the whole Big first, so every
    WeightError that ``resolve_weights`` raises is raised here too."""
    frame = big.frame
    if scheme.kind == EQUAL_SHARE:
        def row(key: str) -> dict[int, Fraction]:
            beta = big._beta[key]
            return dict.fromkeys(beta, Fraction(1, len(beta)))
    elif scheme.kind == INV_ALPHA:
        alpha = big._successor_indices()

        def alpha_size(p: int) -> int:
            u = frame[p]
            if scheme.alpha_sizes is not None:
                try:
                    size = int(scheme.alpha_sizes[u])
                except KeyError:
                    raise WeightError(f"no successor count supplied for unit {u!r}") from None
            else:
                size = len(alpha[p])
            if size < 1:
                raise WeightError(f"unit {u!r} has successor count {size}; need >= 1")
            return size

        # Every ancestor's count is checked, in motif order.
        sizes = {p: alpha_size(p) for p in dict.fromkeys(chain.from_iterable(big._beta.values()))}

        def row(key: str) -> dict[int, Fraction]:
            # (1/|α_i|) / Σ_j 1/|α_j| as (L/|α_i|) / Σ_j L/|α_j|, L their lcm.
            beta = big._beta[key]
            common = math.lcm(*map(sizes.__getitem__, beta))
            parts = [common // sizes[p] for p in beta]
            norm = sum(parts)
            return {p: Fraction(part, norm) for p, part in zip(beta, parts)}
    else:
        rows: dict[str, dict[int, Fraction]] = {key: {} for key in big._keys}
        for (u, key), w in (scheme.table or {}).items():
            if key not in rows:
                raise WeightError(f"weight given for unknown motif {key!r}")
            p = big._pos.get(u)
            if p not in big._beta[key]:
                raise WeightError(f"weight on {u!r}->{key!r}, but {u!r} is not an ancestor")
            rows[key][p] = w
        for key, weights in rows.items():
            total = sum(weights.values(), Fraction(0))
            if total != 1:
                raise WeightError(
                    f"weights for motif {key!r} sum to {total}, must be exactly 1")
        return rows.__getitem__
    return functools.cache(row)


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to evaluate: kind, weights, scale, Rao-Blackwell."""

    kind: str
    weights: WeightScheme | None = None
    scale: str = TOTAL
    rao_blackwell: bool = False

    def __post_init__(self):
        if self.kind not in (HT, HH, MODIFIED_HT):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == HH and self.weights is None:
            raise ValueError("hh estimator needs a weight scheme")
        if self.kind != HH and self.weights is not None:
            raise ValueError(f"{self.kind} estimator takes no weights")
        if self.scale not in _SCALES:
            raise ValueError(f"unknown scale {self.scale!r}")

    @classmethod
    def parse(cls, text: str, scale: str = TOTAL) -> "EstimatorSpec":
        """Parse labels like 'ht', 'hh:equal-share', 'rb:modified-ht'."""
        raw = text.strip().lower()
        body = raw
        rb = False
        if body.startswith("rb:"):
            rb = True
            body = body[3:]
        if body == HT:
            return cls(HT, scale=scale, rao_blackwell=rb)
        if body == MODIFIED_HT:
            return cls(MODIFIED_HT, scale=scale, rao_blackwell=rb)
        if body.startswith("hh:"):
            return cls(HH, weights=WeightScheme.parse(body[3:]), scale=scale,
                       rao_blackwell=rb)
        raise ValueError(f"unknown estimator {text!r} (expected ht, modified-ht, "
                         "hh:equal-share or hh:inverse-alpha, with optional rb: prefix)")

    @property
    def label(self) -> str:
        body = self.kind if self.weights is None else f"{self.kind}:{self.weights.label}"
        return f"rb:{body}" if self.rao_blackwell else body


@dataclass(frozen=True)
class EstimatorReport:
    """One evaluated estimate with its per-term breakdown.

    Each contribution row is (identifier, probability used, share of the
    estimate); identifiers are motif keys for the HT family and initial
    units for the HH family.
    """

    estimate: Fraction
    scale: str
    contributions: tuple[tuple[str, Fraction, Fraction], ...]

    def __float__(self) -> float:
        return float(self.estimate)


def _scale_divisor(design: Design, scale: str) -> int:
    """The mean is per unit of the design's frame, which may hold units the Big lacks."""
    if scale == TOTAL:
        return 1
    if scale == MEAN_PER_UNIT:
        return len(design.frame)
    raise ValueError(f"unknown scale {scale!r}")


def _dot(pairs: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """Σ a·b over pairs of exact numbers: integers over the lcm of the
    products' denominators, made into one Fraction."""
    terms = [(a.numerator * b.numerator, a.denominator * b.denominator) for a, b in pairs]
    common = math.lcm(*(d for _, d in terms))
    return Fraction(sum(n * (common // d) for n, d in terms), common)


def _eligibility_big(big: Big) -> Big:
    """The Big on which modified HT is plain HT.

    Each edge grid is its own only ancestor, so it enters the estimate
    exactly when it is selected initially, divided by the probability of
    that selection; every other motif keeps its ancestor set. This holds
    under every adaptive-cluster rule.
    """
    if big.acs is None:
        raise DesignError("modified HT needs an adaptive-cluster Big")
    edge_grids = big.acs.edge_grids
    beta = {key: (big._pos[key],) if key in edge_grids else positions
            for key, positions in big._beta.items()}
    return Big._of(big.frame, big._pos, big.motifs, beta, big.rule, acs=big.acs)


def _rows_hit(positions: Iterable[int], select: Sequence[Iterable[int]],
              hit_by: Sequence[tuple[int, ...]] | None = None) -> Iterable[int]:
    """The rows that an initial sample hits, given as positions that
    ``select`` maps to the rows their units hit. With ``hit_by`` (fully
    selected) a row is hit only when the sample holds all of its units."""
    rows = chain.from_iterable(map(select.__getitem__, positions))
    if hit_by is None:
        return set(rows)
    return [row for row, count in Counter(rows).items() if count == len(hit_by[row])]


class _Plan:
    """One estimator compiled against a design and a Big.

    Every estimator here is a sum of terms value / π / divisor, one per
    row that the initial sample hits. HT has one row per motif k, hit when
    the sample meets β_k, with value y_k; HH has one row per frame unit i,
    hit when i is selected, with value z_i; modified HT is HT on the
    eligibility Big. With ``fully_selected`` a motif row is hit only when
    the sample contains all of β_k: HT under induced observation is HT on
    a Big whose β_k are the member sets. Rao-Blackwellization conditions
    on the motif set observed on the original Big.

    Rows are numbered: ``labels[r]`` names row r, ``hit_by[r]`` holds the
    frame positions that hit it, and ``select[p]`` the rows that the unit
    at position p hits. Every price, and the choice of a closed form, comes
    from the design's pricer. Walks and draws give initial samples as
    positions in the design's frame, and the maps they read cover that
    frame, where a unit the Big does not hold hits no row.
    """

    def __init__(self, design: Design, big: Big, spec: EstimatorSpec,
                 fully_selected: bool = False):
        self.design = design
        self.big = big
        self.spec = spec
        self.fully_selected = fully_selected
        self.div = _scale_divisor(design, spec.scale)
        self._numerator: tuple[Callable[[Iterable[int]], int], int] | None = None
        self._groups: tuple[int, int, dict[frozenset[int], list[int]]] | None = None
        frame, keys, y = big.frame, big._keys, big.motifs.y
        if spec.kind == HH:
            weights = _weight_rows(big, spec.weights)
            alpha = big._successor_indices()
            self.labels = frame
            self.select = self.hit_by = [(p,) for p in range(len(frame))]
            # z_i = Σ_k ω_ik y_k over the successors k of unit i.
            parts = self.parts = lambda p: [(weights(keys[j])[p], y(keys[j])) for j in alpha[p]]
            self.value = lambda p: _dot(parts(p))
        else:
            terms = _eligibility_big(big) if spec.kind == MODIFIED_HT else big
            self.labels = keys
            self.select = terms._successor_indices()
            self.hit_by = list(terms._beta.values())
            self.parts = lambda j: ((y(keys[j]), 1),)
            self.value = lambda j: y(keys[j])
        self._price, self._by_size = design._pricer(frame, fully_selected)

    def pi(self, row: int) -> Fraction:
        """The probability that the initial sample hits the row."""
        return self._price(self.hit_by[row])

    def _on_design_frame(self, by_position: Sequence) -> Sequence:
        """A sequence over the Big's frame positions, indexed instead by the
        design's: a unit of the design's frame that the Big lacks gets ()."""
        big = self.big
        if big.frame == self.design.frame:
            return by_position
        return [by_position[big._pos[u]] if u in big._pos else () for u in self.design.frame]

    def report(self, seeds: Iterable[str]) -> EstimatorReport:
        """The estimate with a (row, π, share) entry for each row hit, in row order.

        Only the rows hit are priced, so one report stays cheap."""
        rows = []
        chosen = {self.big._position(u) for u in seeds}
        whole = self.hit_by if self.fully_selected else None
        for row in sorted(_rows_hit(chosen, self.select, whole)):
            pi = self.pi(row)
            rows.append((self.labels[row], pi, self._share(self.value(row), pi)))
        total = _dot((part, 1) for _, _, part in rows)
        return EstimatorReport(total, self.spec.scale, tuple(rows))

    def _share(self, value: Fraction, pi: Fraction) -> Fraction:
        """value / π / divisor, made as one Fraction."""
        return Fraction(value.numerator * pi.denominator,
                        value.denominator * pi.numerator * self.div)

    def _scaled(self) -> tuple[Callable[[Iterable[int]], int], int]:
        """(design positions -> integer numerator, common denominator) of the
        estimate.

        The terms a·b / π / divisor, one per nonzero part of a row's value,
        each a reduced pair of integers, are put over their common
        denominator once, so a draw or a support point adds integers; a row
        whose parts are all zero carries no term."""
        if self._numerator is None:
            terms = []
            for row in range(len(self.labels)):
                pi = None  # priced on the row's first nonzero part
                for a, b in self.parts(row):
                    if a and b:
                        pi = pi or self.pi(row)
                        n = a.numerator * b.numerator * pi.denominator
                        d = a.denominator * b.denominator * pi.numerator * self.div
                        g = math.gcd(n, d)
                        terms.append((row, n // g, d // g))
            common = math.lcm(*(d for _, _, d in terms))
            scaled: dict[int, int] = defaultdict(int)
            for row, n, d in terms:
                scaled[row] += n * (common // d)
            index = self._on_design_frame(
                [tuple(row for row in rows if row in scaled) for rows in self.select])
            whole = self.hit_by if self.fully_selected else None

            # The closures hold no reference to the plan, so a plan is freed
            # as soon as its last user drops it.
            if all(len(self.hit_by[row]) == 1 for row in scaled):
                # No row is hit through two units: each position adds its own rows.
                own = [sum(map(scaled.__getitem__, rows)) for rows in index]

                def numerator(positions: Iterable[int]) -> int:
                    return sum(map(own.__getitem__, positions))
            else:
                def numerator(positions: Iterable[int]) -> int:
                    return sum(map(scaled.__getitem__, _rows_hit(positions, index, whole)))

            self._numerator = numerator, common
        return self._numerator

    def _observer(self) -> Callable[[Iterable[int]], frozenset[int]]:
        """Design positions -> the indices of the Big's motifs that they observe."""
        observes = self._on_design_frame(self.big._successor_indices())
        return lambda positions: frozenset().union(*map(observes.__getitem__, positions))

    def _group_table(self, cap: int | None) -> tuple[int, int, dict[frozenset[int], list[int]]]:
        """(D, c, table): observed motif set -> [Σ w·x, Σ w] over the design
        support, from one walk made on first use. A support point has
        probability w / D and the unconditioned estimate x / c there."""
        if self._groups is None:
            numerator, common = self._scaled()
            weight, walk = self.design._walk(cap)
            observed = self._observer()
            table: dict[frozenset[int], list[int]] = defaultdict(lambda: [0, 0])
            for positions, w in walk:
                group = table[observed(positions)]
                group[0] += w * numerator(positions)
                group[1] += w
            self._groups = weight, common, table
        return self._groups

    def evaluator(self, cap: int | None = None, divide: Callable[[int, int], object] = Fraction
                  ) -> Callable[[Iterable[int]], object]:
        """Design positions of an initial sample -> estimate; one draw costs
        the successor lists of its units.

        The estimate is divide(numerator, denominator) of two integers: the
        exact Fraction by default. With operator.truediv it is a float,
        correctly rounded as float(Fraction) is, so both give the same float."""
        if self.spec.rao_blackwell:
            _, common, table = self._group_table(cap)
            means = {motifs: divide(num, den * common) for motifs, (num, den) in table.items()}
            observed = self._observer()
            return lambda positions: means[observed(positions)]
        numerator, common = self._scaled()
        return lambda positions: divide(numerator(positions), common)

    def moments(self, cap: int | None) -> tuple[Fraction, Fraction] | None:
        """(E[x], E[x²]) without a walk of their own, or None when only a walk
        gives them: the group table holds them for a Rao-Blackwellized spec,
        as Σ num and Σ num²/den, and a design that prices pairs by set
        sizes gives the pair probabilities. HT is a function of the observed
        motif set, so rb:ht then takes the HT closed form."""
        if self.spec.rao_blackwell and (self.spec.kind != HT or self._by_size is None):
            weight, common, table = self._group_table(cap)
            first = sum(num for num, _ in table.values())
            # Groups of equal total weight share a denominator: one Fraction each.
            squares: dict[int, int] = defaultdict(int)
            for num, den in table.values():
                squares[den] += num * num
            second = sum((Fraction(s, den) for den, s in squares.items()), Fraction(0))
            return Fraction(first, weight * common), second / (weight * common * common)
        if self._by_size is None:
            return None
        values = [self.value(row) for row in range(len(self.labels))]
        second = _srswor_pair_sum(self._by_size, self.hit_by, values)
        return sum(values, Fraction(0)) / self.div, second / (self.div * self.div)

    def conditioned(self, observed: SampleBig, cap: int | None = None) -> EstimatorReport:
        """Rao-Blackwell report: one row per initial sample observing the same motifs."""
        numerator, common = self._scaled()
        _, walk = self.design._walk(cap)
        index = {key: j for j, key in enumerate(self.big._keys)}
        target = frozenset(map(index.get, observed.motifs))
        observes = self._observer()
        points = [(positions, w, numerator(positions)) for positions, w in walk
                  if observes(positions) == target]
        den = sum(w for _, w, _ in points)
        if den == 0:
            raise DesignError("no initial sample realizes the observed motif set")
        num = sum(w * x for _, w, x in points)
        frame = self.design.frame
        rows = tuple((" ".join(sorted(map(frame.__getitem__, positions))), Fraction(w, den),
                      Fraction(x, common)) for positions, w, x in points)
        return EstimatorReport(Fraction(num, den * common), self.spec.scale, rows)


def estimate(spec: EstimatorSpec, design: Design, big: Big, sample: SampleBig,
             cap: int | None = None) -> EstimatorReport:
    """Evaluate one estimator on one realized sample, with its per-term rows.

    HT and modified HT rows are the motifs entered, HH rows the initial
    units, and Rao-Blackwellized rows the initial samples averaged over.
    """
    plan = _Plan(design, big, spec)
    return plan.conditioned(sample, cap) if spec.rao_blackwell else plan.report(sample.seeds)


def ht_estimate(sample: SampleBig, design: Design, big: Big,
                scale: str = TOTAL) -> EstimatorReport:
    """Inclusion-probability estimator: sum of y_k / π_(k) over Ω_s."""
    return estimate(EstimatorSpec(HT, scale=scale), design, big, sample)


def hh_estimate(sample: SampleBig, design: Design, big: Big,
                weights: WeightScheme, scale: str = TOTAL) -> EstimatorReport:
    """Initial-sample estimator: sum of z_i / π_i over the seeds,
    with z_i the weighted share of the y-values of the successors of i."""
    return estimate(EstimatorSpec(HH, weights, scale), design, big, sample)


def rao_blackwellize(spec: EstimatorSpec, design: Design, big: Big,
                     observed: SampleBig, cap: int | None = None) -> EstimatorReport:
    """Average the estimator over every initial sample that realizes the
    same observed motif set, weighted by the design probabilities."""
    return _Plan(design, big, spec).conditioned(observed, cap)


@dataclass(frozen=True)
class MomentSummary:
    """Exact design moments of an estimator."""

    expectation: Fraction
    variance: Fraction
    mse: Fraction
    target: Fraction
    scale: str
    support: int

    @property
    def bias(self) -> Fraction:
        return self.expectation - self.target


def _srswor_pair_sum(ratio: Callable[[int, int, int], Fraction], sets: list[tuple[int, ...]],
                     values: list[Fraction]) -> Fraction:
    """Σ_k Σ_l y_k y_l π_(kl) / (π_(k) π_(l)) under an SRSWOR design.

    Row k is hit through the unit set A_k, given as the sorted tuple of its
    frame positions, and ``ratio`` is the design's ``size_ratio`` for the
    hit rule: π_(k) and π_(kl) depend only on |A_k|, |A_l| and |A_k ∪ A_l|,
    so the products y_k y_l are first summed into those groups, as integers
    over the lcm of the y denominators: disjoint pairs in bulk from per-size
    totals, overlapping pairs (k = l among them) moved to their own group
    through an index from each unit to the sets already seen, with union
    sizes from bit masks over the positions. Each group then costs one ratio.
    """
    merged: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)
    for units, y in zip(sets, values):
        merged[units] += y
    scale = math.lcm(*(y.denominator for y in merged.values()))
    earlier: dict[int, list[int]] = defaultdict(list)
    rows: list[tuple[int, int, int]] = []
    by_size: dict[int, int] = defaultdict(int)
    # Ordered pairs whose sets meet, summed by (a, b) and by (a, b, union), a <= b.
    met: dict[tuple[int, int], int] = defaultdict(int)
    groups: dict[tuple[int, int, int], int] = defaultdict(int)
    for units, y in merged.items():
        if not y:
            continue
        y_k = y.numerator * (scale // y.denominator)
        a = len(units)
        mask = 0
        meets = set()
        for unit in units:
            mask |= 1 << unit
            meets.update(earlier[unit])
            earlier[unit].append(len(rows))
        by_size[a] += y_k
        met[a, a] += y_k * y_k
        groups[a, a, a] += y_k * y_k
        for l in meets:
            mask_l, b, y_l = rows[l]
            lo, hi = (a, b) if a <= b else (b, a)
            product = 2 * y_k * y_l
            met[lo, hi] += product
            groups[lo, hi, (mask | mask_l).bit_count()] += product
        rows.append((mask, a, y_k))
    for a, total_a in by_size.items():
        for b, total_b in by_size.items():
            if a <= b:
                groups[a, b, a + b] += (total_a * total_b * (1 if a == b else 2)
                                        - met.get((a, b), 0))

    total = sum((g * ratio(a, b, u) for (a, b, u), g in groups.items() if g), Fraction(0))
    return total / (scale * scale)


def enumerate_moments(design: Design, big: Big, specs: Iterable[EstimatorSpec],
                      cap: int | None = None,
                      samples: list | None = None) -> list[MomentSummary]:
    """Exact moments of each spec.

    Under SRSWOR every spec but a Rao-Blackwellized one takes its moments
    in closed form from the second-order inclusion probabilities, and so
    does rb:ht, which equals HT; a Rao-Blackwellized spec reads them from
    its table of observed motif sets, built in one walk. The rest share one walk over the support,
    whose points (initial sample, probability, one estimate per spec) are
    appended to ``samples`` when it is a list; the walk then covers every
    spec. Supports larger than ``cap`` are refused either way.
    """
    plans = [_Plan(design, big, spec) for spec in specs]
    design.check_cap(cap)
    return _summaries(design, plans, cap, samples)


def _summaries(design: Design, plans: list[_Plan], cap: int | None = None,
               samples: list | None = None) -> list[MomentSummary]:
    """One summary per plan; the support cap is checked by the caller, since
    closed-form induced moments are not bounded by it."""
    raw = [plan.moments(cap) for plan in plans]
    if samples is not None or None in raw:
        weight, walk = design._walk(cap)
        # Each plan's value at a support point is x / c: an integer numerator
        # over the plan's common denominator or, Rao-Blackwellized, its group
        # mean over 1. Plans without moments sum Σ w·x and Σ w·x² over the walk.
        values = [(plan.evaluator(cap), 1) if plan.spec.rao_blackwell else plan._scaled()
                  for plan in plans]
        sums = {j: [0, 0] for j, moments in enumerate(raw) if moments is None}
        probability: dict[int, Fraction] = {}
        frame = design.frame
        for positions, w in walk:
            xs = [value(positions) for value, _ in values]
            for j, acc in sums.items():
                acc[0] += w * xs[j]
                acc[1] += w * xs[j] * xs[j]
            if samples is not None:
                p = probability.get(w) or probability.setdefault(w, Fraction(w, weight))
                samples.append((frozenset(map(frame.__getitem__, positions)), p,
                                tuple(Fraction(x, c) for x, (_, c) in zip(xs, values))))
        for j, (first, second) in sums.items():
            c = values[j][1]
            raw[j] = Fraction(first, weight * c), Fraction(second, weight * c * c)
    summaries = []
    for plan, (mean, square) in zip(plans, raw):
        # The probabilities sum to exactly one, so these equal the
        # probability-weighted squared deviations from the mean and target.
        target = plan.big.theta() / plan.div
        summaries.append(MomentSummary(mean, square - mean * mean,
                                       square - 2 * target * mean + target * target,
                                       target, plan.spec.scale, design.size))
    return summaries


def exact_moments(design: Design, big: Big, spec: EstimatorSpec,
                  cap: int | None = None) -> MomentSummary:
    """Expectation, variance and MSE: in closed form under SRSWOR, by
    enumerating the design for Rao-Blackwellized specs other than rb:ht
    and for listed designs."""
    (summary,) = enumerate_moments(design, big, [spec], cap)
    return summary


@dataclass(frozen=True)
class MonteCarloSummary:
    """Replicated estimates of the design moments, with standard errors."""

    mean: float
    variance: float
    mse: float
    se_mean: float
    se_variance: float
    se_mse: float
    target: float
    scale: str
    replicates: int
    seed: int


def monte_carlo_moments(design: Design, big: Big, spec: EstimatorSpec,
                        replicates: int, seed: int,
                        cap: int | None = None) -> MonteCarloSummary:
    """Estimate the design moments from seeded replicate draws.

    Calls with one design, ``int`` seed and replicate count read one draw
    stream, kept by the design (``Design._stream``) up to its bound."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    evaluate = _Plan(design, big, spec).evaluator(cap, operator.truediv)
    values = list(map(evaluate, design._stream(seed, replicates)))
    r = replicates
    mean = math.fsum(values) / r
    target = float(big.theta() / _scale_divisor(design, spec.scale))
    m2 = math.fsum((x - mean) ** 2 for x in values) / r
    m4 = math.fsum((x - mean) ** 4 for x in values) / r
    variance = m2 * r / (r - 1) if r > 1 else 0.0
    mse = math.fsum((x - target) ** 2 for x in values) / r
    q4 = math.fsum((x - target) ** 4 for x in values) / r
    se_mean = math.sqrt(m2 / r)
    se_variance = math.sqrt(max(m4 - m2 * m2, 0.0) / r)
    se_mse = math.sqrt(max(q4 - mse * mse, 0.0) / r)
    return MonteCarloSummary(mean, variance, mse, se_mean, se_variance, se_mse,
                             target, spec.scale, replicates, seed)


@dataclass(frozen=True)
class DeltaMatrix:
    """Motif-pair matrix whose y-weighted sum is Var(HH) - Var(HT)."""

    keys: tuple[str, ...]
    entries: Mapping[tuple[str, str], Fraction]

    def entry(self, k: str, l: str) -> Fraction:
        return self.entries[(k, l)]

    def quadratic_form(self, y: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for (k, l), value in self.entries.items():
            total += y[k] * y[l] * value
        return total


def delta_matrix(big: Big, design: Design, weights: WeightScheme) -> DeltaMatrix:
    """Exact variance-difference matrix for the given weight scheme.

    Entry (k,l) is the double sum of π_ij ω_ik ω_jl / (π_i π_j) over the
    ancestor sets, minus π_(kl) / (π_(k) π_(l)). Pairs that can never be
    selected together are refused. Under SRSWOR π_ij / (π_i π_j) takes one
    value off the diagonal, so the double sum needs only the overlap
    Σ_i ω_ik ω_il over the shared ancestors. More than
    ``design.DEFAULT_ENUMERATION_CAP`` entries are refused before any is
    priced.
    """
    keys, cap = big._keys, _design.DEFAULT_ENUMERATION_CAP
    if len(keys) ** 2 > cap:
        raise EnumerationCapError(
            f"variance-difference matrix over {len(keys)} motifs has {len(keys) ** 2} "
            f"entries, above the cap of {cap}")
    row = _weight_rows(big, weights)
    rows = [row(key) for key in keys]
    sets = [frozenset(positions) for positions in big._beta.values()]
    price, by_size = design._pricer(big.frame)
    if by_size is not None:
        same = by_size(1, 1, 1)
        apart = by_size(1, 1, 2) if len(design.frame) > 1 else Fraction(0)

        def ratio(A: frozenset[int], B: frozenset[int], shared: int) -> Fraction:
            return by_size(len(A), len(B), len(A) + len(B) - shared)

        def unit_sum(a: int, b: int, shared: frozenset[int]) -> Fraction:
            # Every row of ω sums to one, so the off-diagonal part is `apart`;
            # a custom row may leave some shared ancestors out.
            if not shared:
                return apart
            row_a, row_b = rows[a], rows[b]
            return apart + (same - apart) * _dot((row_a[p], row_b[p]) for p in shared
                                                 if p in row_a and p in row_b)
    else:
        pi = functools.cache(price)
        unit = [frozenset((p,)) for p in range(len(big.frame))]

        def ratio(A: frozenset[int], B: frozenset[int], shared: int) -> Fraction:
            pi_a, pi_b = pi(A), pi(B)
            return (pi_a + pi_b - pi(A | B)) / (pi_a * pi_b)

        def unit_sum(a: int, b: int, shared: frozenset[int]) -> Fraction:
            return sum((ratio(unit[i], unit[j], i == j) * w_i * w_j
                        for i, w_i in rows[a].items() for j, w_j in rows[b].items()),
                       Fraction(0))

    entries: dict[tuple[str, str], Fraction] = {}
    for a, k in enumerate(keys):
        for b in range(a, len(keys)):
            l, shared = keys[b], sets[a] & sets[b]
            value = unit_sum(a, b, shared)
            motifs = ratio(sets[a], sets[b], len(shared))
            if motifs == 0:
                raise DesignError(
                    f"motifs {k!r} and {l!r} have zero joint inclusion probability")
            entries[(k, l)] = entries[(l, k)] = value - motifs
    return DeltaMatrix(keys, entries)


def srswor_equal_share_delta(big: Big, design: Design) -> DeltaMatrix:
    """Closed form of the variance-difference matrix for equal-share
    weights under simple random sampling without replacement.

    With ω_ik = 1/m_k, the SRSWOR entry of ``delta_matrix``,
    apart + (same - apart)·Σ_i ω_ik ω_il - π_(kl)/(π_(k)π_(l)), is the
    paper's N²(1-n/N)/(n(N-1))·m_kl/(m_k m_l) + N(n-1)/(n(N-1))
    - π_(kl)/(π_(k)π_(l)), from the ancestor-set sizes m_k, m_l and their
    overlap m_kl; so this is that matrix. Refuses more than
    ``design.DEFAULT_ENUMERATION_CAP`` entries, as ``delta_matrix`` does."""
    if design.kind != SrsworDesign.kind:
        raise DesignError("closed form requires a simple random sampling design")
    if len(design.frame) < 2:
        raise DesignError("closed form needs a frame of at least 2 units")
    return delta_matrix(big, design, WeightScheme.equal_share())


def variance_difference(delta: DeltaMatrix, motifs: MotifSet) -> Fraction:
    """Var(HH) - Var(HT) on the total scale, from the matrix."""
    return delta.quadratic_form({key: motifs.y(key) for key in delta.keys})


def _induced_plan(motifs: MotifSet, design: Design, scale: str) -> _Plan:
    """HT on the Big whose β_k are the member sets, a motif entering only
    when the sample contains all of its members."""
    for m in motifs:
        if not m.members:
            raise DesignError(f"motif {m.key!r} has no member set")
        if design.inclusion(m.members, fully_selected=True) == 0:
            raise DesignError(
                f"motif {m.key!r} can never be fully selected under this design")
    members = Big(design.frame, motifs, {m.key: m.members for m in motifs},
                  AncestorRule.motif_only())
    return _Plan(design, members, EstimatorSpec(HT, scale=scale), fully_selected=True)


def induced_ht_moments(motifs: MotifSet, design: Design,
                       scale: str = TOTAL) -> MomentSummary:
    """Exact moments of the fully-selected-motif HT estimator.

    Under SRSWOR they come from the pair probabilities, grouped by set
    sizes, so no support is walked and none is refused as too large; a
    listed design is walked once."""
    (summary,) = _summaries(design, [_induced_plan(motifs, design, scale)])
    return summary
