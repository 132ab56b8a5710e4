"""Point estimators and moment evaluation for Big sampling.

Covers the inclusion-probability (HT) estimator over observed motifs, the
initial-sample (HH) estimator with weight schemes, the eligibility-modified
HT estimator for adaptive cluster sampling, Rao-Blackwellization over the
realized motif set, the variance-difference matrix between the two
estimator families, and exact or Monte Carlo moments over a design.

All estimator arithmetic is exact rational; floats appear only in the
Monte Carlo summaries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .big import Big
from .design import (Design, SampleBig, SRSWOR, first_order_inclusion,
                     second_order_inclusion)
from .errors import DesignError, WeightError
from .motifs import MotifSet, to_fraction

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
    rows: dict[str, dict[str, Fraction]] = {}
    if scheme.kind == EQUAL_SHARE:
        for key in big.motifs.keys():
            beta = big.ancestors(key)
            share = Fraction(1, len(beta))
            rows[key] = {u: share for u in beta}
        return rows
    if scheme.kind == INV_ALPHA:
        def alpha_size(u: str) -> int:
            if scheme.alpha_sizes is not None:
                try:
                    size = int(scheme.alpha_sizes[u])
                except KeyError:
                    raise WeightError(f"no successor count supplied for unit {u!r}") from None
            else:
                size = len(big.successors(u))
            if size < 1:
                raise WeightError(f"unit {u!r} has successor count {size}; need >= 1")
            return size

        for key in big.motifs.keys():
            beta = big.ancestors(key)
            inverse = {u: Fraction(1, alpha_size(u)) for u in beta}
            norm = sum(inverse.values())
            rows[key] = {u: w / norm for u, w in inverse.items()}
        return rows
    table = scheme.table or {}
    for key in big.motifs.keys():
        rows[key] = {}
    for (u, key), w in table.items():
        if key not in rows:
            raise WeightError(f"weight given for unknown motif {key!r}")
        if u not in big.ancestors(key):
            raise WeightError(f"weight on {u!r}->{key!r}, but {u!r} is not an ancestor")
        rows[key][u] = w
    for key, row in rows.items():
        total = sum(row.values(), Fraction(0))
        if total != 1:
            raise WeightError(
                f"weights for motif {key!r} sum to {total}, must be exactly 1")
    return rows


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


def _scale_divisor(big: Big, scale: str) -> int:
    if scale == TOTAL:
        return 1
    if scale == MEAN_PER_UNIT:
        return len(big.frame)
    raise ValueError(f"unknown scale {scale!r}")


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
    beta = {key: frozenset([key]) if key in edge_grids else big.ancestors(key)
            for key in big.motifs.keys()}
    return Big(big.frame, big.motifs, beta, big.rule, acs=big.acs)


def _observed(big: Big, seeds: Iterable[str]) -> frozenset[str]:
    """The motifs of ``big`` that an initial sample observes."""
    return frozenset().union(*(big.successors(u) for u in seeds))


class _Plan:
    """One estimator compiled against a design and a Big.

    Every estimator here is a sum of terms value / π / divisor, one per
    row that the initial sample hits. HT has one row per motif k, hit when
    the sample meets β_k, with value y_k; HH has one row per frame unit i,
    hit when i is selected, with value z_i; modified HT is HT on the
    eligibility Big. Rao-Blackwellization conditions on the motif set
    observed on the original Big.
    """

    def __init__(self, design: Design, big: Big, spec: EstimatorSpec):
        self.design = design
        self.big = big
        self.spec = spec
        self.div = _scale_divisor(big, spec.scale)
        if spec.kind == HH:
            weights = resolve_weights(big, spec.weights)
            self.rows = big.frame
            self.select = lambda unit: (unit,)
            self.value = lambda unit: sum(
                (weights[key][unit] * big.motifs.y(key) for key in big.successors(unit)),
                Fraction(0))
            self.pi = design.unit_inclusion
        else:
            terms = _eligibility_big(big) if spec.kind == MODIFIED_HT else big
            self.rows = terms.motifs.keys()
            self.select = terms.successors
            self.value = big.motifs.y
            self.pi = lambda key: first_order_inclusion(design, terms, key)

    def report(self, seeds: Iterable[str]) -> EstimatorReport:
        """The estimate with a (row, π, share) entry for each row hit, in row order.

        Only the rows hit are priced, so one report stays cheap."""
        hit = {row for unit in seeds for row in self.select(unit)}
        rows = []
        total = Fraction(0)
        for row in self.rows:
            if row in hit:
                pi = self.pi(row)
                part = self.value(row) / pi / self.div
                rows.append((row, pi, part))
                total += part
        return EstimatorReport(total, self.spec.scale, tuple(rows))

    def _unconditioned(self) -> Callable[[Iterable[str]], Fraction]:
        term = {row: self.value(row) / self.pi(row) / self.div for row in self.rows}
        index = {unit: tuple(self.select(unit)) for unit in self.big.frame}

        def evaluate(seeds: Iterable[str]) -> Fraction:
            hit = set()
            for unit in seeds:
                hit.update(index[unit])
            return sum((term[row] for row in hit), Fraction(0))

        return evaluate

    def _support(self, cap: int | None):
        """(observed motif set, initial sample, probability) over the design."""
        for seeds, p in self.design.enumerate(cap):
            yield _observed(self.big, seeds), seeds, p

    def evaluator(self, cap: int | None = None) -> Callable[[Iterable[str]], Fraction]:
        """Seeds -> estimate; one draw costs the successor lists of its seeds."""
        base = self._unconditioned()
        if not self.spec.rao_blackwell:
            return base
        groups: dict[frozenset[str], tuple[Fraction, Fraction]] = {}
        for observed, seeds, p in self._support(cap):
            num, den = groups.get(observed, (Fraction(0), Fraction(0)))
            groups[observed] = (num + p * base(seeds), den + p)
        means = {observed: num / den for observed, (num, den) in groups.items()}
        return lambda seeds: means[_observed(self.big, seeds)]

    def conditioned(self, observed: SampleBig, cap: int | None = None) -> EstimatorReport:
        """Rao-Blackwell report: one row per initial sample observing the same motifs."""
        base = self._unconditioned()
        target = frozenset(observed.motifs)
        points = [(seeds, p, base(seeds)) for motifs, seeds, p in self._support(cap)
                  if motifs == target]
        den = sum((p for _, p, _ in points), Fraction(0))
        if den == 0:
            raise DesignError("no initial sample realizes the observed motif set")
        num = sum((p * est for _, p, est in points), Fraction(0))
        rows = tuple((" ".join(sorted(seeds)), p / den, est) for seeds, p, est in points)
        return EstimatorReport(num / den, self.spec.scale, rows)


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


def sample_evaluator(design: Design, big: Big, spec: EstimatorSpec,
                     cap: int | None = None) -> Callable[[Iterable[str]], Fraction]:
    """Compile the spec into a fast seeds -> estimate function.

    Per-row terms are computed once up front; Rao-Blackwellized specs
    average over the design support grouped by observed motif set.
    """
    return _Plan(design, big, spec).evaluator(cap)


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


def enumerate_moments(design: Design, big: Big, specs: Iterable[EstimatorSpec],
                      cap: int | None = None,
                      samples: list | None = None) -> list[MomentSummary]:
    """Exact moments of each spec from one walk over the design support.

    The walk accumulates Σp·x and Σp·x² per spec, so no support point is
    kept, unless ``samples`` is a list: each point is then appended to it
    as (initial sample, probability, one estimate per spec).
    """
    specs = list(specs)
    evaluators = [sample_evaluator(design, big, spec, cap=cap) for spec in specs]
    first = [Fraction(0)] * len(specs)
    second = [Fraction(0)] * len(specs)
    support = 0
    for seeds, p in design.enumerate(cap):
        estimates = tuple(evaluate(seeds) for evaluate in evaluators)
        for j, est in enumerate(estimates):
            weighted = p * est
            first[j] += weighted
            second[j] += weighted * est
        support += 1
        if samples is not None:
            samples.append((seeds, p, estimates))
    summaries = []
    for spec, mean, square in zip(specs, first, second):
        # The probabilities sum to exactly one, so these equal the
        # probability-weighted squared deviations from the mean and target.
        target = big.theta() / _scale_divisor(big, spec.scale)
        summaries.append(MomentSummary(mean, square - mean * mean,
                                       square - 2 * target * mean + target * target,
                                       target, spec.scale, support))
    return summaries


def exact_moments(design: Design, big: Big, spec: EstimatorSpec,
                  cap: int | None = None) -> MomentSummary:
    """Expectation, variance and MSE by full enumeration of the design."""
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
    """Estimate the design moments from seeded replicate draws."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    rng = random.Random(seed)
    evaluate = sample_evaluator(design, big, spec, cap=cap)
    values = [float(evaluate(design.draw(rng))) for _ in range(replicates)]
    r = replicates
    mean = math.fsum(values) / r
    target = float(big.theta() / _scale_divisor(big, spec.scale))
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
    selected together are refused.
    """
    keys = tuple(big.motifs.keys())
    resolved = resolve_weights(big, weights)
    pi_unit = {u: design.unit_inclusion(u) for u in big.frame}
    ratio: dict[tuple[str, str], Fraction] = {}

    def pair_ratio(i: str, j: str) -> Fraction:
        got = ratio.get((i, j))
        if got is None:
            got = design.pair_inclusion(i, j) / (pi_unit[i] * pi_unit[j])
            ratio[(i, j)] = got
            ratio[(j, i)] = got
        return got

    entries: dict[tuple[str, str], Fraction] = {}
    for a, k in enumerate(keys):
        for l in keys[a:]:
            joint = second_order_inclusion(design, big, k, l)
            if joint == 0:
                raise DesignError(
                    f"motifs {k!r} and {l!r} have zero joint inclusion probability")
            first = Fraction(0)
            for i, w_ik in resolved[k].items():
                for j, w_jl in resolved[l].items():
                    first += pair_ratio(i, j) * w_ik * w_jl
            value = first - joint / (first_order_inclusion(design, big, k)
                                     * first_order_inclusion(design, big, l))
            entries[(k, l)] = value
            entries[(l, k)] = value
    return DeltaMatrix(keys, entries)


def srswor_equal_share_delta(big: Big, design: Design) -> DeltaMatrix:
    """Closed form of the variance-difference matrix for equal-share
    weights under simple random sampling without replacement.

    Uses only the ancestor-set sizes m_k, m_l and overlap m_kl."""
    if design.kind != SRSWOR:
        raise DesignError("closed form requires a simple random sampling design")
    n = design.n
    N = len(design.frame)
    if N < 2:
        raise DesignError("closed form needs a frame of at least 2 units")
    keys = tuple(big.motifs.keys())
    lead = Fraction(N * N, n * (N - 1)) * (1 - Fraction(n, N))
    tail = Fraction(N * (n - 1), n * (N - 1))
    entries: dict[tuple[str, str], Fraction] = {}
    for a, k in enumerate(keys):
        for l in keys[a:]:
            beta_k = big.ancestors(k)
            beta_l = big.ancestors(l)
            m_k = len(beta_k)
            m_l = len(beta_l)
            m_kl = len(beta_k & beta_l)
            joint = second_order_inclusion(design, big, k, l)
            if joint == 0:
                raise DesignError(
                    f"motifs {k!r} and {l!r} have zero joint inclusion probability")
            value = (lead * Fraction(m_kl, m_k * m_l) + tail
                     - joint / (first_order_inclusion(design, big, k)
                                * first_order_inclusion(design, big, l)))
            entries[(k, l)] = value
            entries[(l, k)] = value
    return DeltaMatrix(keys, entries)


def variance_difference(delta: DeltaMatrix, motifs: MotifSet) -> Fraction:
    """Var(HH) - Var(HT) on the total scale, from the matrix."""
    return delta.quadratic_form({key: motifs.y(key) for key in delta.keys})


def induced_inclusion(design: Design, members: frozenset[str]) -> Fraction:
    """Probability that every member is selected in the initial sample.

    This is the inclusion probability of a motif under the observation
    procedure that records only edges among initially selected nodes."""
    members = frozenset(members)
    if design.kind == SRSWOR:
        N = len(design.frame)
        n = design.n
        m = len(members)
        if m > n:
            return Fraction(0)
        return Fraction(math.comb(N - m, n - m), math.comb(N, n))
    total = Fraction(0)
    for point, p in design.points:
        if members <= point:
            total += p
    return total


def _induced_terms(motifs: MotifSet, design: Design) -> list[tuple[frozenset[str], Fraction, Fraction]]:
    """(members, y, probability of full selection) per motif."""
    terms = []
    for m in motifs:
        if m.members is None:
            raise DesignError(f"motif {m.key!r} has no member set")
        pi = induced_inclusion(design, m.members)
        if pi == 0:
            raise DesignError(
                f"motif {m.key!r} can never be fully selected under this design")
        terms.append((m.members, motifs.y(m.key), pi))
    return terms


def induced_ht_evaluator(motifs: MotifSet, design: Design,
                         scale: str = TOTAL) -> Callable[[Iterable[str]], Fraction]:
    """Seeds -> HT estimate when motifs are observed only if fully selected."""
    div = len(design.frame) if scale == MEAN_PER_UNIT else 1
    terms = [(members, y / pi / div) for members, y, pi in _induced_terms(motifs, design)]

    def evaluate(seeds: Iterable[str]) -> Fraction:
        s0 = frozenset(seeds)
        return sum((t for members, t in terms if members <= s0), Fraction(0))

    return evaluate


def induced_ht_moments(motifs: MotifSet, design: Design,
                       scale: str = TOTAL) -> MomentSummary:
    """Exact moments of the fully-selected-motif HT estimator.

    Works from pairwise joint selection probabilities, so it stays cheap
    even when the design support is too large to enumerate."""
    div = len(design.frame) if scale == MEAN_PER_UNIT else 1
    items = _induced_terms(motifs, design)
    theta = sum((y for _, y, _ in items), Fraction(0))
    second = Fraction(0)
    for members_k, y_k, pi_k in items:
        for members_l, y_l, pi_l in items:
            joint = induced_inclusion(design, members_k | members_l)
            second += y_k * y_l * joint / (pi_k * pi_l)
    variance = (second - theta * theta) / (div * div)
    target = theta / div
    return MomentSummary(target, variance, variance, target, scale, design.size)
