"""Code-embedded example populations and their reference reproductions.

Two builtins ship with the package. ``thompson1990`` is the 5-grid
adaptive-cluster population with y-values 1, 0, 2, 10, 1000 (each grid
labeled by its y-value, neighbours adjacent in that sequence, threshold 5,
initial design SRSWOR n=2). ``table4-bigs`` is a pair of transcribed
incidence graphs over a 40-unit frame: three cluster motifs with 4
ancestors each at the 2-stage horizon, and four motifs with ancestor sets
of sizes 15, 16, 14 and 12 at the 4-stage horizon. Ancestor sets beyond
the published sizes are filled deterministically; the published successor
counts for the 2-stage case are carried alongside for inverse-alpha
weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .big import ACS_B, ACS_B_DAGGER, ACS_B_STAR, AncestorRule, Big, acs_big
from .design import Design, realize_sample_big
from .estimators import (HH, HT, MEAN_PER_UNIT, MODIFIED_HT, EstimatorSpec,
                         WeightScheme, enumerate_moments, estimate)
from .graph import Graph
from .motifs import Motif, MotifSet

THOMPSON1990 = "thompson1990"
TABLE4_BIGS = "table4-bigs"
BUILTIN_NAMES = (THOMPSON1990, TABLE4_BIGS)


@dataclass(frozen=True)
class BuiltinPopulation:
    """A named example population with its prebuilt incidence graphs."""

    name: str
    design: Design
    bigs: Mapping[str, Big]
    graph: Graph | None = None
    y: Mapping[str, Fraction] | None = None
    threshold: Fraction | None = None
    alpha_sizes: Mapping[str, Mapping[str, int]] | None = None


def thompson1990() -> BuiltinPopulation:
    """Five grids in a row, one two-grid network, one edge grid."""
    labels = ("1", "0", "2", "10", "1000")
    grid = Graph(labels, [("1", "0"), ("0", "2"), ("2", "10"), ("10", "1000")])
    y = {u: Fraction(u) for u in labels}
    threshold = Fraction(5)
    bigs = {
        ACS_B: acs_big(grid, y, threshold, AncestorRule.acs_b()),
        ACS_B_STAR: acs_big(grid, y, threshold, AncestorRule.acs_b_star()),
        ACS_B_DAGGER: acs_big(grid, y, threshold, AncestorRule.acs_b_dagger()),
    }
    design = Design.srswor(labels, 2)
    return BuiltinPopulation(THOMPSON1990, design, bigs, graph=grid, y=y,
                             threshold=threshold)


_T2_MEMBERS = {
    "A": ("3", "8", "21", "22"),
    "B": ("12", "13", "18", "31"),
    "C": ("12", "15", "18", "32"),
}

_T2_ALPHA = {"3": 1, "8": 1, "21": 1, "22": 1, "12": 2, "13": 2,
             "18": 3, "31": 1, "15": 1, "32": 2}

_T4_MEMBERS = dict(_T2_MEMBERS, D=("13", "18", "29", "32"))

# Published ancestor-set sizes at the 4-stage horizon are 15, 16, 14, 12;
# only the members, unit 3 (in A alone) and unit 12 (in B, C and D) are
# pinned down, so the remaining ancestors are fixed filler units.
_T4_EXTRA = {
    "A": ("1", "2", "4", "5", "6", "7", "9", "10", "11", "14", "16"),
    "B": ("17", "19", "20", "23", "24", "25", "26", "27", "28", "30", "33", "34"),
    "C": ("35", "36", "37", "38", "39", "40", "17", "19", "20", "23"),
    "D": ("12", "24", "25", "26", "27", "28", "30", "31"),
}


def _table4_big(members: Mapping[str, tuple[str, ...]],
                ancestors: Mapping[str, frozenset[str]], stages: int,
                frame: tuple[str, ...]) -> Big:
    motifs = MotifSet([Motif(key, frozenset(members[key])) for key in sorted(members)],
                      {key: Fraction(1) for key in members})
    return Big(frame, motifs, ancestors, AncestorRule.full(stages),
               stages_required=stages)


def table4_bigs() -> BuiltinPopulation:
    frame = tuple(str(i) for i in range(1, 41))
    beta2 = {key: frozenset(mem) for key, mem in _T2_MEMBERS.items()}
    beta4 = {key: frozenset(_T4_MEMBERS[key]) | frozenset(_T4_EXTRA[key])
             for key in _T4_MEMBERS}
    bigs = {
        "t2": _table4_big(_T2_MEMBERS, beta2, 2, frame),
        "t4": _table4_big(_T4_MEMBERS, beta4, 4, frame),
    }
    design = Design.srswor(frame, 2)
    return BuiltinPopulation(TABLE4_BIGS, design, bigs,
                             alpha_sizes={"t2": dict(_T2_ALPHA)})


def builtin_population(name: str) -> BuiltinPopulation:
    if name == THOMPSON1990:
        return thompson1990()
    if name == TABLE4_BIGS:
        return table4_bigs()
    raise ValueError(f"unknown builtin {name!r} (expected one of {', '.join(BUILTIN_NAMES)})")


TABLE1_SAMPLES = (("1", "0"), ("1", "2"), ("0", "2"), ("1", "10"), ("1", "1000"),
                  ("0", "10"), ("0", "1000"), ("2", "10"), ("2", "1000"),
                  ("10", "1000"))


@dataclass(frozen=True)
class StrategyColumn:
    """Per-sample estimates of one strategy, with its exact moments."""

    label: str
    estimates: tuple[Fraction, ...]
    expectation: Fraction
    variance: Fraction


@dataclass(frozen=True)
class Table1Reproduction:
    """All per-sample estimates for the 5-grid example, per-grid scale."""

    samples: tuple[tuple[str, str], ...]
    observed: tuple[tuple[str, ...], ...]
    columns: tuple[StrategyColumn, ...]

    def column(self, label: str) -> StrategyColumn:
        for col in self.columns:
            if col.label == label:
                return col
        raise KeyError(f"no strategy {label!r}")


def reproduce_thompson1990() -> Table1Reproduction:
    """Evaluate the three eligibility strategies on every initial sample.

    Columns are the modified HT on the unrestricted incidence graph, the
    plain HT on the self-only and network-only restrictions, and the
    Rao-Blackwellized modified HT; all on the per-grid scale.
    """
    pop = thompson1990()
    design = pop.design
    plans = (
        (f"{ACS_B}:modified-ht", pop.bigs[ACS_B],
         EstimatorSpec(MODIFIED_HT, scale=MEAN_PER_UNIT)),
        (f"{ACS_B_STAR}:ht", pop.bigs[ACS_B_STAR],
         EstimatorSpec(HT, scale=MEAN_PER_UNIT)),
        (f"{ACS_B_DAGGER}:ht", pop.bigs[ACS_B_DAGGER],
         EstimatorSpec(HT, scale=MEAN_PER_UNIT)),
        (f"{ACS_B}:rb:modified-ht", pop.bigs[ACS_B],
         EstimatorSpec(MODIFIED_HT, scale=MEAN_PER_UNIT, rao_blackwell=True)),
    )
    columns = []
    for label, big, spec in plans:
        samples = []
        (moments,) = enumerate_moments(design, big, [spec], samples=samples)
        by_sample = {seeds: est for seeds, _, (est,) in samples}
        estimates = tuple(by_sample[frozenset(s)] for s in TABLE1_SAMPLES)
        columns.append(StrategyColumn(label, estimates, moments.expectation,
                                      moments.variance))
    observed = tuple(realize_sample_big(pop.bigs[ACS_B], frozenset(s)).motifs
                     for s in TABLE1_SAMPLES)
    return Table1Reproduction(TABLE1_SAMPLES, observed, tuple(columns))


@dataclass(frozen=True)
class Table4Reproduction:
    """Point estimates for the transcribed 40-unit incidence graphs."""

    seeds: tuple[str, str]
    labels: tuple[tuple[str, str], ...]
    estimates: Mapping[tuple[str, str], Fraction]

    def value(self, big_label: str, estimator: str) -> Fraction:
        return self.estimates[(big_label, estimator)]


def reproduce_table4() -> Table4Reproduction:
    """Evaluate HT and both HH weightings for the initial sample {3, 12}."""
    pop = table4_bigs()
    seeds = ("3", "12")
    s0 = frozenset(seeds)
    estimates: dict[tuple[str, str], Fraction] = {}
    labels = []
    plans = (
        ("t2", EstimatorSpec(HT)),
        ("t2", EstimatorSpec(HH, WeightScheme.equal_share())),
        ("t2", EstimatorSpec(HH, WeightScheme.inverse_alpha(pop.alpha_sizes["t2"]))),
        ("t4", EstimatorSpec(HT)),
        ("t4", EstimatorSpec(HH, WeightScheme.equal_share())),
    )
    for big_label, spec in plans:
        big = pop.bigs[big_label]
        report = estimate(spec, pop.design, big, realize_sample_big(big, s0))
        labels.append((big_label, spec.label))
        estimates[(big_label, spec.label)] = report.estimate
    return Table4Reproduction(seeds, tuple(labels), estimates)


def reproduce(name: str):
    if name == THOMPSON1990:
        return reproduce_thompson1990()
    if name == TABLE4_BIGS:
        return reproduce_table4()
    raise ValueError(f"unknown builtin {name!r} (expected one of {', '.join(BUILTIN_NAMES)})")
