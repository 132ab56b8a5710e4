"""Graph sampling via bipartite incidence graphs.

Represent a graph sampling design as a bipartite incidence graph from
sampling units to motifs, where an edge means that selecting the unit
guarantees observing the motif. On top of that representation the package
computes exact inclusion probabilities, evaluates Horvitz-Thompson and
Hansen-Hurwitz style estimators, Rao-Blackwellizes them, and measures
their exact or simulated design moments.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (BigsError, DesignError, EnumerationCapError,
                     InfeasibleError, ParseError, WeightError)
from .graph import Graph, INFINITE, connected_components, geodesics, load_edge_list
from .motifs import (Motif, MotifClass, MotifSet, ancestor_neighborhood,
                     enumerate_motifs, motif_diameter, observation_diameter,
                     observation_distance)
from .sampling import (AcsObservation, SampleGraph, acs_sample, induced_sample,
                       motif_observed, snowball_sample)
from .design import (Design, SampleBig, first_order_inclusion,
                     parse_design_file, realize_sample_big)
from .big import (AcsContext, AncestorRule, Big, FeasibilityReport, acs_big,
                  check_feasibility, dump_big, load_big, snowball_big)
from .estimators import (DeltaMatrix, EstimatorReport, EstimatorSpec,
                         MomentSummary, MonteCarloSummary, WeightScheme,
                         delta_matrix, enumerate_moments, estimate,
                         exact_moments, hh_estimate, ht_estimate,
                         induced_ht_moments, monte_carlo_moments,
                         rao_blackwellize, resolve_weights,
                         srswor_equal_share_delta, variance_difference)
from .builtins import (BuiltinPopulation, builtin_population, reproduce,
                       reproduce_table4, reproduce_thompson1990,
                       table4_bigs, thompson1990)

__all__ = [
    "__version__",
    "BigsError", "DesignError", "EnumerationCapError", "InfeasibleError",
    "ParseError", "WeightError",
    "Graph", "INFINITE", "connected_components", "geodesics", "load_edge_list",
    "Motif", "MotifClass", "MotifSet", "ancestor_neighborhood",
    "enumerate_motifs", "motif_diameter", "observation_diameter",
    "observation_distance",
    "AcsObservation", "SampleGraph", "acs_sample", "induced_sample",
    "motif_observed", "snowball_sample",
    "Design", "SampleBig", "first_order_inclusion", "parse_design_file",
    "realize_sample_big",
    "AcsContext", "AncestorRule", "Big", "FeasibilityReport", "acs_big",
    "check_feasibility", "dump_big", "load_big", "snowball_big",
    "DeltaMatrix", "EstimatorReport", "EstimatorSpec", "MomentSummary",
    "MonteCarloSummary", "WeightScheme", "delta_matrix", "enumerate_moments",
    "estimate", "exact_moments", "hh_estimate", "ht_estimate",
    "induced_ht_moments", "monte_carlo_moments", "rao_blackwellize",
    "resolve_weights", "srswor_equal_share_delta", "variance_difference",
    "BuiltinPopulation", "builtin_population", "reproduce",
    "reproduce_table4", "reproduce_thompson1990", "table4_bigs",
    "thompson1990",
]
